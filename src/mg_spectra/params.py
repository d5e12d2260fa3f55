"""Parameter containers shared across the package."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the rotating magneto-convection model.

    omega is the rotation rate, eta the magnetic diffusivity and beta the
    strength of the imposed mean magnetic field.  The combination
    mu = beta**2 / eta is the only way beta and eta enter the velocity
    operator, so most routines consume mu.  The buoyancy diffusivity kappa
    is not a field: every solver takes it as an argument.
    """

    omega: float = 1.0
    eta: float = 1.0
    beta: float = 1.0
    # mu as requested from from_mu, where beta**2 / eta rounds it
    _mu: float = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.omega <= 0 or self.eta <= 0 or self.beta <= 0:
            raise ValueError("omega, eta, beta must be positive")

    @property
    def mu(self) -> float:
        return self.beta ** 2 / self.eta if self._mu is None else self._mu

    @classmethod
    def from_mu(cls, omega: float = 1.0, mu: float = 1.0) -> "PhysicalParams":
        """Build params realizing a given mu with eta = 1 (so beta = sqrt(mu)).

        .mu returns the given mu exactly, though beta**2 may round it.
        """
        if mu <= 0:
            raise ValueError("mu must be positive")
        phys = cls(omega=omega, eta=1.0, beta=mu ** 0.5)
        if phys.mu != mu:
            object.__setattr__(phys, "_mu", float(mu))
        return phys


@dataclass(frozen=True)
class ModeParams:
    """Steady state a*sin(m*x3) plus a fixed horizontal wavevector (k1, k2).

    Everything the continued-fraction spectrum of the linearized operator
    depends on: the steady-state amplitude a and vertical wavenumber m, the
    horizontal wavenumbers of the perturbation column, and the physical
    constants.
    """

    a: float = 1.0
    m: int = 1
    k1: int = 1
    k2: int = 1
    phys: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("steady-state amplitude a must be positive")
        if self.m < 1 or self.k1 < 1 or self.k2 < 1:
            raise ValueError("m, k1, k2 must be integers >= 1")

    @property
    def ksq(self) -> float:
        """k1^2 + k2^2, the squared horizontal wavenumber."""
        return float(self.k1 * self.k1 + self.k2 * self.k2)
