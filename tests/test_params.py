import pytest
from hypothesis import given, strategies as st

from mg_spectra.params import ModeParams, PhysicalParams


def test_defaults():
    phys = PhysicalParams()
    assert phys.omega == 1.0
    assert phys.eta == 1.0
    assert phys.beta == 1.0
    assert phys.mu == 1.0


def test_mu_property():
    phys = PhysicalParams(beta=3.0, eta=2.0)
    assert phys.mu == 4.5


def test_from_mu():
    phys = PhysicalParams.from_mu(omega=2.0, mu=5.0)
    assert phys.omega == 2.0
    assert phys.mu == pytest.approx(5.0)
    assert phys.eta == 1.0


def test_kappa_is_not_a_physical_param():
    # every solver takes kappa as an argument; a field would be ignored
    with pytest.raises(TypeError):
        PhysicalParams(kappa=0.1)
    with pytest.raises(TypeError):
        PhysicalParams.from_mu(mu=2.0, kappa=0.1)


@given(mu=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_from_mu_is_exact(mu):
    # beta = sqrt(mu) squares back to mu only up to rounding
    assert PhysicalParams.from_mu(mu=mu).mu == mu


@pytest.mark.parametrize("kwargs", [
    {"omega": 0.0},
    {"omega": -1.0},
    {"eta": 0.0},
    {"beta": 0.0},
])
def test_physical_validation(kwargs):
    with pytest.raises(ValueError):
        PhysicalParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"a": 0.0},
    {"a": -2.0},
    {"m": 0},
    {"m": -1},
    {"k1": 0},
    {"k2": 0},
    {"k1": -3},
])
def test_mode_validation(kwargs):
    with pytest.raises(ValueError):
        ModeParams(**kwargs)


def test_mode_ksq():
    mp = ModeParams(k1=3, k2=4)
    assert mp.ksq == 25
    assert ModeParams().ksq == 2


def test_frozen():
    mp = ModeParams()
    with pytest.raises(Exception):
        mp.a = 2.0
