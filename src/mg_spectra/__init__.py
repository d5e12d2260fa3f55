"""Spectral laboratory for the magneto-geostrophic active scalar equation.

The package is organized around five layers: exact Fourier multiplier
symbols (symbols), the continued-fraction eigenvalue solver and its
truncation-matrix oracle (spectrum), Gevrey-norm and analyticity-radius
machinery on spectral fields (fields), slice and full pseudo-spectral
time integrators (evolution), and the named experiments with their CLI
(experiments, cli).
"""

from .params import ModeParams, PhysicalParams
from .symbols import b_symbol, m_symbol, t_symbol
from .spectrum import (UnstableMode, alpha, analytic_bracket,
                       f_continued_fraction, solve_growth_rate,
                       solve_growth_rate_diffusive, solve_growth_rates,
                       sweep_growth_rates, truncated_matrix_eigenvalue)
from .fields import (SpectralField, accumulated, breakdown_criterion,
                     gevrey_norm, radius_estimate, radius_ode_linear,
                     radius_ode_refined)
from .evolution import evolve_full_slice, measure_growth_rate, nonlinear_steps

__version__ = "0.1.0"

__all__ = [
    "ModeParams", "PhysicalParams",
    "b_symbol", "m_symbol", "t_symbol",
    "UnstableMode", "alpha", "analytic_bracket", "f_continued_fraction",
    "solve_growth_rate", "solve_growth_rate_diffusive", "solve_growth_rates",
    "sweep_growth_rates", "truncated_matrix_eigenvalue",
    "SpectralField", "accumulated", "breakdown_criterion", "gevrey_norm",
    "radius_estimate", "radius_ode_linear", "radius_ode_refined",
    "evolve_full_slice", "measure_growth_rate", "nonlinear_steps",
    "__version__",
]
