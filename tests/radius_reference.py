"""The full-cube shell-maximum radius fit, for the tests.

fields.radius_estimate reads a field one k1 plane at a time.  This is the
algorithm it replaced, on the whole cube at once: every per-shell maximum,
representative |k| (the first mode in ravel order attaining the maximum)
and shell count in one pass, then the same decay fit.
"""
import numpy as np

from mg_spectra.fields import (_MIN_SHELLS, _SHELL_FLOOR,
                               InsufficientShellsError, RadiusEstimate,
                               SpectralField, wavenumber_norms)


def radius_estimate_full_cube(fld: SpectralField) -> RadiusEstimate:
    """radius_estimate on the whole cube: the same result, bit for bit."""
    kn = wavenumber_norms(fld.n).ravel()
    mag = np.abs(fld.coeffs.ravel())
    shell = np.rint(kn).astype(int)
    smax = int(shell.max())
    best = np.zeros(smax + 1)
    np.maximum.at(best, shell, mag)
    # representative |k|: first mode attaining the shell max
    rep = np.zeros(smax + 1)
    cand = np.flatnonzero((shell >= 1) & (mag > 0) & (mag == best[shell]))
    hit_shells, first = np.unique(shell[cand], return_index=True)
    rep[hit_shells] = kn[cand[first]]
    counts = np.bincount(shell, minlength=smax + 1)
    present = counts > 0
    present[0] = False
    rstar = rep[present]
    cstar = best[present]

    # exact-zero tail of >= 3 shells: trigonometric polynomial, entire field
    nonzero = np.flatnonzero(cstar)
    if nonzero.size and cstar.size - 1 - nonzero[-1] >= 3:
        return RadiusEstimate(radius=float("inf"), entire=True)

    use = cstar > _SHELL_FLOOR
    if int(np.sum(use)) < _MIN_SHELLS:
        raise InsufficientShellsError(
            "only %d shells above %g, need %d"
            % (int(np.sum(use)), _SHELL_FLOOR, _MIN_SHELLS))
    r = rstar[use]
    y = np.log(cstar[use])
    x = np.column_stack([np.ones_like(r), r, np.log(r)])
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    return RadiusEstimate(radius=max(0.0, -float(beta[1])), entire=False)
