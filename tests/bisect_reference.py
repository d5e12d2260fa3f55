"""The lockstep bisection, for the tests.

spectrum._bisect_slices retires each slice once its interval cannot
shrink, and with largest_only once it cannot hold the largest root.  This
is the loop it replaced: every entry steps until all of them have
converged, so each final midpoint is the one a retired entry keeps.
"""
import numpy as np

from mg_spectra import spectrum


def bisect_lockstep(below, lo, hi):
    """Bisect until no interval [lo, hi] can shrink; returns the midpoints.

    below(lo) holds and below(hi) does not.  lo and hi are arrays, each
    entry bisected on its own; below maps an array of sigmas to a mask.
    """
    for _ in range(spectrum._MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        go_lo = below(mid)
        lo = np.where(go_lo, mid, lo)
        hi = np.where(go_lo, hi, mid)
    return 0.5 * (lo + hi)
