import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mg_spectra.params import ModeParams, PhysicalParams
from mg_spectra import spectrum
from bisect_reference import bisect_lockstep

UNIT = ModeParams()

# growth rates cross-checked against the truncation-matrix eigenvalue to
# 1e-10 relative before freezing, and against a 50-digit root
# (test_growth_rate_table_50_digits)
SIGMA_TABLE = {
    (1, 1, 1, 1): 0.028619204092995829,
    (2, 1, 1, 1): 0.057238408185991657,
    (1, 2, 1, 1): 0.006033215637911659,
    (1, 1, 2, 1): 0.042543246501109286,
    (1, 1, 1, 2): 0.12975791897823891,
    (4, 1, 2, 3): 1.1464858403338622,
    (2, 2, 4, 1): 0.041175178957938013,
}


def _mode(a, m, k1, k2):
    return ModeParams(a=float(a), m=m, k1=k1, k2=k2)


def test_alpha_unit_values():
    assert spectrum.alpha(1, UNIT) == 13.0
    assert spectrum.alpha(2, UNIT) == 97.0
    assert spectrum.alpha(3, UNIT) == 397.0
    assert spectrum.alpha(4, UNIT) == 1153.0


def test_alpha_vectorized():
    p = np.array([1, 2, 3, 4])
    out = spectrum.alpha(p, UNIT)
    assert np.array_equal(out, [13.0, 97.0, 397.0, 1153.0])


def test_alpha_formula_general():
    mp = _mode(2.0, 3, 2, 4)
    p = 5
    mpv = mp.m * p
    om, mu = mp.phys.omega, mp.phys.mu
    K = mp.ksq
    num = 8 * om ** 2 * mpv ** 2 * (K + mpv ** 2) + 2 * mu ** 2 * mp.k2 ** 4
    den = mp.a * mu * mp.m * mp.k2 ** 2 * K
    assert spectrum.alpha(p, mp) == pytest.approx(num / den, rel=1e-15)


def test_analytic_bracket_unit():
    lo, hi = spectrum.analytic_bracket(UNIT)
    assert lo == pytest.approx(1.0 / np.sqrt(13.0 * 97.0), rel=1e-15)
    assert hi == pytest.approx(1.0 / np.sqrt(13.0 * 97.0 - 169.0), rel=1e-15)
    assert lo == pytest.approx(0.028160636, abs=1e-9)
    assert hi == pytest.approx(0.030261377, abs=1e-9)


def test_continued_fraction_depth_convergence():
    s = 0.0295
    f_shallow = spectrum.f_continued_fraction(2, s, UNIT, depth=8)
    f_deep = spectrum.f_continued_fraction(2, s, UNIT, depth=2048)
    f_auto = spectrum.f_continued_fraction(2, s, UNIT)
    assert f_auto == pytest.approx(f_deep, rel=1e-12)
    assert f_shallow == pytest.approx(f_deep, rel=1e-6)
    with pytest.raises(ValueError):
        spectrum.f_continued_fraction(2, s, UNIT, depth=2)


def test_pole_reported_below_bracket():
    lo, _ = spectrum.analytic_bracket(UNIT)
    with pytest.raises(spectrum.PoleError):
        spectrum.f_continued_fraction(1, 0.25 * lo, UNIT, depth=64)


@pytest.mark.parametrize("key,expected", sorted(SIGMA_TABLE.items()))
def test_growth_rate_table(key, expected):
    mode = spectrum.solve_growth_rate(_mode(*key))
    assert mode.sigma == pytest.approx(expected, rel=1e-12)
    assert mode.bracket_lo < mode.sigma < mode.bracket_hi


def _sigma_50_digits(a, m, k1, k2, depth=120):
    """Root of sigma alpha_1 = F_2(sigma) in 50-digit arithmetic, with
    F_p = 1/(sigma alpha_p - F_{p+1}) cut at depth and Omega = mu = 1,
    started from the frozen double and held to the analytic bracket."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ksq = k1 * k1 + k2 * k2
        al = [mpmath.mpf(8 * (m * p) ** 2 * (ksq + (m * p) ** 2) + 2 * k2 ** 4)
              / (a * m * k2 ** 2 * ksq) for p in range(1, depth + 1)]

        def h(sigma):
            f = mpmath.mpf(0)
            for alp in reversed(al[1:]):
                f = 1 / (sigma * alp - f)
            return sigma * al[0] - f

        root = mpmath.findroot(h, mpmath.mpf(SIGMA_TABLE[(a, m, k1, k2)]))
        lo = 1 / mpmath.sqrt(al[0] * al[1])
        hi = 1 / mpmath.sqrt(al[0] * al[1] - al[0] ** 2)
        assert lo < root < hi
        assert abs(h(root)) < mpmath.mpf(10) ** -40
        return root


@pytest.mark.parametrize("key,expected", sorted(SIGMA_TABLE.items()))
def test_growth_rate_table_50_digits(key, expected):
    # the 50-digit root rounded to the nearest double is the frozen value
    # or its neighbour
    root = float(_sigma_50_digits(*key))
    assert abs(root - expected) <= math.ulp(expected)


def test_growth_rate_scales_linearly_in_a():
    # alpha_p is proportional to 1/a, so sigma is proportional to a
    s1 = SIGMA_TABLE[(1, 1, 1, 1)]
    s2 = SIGMA_TABLE[(2, 1, 1, 1)]
    assert s2 == pytest.approx(2.0 * s1, rel=1e-13)


def test_unstable_mode_fields():
    mode = spectrum.solve_growth_rate(UNIT)
    assert mode.residual <= 1e-12 * 13.0
    assert mode.c_tilde[0] == 13.0
    assert -spectrum.f_continued_fraction(2, mode.sigma, UNIT) \
        == pytest.approx(-0.37204965320894590, rel=1e-10)
    # c_tilde alternates in sign until underflow kills the tail
    nz = np.flatnonzero(mode.c_tilde)
    signs = np.sign(mode.c_tilde[nz])
    assert np.array_equal(signs, (-1.0) ** nz)
    assert np.count_nonzero(mode.c_tilde) < mode.truncation_P


def test_matrix_oracle_agreement():
    for key in [(1, 1, 1, 1), (1, 1, 1, 2), (4, 1, 2, 3)]:
        mp = _mode(*key)
        mode = spectrum.solve_growth_rate(mp)
        lam = spectrum.truncated_matrix_eigenvalue(mp)
        assert abs(lam - mode.sigma) <= 1e-8 * mode.sigma


def _dense_top_eigenvalue(mp, kappa, P):
    # the truncated matrix built densely, as the oracle did before it took
    # the two bands
    ps = np.arange(1, P + 1)
    al = spectrum.alpha(ps, mp)
    off = 1.0 / np.sqrt(al[:-1] * al[1:])
    mat = np.diag(-kappa * (mp.ksq + (mp.m * ps) ** 2)) \
        + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(mat)[-1])


def test_tridiagonal_oracle_equals_dense_bitwise():
    # the 162 default oracle-xcheck jobs: {1, 2, 4}^4 at kappa 0 and 1e-3
    for key in itertools.product((1, 2, 4), repeat=4):
        mp = _mode(*key)
        for kappa in (0.0, 1e-3):
            assert spectrum.truncated_matrix_eigenvalue(mp, kappa, 128) \
                == _dense_top_eigenvalue(mp, kappa, 128)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.25, 4.0), m=st.integers(1, 4),
       k1=st.integers(1, 8), k2=st.integers(1, 8),
       kappa=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]), P=st.integers(8, 256))
def test_tridiagonal_oracle_matches_dense(a, m, k1, k2, kappa, P):
    mp = _mode(a, m, k1, k2)
    lam = spectrum.truncated_matrix_eigenvalue(mp, kappa, P)
    dense = _dense_top_eigenvalue(mp, kappa, P)
    assert abs(lam - dense) <= 1e-13 * abs(dense)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.25, 4.0), m=st.integers(1, 4),
       k1=st.integers(1, 8), k2=st.integers(1, 8),
       kappa=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
       frac=st.floats(-0.5, 1.5), p=st.integers(1, 3),
       depth=st.sampled_from([4, 8, spectrum._DEPTH, 200]))
def test_scalar_fraction_equals_one_column_recurrence(a, m, k1, k2, kappa,
                                                     frac, p, depth):
    # the scalar path on Python floats gives the batched kernel's bits; frac
    # < 1 reaches below the bracket, where the poles are
    mp = _mode(a, m, k1, k2)
    sigma = frac * spectrum.analytic_bracket(mp)[1]
    ksq = np.array([mp.ksq])

    def batched(q0, top):
        al = spectrum.alpha(np.arange(q0, top + 1), mp)[:, None]
        return spectrum._recurrence(np.array([sigma]), al, q0, kappa, ksq,
                                    m)[0][0]

    h = batched(1, spectrum._DEPTH + 2)
    char = spectrum._char(sigma, mp, kappa)
    assert np.isnan(char) == np.isnan(h)
    if np.isnan(h):
        with pytest.raises(spectrum.PoleError):
            spectrum.f_continued_fraction(2, sigma, mp, kappa=kappa)
    else:
        assert np.float64(char).tobytes() == h.tobytes()
    h = batched(p, p + depth)
    if not h > 0.0:
        with pytest.raises(spectrum.PoleError):
            spectrum.f_continued_fraction(p, sigma, mp, depth, kappa)
    else:
        f = spectrum.f_continued_fraction(p, sigma, mp, depth, kappa)
        assert type(f) is float
        assert np.float64(f).tobytes() == (1.0 / h).tobytes()


def test_diffusive_root_unit():
    mode = spectrum.solve_growth_rate_diffusive(UNIT, 1e-3)
    assert mode.sigma == pytest.approx(0.02405420743165633, rel=1e-10)
    assert mode.sigma < SIGMA_TABLE[(1, 1, 1, 1)]
    lam = spectrum.truncated_matrix_eigenvalue(UNIT, kappa=1e-3)
    assert abs(lam - mode.sigma) <= 1e-8 * mode.sigma


def test_diffusive_no_root_returns_none():
    mp = _mode(1, 2, 4, 1)
    assert spectrum.solve_growth_rate_diffusive(mp, 1e-3) is None
    # the matrix spectrum is then entirely non-positive
    lam = spectrum.truncated_matrix_eigenvalue(mp, kappa=1e-3)
    assert lam <= 1e-10


@pytest.fixture(scope="module")
def unit_kappa_c():
    """kappa where the dense top eigenvalue of UNIT crosses zero."""
    lo = 0.0
    hi = 2.0 * spectrum.truncated_matrix_eigenvalue(UNIT) / (UNIT.ksq + 1)
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if spectrum.truncated_matrix_eigenvalue(UNIT, kappa=mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


# kappa_c (1 - 10^-j) puts the root about 10^-j below the bracket top,
# under the six decades a log-scan for a sign change would cover
@pytest.mark.parametrize("j,lam_expected", [(6, 2.68e-8), (7, 2.68e-9)])
def test_near_critical_diffusive_root(unit_kappa_c, j, lam_expected):
    kappa = unit_kappa_c * (1.0 - 10.0 ** -j)
    lam = spectrum.truncated_matrix_eigenvalue(UNIT, kappa=kappa)
    assert lam == pytest.approx(lam_expected, rel=1e-2)
    mode = spectrum.solve_growth_rate_diffusive(UNIT, kappa)
    assert mode is not None
    assert abs(mode.sigma - lam) <= 1e-8 * lam


@pytest.mark.parametrize("j", [6, 7])
def test_near_critical_sweep_matches_scalar(unit_kappa_c, j):
    kappa = unit_kappa_c * (1.0 - 10.0 ** -j)
    _, _, sg = spectrum.sweep_growth_rates(kappa, 1.0, 1, UNIT.phys, 1, 1)
    mode = spectrum.solve_growth_rate_diffusive(UNIT, kappa)
    assert np.isfinite(sg[0, 0])
    assert sg[0, 0] == mode.sigma


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.25, 4.0), m=st.integers(1, 4),
       k1=st.integers(1, 8), k2=st.integers(1, 8),
       frac=st.floats(0.0, 1.5))
def test_root_matches_dense_oracle(a, m, k1, k2, frac):
    # the diffusive diagonal is at most -kappa (k1^2 + k2^2 + m^2), so every
    # root is gone once frac > 1/2; up to 1.5 the rootless side is drawn too
    mp = _mode(a, m, k1, k2)
    kappa = frac * 2.0 * spectrum.truncated_matrix_eigenvalue(mp) \
        / (mp.ksq + m * m)
    lam = spectrum.truncated_matrix_eigenvalue(mp, kappa=kappa)
    if kappa == 0.0:
        mode = spectrum.solve_growth_rate(mp)
    else:
        mode = spectrum.solve_growth_rate_diffusive(mp, kappa)
    if mode is None:
        assert lam <= 1e-10
    else:
        assert abs(mode.sigma - lam) <= 1e-8 * lam
    _, _, sg = spectrum.sweep_growth_rates(kappa, a, m, mp.phys, k1, k2)
    if mode is None:
        assert np.isnan(sg[-1, -1])
    else:
        assert sg[-1, -1] == mode.sigma


def test_diffusive_kills_all_roots_at_large_kappa():
    assert spectrum.solve_growth_rate_diffusive(UNIT, 1.0) is None


def test_growth_bound_constant_unit():
    c = spectrum.growth_bound_constant(1.0, 1, PhysicalParams())
    assert c == pytest.approx(1.0 / 258.0, rel=1e-15)


def test_diffusive_lower_bound():
    mp = _mode(1, 1, 31, 11)
    lb = spectrum.diffusive_lower_bound(mp, 1e-3)
    assert lb > 0
    mode = spectrum.solve_growth_rate_diffusive(mp, 1e-3)
    assert mode is not None and mode.sigma > lb
    # huge kappa drives the bound negative
    assert spectrum.diffusive_lower_bound(mp, 10.0) < 0


def test_predicted_optimal_mode():
    k1p, k2p = spectrum.predicted_optimal_mode(1e-2, 4.0, 1, PhysicalParams())
    assert k1p == pytest.approx(4.0 / 0.32, rel=1e-13)
    assert k2p == pytest.approx(2.0 / (2.0 * np.sqrt(2.0)) * 10.0, rel=1e-13)


def test_dynamo_bound():
    b = spectrum.dynamo_bound(1e-3, 4.0, PhysicalParams())
    assert b == pytest.approx(16.0 / 1.024, rel=1e-13)


def test_sweep_matches_scalar():
    phys = PhysicalParams()
    k1g, k2g, sg = spectrum.sweep_growth_rates(1e-2, 1.0, 1, phys, 8, 6)
    assert k1g.shape == (8, 6)
    for (i, j) in [(2, 1), (5, 3), (7, 5)]:
        mp = _mode(1, 1, int(k1g[i, j]), int(k2g[i, j]))
        mode = spectrum.solve_growth_rate_diffusive(mp, 1e-2)
        if mode is None:
            assert np.isnan(sg[i, j])
        else:
            assert sg[i, j] == pytest.approx(mode.sigma, rel=1e-9)


def _full_box_sweep(kappa, a, m, phys, k1_max, k2_max):
    """The sweep as one bisection over the whole box, rootless pairs
    included on the empty interval [0, 0]: the reference for the
    compacted sweep."""
    k1g, k2g = np.meshgrid(np.arange(1, k1_max + 1), np.arange(1, k2_max + 1),
                           indexing="ij")
    k2 = k2g.ravel().astype(float)
    ksq = k1g.ravel().astype(float) ** 2 + k2 * k2
    q = np.arange(1, spectrum._DEPTH + 3)[:, None]
    num = 8.0 * phys.omega * phys.omega * (m * q) ** 2 \
        * (ksq + (m * q) ** 2) + 2.0 * phys.mu * phys.mu * k2 ** 4
    al = num / (a * phys.mu * m * k2 ** 2 * ksq)

    def below(sigma):
        return spectrum._below(
            spectrum._recurrence(sigma, al, 1, kappa, ksq, m)[0])

    zero = np.zeros(ksq.shape)
    root = below(zero)
    hi = np.where(root, 1.0 / np.sqrt(al[0] * al[1] - al[0] * al[0]), 0.0)
    sigma = bisect_lockstep(below, zero, hi)
    return np.where(root, sigma, np.nan).reshape(k1g.shape)


@pytest.mark.parametrize("kappa,a,k1_max,k2_max", [
    (3e-3, 4.0, 40, 12), (1e-2, 1.0, 8, 6), (1e-2, 1.0, 1, 1),
    (1.0, 1.0, 8, 6)])
def test_sweep_bitwise_equals_full_box_bisection(kappa, a, k1_max, k2_max):
    phys = PhysicalParams()
    _, _, sg = spectrum.sweep_growth_rates(kappa, a, 1, phys, k1_max, k2_max)
    ref = _full_box_sweep(kappa, a, 1, phys, k1_max, k2_max)
    assert sg.shape == (k1_max, k2_max)
    assert np.array_equal(sg, ref, equal_nan=True)
    if kappa == 1.0:
        assert np.all(np.isnan(sg))  # no pair has a root, none is bisected


@settings(max_examples=60, deadline=None)
@given(log_kappa=st.floats(-3.5, 0.0), a=st.floats(1.0, 3.0),
       m=st.integers(1, 3), omega=st.floats(0.5, 2.0), mu=st.floats(0.5, 2.0),
       k1_max=st.integers(1, 80), k2_max=st.integers(1, 40))
def test_largest_only_sweep_keeps_the_argmax(log_kappa, a, m, omega, mu,
                                             k1_max, k2_max):
    # the full sweep is the lockstep bisection's, bit for bit; the pruned
    # one keeps its argmax, that root's bits and every root it solves
    phys = PhysicalParams.from_mu(omega=omega, mu=mu)
    kappa = 10.0 ** log_kappa
    full_counts, pruned_counts = [], []
    _, _, full = spectrum.sweep_growth_rates(kappa, a, m, phys, k1_max,
                                             k2_max, counters=full_counts)
    _, _, pruned = spectrum.sweep_growth_rates(
        kappa, a, m, phys, k1_max, k2_max, largest_only=True,
        counters=pruned_counts)
    assert np.array_equal(full, _full_box_sweep(kappa, a, m, phys, k1_max,
                                                k2_max), equal_nan=True)
    solved = ~np.isnan(pruned)
    assert np.array_equal(pruned[solved], full[solved])
    rooted = np.count_nonzero(~np.isnan(full))
    assert full_counts[0]["pairs_bisected"] == rooted
    assert pruned_counts[0]["pairs_bisected"] == rooted
    assert pruned_counts[0]["tests"] <= full_counts[0]["tests"]
    if not rooted:
        assert not solved.any()
        return
    i = np.nanargmax(full)
    assert np.nanargmax(pruned) == i
    assert float(pruned.flat[i]).hex() == float(full.flat[i]).hex()


@pytest.mark.parametrize("kappa,k1_max,k2_max", [
    (1e-2, 50, 29), (1e-2, 8, 6), (3e-3, 40, 12), (3e-3, 17, 9),
    (1e-3, 60, 30), (0.0, 6, 5)])
def test_largest_only_keeps_exact_ties(kappa, k1_max, k2_max):
    # every alpha column twice, side by side: both copies of the largest
    # root survive the pruning, and nanargmax takes the first
    k1, k2 = (g.ravel().astype(float) for g in np.meshgrid(
        np.arange(1, k1_max + 1), np.arange(1, k2_max + 1), indexing="ij"))
    k1, k2 = np.repeat(k1, 2), np.repeat(k2, 2)
    ksq = k1 * k1 + k2 * k2
    al = spectrum._alpha(np.arange(1, spectrum._DEPTH + 3)[:, None], 4.0, 1,
                         k2, ksq, 1.0, 1.0)
    _, full, _ = spectrum._bisect_slices(al, kappa, ksq, 1)
    _, pruned, _ = spectrum._bisect_slices(al, kappa, ksq, 1,
                                           largest_only=True)
    i = np.nanargmax(full)
    assert i % 2 == 0 and full[i + 1] == full[i]
    assert np.nanargmax(pruned) == i
    assert pruned[i] == pruned[i + 1] == full[i]


def test_sweep_memory_peak():
    # the default kappa = 1e-3 dynamo-scaling box: alpha is one
    # (levels x pairs) array of 23.8 MB, and the bisection runs on a
    # compressed copy of the 15,433 pairs with a root
    import tracemalloc
    tracemalloc.start()
    try:
        _, _, sg = spectrum.sweep_growth_rates(1e-3, 4.0, 1, PhysicalParams(),
                                               500, 90)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(~np.isnan(sg)) == 15433
    assert peak <= 40 * 2 ** 20


def test_cached_levels_are_read_only():
    mp = _mode(2, 1, 3, 2)
    spectrum.solve_growth_rate(mp)
    al = spectrum._levels(mp, 2, 2 + spectrum._DEPTH)
    assert al is spectrum._levels(mp, 2, 2 + spectrum._DEPTH)
    assert np.array_equal(al, spectrum.alpha(np.arange(2, 67), mp))
    assert not al.flags.writeable
    with pytest.raises(ValueError):
        al[0] = 0.0
    assert not spectrum._levels(mp, 1, 1).flags.writeable


def _scalar_solve(mp, kappa, P=128):
    if kappa == 0.0:
        return spectrum.solve_growth_rate(mp, P=P)
    return spectrum.solve_growth_rate_diffusive(mp, kappa, P=P)


def _assert_same_modes(batch, ref):
    assert len(batch) == len(ref)
    for got, want in zip(batch, ref):
        if want is None:
            assert got is None
            continue
        assert got.params == want.params
        assert (got.kappa, got.sigma, got.bracket_lo, got.bracket_hi,
                got.residual, got.truncation_P) == \
            (want.kappa, want.sigma, want.bracket_lo, want.bracket_hi,
             want.residual, want.truncation_P)
        assert np.array_equal(got.c_tilde, want.c_tilde)


@pytest.mark.parametrize("kappa,rootless", [(0.0, 0), (1e-3, 19)])
def test_batch_equals_scalar_solvers(kappa, rootless):
    # the sigma-table and oracle-xcheck modes {1, 2, 4}^4, bit for bit
    modes = [_mode(*key) for key in itertools.product((1, 2, 4), repeat=4)]
    batch = spectrum.solve_growth_rates(modes, kappa)
    _assert_same_modes(batch, [_scalar_solve(mp, kappa) for mp in modes])
    assert sum(mode is None for mode in batch) == rootless


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.tuples(st.floats(0.25, 4.0), st.integers(1, 4),
                               st.integers(1, 8), st.integers(1, 8)),
                     min_size=1, max_size=5),
       kappa=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
       P=st.integers(8, 40))
def test_batch_equals_scalar_on_mixed_modes(keys, kappa, P):
    # the batch does elementwise work on each column of alpha, so a mode's
    # root and eigenvector do not depend on the modes batched with it
    modes = [_mode(*key) for key in keys]
    _assert_same_modes(spectrum.solve_growth_rates(modes, kappa, P=P),
                       [_scalar_solve(mp, kappa, P) for mp in modes])


def test_batch_arguments():
    assert spectrum.solve_growth_rates([], 1e-3) == []
    with pytest.raises(ValueError):
        spectrum.solve_growth_rates([UNIT], -1e-3)
    with pytest.raises(ValueError):
        spectrum.solve_growth_rates([UNIT], P=1)


def test_batch_failures_name_the_mode(monkeypatch):
    modes = [UNIT, _mode(2, 1, 3, 2)]
    # a bracket turned upside down has no sign change
    monkeypatch.setattr(spectrum, "_bracket", lambda a1, a2: (
        1.0 / np.sqrt(a1 * a2 - a1 * a1), 1.0 / np.sqrt(a1 * a2)))
    with pytest.raises(spectrum.BracketError,
                       match=r"of mode \(a, m, k1, k2\) = \(1, 1, 1, 1\)"):
        spectrum.solve_growth_rates(modes)
    monkeypatch.undo()
    # one bisection step leaves a residual far above 1e-12 alpha_1
    monkeypatch.setattr(spectrum, "_MAX_BISECT", 1)
    with pytest.raises(spectrum.ConvergenceError,
                       match=r"of mode \(a, m, k1, k2\) = \(1, 1, 1, 1\)"):
        spectrum.solve_growth_rates(modes)
