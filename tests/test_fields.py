import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mg_spectra import fields
from mg_spectra.evolution import steady_state_field
from mg_spectra.fields import (
    InsufficientShellsError,
    SamplingError,
    SpectralField,
    accumulated,
    breakdown_criterion,
    gevrey_norm,
    radius_estimate,
    radius_ode_linear,
    radius_ode_refined,
    sobolev_a,
)
from radius_reference import radius_estimate_full_cube


def _pair_field(n=3, amp=0.5, k=(1, 0, 1)):
    return SpectralField.from_modes(n, {k: amp,
                                        tuple(-v for v in k): amp})


def test_field_shape_validation():
    with pytest.raises(ValueError):
        SpectralField(np.zeros((4, 4, 4), dtype=complex))  # even side
    with pytest.raises(ValueError):
        SpectralField(np.zeros((3, 5, 3), dtype=complex))  # not a cube
    with pytest.raises(ValueError):
        SpectralField(np.zeros((5, 5), dtype=complex))  # fields are 3-d
    f = SpectralField(np.zeros((5, 5, 5), dtype=complex))
    assert f.n == 2


def test_field_owns_its_array():
    # a contiguous complex128 input is neither frozen nor shared
    c = np.zeros((3, 3, 3), dtype=complex)
    f = SpectralField(c)
    c[0, 0, 0] = 1.0
    assert f[(-1, -1, -1)] == 0.0
    assert not f.coeffs.flags.writeable
    # a read-only input, here another field's array, is kept as is
    assert SpectralField(f.coeffs).coeffs is f.coeffs


def test_field_copies_a_read_only_view():
    # a read-only view of a writable array would change with its base
    base = np.zeros((3, 3, 3), dtype=complex)
    view = base.view()
    view.flags.writeable = False
    f = SpectralField(view)
    base[0, 0, 0] = 1.0
    assert f.coeffs[0, 0, 0] == 0.0


def test_from_modes_and_getitem():
    f = _pair_field()
    assert f[(1, 0, 1)] == 0.5
    assert f[(-1, 0, -1)] == 0.5
    assert f[(0, 0, 0)] == 0.0
    # a wavevector outside the cube raises instead of wrapping to k + 2n + 1
    for k in ((-4, 0, 0), (4, 0, 0), (1, 0)):
        with pytest.raises(ValueError):
            f[k]
        with pytest.raises(ValueError):
            SpectralField.from_modes(3, {k: 1.0})


def test_wavenumber_norms_is_one_read_only_grid_per_n():
    kn = fields.wavenumber_norms(3)
    assert kn is fields.wavenumber_norms(3)
    assert not kn.flags.writeable
    k = np.arange(-3, 4)
    k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij")
    assert np.array_equal(kn, np.sqrt((k1 ** 2 + k2 ** 2 + k3 ** 2)
                                      .astype(float)))
    assert kn[3 + 1, 3 + 2, 3 - 2] == 3.0


def test_sobolev_a_hand_value():
    f = _pair_field(amp=0.5, k=(1, 0, 1))
    # a = sum |k|^{3/2} |c| over both conjugate modes, |k| = sqrt(2)
    expect = 2.0 * 2.0 ** 0.75 * 0.5
    assert sobolev_a(f) == pytest.approx(expect, rel=1e-14)


def test_gevrey_norm_hand_value():
    f = _pair_field(amp=0.5)
    tau, r = 0.5, 1.5
    w = 2.0 ** 1.5 * np.exp(2.0 * tau * np.sqrt(2.0))
    expect = np.sqrt(2.0 * w * 0.25)
    assert gevrey_norm(f, tau, r) == pytest.approx(expect, rel=1e-14)
    # zero mode is excluded
    g = SpectralField.from_modes(2, {(0, 0, 0): 7.0})
    assert gevrey_norm(g, 1.0, 2.0) == 0.0


def test_gevrey_norm_overflow():
    f = SpectralField.from_modes(40, {(40, 0, 1): 1.0, (-40, 0, -1): 1.0})
    with pytest.raises(fields.GevreyOverflowError):
        gevrey_norm(f, 20.0, 400.0)


def test_gevrey_norm_empty_shell_overflow():
    # the weight overflows on the empty corner shells of the n = 16 cube
    # (|k| = 27.7 at r = 110) and on none of the band's; the norm is that
    # of the band cube, populated only at |k| = 1
    assert gevrey_norm(steady_state_field(16, 1.0, 1), 0.5, 110) \
        == 1.165821990798562


def test_gevrey_norm_coefficient_overflow_names_its_shell():
    # |c|^2 overflows at |k| = 2 under a finite weight: a plain ValueError
    # that names that shell and |c|^2, not a weight overflow at the
    # cube's empty corner |k| = 20.78; a weighted term that overflows is
    # named the same way
    for amp, k, msg in ((1e200, 2, "|k| = 2: |c|^2 = inf"),
                        (1e150, 5, "|k| = 5: |c|^2 = 1e+300")):
        f = SpectralField.from_modes(12, {(k, 0, 0): amp, (-k, 0, 0): amp})
        with pytest.raises(ValueError) as err:
            gevrey_norm(f, 1.0, 3.0)
        assert err.type is ValueError
        assert msg in str(err.value)


@pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
def test_radius_estimate_exact_family(tau):
    n = 24
    k = np.arange(-n, n + 1)
    k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij")
    kn = np.sqrt((k1 ** 2 + k2 ** 2 + k3 ** 2).astype(float))
    with np.errstate(divide="ignore"):
        c = np.exp(-tau * kn) * np.where(kn > 0, kn, 1.0) ** -4.0
    c[n, n, n] = 0.0
    est = radius_estimate(SpectralField(c.astype(complex)))
    assert est.radius == pytest.approx(tau, rel=1e-10)
    assert not est.entire


def test_radius_estimate_band_limited_is_entire():
    f = _pair_field(n=16)
    est = radius_estimate(f)
    assert est.entire
    assert est.radius == np.inf


def test_radius_estimate_needs_shells():
    f = _pair_field(n=2)
    with pytest.raises(InsufficientShellsError):
        radius_estimate(f)


# shell levels from a few values, so that equal shell maxima recur
_LEVELS = (0.0, 1e-15, 2.0 ** -40, 0.125, 0.5, 1.0, 3.0)
# per-mode factors: quarter turns keep |c| exact, 0 and 0.5 stay below it
_UNITS = np.array([0.0, 0.5, 1.0, -1.0, 1j, -1j])


def _shell_field(n, levels, units):
    """The field whose mode k is levels[rint |k|] times units[k]."""
    shell = np.rint(fields.wavenumber_norms(n)).astype(int)
    return SpectralField(np.asarray(levels)[shell] * units)


def _same_as_full_cube(fld):
    """radius_estimate gives the full-cube fit's bits or its exception;
    returns which outcome it was."""
    try:
        expect = radius_estimate_full_cube(fld)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            radius_estimate(fld)
        assert err.type is type(exc) and str(err.value) == str(exc)
        return type(exc).__name__
    got = radius_estimate(fld)
    assert got.entire == expect.entire
    assert got.radius.hex() == expect.radius.hex()
    return "entire" if got.entire else "fit"


@pytest.mark.parametrize("zero_shells, floor_from, outcome", [
    ((), None, "fit"),                 # every mode of a shell ties
    ((3, 5), None, "fit"),             # all-zero shells inside the fit
    ((8, 9, 10), None, "entire"),      # an exact-zero tail
    ((), 4, "InsufficientShellsError"),  # shells 4.. under the floor
])
def test_radius_estimate_named_cases_match_full_cube(zero_shells, floor_from,
                                                     outcome):
    # n = 6 has shells 0..10, each holding modes in several k1 planes; two
    # in three modes of a shell attain its maximum, so the representative
    # is the first of many ties, at another |k| than the later ones
    levels = 2.0 ** -np.arange(11.0)
    levels[list(zero_shells)] = 0.0
    if floor_from is not None:
        levels[floor_from:] = 1e-15
    units = np.random.default_rng(5).choice(_UNITS, (13, 13, 13))
    fld = _shell_field(6, levels, units)
    assert _same_as_full_cube(fld) == outcome


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1),
       zero_tail=st.integers(0, 4), smooth=st.booleans())
def test_radius_estimate_matches_full_cube(n, seed, zero_tail, smooth):
    # random levels, or a decaying spectrum with random all-zero shells,
    # an optional exact-zero tail, and random per-mode factors that tie
    # the shell maximum across k1 planes at different |k|
    rng = np.random.default_rng(seed)
    top = int(np.rint(np.sqrt(3.0) * n))
    if smooth:
        levels = np.exp(-rng.uniform(0.05, 3.0) * np.arange(top + 1.0))
        levels[rng.random(top + 1) < 0.2] = 0.0
    else:
        levels = rng.choice(_LEVELS, top + 1)
    levels[top + 1 - zero_tail:] = 0.0
    _same_as_full_cube(_shell_field(n, levels,
                                    rng.choice(_UNITS, (2 * n + 1,) * 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_coefficients_refused(bad):
    # one non-finite coefficient at |k| = 2 of a decaying n = 12 field: a
    # ValueError of its own, not a radius, an inf sum or a Gevrey overflow
    c = _shell_field(12, np.exp(-0.5 * np.arange(22.0)),
                     np.ones((25, 25, 25))).coeffs.copy()
    c[12 + 2, 12, 12] = bad
    fld = SpectralField(c)
    for call in (lambda: radius_estimate(fld), lambda: sobolev_a(fld),
                 lambda: gevrey_norm(fld, 0.1, 3.0)):
        with pytest.raises(ValueError, match="coefficients must be finite") \
                as err:
            call()
        assert err.type is ValueError


def test_tracker_append_validation():
    t, a = [0.0, 0.05], [1.0, 1.1]
    assert accumulated(t, a)[-1] == pytest.approx(0.5 * 0.05 * 2.1)
    for bad_t, bad_a in (([0.0, 0.0], a),  # not strictly increasing
                         (t, [1.0, -1.0]), (t, [1.0, np.inf]),
                         ([0.0, 0.05, 0.1], a)):
        with pytest.raises(ValueError):
            radius_ode_refined(bad_t, bad_a, 1.0, 1.0)
        with pytest.raises(ValueError):
            breakdown_criterion(bad_t, bad_a, 1.0, 1.0)
    with pytest.raises(SamplingError):
        radius_ode_refined([0.0], [1.0], 1.0, 1.0)
    with pytest.raises(SamplingError):
        breakdown_criterion([0.0], [1.0], 1.0, 1.0)


def test_radius_ode_linear_clamps():
    t = np.linspace(0.0, 1.0, 11)
    tau, t_star = radius_ode_linear(0.4, 1.0, 1.0, t)
    assert t_star == pytest.approx(0.2)
    assert tau[0] == 0.4
    assert np.all(tau >= 0.0)
    assert tau[-1] == 0.0


def test_radius_ode_refined_closed_form():
    t = np.linspace(0.0, 1.0, 41)
    tau = radius_ode_refined(t, np.zeros(41), 0.7, 2.0, c_r=1.0)
    closed = 0.7 * np.exp(-4.0 * t)
    assert np.max(np.abs(tau - closed)) <= 1e-12


def test_refined_floor_time():
    # strong forcing drives tau down fast
    tau = radius_ode_refined(np.linspace(0.0, 4.0, 41), np.ones(41), 0.01,
                             1.0, c_r=1.0)
    assert np.min(tau) <= 1e-3


def test_breakdown_criterion_split():
    t = np.linspace(0.0, 1.0, 41)
    calm = np.full(41, 0.01)
    spike = np.where(t < 0.5, 0.0, 50.0)
    assert breakdown_criterion(t, calm, 0.7, 2.0, c_r=1.0) is True
    assert breakdown_criterion(t, spike, 0.1, 1.0, c_r=1.0) is False
