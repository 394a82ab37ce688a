import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy import integrate

import levymult as lm
from levymult import measures
from levymult.exceptions import InvalidInputError, UnsupportedMeasureError
from levymult.lattice import PeriodicLattice
from levymult.measures import (
    dumps_measure,
    loads_measure,
    measure_from_dict,
    measure_to_dict,
    modulator_from_dict,
    modulator_to_dict,
)


def axes_measure_1d(weight=1.0):
    return lm.DiscreteLevyMeasure.from_atoms([([1.0], weight), ([-1.0], weight)])


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_rejects_origin_atom():
    with pytest.raises(InvalidInputError):
        lm.DiscreteLevyMeasure.from_atoms([([0.0], 1.0)])


def test_rejects_asymmetric_measure():
    with pytest.raises(InvalidInputError):
        lm.DiscreteLevyMeasure.from_atoms([([1.0], 1.0), ([-1.0], 2.0)])
    with pytest.raises(InvalidInputError):
        lm.DiscreteLevyMeasure.from_atoms([([1.0, 0.0], 1.0)])


def test_rejects_nonpositive_weight():
    with pytest.raises(InvalidInputError):
        lm.DiscreteLevyMeasure.from_atoms([([1.0], -1.0), ([-1.0], -1.0)])


@pytest.mark.parametrize("build", [
    lambda pts, w: lm.DiscreteLevyMeasure(pts, w),
    lambda pts, w: lm.TruncatedStableMeasure(1.0, 0.1, pts, w),
], ids=["discrete", "stable"])
def test_three_dimensional_atoms_are_rejected(build):
    # a 3-D stable measure was accepted, and its symbol evaluated to 0.174
    # at (1, 2, 3), though every exponent here is for d = 1 or 2
    with pytest.raises(InvalidInputError, match="dimension must be 1 or 2"):
        build(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))


@pytest.mark.parametrize("build", [
    lambda: lm.DiscreteLevyMeasure(np.zeros((0, 2)), []),
    lambda: lm.TruncatedStableMeasure(1.0, 0.1, np.zeros((0, 2)), []),
    lambda: PeriodicLattice((8,), 1.0, np.zeros((0, 1), dtype=int), [], []),
], ids=["discrete", "stable", "lattice"])
def test_empty_atom_list_is_rejected(build):
    # an empty measure gave a symbol that is 0 everywhere, with only a
    # degenerate-support warning to show for it
    with pytest.raises(InvalidInputError, match="at least one atom"):
        build()


def test_stable_validation():
    with pytest.raises(InvalidInputError):
        lm.TruncatedStableMeasure.axes(1, alpha=2.5, epsilon=1e-3)
    with pytest.raises(InvalidInputError):
        lm.TruncatedStableMeasure.axes(1, alpha=1.0, epsilon=-1.0)
    with pytest.raises(InvalidInputError):
        lm.TruncatedStableMeasure.axes(1, alpha=1.0, epsilon=2.0, outer_radius=1.0)


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------

def test_char_exponent_four_axis_atoms_at_pi():
    # each of the 4 atoms contributes cos(+-pi) - 1 = -2
    m = lm.DiscreteLevyMeasure.axes(2)
    assert lm.char_exponent(m, np.array([np.pi, np.pi])) == pytest.approx(-8.0, abs=1e-12)


def test_char_exponent_zero_frequency():
    for m in (lm.DiscreteLevyMeasure.axes(1),
              lm.TruncatedStableMeasure.axes(1, 1.2, 1e-3)):
        assert lm.char_exponent(m, np.zeros(m.dimension)) == 0.0


def test_char_exponent_rejects_nonfinite():
    m = lm.DiscreteLevyMeasure.axes(1)
    with pytest.raises(InvalidInputError):
        lm.char_exponent(m, np.array([np.nan]))
    with pytest.raises(InvalidInputError):
        lm.char_exponent(m, np.array([np.inf]))


@pytest.mark.parametrize("xi", [[1.0, 2.0, 3.0, 4.0], np.ones((3, 4)), 0.5])
def test_wrong_dimension_xi_rejected(xi):
    # a 4-vector against 2-D atoms must not reshape into two frequencies
    mod = lm.JumpModulator.axis_indicator(1)
    stable = lm.TruncatedStableMeasure.axes(2, 1.0, 0.1)
    for m in (lm.DiscreteLevyMeasure.axes(2), stable):
        with pytest.raises(InvalidInputError):
            lm.char_exponent(m, xi)
        with pytest.raises(InvalidInputError):
            lm.modulated_exponent(m, mod, xi)
    with pytest.raises(InvalidInputError):
        lm.char_exponent_stable_closed_form(stable, xi)


def quad_radial(b, alpha):
    """Independent oracle: integral_0^inf (cos(b r) - 1) r^(-1-alpha) dr."""
    split = 2 * np.pi / b
    core, _ = integrate.quad(lambda r: (np.cos(b * r) - 1) * r ** (-1 - alpha),
                             0, split, limit=300)
    tail_cos = integrate.quad(lambda r: r ** (-1 - alpha), split, np.inf,
                              weight="cos", wvar=b, limit=300)[0]
    return core + tail_cos - split ** (-alpha) / alpha


def test_stable_alpha1_against_quadrature_oracle():
    # the alpha = 1, b = 2 radial integral equals -pi
    oracle = quad_radial(2.0, 1.0)
    assert oracle == pytest.approx(-np.pi, abs=1e-9)
    st = lm.TruncatedStableMeasure.axes(1, alpha=1.0, epsilon=1e-9)
    # both +-1 atoms contribute the same radial integral
    assert lm.char_exponent(st, np.array([2.0])) == pytest.approx(2 * oracle, rel=1e-7)


def test_stable_closed_form_constant():
    # c_1 = -pi/2: sin(pi/2) = 1 and Gamma(2) = 1
    assert lm.stable_power_coefficient(1.0) == pytest.approx(-np.pi / 2, abs=1e-14)
    st = lm.TruncatedStableMeasure.axes(1, 1.0, 1e-6)
    val = lm.char_exponent_stable_closed_form(st, np.array([2.0]))
    assert val == pytest.approx(-2 * np.pi, abs=1e-12)


def test_stable_closed_form_alpha_half_oracle():
    # 2 * integral (cos r - 1) r^(-1.5) dr with the quadrature oracle
    oracle = 2 * quad_radial(1.0, 0.5)
    st = lm.TruncatedStableMeasure.axes(1, 0.5, 1e-6)
    val = lm.char_exponent_stable_closed_form(st, np.array([1.0]))
    assert val == pytest.approx(oracle, rel=1e-8)
    assert lm.char_exponent_stable_closed_form(st, np.zeros(1)) == 0.0


def test_stable_closed_form_rejects_bad_alpha():
    for bad in (0.0, 2.0, -1.0):
        with pytest.raises(InvalidInputError):
            lm.char_exponent_stable_closed_form(
                lm.TruncatedStableMeasure.axes(1, bad, 1e-6), np.ones(1))


@pytest.mark.parametrize("dirs, weights", [
    (np.tile([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], (3, 1)),
     -np.ones(12)),
    (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(3)),
    (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, np.nan])),
    (np.array([[1.0, 0.0], [np.inf, 0.0]]), np.ones(2)),
    (np.array([[1.0, 0.0]]), np.ones(1)),  # gave -pi/2 with no mirror atom
])
def test_stable_closed_form_rejects_bad_measure(dirs, weights):
    # when the closed form took raw arrays, negative weights gave +28.27 (an
    # exponent is <= 0); now it reads a measure, whose constructor rejects all
    with pytest.raises(InvalidInputError):
        lm.char_exponent_stable_closed_form(
            lm.TruncatedStableMeasure(1.0, 0.1, dirs, weights),
            np.array([1.0, 2.0]))


def test_truncated_vs_closed_form_converges():
    # the missing inner window contributes ~ b^2 eps^(2-alpha) / (2 (2-alpha))
    alpha, b = 1.3, 1.7
    closed = lm.char_exponent_stable_closed_form(
        lm.TruncatedStableMeasure.axes(1, alpha, 1.0), np.array([b]))
    prev = None
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        st = lm.TruncatedStableMeasure.axes(1, alpha, eps)
        err = abs(lm.char_exponent(st, np.array([b])) - closed)
        if prev is not None:
            assert err < prev
        rate_bound = 2 * b * b * eps ** (2 - alpha) / (2 * (2 - alpha))
        assert err <= rate_bound * 1.1
        prev = err
    assert prev < 1e-3


@settings(max_examples=40, deadline=None)
@given(st_.lists(st_.floats(-8, 8), min_size=2, max_size=2))
def test_psi_even_and_nonpositive(xi):
    m = lm.DiscreteLevyMeasure.from_atoms(
        [([1.0, 0.0], 0.5), ([-1.0, 0.0], 0.5),
         ([1.0, 1.0], 1.25), ([-1.0, -1.0], 1.25)])
    xi = np.asarray(xi)
    a = lm.char_exponent(m, xi)
    b = lm.char_exponent(m, -xi)
    assert a == b  # cosine evenness is exact in floating point
    assert a <= 0.0


def _radial_integral_quad(b: float, alpha: float, eps: float, outer: float,
                          tol: float = 1e-10) -> float:
    """Quadrature version of the radial integral (scalar b).

    An infinite window splits at r = 1 scale and uses an oscillatory-weight
    rule for the tail; a finite window uses that rule throughout.  Slower
    than the series route but independent of it.
    """
    if b == 0.0:
        return 0.0
    if math.isinf(outer):
        split = max(eps * 2, 2 * math.pi / b)
        core, _ = integrate.quad(
            lambda r: (math.cos(b * r) - 1.0) * r ** (-1.0 - alpha),
            eps, split, epsabs=tol / 4, limit=400)
        tail_cos = integrate.quad(
            lambda r: r ** (-1.0 - alpha), split, np.inf,
            weight="cos", wvar=b, epsabs=tol / 4, limit=400)[0]
        tail_one = -(split ** (-alpha)) / alpha
        return core + tail_cos + tail_one
    cos_part = integrate.quad(
        lambda r: r ** (-1.0 - alpha), eps, outer,
        weight="cos", wvar=b, epsabs=tol, limit=400)[0]
    return cos_part - (eps ** (-alpha) - outer ** (-alpha)) / alpha


def test_radial_series_and_quadrature_paths_agree():
    # the library's series route and this file's adaptive-quadrature oracle
    # are independent implementations of the same truncated radial integral
    from levymult.measures import _radial_integral

    for (b, alpha, eps, outer) in ((1.7, 1.3, 1e-2, np.inf),
                                   (5.0, 0.5, 1e-1, np.inf),
                                   (0.9, 1.9, 1e-3, np.inf),
                                   (2.0, 1.0, 1e-2, 10.0)):
        series = float(_radial_integral(np.array([b]), alpha, eps, outer)[0])
        quad = _radial_integral_quad(b, alpha, eps, outer)
        assert series == pytest.approx(quad, rel=1e-8, abs=1e-10)


def _per_direction(measure, phi, xi):
    """psi and psi_phi summed direction by direction, one radial integral
    per direction, in the library's order of summation."""
    from levymult.measures import _radial_integral

    pts = xi.reshape(-1, measure.dimension)
    proj = np.abs(pts @ measure.directions.T)
    psi = np.zeros(pts.shape[0])
    psi_phi = np.zeros(pts.shape[0], dtype=complex)
    for i, w in enumerate(measure.angular_weights):
        r = _radial_integral(proj[:, i], measure.alpha, measure.epsilon,
                             measure.outer_radius)
        psi += w * r
        psi_phi += w * phi[i] * r
    return np.minimum(psi, 0.0), psi_phi


@pytest.mark.parametrize("offset, columns", [(0.0, 2), (1e-13, 3)])
def test_mirrored_directions_share_one_radial_integral(offset, columns):
    # theta and -theta share |xi . theta| and so its radial integral; a
    # mirror that is only within the atom tolerance has a column of its own
    t = 0.3
    dirs = np.array([[np.cos(t), np.sin(t)], [-np.cos(t), -np.sin(t) + offset],
                     [0.0, 1.0], [0.0, -1.0]])
    m = lm.TruncatedStableMeasure(1.3, 0.05, dirs, np.array([1.0, 1.0, 2.0, 2.0]))
    mod = lm.JumpModulator.table({tuple(dirs[0]): 0.5, tuple(dirs[1]): 0.5,
                                  (0.0, 1.0): -1.0, (0.0, -1.0): -1.0})
    xi = np.stack(np.meshgrid(np.linspace(-40, 40, 9), np.linspace(-40, 40, 9),
                              indexing="ij"), axis=-1)  # b*eps < 3: series path
    proj = np.abs(xi.reshape(-1, 2) @ dirs.T)
    assert len({col.tobytes() for col in proj.T}) == columns
    psi_ref, psi_phi_ref = _per_direction(m, mod.validate_on(m), xi)
    psi = lm.char_exponent(m, xi).ravel()
    psi_phi = lm.modulated_exponent(m, mod, xi).ravel()
    assert np.array_equal(psi, psi_ref)
    assert np.array_equal(psi_phi, psi_phi_ref)


def test_zero_weight_directions_are_not_integrated(monkeypatch):
    # phi = 0 on the second axis: psi_phi integrates the first axis' two
    # directions only, and the skipped +-0.0 terms change no value
    from levymult import measures

    m = lm.TruncatedStableMeasure.axes(2, alpha=1.3, epsilon=0.05)
    mod = lm.JumpModulator.axis_indicator(1)
    xi = np.stack(np.meshgrid(np.linspace(-40, 40, 9), np.linspace(-30, 50, 9),
                              indexing="ij"), axis=-1)
    _, psi_phi_ref = _per_direction(m, mod.validate_on(m), xi)
    calls = []
    radial = measures._radial_integral
    monkeypatch.setattr(measures, "_radial_integral",
                        lambda b, *a: calls.append(b) or radial(b, *a))
    psi_phi = lm.modulated_exponent(m, mod, xi).ravel()
    assert np.array_equal(psi_phi, psi_phi_ref)
    assert np.array_equal(np.signbit(psi_phi.imag), np.signbit(psi_phi_ref.imag))
    assert len(calls) == 2
    for b in calls:
        assert np.array_equal(b, np.abs(xi[..., 0]).ravel())


@pytest.mark.parametrize("outer", [math.inf, 4.0])
@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.9])
def test_radial_integral_once_per_distinct_value_equals_per_point(alpha, outer):
    # eps = 0.1 puts the series edge at b = 100 (and at b = 2.5 for the
    # finite window); each value repeats, in no particular order
    from levymult.measures import _radial_integral

    rng = np.random.default_rng(7)
    values = np.array([0.0, 0.5, 2.5, 3.0, 40.0, 99.0, 100.0, 101.0, 250.0,
                       300.0, 731.5])
    b = rng.permutation(np.repeat(values, 6)).reshape(6, 11)
    out = _radial_integral(b, alpha, 0.1, outer)
    assert out.shape == b.shape
    alone = [_radial_integral(x, alpha, 0.1, outer) for x in b.ravel()]
    assert all(np.ndim(x) == 0 for x in alone)
    assert np.array_equal(out.ravel(), alone)


def test_radial_integral_keeps_shape_of_input():
    from levymult.measures import _radial_integral

    for shape in ((0,), (5,), (3, 4), (2, 1, 3)):
        b = np.arange(math.prod(shape), dtype=float).reshape(shape) * 40.0
        assert _radial_integral(b, 1.3, 0.1, math.inf).shape == shape


def test_radial_integral_value_does_not_depend_on_its_batch():
    # the series' iteration floor and the contour's node sum are per value:
    # a batch on both sides of the edge gives every value the bits of a
    # call on that value alone
    from levymult.measures import _radial_integral

    b = np.linspace(0.0, 60.0, 2000)
    for outer in (math.inf, 4.0):
        batch = _radial_integral(b, 1.9, 1.0, outer)
        alone = np.array([_radial_integral(x, 1.9, 1.0, outer) for x in b])
        assert np.array_equal(batch, alone)


def test_grid_symbol_integrates_each_distinct_projection_once(monkeypatch):
    # on a 64^2 grid with period 2 pi, |xi . theta| = |k| takes 33 values,
    # of which 11..32 pass the edge b * eps = 10: each contour call gets
    # those 22 values once, not the 832 points that carry them
    from levymult import measures

    g = lm.GridFunction.from_callable(lambda x, y: np.cos(x) * np.sin(y),
                                      (64, 64), (2 * np.pi, 2 * np.pi))
    sym = lm.GeneralSymbol(lm.TruncatedStableMeasure.axes(2, 1.0, 1.0),
                           lm.JumpModulator.axis_indicator(1))
    calls = []
    tail = measures._contour_tail
    monkeypatch.setattr(measures, "_contour_tail",
                        lambda a, alpha: calls.append(a) or tail(a, alpha))
    sym.evaluate(-g.frequencies())
    assert len(calls) == 6  # psi's four directions and psi_phi's two
    for a in calls:
        assert a.tolist() == pytest.approx(range(11, 33), rel=1e-15)


@pytest.mark.parametrize("b, alpha, eps, ref", [
    # mpmath at 40 digits, through the incomplete gamma function
    (1000.0, 0.5, 10.0, -0.6324458721749613),
    (25.0, 1.9, 1.0, -0.5166466001533804),
    (20.0, 1.0, 1.0, -1.0430104532157436),
    (17.0, 0.3, 1.0, -3.2785471789689544)])
def test_radial_integral_past_the_edge_against_mpmath(b, alpha, eps, ref):
    # the old routes were 3.3e-5 (quadrature) and 6.8e-8, 1.1e-10, 3.5e-12
    # (series) relative off at these points
    from levymult.measures import _radial_integral

    assert _radial_integral(b, alpha, eps, math.inf) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("b, alpha, eps, outer, ref", [
    # mpmath at 25+ digits, panels split at every cosine zero
    (1000.0, 0.5, 1e-2, 10.0, -18.958249285232836),
    (5000.0, 1.5, 1e-2, 20.0, -660.47093233569959),
    # mpmath at 40 digits, through the incomplete gamma function
    (3.0, 1.3, 1.0, 10.0, -0.894415130915052)])
def test_finite_window_quadrature_at_large_b_outer(b, alpha, eps, outer, ref):
    from levymult.measures import _radial_integral

    assert _radial_integral_quad(b, alpha, eps, outer) == pytest.approx(ref, rel=1e-12)
    assert _radial_integral(b, alpha, eps, outer) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("outer", [math.inf, 8.0])
def test_no_quadrature_runs_in_the_exponents(monkeypatch, outer):
    # |k| * eps reaches 32 and |k| * outer 256 on the grid: both sides of
    # the edge are evaluated, and none of it may call scipy's quad
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    g = lm.GridFunction.from_callable(lambda x, y: np.cos(x) * np.sin(y),
                                      (64, 64), (2 * np.pi, 2 * np.pi))
    xi = -g.frequencies()
    m = lm.TruncatedStableMeasure.axes(2, 1.3, 1.0, outer)
    mod = lm.JumpModulator.axis_indicator(1)
    psi = lm.char_exponent(m, xi)
    psi_phi = lm.modulated_exponent(m, mod, xi)
    vals = lm.GeneralSymbol(m, mod).evaluate(xi)
    assert np.all(np.isfinite(psi)) and np.all(psi <= 0)
    assert np.all(np.isfinite(psi_phi)) and np.all(np.isfinite(vals))


def test_inner_series_raises_when_it_cannot_converge():
    from levymult.exceptions import ConvergenceError
    from levymult.measures import _inner_correction

    # at b*eps = 10, the edge the radial integral enforces, it converges,
    # and still at 25
    assert np.isfinite(_inner_correction(np.array([10.0, 25.0]), 1.0, 1.0)).all()
    with pytest.raises(ConvergenceError) as exc:
        _inner_correction(np.array([1.0, 200.0]), 1.0, 1.0)
    assert exc.value.estimate.shape == (2,)


def test_modulated_exponent_constant_reduces_to_psi():
    m = lm.DiscreteLevyMeasure.axes(2)
    mod = lm.JumpModulator.constant(0.5)
    xi = np.array([0.7, -1.2])
    assert lm.modulated_exponent(m, mod, xi) == pytest.approx(
        0.5 * lm.char_exponent(m, xi), abs=1e-14)


# ---------------------------------------------------------------------------
# modulators
# ---------------------------------------------------------------------------

def test_modulator_bound_enforced():
    with pytest.raises(InvalidInputError):
        lm.JumpModulator.constant(1.5)
    m = lm.DiscreteLevyMeasure.axes(1)
    tab = lm.JumpModulator.table({(1.0,): 2.0, (-1.0,): 2.0})
    with pytest.raises(InvalidInputError):
        tab.validate_on(m)


def test_antisymmetric_modulator_rejected():
    m = lm.DiscreteLevyMeasure.axes(1)
    tab = lm.JumpModulator.table({(1.0,): 1.0, (-1.0,): -1.0})
    with pytest.raises(InvalidInputError):
        tab.validate_on(m)


def test_axis_indicator_values():
    m = lm.DiscreteLevyMeasure.axes(2)
    mod = lm.JumpModulator.axis_indicator(1)
    vals = mod.values_at(m.locations)
    on_axis1 = np.abs(m.locations[:, 0]) > 0
    assert np.array_equal(vals.real.astype(bool), on_axis1)


def test_table_missing_atom():
    mod = lm.JumpModulator.table({(1.0,): 1.0})
    with pytest.raises(InvalidInputError):
        mod.values_at(np.array([[2.0]]))


@settings(max_examples=25, deadline=None)
@given(st_.floats(0, 1), st_.floats(0, 2 * np.pi))
def test_constant_modulator_magnitudes(r, angle):
    c = r * complex(np.cos(angle), np.sin(angle))
    mod = lm.JumpModulator.constant(c)
    vals = mod.values_at(np.array([[1.0], [-1.0]]))
    assert np.all(np.abs(vals) <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# atom identity: one matcher for measure symmetry, modulator symmetry and
# the table lookup
# ---------------------------------------------------------------------------

TOL = measures._ATOM_TOL


def reference_symmetric(locations, weights):
    """nu(A) = nu(-A) by a plain double loop: the measure check's oracle.

    At each atom z, the weight of the atoms within TOL of z (in every
    coordinate) must equal, to a relative 1e-12, that within TOL of -z.
    """
    for z in locations:
        here = mirror = 0.0
        for y, w in zip(locations, weights):
            if all(abs(y[a] - z[a]) <= TOL for a in range(len(z))):
                here += w
            if all(abs(y[a] + z[a]) <= TOL for a in range(len(z))):
                mirror += w
        if abs(here - mirror) > 1e-12 * max(here, mirror):
            return False
    return True


def _build(kind, locations, weights):
    if kind == "discrete":
        return lm.DiscreteLevyMeasure(locations, weights)
    return lm.TruncatedStableMeasure(1.0, 0.5, locations, weights)


_DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6), (0.6, -0.8)]


@pytest.mark.parametrize("kind", ["discrete", "stable"])
def test_repeated_atoms_are_weighed_together(kind):
    z = np.array([0.6, 0.8])
    # {z: 2, -z: 1, -z: 1} is symmetric as a measure
    _build(kind, [z, -z, -z], [2.0, 1.0, 1.0])
    with pytest.raises(InvalidInputError, match="not symmetric"):
        _build(kind, [z, z, -z], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("kind", ["discrete", "stable"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weights_are_rejected(kind, bad):
    """A NaN or infinite weight would make psi NaN and the symbol silently 0."""
    with pytest.raises(InvalidInputError, match="non-finite"):
        _build(kind, [[1.0], [-1.0]], [1.0, bad])
    doc = {"kind": kind, "alpha": 1.0, "epsilon": 0.5,
           "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0], "w": str(bad)}]}
    with pytest.raises(InvalidInputError, match="non-finite"):
        measure_from_dict(doc)


def test_symmetry_check_fails_on_nan_weight():
    """The check itself refuses NaN, so it cannot mask another asymmetry."""
    with pytest.raises(InvalidInputError, match="not symmetric"):
        measures._check_symmetric_atoms(np.array([[1.0], [-1.0]]),
                                        np.array([1.0, math.nan]), "measure")


@settings(max_examples=60, deadline=None)
@given(kind=st_.sampled_from(["discrete", "stable"]),
       base=st_.lists(st_.tuples(st_.sampled_from(_DIRECTIONS),
                                 st_.sampled_from([0.5, 1.0, 2.0]),
                                 st_.floats(0.1, 5.0)), min_size=1, max_size=4),
       defect=st_.sampled_from(["none", "move_half_tol", "move_10_tol",
                                "weight_1e-9"]),
       pick=st_.integers(0, 7))
def test_measure_symmetry_agrees_with_double_loop(kind, base, defect, pick):
    locations, weights = [], []
    for direction, radius, w in base:
        z = np.array(direction) * (1.0 if kind == "stable" else radius)
        locations += [z, -z]
        weights += [w, w]
    locations, weights = np.array(locations), np.array(weights)
    i = pick % len(weights)
    if defect == "move_half_tol":
        locations[i, 0] += 0.5 * TOL
    elif defect == "move_10_tol":
        locations[i, 0] += 10 * TOL
    elif defect == "weight_1e-9":
        weights[i] *= 1 + 1e-9
    expected = reference_symmetric(locations, weights)
    assert expected == (defect in ("none", "move_half_tol"))
    try:
        _build(kind, locations, weights)
        accepted = True
    except InvalidInputError:
        accepted = False
    assert accepted == expected


def test_sign_blind_matcher_would_accept_asymmetric_inputs(monkeypatch):
    """Drop the mirror's sign and both symmetry checks pass inputs the
    rejection tests above reject: those tests catch the defect."""
    atoms = [([1.0], 1.0), ([-1.0], 2.0)]
    antisymmetric = lm.JumpModulator.table({(1.0,): 1.0, (-1.0,): -1.0})
    with pytest.raises(InvalidInputError):
        lm.DiscreteLevyMeasure.from_atoms(atoms)
    with pytest.raises(InvalidInputError):
        antisymmetric.validate_on(axes_measure_1d())
    close = measures._close
    monkeypatch.setattr(measures, "_close",
                        lambda points, keys: close(np.abs(points), np.abs(keys)))
    lm.DiscreteLevyMeasure.from_atoms(atoms)
    antisymmetric.validate_on(axes_measure_1d())


def test_table_lookup_takes_first_key_within_tolerance():
    at = np.array([[1.0]])
    near = 1.0 + 0.5 * TOL
    first = lm.JumpModulator.table({(1.0, 0.0): 0.25, (near,): 0.5, (1.0,): -0.5})
    assert first.values_at(at)[0] == 0.5  # the 2-vector key is skipped
    swapped = lm.JumpModulator.table({(1.0,): -0.5, (near,): 0.5})
    assert swapped.values_at(at)[0] == -0.5
    with pytest.raises(InvalidInputError, match="no value at"):
        first.values_at(np.array([[1.0 + 2 * TOL]]))


# ---------------------------------------------------------------------------
# transition measures
# ---------------------------------------------------------------------------

def test_transition_t0_is_delta():
    pt = lm.transition_measure(axes_measure_1d(), 0.0)
    assert pt.weight_at(0.0) == 1.0
    assert pt.mass == pytest.approx(1.0, abs=1e-15)


def test_transition_weight_against_convolution_oracle():
    # atoms +-1 with weight 1/2, t = 1: return weight at the origin
    m = axes_measure_1d(weight=0.5)
    pt = lm.transition_measure(m, 1.0, tol=1e-13)
    oracle = sum(math.exp(-1.0) / math.factorial(n) * math.comb(n, n // 2) / 2 ** n
                 for n in range(0, 60, 2))
    assert pt.weight_at(0.0) == pytest.approx(oracle, abs=1e-13)


def test_transition_mass_within_tolerance():
    for t, tol in ((0.3, 1e-12), (2.0, 1e-10), (7.5, 1e-8)):
        pt = lm.transition_measure(axes_measure_1d(), t, tol=tol)
        assert 1.0 - tol <= pt.mass <= 1.0 + 1e-14
        assert pt.tail_bound < tol
        arr = pt.array
        assert np.all(arr >= 0)
        assert np.allclose(arr, arr[::-1], atol=0)  # symmetry z -> -z


def test_transition_rate_guard():
    with pytest.raises(InvalidInputError):
        lm.transition_measure(axes_measure_1d(), 100.0)


def test_transition_off_lattice_error():
    m = lm.DiscreteLevyMeasure.from_atoms(
        [([1.0], 1.0), ([-1.0], 1.0), ([np.sqrt(2)], 1.0), ([-np.sqrt(2)], 1.0)])
    with pytest.raises(UnsupportedMeasureError):
        lm.transition_measure(m, 1.0)


def _stable_1d():
    return lm.TruncatedStableMeasure.axes(1, 1.0, 0.1)


@pytest.mark.parametrize("call", [
    lambda: lm.transition_measure(_stable_1d(), 0.5),
    lambda: PeriodicLattice.from_measure(
        _stable_1d(), lm.JumpModulator.constant(1.0), (8,)),
], ids=["transition_measure", "from_measure"])
def test_lattice_needs_a_discrete_measure(call):
    # both raised AttributeError on a stable measure
    with pytest.raises(UnsupportedMeasureError, match="discrete measure"):
        call()


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_lattice_spacing_must_be_positive(h):
    # h = 0 divided every atom to inf and wrapped the steps to -2**63
    with pytest.raises(InvalidInputError, match="spacing must be positive and finite"):
        PeriodicLattice.from_measure(lm.DiscreteLevyMeasure.axes(1),
                                     lm.JumpModulator.constant(1.0), (8,), h)


def test_transition_2d():
    m = lm.DiscreteLevyMeasure.axes(2)
    pt = lm.transition_measure(m, 0.5, tol=1e-12)
    assert pt.mass == pytest.approx(1.0, abs=1e-12)
    assert pt.weight_at([0.0, 0.0]) > 0
    assert pt.weight_at([1.0, 0.0]) == pytest.approx(pt.weight_at([-1.0, 0.0]), abs=0)


def test_semigroup_property():
    m = axes_measure_1d()
    tol = 1e-12
    p1 = lm.transition_measure(m, 0.4, tol=tol)
    p2 = lm.transition_measure(m, 0.9, tol=tol)
    p3 = lm.transition_measure(m, 1.3, tol=tol)
    conv = p1.convolve(p2)
    lo = -(p3.array.shape[0] // 2)
    diff = sum(abs(conv.weight_at(float(z)) - p3.weight_at(float(z)))
               for z in range(lo, -lo + 1))
    assert diff <= 2 * tol


def test_levy_khinchin_agreement():
    m = axes_measure_1d()
    tol = 1e-12
    lhs, rhs = lm.levy_khinchin_check(m, 0.7, 1.3, tol=tol)
    assert abs(lhs - rhs) < 10 * tol
    lhs0, rhs0 = lm.levy_khinchin_check(m, 0.0, 1.3)
    assert lhs0 == 1.0 and rhs0 == 1.0
    lhs_z, rhs_z = lm.levy_khinchin_check(m, 0.7, 0.0)
    assert abs(lhs_z - 1.0) < tol * 10 and rhs_z == 1.0


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_measure_roundtrip_json():
    m = lm.DiscreteLevyMeasure.from_atoms(
        [([0.1, -0.2], 0.3), ([-0.1, 0.2], 0.3)])
    doc = json.loads(dumps_measure(m))
    back = measure_from_dict(doc)
    assert np.array_equal(back.locations, m.locations)
    assert np.array_equal(back.weights, m.weights)


def test_stable_roundtrip_json():
    st = lm.TruncatedStableMeasure.axes(2, 1.5, 1e-4)
    back = measure_from_dict(measure_to_dict(st))
    assert back.alpha == st.alpha and back.epsilon == st.epsilon
    assert math.isinf(back.outer_radius)
    assert np.array_equal(back.directions, st.directions)


def test_decimal_string_weights_accepted():
    doc = {"kind": "discrete",
           "atoms": [{"z": ["0.1"], "w": "0.25"}, {"z": ["-0.1"], "w": "0.25"}]}
    m = measure_from_dict(doc)
    assert m.weights[0] == 0.25
    assert m.locations[0, 0] == 0.1
    # the emitted document reproduces the same decimal strings via repr
    out = measure_to_dict(m)
    assert out["atoms"][0]["w"] == 0.25
    assert repr(out["atoms"][0]["z"][0]) == "0.1"


def test_modulator_roundtrip():
    for mod in (lm.JumpModulator.constant(0.5 + 0.1j),
                lm.JumpModulator.axis_indicator(2),
                lm.JumpModulator.per_axis([0.5, -1.0]),
                lm.JumpModulator.sign_pattern([1, 1, -1, -1]),
                lm.JumpModulator.table({(1.0,): 0.5, (-1.0,): 0.5})):
        back = modulator_from_dict(modulator_to_dict(mod))
        assert back.kind == mod.kind


def test_measure_with_modulator_document():
    m = lm.DiscreteLevyMeasure.axes(1)
    mod = lm.JumpModulator.constant(1.0)
    text = dumps_measure(m, mod)
    m2, mod2 = loads_measure(text)
    assert mod2 is not None and mod2.kind == "constant"
    assert m2.total_mass == m.total_mass


def test_malformed_documents_raise():
    with pytest.raises(InvalidInputError):
        measure_from_dict({"kind": "nope", "atoms": []})
    with pytest.raises(InvalidInputError):
        measure_from_dict({"atoms": []})
    with pytest.raises(InvalidInputError):
        modulator_from_dict({"kind": "constant"})


def test_modulator_document_keeps_constructor_errors():
    with pytest.raises(InvalidInputError, match=r"^\|phi\| must not exceed 1$"):
        modulator_from_dict({"kind": "constant", "value": 2.0})


@pytest.mark.parametrize("value", [[1, 0, 3], [0.5], [], "1+2j", None])
@pytest.mark.parametrize("kind", ["constant", "table"])
def test_modulator_complex_value_must_be_a_number_or_pair(kind, value):
    doc = ({"kind": "constant", "value": value} if kind == "constant" else
           {"kind": "table", "entries": [{"z": [1.0], "value": value}]})
    with pytest.raises(InvalidInputError, match="malformed modulator document"):
        modulator_from_dict(doc)


def test_modulator_complex_value_forms():
    # a plain number is a real value; the round trip covers [re, im]
    assert modulator_from_dict(
        {"kind": "constant", "value": 0.5}).payload["value"] == 0.5


STABLE_DOC = {"kind": "stable", "alpha": 1.0, "epsilon": 0.5,
              "outer_radius": None,
              "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0], "w": 1.0}]}


@pytest.mark.parametrize("doc", [
    {k: v for k, v in STABLE_DOC.items() if k != "alpha"},
    {**STABLE_DOC, "epsilon": "x"},
    {**STABLE_DOC, "outer_radius": "big"},
    {**STABLE_DOC, "atoms": []},
    {"kind": "discrete", "atoms": []},
    {"kind": "discrete",
     "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0, 0.0], "w": 1.0}]},
], ids=["no_alpha", "epsilon_text", "outer_text", "stable_no_atoms",
        "discrete_no_atoms", "ragged_atoms"])
def test_malformed_measure_documents_raise_invalid_input(doc):
    with pytest.raises(InvalidInputError, match="malformed measure document"):
        measure_from_dict(doc)
    with pytest.raises(InvalidInputError, match="malformed measure document"):
        loads_measure(json.dumps(doc))


def test_measure_document_keeps_constructor_errors():
    # a well-formed document with an invalid value reports the constructor's
    # own message, not a malformed-document one
    with pytest.raises(InvalidInputError, match="alpha must lie in"):
        measure_from_dict({**STABLE_DOC, "alpha": 3.0})
