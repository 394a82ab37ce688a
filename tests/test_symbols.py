import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import levymult as lm
from levymult.exceptions import InvalidInputError, SingularPointError
from levymult.symbols import symbol_from_dict, symbol_to_dict


def axis_stable_symbol(alpha=1.0, eps=1e-6, d=2, j=1):
    st = lm.TruncatedStableMeasure.axes(d, alpha, eps)
    return lm.GeneralSymbol(st, lm.JumpModulator.axis_indicator(j))


# ---------------------------------------------------------------------------
# general symbol
# ---------------------------------------------------------------------------

def test_general_axis_stable_symmetric_point():
    sym = axis_stable_symbol()
    assert sym.evaluate(np.array([1.0, 1.0])) == pytest.approx(0.5, abs=1e-6)


def test_general_axis_stable_on_axis():
    sym = axis_stable_symbol()
    assert sym.evaluate(np.array([2.0, 0.0])) == pytest.approx(1.0, abs=1e-6)


def test_general_zero_convention_at_psi_zero():
    m = lm.DiscreteLevyMeasure.axes(1)
    sym = lm.GeneralSymbol(m, lm.JumpModulator.constant(1.0))
    assert sym.evaluate(np.array([2 * np.pi])) == 0.0
    assert sym.evaluate(np.zeros(1)) == 0.0


def test_general_constant_modulator_gives_constant():
    m = lm.DiscreteLevyMeasure.axes(2)
    sym = lm.GeneralSymbol(m, lm.JumpModulator.constant(0.75))
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(60, 2))
    vals = sym.evaluate(xs)
    psi = lm.char_exponent(m, xs)
    live = np.abs(psi) > 1e-13 * m.total_mass
    assert np.allclose(vals[live], 0.75, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st_.lists(st_.floats(-20, 20), min_size=2, max_size=2))
def test_general_symbol_bounded(xi):
    m = lm.DiscreteLevyMeasure.from_atoms(
        [([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0),
         ([0.0, 2.0], 0.5), ([0.0, -2.0], 0.5)])
    sym = lm.GeneralSymbol(m, lm.JumpModulator.table(
        {(1.0, 0.0): 1.0, (-1.0, 0.0): 1.0, (0.0, 2.0): -1.0, (0.0, -2.0): -1.0}))
    val = sym.evaluate(np.asarray(xi))
    assert abs(val) <= 1 + 1e-9


def test_general_symbol_even():
    sym = axis_stable_symbol()
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(20, 2))
    assert np.allclose(sym.evaluate(xs), sym.evaluate(-xs), atol=1e-12)


# ---------------------------------------------------------------------------
# finite-time symbol
# ---------------------------------------------------------------------------

def test_finite_time_value():
    m = lm.DiscreteLevyMeasure.axes(1)
    sym = lm.FiniteTimeSymbol(m, lm.JumpModulator.constant(1.0), -1.0)
    # psi(pi) = 2 (cos pi - 1) = -4, damping 1 - e^{-8}
    assert sym.evaluate(np.array([np.pi])) == pytest.approx(
        1 - np.exp(-8.0), abs=1e-12)


def test_finite_time_rejects_nonnegative_s():
    m = lm.DiscreteLevyMeasure.axes(1)
    for s in (0.0, 1.0):
        with pytest.raises(InvalidInputError):
            lm.FiniteTimeSymbol(m, lm.JumpModulator.constant(1.0), s)


def test_finite_time_small_window_vanishes():
    m = lm.DiscreteLevyMeasure.axes(1)
    sym = lm.FiniteTimeSymbol(m, lm.JumpModulator.constant(1.0), -1e-9)
    assert abs(sym.evaluate(np.array([1.0]))) < 1e-8


def test_finite_time_magnitude_monotone_in_window_depth():
    m = lm.DiscreteLevyMeasure.axes(2)
    mod = lm.JumpModulator.axis_indicator(1)
    xs = np.array([[0.9, 0.3], [2.0, -1.0], [0.2, 0.1]])
    prev = None
    for k in range(-2, 6):
        vals = np.abs(lm.FiniteTimeSymbol(m, mod, -(2.0 ** k)).evaluate(xs))
        if prev is not None:
            assert np.all(vals >= prev - 1e-15)
        prev = vals


@pytest.mark.parametrize("measure", [
    lm.TruncatedStableMeasure.axes(2, 1.0, 1.0),  # quadrature where |xi_j| > 25
    lm.DiscreteLevyMeasure.axes(2)], ids=["stable", "discrete"])
def test_finite_time_damps_general_with_one_psi(monkeypatch, measure):
    from levymult import symbols

    mod = lm.JumpModulator.per_axis([1.0, -0.5])
    s = -0.3
    xi = np.stack(np.meshgrid(np.linspace(-30, 30, 7), np.linspace(-30, 30, 7),
                              indexing="ij"), axis=-1)
    expected = ((1.0 - np.exp(2.0 * abs(s) * lm.char_exponent(measure, xi)))
                * lm.GeneralSymbol(measure, mod).evaluate(xi))
    calls = []
    psi = symbols.char_exponent
    monkeypatch.setattr(symbols, "char_exponent",
                        lambda *a: calls.append(1) or psi(*a))
    vals = lm.FiniteTimeSymbol(measure, mod, s).evaluate(xi)
    assert len(calls) == 1
    assert np.array_equal(vals, expected)


def test_degenerate_support_warns():
    m = lm.DiscreteLevyMeasure.from_atoms(
        [([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0)])  # spans only the first axis
    with pytest.warns(UserWarning, match="degenerate"):
        lm.GeneralSymbol(m, lm.JumpModulator.constant(1.0))


def test_finite_time_monotone_to_general():
    m = lm.DiscreteLevyMeasure.axes(2)
    mod = lm.JumpModulator.axis_indicator(1)
    gen = lm.GeneralSymbol(m, mod)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[np.abs(lm.char_exponent(m, grid)) > 1e-10]
    target = gen.evaluate(grid)
    prev = None
    for k in range(0, 7):
        sym = lm.FiniteTimeSymbol(m, mod, -(2.0 ** k))
        sup = np.abs(sym.evaluate(grid) - target).max()
        if prev is not None:
            assert sup <= prev + 1e-15
        prev = sup
    assert prev < 1e-3


# ---------------------------------------------------------------------------
# closed-form family
# ---------------------------------------------------------------------------

def test_power_symbol_values():
    p = lm.PowerSymbol(1.0, 1, 2)
    assert p.evaluate(np.array([1.0, 1.0])) == 0.5
    p2 = lm.PowerSymbol(2.0, 1, 2)
    assert p2.evaluate(np.array([3.0, 4.0])) == pytest.approx(9 / 25, abs=1e-15)
    assert p.evaluate(np.zeros(2)) == 0.0


def test_power_alpha_range():
    with pytest.raises(InvalidInputError):
        lm.PowerSymbol(0.0, 1, 2)
    with pytest.raises(InvalidInputError):
        lm.PowerSymbol(2.5, 1, 2)
    lm.PowerSymbol(2.0, 1, 2)  # alpha = 2 allowed as the limiting member


def test_riesz_values():
    assert lm.Riesz2Symbol(1, 2).evaluate(np.array([3.0, 4.0])) == pytest.approx(
        -9 / 25, abs=1e-15)
    assert lm.RieszPairSymbol(1, 2, 2).evaluate(np.array([1.0, 1.0])) == \
        pytest.approx(-1.0, abs=1e-15)
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(40, 2))
    combo = lm.RieszComboSymbol([1.0, 1.0])
    assert np.allclose(combo.evaluate(xs), -1.0, atol=1e-14)


def test_riesz_combo_bound():
    with pytest.raises(InvalidInputError):
        lm.RieszComboSymbol([1.5, 0.0])


def test_beurling_ahlfors_values_and_decomposition():
    ba = lm.BeurlingAhlforsSymbol()
    assert ba.evaluate(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(200, 2))
    lhs = ba.evaluate(xs)
    rhs = (-lm.Riesz2Symbol(1, 2).evaluate(xs)
           + lm.Riesz2Symbol(2, 2).evaluate(xs)
           + 1j * lm.RieszPairSymbol(2, 1, 2).evaluate(xs))
    assert np.abs(lhs - rhs).max() < 1e-12
    assert np.allclose(np.abs(lhs), 1.0, atol=1e-12)


def test_first_order_riesz():
    fo = lm.FirstOrderRieszSymbol(1, 2)
    assert fo.evaluate(np.array([3.0, 4.0])) == pytest.approx(0.6j, abs=1e-15)


def test_diagonal_signs_give_mixed_pair_limit():
    # jumps on the two plane diagonals with opposite signs: the symbol is
    # (|xi.(1,-1)|^a - |xi.(1,1)|^a) / (...), tending to -2 xi1 xi2 / |xi|^2
    r = np.sqrt(2) / 2
    dirs = np.array([[r, r], [-r, -r], [r, -r], [-r, r]])
    st = lm.TruncatedStableMeasure(1.0, 1e-7, dirs, np.ones(4))
    phi = lm.JumpModulator.sign_pattern([-1, -1, 1, 1])
    g = lm.GeneralSymbol(st, phi)
    xi = np.array([[1.0, 2.0], [0.5, -1.5], [3.0, 1.0], [0.2, 0.9]])
    a1 = np.abs(xi @ np.array([r, r]))
    a2 = np.abs(xi @ np.array([r, -r]))
    closed = (a2 - a1) / (a1 + a2)
    assert np.abs(g.evaluate(xi) - closed).max() < 1e-6
    st2 = lm.TruncatedStableMeasure(1.99, 1e-7, dirs, np.ones(4))
    g2 = lm.GeneralSymbol(st2, phi)
    pair = lm.RieszPairSymbol(1, 2, 2).evaluate(xi)
    assert np.abs(g2.evaluate(xi) - pair).max() < 2e-2


def test_power_to_riesz2_limit():
    grid = np.stack(np.meshgrid(np.linspace(-3, 3, 13), np.linspace(-3, 3, 13),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[(np.abs(grid) > 1e-9).any(axis=1)]
    p = lm.PowerSymbol(1.99, 1, 2).evaluate(grid)
    r = np.abs(lm.Riesz2Symbol(1, 2).evaluate(grid))
    assert np.abs(p - r).max() <= 1e-2


def test_finite_outer_radius_symbol():
    # pulling the outer radius to infinity recovers the untruncated symbol
    mod = lm.JumpModulator.axis_indicator(1)
    xi = np.array([1.3, 0.4])
    ref = lm.GeneralSymbol(
        lm.TruncatedStableMeasure.axes(2, 1.2, 1e-4), mod).evaluate(xi)
    prev = None
    for outer in (2.0, 8.0, 32.0, 128.0):
        st = lm.TruncatedStableMeasure.axes(2, 1.2, 1e-4, outer_radius=outer)
        val = lm.GeneralSymbol(st, mod).evaluate(xi)
        assert abs(val) <= 1 + 1e-9
        gap = abs(val - ref)
        if prev is not None:
            assert gap < prev
        prev = gap
    assert prev < 1e-3  # tail decays like outer**(-alpha)


def test_epsilon_sweep_to_power_symbol():
    mod = lm.JumpModulator.axis_indicator(1)
    target = lm.PowerSymbol(1.0, 1, 2)
    grid = np.stack(np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[np.abs(grid).sum(axis=1) > 0.5]
    tv = target.evaluate(grid)
    prev = None
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        st = lm.TruncatedStableMeasure.axes(2, 1.0, eps)
        sup = np.abs(lm.GeneralSymbol(st, mod).evaluate(grid) - tv).max()
        if prev is not None:
            assert sup < prev
        prev = sup
    assert prev < 1e-6


# ---------------------------------------------------------------------------
# gradient and probes
# ---------------------------------------------------------------------------

def test_gradient_value_and_fd_oracle():
    g = lm.power_symbol_gradient(1.0, 1, np.array([1.0, 1.0]))
    assert g[0] == pytest.approx(0.25, abs=1e-14)
    # central finite differences, O(h^2)
    p = lm.PowerSymbol(1.37, 1, 2)
    xi = np.array([0.8, -1.4])
    gc = lm.power_symbol_gradient(1.37, 1, xi)
    h = 1e-6
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fd = (p.evaluate(xi + e) - p.evaluate(xi - e)).real / (2 * h)
        assert gc[a] == pytest.approx(fd, abs=5e-9)


def test_gradient_antisymmetry():
    g1 = lm.power_symbol_gradient(1.3, 1, np.array([0.7, 1.1]))
    g2 = lm.power_symbol_gradient(1.3, 1, np.array([-0.7, 1.1]))
    assert g1[0] == pytest.approx(-g2[0], abs=1e-15)


def test_gradient_axis_singularity():
    with pytest.raises(SingularPointError):
        lm.power_symbol_gradient(1.0, 1, np.array([0.0, 1.0]))


def test_gradient_square_integrability_probe():
    # integral over (cut, 1) of |d1 M|^2 at xi2 = 1 behaves like cut^(2a-1):
    # alpha = 0.4 diverges under refinement, alpha = 0.6 converges
    def probe(alpha, cut):
        xs = np.geomspace(cut, 1.0, 4000)
        vals = np.array([lm.power_symbol_gradient(alpha, 1,
                                                  np.array([x, 1.0]))[0] ** 2
                         for x in xs])
        return np.trapezoid(vals, xs)

    div = [probe(0.4, c) for c in (1e-2, 1e-4, 1e-6)]
    conv = [probe(0.6, c) for c in (1e-2, 1e-4, 1e-6)]
    # divergent case: increments grow without bound (rate cut^(2 alpha - 1))
    assert div[1] - div[0] > 0 and div[2] - div[1] > div[1] - div[0]
    assert div[2] / div[0] > 5.0
    # convergent case: increments shrink toward a finite limit
    assert conv[2] - conv[1] < conv[1] - conv[0]
    assert conv[2] < 1.2


def test_directional_limit_depends_on_direction():
    p = lm.PowerSymbol(1.0, 1, 2)
    lim_diag = lm.directional_limit(p, np.zeros(2), np.array([1.0, 1.0]))
    lim_axis = lm.directional_limit(p, np.zeros(2), np.array([1.0, 0.0]))
    assert lim_diag == pytest.approx(0.5, abs=1e-9)
    assert lim_axis == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# products, serialisation
# ---------------------------------------------------------------------------

def test_product_symbol():
    r = lm.Riesz2Symbol(1, 2)
    prod = lm.ProductSymbol(r, r)
    xi = np.array([3.0, 4.0])
    assert prod.evaluate(xi) == pytest.approx((9 / 25) ** 2, abs=1e-15)


def test_symbol_spec_roundtrip():
    m = lm.DiscreteLevyMeasure.axes(1)
    syms = [lm.ConstantSymbol(0.5, 1),
            lm.GeneralSymbol(m, lm.JumpModulator.constant(1.0)),
            lm.FiniteTimeSymbol(m, lm.JumpModulator.constant(1.0), -2.0),
            lm.PowerSymbol(1.5, 1, 2),
            lm.Riesz2Symbol(2, 2),
            lm.RieszPairSymbol(1, 2, 2),
            lm.RieszComboSymbol([1.0, -1.0]),
            lm.BeurlingAhlforsSymbol(),
            lm.FirstOrderRieszSymbol(1, 2),
            lm.ProductSymbol(lm.Riesz2Symbol(1, 2), lm.Riesz2Symbol(1, 2))]
    xi1 = np.array([0.9])
    xi2 = np.array([0.9, -1.7])
    for sym in syms:
        back = symbol_from_dict(symbol_to_dict(sym))
        xi = xi1 if back.dimension == 1 else xi2
        assert back.evaluate(xi) == pytest.approx(sym.evaluate(xi), abs=1e-12)


def test_symbol_spec_errors():
    with pytest.raises(InvalidInputError):
        symbol_from_dict({"kind": "unknown"})
    with pytest.raises(InvalidInputError):
        symbol_from_dict({"kind": "power", "alpha": 3.0, "j": 1, "d": 2})


def test_beurling_ahlfors_dimension_guard():
    with pytest.raises(InvalidInputError):
        lm.BeurlingAhlforsSymbol(dimension=1)


def test_nonfinite_xi_rejected():
    with pytest.raises(InvalidInputError):
        lm.PowerSymbol(1.0, 1, 2).evaluate(np.array([np.nan, 0.0]))
