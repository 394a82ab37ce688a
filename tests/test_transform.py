import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import levymult as lm
from levymult import corpus as corpus_mod
from levymult import grid as grid_mod
from levymult import multiplier
from levymult.corpus import CorpusConfig, build_corpus, cosine_bump, gaussian_bump
from levymult.exceptions import InvalidInputError
from levymult.grid import GridFunction, PStar, lp_norm, read_grid, write_grid
from levymult.multiplier import apply_multiplier, norm_ratio_sweep

L = 2 * np.pi


def sin_grid(n=1024):
    return GridFunction.from_callable(np.sin, (n,), (L,))


# ---------------------------------------------------------------------------
# GridFunction and norms
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(InvalidInputError):
        GridFunction((7,), (1.0,), np.zeros(7))  # not a power of two
    with pytest.raises(InvalidInputError):
        GridFunction((4,), (1.0,), np.zeros(4))  # too small
    with pytest.raises(InvalidInputError):
        GridFunction((8,), (0.0,), np.zeros(8))
    for period in ((np.nan, 1.0), (np.inf, 1.0)):
        with pytest.raises(InvalidInputError, match="finite"):
            GridFunction((8, 8), period, np.zeros((8, 8)))
    with pytest.raises(InvalidInputError):
        GridFunction((8,), (1.0,), np.full(8, np.nan))


def test_frequency_aliasing():
    f = GridFunction((8,), (2 * np.pi,), np.zeros(8))
    freqs = f.frequencies()[..., 0]
    assert freqs[1] == 1.0 and freqs[7] == -1.0 and freqs[4] == -4.0


def test_lp_norm_constant():
    f = GridFunction((16,), (1.0,), np.ones(16))
    assert lp_norm(f, 3.0) == pytest.approx(1.0, abs=1e-15)


def test_lp_norm_half_indicator():
    a = np.zeros(16)
    a[:8] = 1.0
    f = GridFunction((16,), (1.0,), a)
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_lp_norm_sine_closed_form():
    # integral of sin^2 over a period is pi
    assert lp_norm(sin_grid(), 2.0) == pytest.approx(np.sqrt(np.pi), abs=1e-6)


def test_lp_norm_p_below_one():
    with pytest.raises(InvalidInputError):
        lp_norm(sin_grid(), 0.5)


@settings(max_examples=20, deadline=None)
@given(st_.floats(1.01, 50.0))
def test_pstar_identity(p):
    ps = PStar(p)
    assert ps.p_star == max(p, ps.q)
    assert ps.bound == max(p - 1.0, 1.0 / (p - 1.0))  # exact by construction
    # the two formulations agree to an ulp
    assert ps.bound == pytest.approx(ps.p_star - 1.0, rel=1e-15)


def test_pstar_examples():
    assert PStar(4.0).bound == 3.0
    assert PStar(4 / 3).bound == pytest.approx(3.0, abs=1e-12)
    assert PStar(2.0).bound == 1.0


# ---------------------------------------------------------------------------
# binary + CSV round trips
# ---------------------------------------------------------------------------

def test_binary_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    f = GridFunction((16, 32), (1.0, 2.0),
                     rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32)))
    p = tmp_path / "f.lmgf"
    write_grid(p, f)
    g = read_grid(p)
    assert g.sizes == f.sizes and g.period == f.period
    assert np.array_equal(g.samples, f.samples)


def test_binary_rejects_garbage(tmp_path):
    p = tmp_path / "x.lmgf"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(InvalidInputError):
        read_grid(p)
    # a number is no path: open() would take it as a file descriptor
    with pytest.raises(InvalidInputError, match="grid path must be a string"):
        read_grid(0)


def test_binary_rejects_missing_file_and_short_header(tmp_path):
    with pytest.raises(InvalidInputError, match="not found"):
        read_grid(tmp_path / "absent.lmgf")
    p = tmp_path / "f.lmgf"
    write_grid(p, GridFunction((8, 8), (1.0, 2.0), np.ones((8, 8))))
    data = p.read_bytes()
    header = 4 + 8 + 2 * 4 + 2 * 8
    for cut in range(header):  # every prefix of the header, magic included
        p.write_bytes(data[:cut])
        with pytest.raises(InvalidInputError):
            read_grid(p)


@settings(max_examples=10, deadline=None)
@given(st_.integers(0, 2 ** 32 - 1))
def test_binary_roundtrip_random_grids(seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=8) + 1j * rng.normal(size=8)
    f = GridFunction((8,), (1.0,), arr)
    import tempfile
    with tempfile.NamedTemporaryFile(suffix=".lmgf") as fh:
        write_grid(fh.name, f)
        g = read_grid(fh.name)
    assert np.array_equal(g.samples, f.samples)


# ---------------------------------------------------------------------------
# apply_multiplier
# ---------------------------------------------------------------------------

def test_constant_symbol_identity_is_exact():
    f = sin_grid(64)
    out = apply_multiplier(f, lm.ConstantSymbol(1.0, 1))
    assert np.array_equal(out.samples, f.samples)


def test_riesz2_on_sine_gives_negative():
    f = sin_grid()
    out = apply_multiplier(f, lm.Riesz2Symbol(1, 1))
    assert np.abs(out.samples + f.samples).max() < 1e-12


def test_first_order_orientation():
    # the symbol i xi/|xi| maps sin(a x) to -cos(a x) for a > 0
    f = sin_grid(256)
    out = apply_multiplier(f, lm.FirstOrderRieszSymbol(1, 1))
    target = GridFunction.from_callable(lambda x: -np.cos(x), (256,), (L,))
    assert np.abs(out.samples - target.samples).max() < 1e-12


def read_symbol_at_plus_xi(monkeypatch):
    monkeypatch.setattr(multiplier, "symbol_on_grid",
                        lambda f, symbol: symbol.evaluate(f.frequencies()))


def drop_cell_volume(monkeypatch):
    norm = grid_mod._norm_of_abs
    monkeypatch.setattr(grid_mod, "_norm_of_abs",
                        lambda mags, p, cell_volume, scratch=None:
                        norm(mags, p, 1.0, scratch))


@pytest.mark.parametrize("mutate, check", [
    (read_symbol_at_plus_xi, test_first_order_orientation),
    (drop_cell_volume, test_lp_norm_sine_closed_form),
], ids=["symbol_at_plus_xi", "no_cell_volume"])
def test_spectral_defect_breaks_a_named_check(monkeypatch, mutate, check):
    # each defect must turn a passing closed-form comparison into a failure
    check()
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        check()


def test_power_on_product_cosines():
    # cos x1 cos x2 splits into four modes (+-1, +-1), all with M = 1/2
    f = GridFunction.from_callable(lambda x, y: np.cos(x) * np.cos(y),
                                   (64, 64), (L, L))
    out = apply_multiplier(f, lm.PowerSymbol(1.0, 1, 2))
    assert np.abs(out.samples - f.samples / 2).max() < 1e-12


def test_general_symbol_dc_removed():
    # measure-backed symbols vanish at frequency zero, so means are removed
    m = lm.DiscreteLevyMeasure.axes(1)
    sym = lm.GeneralSymbol(m, lm.JumpModulator.constant(1.0))
    f = GridFunction((64,), (L,), np.cos(np.arange(64) * L / 64) + 5.0)
    out = apply_multiplier(f, sym)
    assert abs(out.samples.mean()) < 1e-12
    target = np.cos(np.arange(64) * L / 64)
    assert np.abs(out.samples - target).max() < 1e-10


def test_plancherel_contraction():
    rng = np.random.default_rng(6)
    f = GridFunction((64, 64), (L, L), rng.normal(size=(64, 64)))
    for sym in (lm.Riesz2Symbol(1, 2), lm.PowerSymbol(1.0, 2, 2),
                lm.BeurlingAhlforsSymbol()):
        out = apply_multiplier(f, sym)
        assert lp_norm(out, 2.0) <= lp_norm(f, 2.0) * (1 + 1e-12)


def test_roundtrip_inverse_forward():
    rng = np.random.default_rng(7)
    arr = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    f = GridFunction((32, 32), (L, L), arr)
    spec = np.fft.fftn(f.samples)
    back = np.fft.ifftn(spec)
    assert np.abs(back - f.samples).max() / np.abs(arr).max() < 1e-12


def test_linearity_and_commutation():
    rng = np.random.default_rng(8)
    a = GridFunction((32, 32), (L, L), rng.normal(size=(32, 32)))
    b = GridFunction((32, 32), (L, L), rng.normal(size=(32, 32)))
    s1, s2 = lm.Riesz2Symbol(1, 2), lm.PowerSymbol(1.0, 2, 2)
    lin = apply_multiplier(
        a.with_samples(2.0 * a.samples + 3.0 * b.samples), s1)
    ref = 2.0 * apply_multiplier(a, s1).samples + 3.0 * apply_multiplier(b, s1).samples
    assert np.abs(lin.samples - ref).max() < 1e-12
    ab = apply_multiplier(apply_multiplier(a, s1), s2)
    ba = apply_multiplier(apply_multiplier(a, s2), s1)
    assert np.abs(ab.samples - ba.samples).max() < 1e-12
    prod = apply_multiplier(a, lm.ProductSymbol(s1, s2))
    assert np.abs(ab.samples - prod.samples).max() < 1e-12


def test_real_input_real_output_for_real_symbols():
    rng = np.random.default_rng(9)
    f = GridFunction((64, 64), (L, L), rng.normal(size=(64, 64)))
    for sym in (lm.Riesz2Symbol(1, 2), lm.PowerSymbol(0.7, 1, 2),
                lm.RieszComboSymbol([0.5, -1.0])):
        out = apply_multiplier(f, sym)
        denom = np.linalg.norm(out.samples)
        assert np.linalg.norm(out.samples.imag) <= 1e-10 * denom


# the kinds on a 64^2 grid, each with whether its grid values are kept as a
# half spectrum: real and even on the DFT grid.  The mixed pair and the
# first-order Riesz transform are odd in one axis, so they differ from their
# mirror on the Nyquist line, where the grid samples -N/2 but not +N/2;
# Beurling-Ahlfors and a complex combination are even but not real.
_STABLE = lm.TruncatedStableMeasure.axes(2, alpha=1.2, epsilon=0.1)
ROUTE_KINDS = {
    "constant": (lm.ConstantSymbol(0.5, 2), False),
    "power": (lm.PowerSymbol(0.7, 1, 2), True),
    "riesz2": (lm.Riesz2Symbol(1, 2), True),
    "riesz_pair": (lm.RieszPairSymbol(1, 2, 2), False),
    "riesz_combo": (lm.RieszComboSymbol([0.5, -1.0]), True),
    "riesz_combo_complex": (lm.RieszComboSymbol([0.5j, -1.0]), False),
    "general": (lm.GeneralSymbol(_STABLE, lm.JumpModulator.per_axis([1.0, -0.5])),
                True),
    "finite_time": (lm.FiniteTimeSymbol(
        lm.DiscreteLevyMeasure.axes(2), lm.JumpModulator.axis_indicator(1), -0.5),
        True),
    "beurling_ahlfors": (lm.BeurlingAhlforsSymbol(), False),
    "first_order_riesz": (lm.FirstOrderRieszSymbol(1, 2), False),
    "product": (lm.ProductSymbol(lm.Riesz2Symbol(1, 2), lm.PowerSymbol(1.0, 2, 2)),
                True),
}


def _route_grid(real):
    rng = np.random.default_rng(21)
    arr = rng.normal(size=(64, 64))
    if not real:
        arr = arr + 1j * rng.normal(size=(64, 64))
    return GridFunction((64, 64), (L, L), arr)


@pytest.mark.parametrize("kind", sorted(ROUTE_KINDS))
@pytest.mark.parametrize("real", [True, False])
def test_apply_matches_plain_complex_transform(kind, real):
    sym, _ = ROUTE_KINDS[kind]
    f = _route_grid(real)
    m = multiplier.symbol_on_grid(f, sym)
    plain = np.fft.ifftn(np.fft.fftn(f.samples) * m)
    out = apply_multiplier(f, sym).samples
    assert np.linalg.norm(out - plain) <= 1e-13 * np.linalg.norm(plain)
    if not real and kind != "constant":
        # complex samples keep the complex path, bit for bit
        assert np.array_equal(out, plain)


@pytest.mark.parametrize("kind", sorted(ROUTE_KINDS))
def test_half_spectrum_route_by_kind(kind):
    sym, half = ROUTE_KINDS[kind]
    f = _route_grid(True)
    factor = multiplier._grid_factor(f, sym)
    assert multiplier._is_half(factor, f.sizes) == half
    if half:
        assert factor.shape == (64, 33)
        assert not apply_multiplier(f, sym).samples.imag.any()


@pytest.mark.parametrize("sizes", [(16,), (8, 16), (16, 8)])
def test_full_spectrum_rebuilds_the_grid_values(sizes):
    f = GridFunction(sizes, (L,) * len(sizes), np.zeros(sizes))
    sym = (lm.Riesz2Symbol(1, 1) if len(sizes) == 1
           else lm.RieszComboSymbol([0.25, -1.0]))
    m = multiplier.symbol_on_grid(f, sym)
    half = multiplier._grid_factor(f, sym)
    assert np.array_equal(multiplier._full_spectrum(half, sizes), m)


def test_forcing_the_half_route_moves_the_riesz_pair(monkeypatch):
    # the symmetry test carries weight: on a box indicator, the half spectrum
    # of the mixed pair misreads its Nyquist line (odd side lengths give the
    # box nonzero Nyquist coefficients)
    arr = np.zeros((64, 64))
    arr[10:31, 5:42] = 1.0
    f = GridFunction((64, 64), (L, L), arr)
    sym = lm.RieszPairSymbol(1, 2, 2)
    honest = apply_multiplier(f, sym).samples
    monkeypatch.setattr(multiplier, "_conj_symmetric", lambda m: True)
    forced = apply_multiplier(f, sym).samples
    assert np.linalg.norm(forced - honest) > 1e-8 * np.linalg.norm(honest)


def test_dimension_mismatch():
    f = sin_grid(64)
    with pytest.raises(InvalidInputError):
        apply_multiplier(f, lm.Riesz2Symbol(1, 2))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_deterministic():
    cfg = CorpusConfig(d=2, n=64, count=10, seed=99)
    a, ids_a = build_corpus(cfg)
    b, ids_b = build_corpus(cfg)
    assert ids_a == ids_b and len(a) == 10
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))


def test_corpus_count_and_dimension():
    cfg = CorpusConfig(d=1, n=256, count=7, seed=1)
    c, ids = build_corpus(cfg)
    assert len(c) == 7 == len(ids)
    assert all(f.d == 1 for f in c)


def test_bump_l1_close_to_analytic():
    # ||f||_1 of a narrow Gaussian bump ~ amp (sqrt(2 pi) w)^d
    n, w = 256, 0.25
    arr = gaussian_bump((n, n), (L, L), (np.pi, np.pi), w)
    f = GridFunction((n, n), (L, L), arr)
    target = (np.sqrt(2 * np.pi) * w) ** 2
    assert lp_norm(f, 1.0) == pytest.approx(target, rel=1e-2)


def _meshgrid_periodic_r2(sizes, period, center):
    """Squared periodic distance over full coordinate meshgrids (oracle)."""
    axes = [np.arange(n) * (P / n) for n, P in zip(sizes, period)]
    grids = np.meshgrid(*axes, indexing="ij")
    r2 = np.zeros(grids[0].shape)
    for g, c, P in zip(grids, center, period):
        dx = np.remainder(g - c + P / 2, P) - P / 2
        r2 += dx * dx
    return r2


@pytest.mark.parametrize("sizes, period", [((256,), (L,)), ((4096,), (3.0,)),
                                           ((64, 128), (L, 2.5))])
def test_periodic_r2_equals_meshgrid_oracle(sizes, period):
    rng = np.random.default_rng(len(sizes) * sizes[0])
    for _ in range(20):
        center = rng.uniform(-1.0, 2.0, size=len(sizes)) * np.array(period)
        assert np.array_equal(corpus_mod._periodic_r2(sizes, period, center),
                              _meshgrid_periodic_r2(sizes, period, center))


def test_acceptance_corpus_keeps_its_bytes():
    # the digest of the 40-member 256^2 corpus built from full meshgrids
    # (numpy 2.4, x86-64); per-axis distances must not move a bit
    corpus, _ = build_corpus(CorpusConfig(d=2, n=256, count=40, seed=20240808))
    digest = hashlib.sha256()
    for f in corpus:
        digest.update(f.samples.tobytes())
    assert digest.hexdigest() == ("0f141b7c852b4dd2d7be92ba28f1bf2a"
                                  "5e429213b59053172ea7d568ed905553")


@pytest.mark.parametrize("bump", [gaussian_bump, cosine_bump])
@pytest.mark.parametrize("period, center", [
    ((1.0,), (0.5, 0.5)), ((1.0, 1.0), (0.5,)), ((1.0, 1.0, 1.0), (0.5, 0.5))])
def test_bump_rejects_mismatched_axes(bump, period, center):
    # zipping a short period or center against the sizes dropped axes
    with pytest.raises(InvalidInputError):
        bump((8, 8), period, center, 0.1)
    assert bump((8, 8), (1.0, 1.0), (0.5, 0.5), 0.1).shape == (8, 8)


# ---------------------------------------------------------------------------
# norm-ratio sweep
# ---------------------------------------------------------------------------

def test_sweep_bounds_and_determinism():
    corpus, ids = build_corpus(CorpusConfig(d=2, n=64, count=12, seed=3))
    rows, = norm_ratio_sweep([lm.Riesz2Symbol(1, 2)], corpus,
                             [4 / 3, 2.0, 4.0], ids)
    assert [r.p for r in rows] == [4 / 3, 2.0, 4.0]
    assert rows[0].bound == pytest.approx(3.0, abs=1e-12)
    assert rows[2].bound == 3.0
    assert rows[1].max_ratio <= 1.0 + 1e-12  # Plancherel at p = 2
    assert not any(r.violation for r in rows)
    rows2, = norm_ratio_sweep([lm.Riesz2Symbol(1, 2)], corpus,
                              [4 / 3, 2.0, 4.0], ids)
    assert [(r.max_ratio, r.argmax_id) for r in rows] == \
        [(r.max_ratio, r.argmax_id) for r in rows2]


def test_sweep_rejects_zero_norm_member(monkeypatch):
    corpus, ids = build_corpus(CorpusConfig(d=2, n=64, count=3, seed=3))
    zero = corpus[0].with_samples(np.zeros_like(corpus[0].samples))
    calls = []
    evaluate = lm.Riesz2Symbol.evaluate
    monkeypatch.setattr(lm.Riesz2Symbol, "evaluate",
                        lambda self, xi: calls.append(1) or evaluate(self, xi))
    with pytest.raises(InvalidInputError, match="zero norm"):
        norm_ratio_sweep([lm.Riesz2Symbol(1, 2)], corpus + [zero], [2.0],
                         ids + ["zero"])
    assert calls == []  # the norms are checked before any symbol is evaluated


def test_sweep_empty_corpus():
    with pytest.raises(InvalidInputError):
        norm_ratio_sweep([lm.Riesz2Symbol(1, 2)], [], [2.0])


def _reference_sweep(symbol, corpus, p_list, ids):
    """(max ratio, argmax id) per p, member by member through
    ``apply_multiplier`` and ``lp_norm``; the first maximum wins."""
    transformed = [apply_multiplier(f, symbol) for f in corpus]
    out = []
    for p in p_list:
        ratios = [lp_norm(g, p) / lp_norm(f, p)
                  for f, g in zip(corpus, transformed)]
        k = int(np.argmax(ratios))
        out.append((ratios[k], ids[k]))
    return out


def test_sweep_equals_per_symbol_reference():
    corpus, ids = build_corpus(CorpusConfig(d=2, n=64, count=10, seed=4))
    stable = lm.TruncatedStableMeasure.axes(2, alpha=1.2, epsilon=0.1)
    symbols = [lm.ConstantSymbol(1.0), lm.Riesz2Symbol(1, 2),
               lm.GeneralSymbol(stable, lm.JumpModulator.per_axis([1.0, -1.0]))]
    p_list = [4 / 3, 2.0, 4.0]
    sweeps = norm_ratio_sweep(symbols, corpus, p_list, ids)
    assert len(sweeps) == len(symbols)
    for sym, rows in zip(symbols, sweeps):
        assert [r.p for r in rows] == p_list
        got = [(r.max_ratio, r.argmax_id) for r in rows]
        assert got == _reference_sweep(sym, corpus, p_list, ids)
    # the identity keeps its FFT-free path: every ratio is exactly 1
    assert [r.max_ratio for r in sweeps[0]] == [1.0, 1.0, 1.0]


def test_sweep_with_complex_member_equals_reference():
    # a complex member takes the complex path under every symbol, also under
    # one kept as a half spectrum
    corpus, ids = build_corpus(CorpusConfig(d=2, n=64, count=4, seed=5))
    corpus.append(corpus[1].with_samples(corpus[1].samples * (0.6 + 0.8j)
                                         + 0.3j * corpus[2].samples))
    ids.append("complex")
    symbols = [lm.Riesz2Symbol(1, 2), lm.RieszPairSymbol(1, 2, 2)]
    sweeps = norm_ratio_sweep(symbols, corpus, [4 / 3, 3.0], ids)
    assert sweeps.half_spectrum_symbols == 1
    assert sorted(sweeps.seconds) == ["norms", "sweep", "symbols"]
    for sym, rows in zip(symbols, sweeps):
        assert [(r.max_ratio, r.argmax_id) for r in rows] == \
            _reference_sweep(sym, corpus, [4 / 3, 3.0], ids)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sweep_rows_do_not_depend_on_pool_size(monkeypatch, threads):
    # more threads than CPUs and a short switch interval interleave the
    # member tasks as much as they can be; the rows must not move
    corpus, ids = build_corpus(CorpusConfig(d=2, n=64, count=7, seed=4))
    stable = lm.TruncatedStableMeasure.axes(2, alpha=1.2, epsilon=0.1)
    symbols = [lm.ConstantSymbol(0.5), lm.Riesz2Symbol(1, 2),
               lm.GeneralSymbol(stable, lm.JumpModulator.per_axis([1.0, -1.0]))]
    p_list = [4 / 3, 2.0, 4.0]
    monkeypatch.setattr(multiplier, "_pool_size", lambda members: 1)
    single = norm_ratio_sweep(symbols, corpus, p_list, ids)
    monkeypatch.setattr(multiplier, "_pool_size", lambda members: threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = norm_ratio_sweep(symbols, corpus, p_list, ids)
    finally:
        sys.setswitchinterval(interval)
    assert pooled == single
    for sym, rows in zip(symbols, pooled):
        assert [(r.max_ratio, r.argmax_id) for r in rows] == \
            _reference_sweep(sym, corpus, p_list, ids)


def test_sweep_rejects_nonfinite_symbol_values(monkeypatch):
    corpus, ids = build_corpus(CorpusConfig(d=2, n=64, count=3, seed=3))
    evaluate = lm.Riesz2Symbol.evaluate

    def nan_at_one_bin(self, xi):
        out = evaluate(self, xi)
        out[3, 5] = np.nan
        return out

    monkeypatch.setattr(lm.Riesz2Symbol, "evaluate", nan_at_one_bin)
    with pytest.raises(InvalidInputError, match="finite"):
        apply_multiplier(corpus[0], lm.Riesz2Symbol(1, 2))
    with pytest.raises(InvalidInputError, match="finite"):
        norm_ratio_sweep([lm.Riesz2Symbol(1, 2)], corpus, [2.0], ids)


def test_sweep_rejects_mixed_grids_and_bad_ids():
    corpus, ids = build_corpus(CorpusConfig(d=2, n=64, count=3, seed=3))
    small, _ = build_corpus(CorpusConfig(d=2, n=32, count=1, seed=3))
    sym = [lm.Riesz2Symbol(1, 2)]
    with pytest.raises(InvalidInputError):
        norm_ratio_sweep(sym, corpus + small, [2.0], ids + ["small"])
    wide = GridFunction(corpus[0].sizes, (L, 2 * L), corpus[0].samples)
    with pytest.raises(InvalidInputError):
        norm_ratio_sweep(sym, corpus + [wide], [2.0], ids + ["wide"])
    with pytest.raises(InvalidInputError):
        norm_ratio_sweep(sym, corpus, [2.0], ids[:2])
    line, _ = build_corpus(CorpusConfig(d=1, n=64, count=2, seed=3))
    with pytest.raises(InvalidInputError):
        norm_ratio_sweep(sym, line, [2.0])


def test_holder_pairing_bound():
    # |<Mf, g>| <= (p*-1) ||f||_p ||g||_q on sampled pairs
    corpus, _ = build_corpus(CorpusConfig(d=2, n=64, count=6, seed=11))
    sym = lm.Riesz2Symbol(1, 2)
    p = 3.0
    ps = PStar(p)
    for f, g in zip(corpus[:3], corpus[3:]):
        mf = apply_multiplier(f, sym)
        pairing = abs((mf.samples * np.conj(g.samples)).sum() * f.cell_volume)
        assert pairing <= (ps.bound + 1e-9) * lp_norm(f, p) * lp_norm(g, ps.q)
