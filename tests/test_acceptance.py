"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
timings.  Monte Carlo sizes and tolerances are pinned here; every expected
value is either exact arithmetic, an independently computed oracle, or a
3-sigma Monte Carlo band.
"""

import time

import numpy as np
import pytest

import levymult as lm
from levymult import scenarios as sc
from levymult import stochastic as st
from levymult.corpus import CorpusConfig, build_corpus
from levymult.grid import GridFunction
from levymult.lattice import PeriodicLattice
from levymult.multiplier import apply_multiplier, norm_ratio_sweep

L = 2 * np.pi
N_PATHS = 100_000


@pytest.fixture(scope="module", autouse=True)
def prewarm():
    """Run each Monte Carlo entry point once so budgets exclude first-call
    costs."""
    scn = sc.scenario_by_name("walk_phi1")
    st.evolve_ensemble(scn, 8, seed=1)
    st.levy_system_check(scn.lattice, scn.window, 8, seed=1)
    st.projection_identity_check(scn.lattice, scn.f, -0.1, 8, seed=1)
    yield


def report(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


# ---------------------------------------------------------------------------

def test_criterion_01_norm_bound():
    t0 = time.time()
    corpus, ids = build_corpus(CorpusConfig(d=2, n=256, count=40,
                                            seed=20240808))
    m_ax = lm.DiscreteLevyMeasure.axes(2)
    m_diag = lm.DiscreteLevyMeasure.from_atoms(
        [([1.0, 1.0], 1.0), ([-1.0, -1.0], 1.0),
         ([1.0, -1.0], 1.0), ([-1.0, 1.0], 1.0)])
    symbols = {
        "power_0.5": lm.PowerSymbol(0.5, 1, 2),
        "power_1.0": lm.PowerSymbol(1.0, 1, 2),
        "power_1.5": lm.PowerSymbol(1.5, 1, 2),
        "riesz2": lm.Riesz2Symbol(1, 2),
        "riesz_pair": lm.RieszPairSymbol(1, 2, 2),
        "riesz_combo_pm": lm.RieszComboSymbol([1.0, -1.0]),
        "general_axes_pm": lm.GeneralSymbol(
            m_ax, lm.JumpModulator.per_axis([1.0, -1.0])),
        "general_diag_pm": lm.GeneralSymbol(
            m_diag, lm.JumpModulator.table(
                {(1.0, 1.0): 1.0, (-1.0, -1.0): 1.0,
                 (1.0, -1.0): -1.0, (-1.0, 1.0): -1.0})),
    }
    p_list = [4 / 3, 1.5, 2.0, 3.0, 4.0]
    worst = 0.0
    worst_at = ""
    sweeps = norm_ratio_sweep(list(symbols.values()), corpus, p_list, ids)
    for name, rows in zip(symbols, sweeps):
        for row in rows:
            assert not row.violation, \
                f"{name} p={row.p}: ratio {row.max_ratio} > bound {row.bound}"
            assert row.max_ratio <= row.bound * (1 + 5e-3)
            if row.max_ratio / row.bound > worst:
                worst = row.max_ratio / row.bound
                worst_at = f"{name}@p={row.p:g}"
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(1, f"40-member corpus at 256^2, 8 symbols x 5 exponents; all "
              f"ratios <= (p*-1)(1+5e-3); tightest ratio/bound = {worst:.4f} "
              f"({worst_at}); {elapsed:.1f}s")


def test_criterion_02_kernel_closed_form_vs_oracle():
    t0 = time.time()
    xs = np.geomspace(0.1, 10.0, 20)
    ys = np.geomspace(0.13, 8.7, 20)  # offset so no pair hits |x| == |y|
    worst = 0.0
    for x in xs:
        for y in ys:
            c = lm.kernel_closed_form(x, y)
            q = lm.kernel_numeric(x, y, tol=1e-11)
            worst = max(worst, abs(c - q) / abs(q))
    assert worst <= 1e-8, f"closed-vs-integral relative error {worst:.2e}"
    hom = 0.0
    for x in xs[::3]:
        for y in ys[::3]:
            for h in (2.0, 10.0, 1 / 3):
                a = lm.kernel_closed_form(h * x, h * y) * h * h
                b = lm.kernel_closed_form(x, y)
                hom = max(hom, abs(a - b) / abs(b))
    assert hom <= 1e-12, f"homogeneity defect {hom:.2e}"
    elapsed = time.time() - t0
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report(2, f"400 log-spaced points: closed form vs time-integral oracle "
              f"agree to {worst:.2e} (<= 1e-8); homogeneity defect {hom:.2e} "
              f"(<= 1e-12); {elapsed:.1f}s")


def smooth_corpus(n):
    h = L / n
    x = np.arange(n) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    members = []
    members.append(np.exp(-((X - 2.5) ** 2 + (Y - 3.5) ** 2) / (2 * 0.5 ** 2)))
    members.append(np.exp(-((X - 4.0) ** 2 + (Y - 2.0) ** 2) / (2 * 0.8 ** 2)))
    members.append(np.cos(2 * X + Y) * np.exp(-((X - np.pi) ** 2
                                                + (Y - np.pi) ** 2) / 4.0))
    out = []
    for arr in members:
        arr = arr - arr.mean()
        out.append(GridFunction((n, n), (L, L), arr))
    return out


def test_criterion_03_pv_convolution_vs_spectral():
    t0 = time.time()
    target_sym = lm.PowerSymbol(1.0, 1, 2)
    rms_by_n = []
    max_at_512 = 0.0
    for n in (128, 256, 512):
        errs = []
        for f in smooth_corpus(n):
            spec = apply_multiplier(f, target_sym)
            pv = lm.pv_convolve(f, rho=2 * L / n)
            rel = (np.linalg.norm(pv.samples - spec.samples)
                   / np.linalg.norm(spec.samples))
            errs.append(rel)
            if n == 512:
                max_at_512 = max(max_at_512, rel)
        rms_by_n.append(float(np.sqrt(np.mean(np.square(errs)))))
    assert max_at_512 <= 5e-2, f"relative error {max_at_512:.3f} at N=512"
    assert rms_by_n[0] > rms_by_n[1] > rms_by_n[2], \
        f"no monotone refinement: {rms_by_n}"
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    report(3, f"p.v. kernel convolution vs spectral application: rms error "
              f"{rms_by_n[0]:.4f} -> {rms_by_n[1]:.4f} -> {rms_by_n[2]:.4f} "
              f"over N=128/256/512 (max at 512: {max_at_512:.4f} <= 0.05); "
              f"{elapsed:.1f}s")


def test_criterion_04_epsilon_and_alpha_limits():
    t0 = time.time()
    mod = lm.JumpModulator.axis_indicator(1)
    target = lm.PowerSymbol(1.0, 1, 2)
    grid = np.stack(np.meshgrid(np.linspace(-3, 3, 9), np.linspace(-3, 3, 9),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[np.abs(grid).sum(axis=1) > 0.4]
    tv = target.evaluate(grid)
    sups = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        stbl = lm.TruncatedStableMeasure.axes(2, 1.0, eps)
        sups.append(float(np.abs(lm.GeneralSymbol(stbl, mod).evaluate(grid)
                                 - tv).max()))
    assert all(a > b for a, b in zip(sups, sups[1:])), \
        f"epsilon sweep not monotone: {sups}"
    r_target = np.abs(lm.Riesz2Symbol(1, 2).evaluate(grid))
    alpha_gap = float(np.abs(lm.PowerSymbol(1.99, 1, 2).evaluate(grid)
                             - r_target).max())
    assert alpha_gap <= 1e-2, f"alpha -> 2 gap {alpha_gap:.3e}"
    elapsed = time.time() - t0
    report(4, f"inner-truncation sweep decreases monotonically "
              f"{sups[0]:.2e} -> {sups[-1]:.2e}; alpha=1.99 vs squared-Riesz "
              f"gap {alpha_gap:.2e} (<= 1e-2); {elapsed:.1f}s")


def test_criterion_05_levy_system():
    t0 = time.time()
    lat = PeriodicLattice((32,), 1.0, np.array([[1], [-1], [2], [-2]]),
                          np.array([1.0, 1.0, 0.5, 0.5]),
                          np.array([1.0, 1.0, -1.0, -1.0], dtype=complex))
    rows = st.levy_system_check(lat, (0.0, 1.0), N_PATHS, seed=515)
    for r in rows:
        assert r.passed, f"{r.name}: |{r.lhs} - {r.rhs}| > 3 x {r.stderr}"
    ones = next(r for r in rows if r.name == "ones")
    assert ones.rhs == pytest.approx(lat.total_rate * 1.0, abs=1e-9)
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    worst = max(r.sigmas for r in rows)
    report(5, f"jump-compensation identity: {len(rows)} functionals at "
              f"{N_PATHS} paths, worst deviation {worst:.2f} sigma (<= 3); "
              f"counting case reproduces rate x window exactly; {elapsed:.1f}s")


def test_criterion_06_differential_subordination():
    t0 = time.time()
    scenarios = sc.shipped_scenarios()
    per = -(-N_PATHS // len(scenarios))  # ceil division
    total = 0
    for scn in scenarios:
        viol, _, qvfail = st.subordination_check(
            st.evolve_ensemble(scn, per, seed=616))
        total += per
        assert viol == 0, f"{scn.name}: {viol} jump-domination violations"
        assert qvfail == 0, f"{scn.name}: accumulated variation crossed"
    elapsed = time.time() - t0
    report(6, f"quadratic-variation domination: 0 violations on {total} "
              f"paths across {len(scenarios)} scenarios (exact, no "
              f"tolerance); {elapsed:.1f}s")


def test_criterion_07_moment_bound():
    t0 = time.time()
    names = ("walk_phi1", "walk_phi_neg", "two_scale_signs", "two_scale_half")
    worst_margin = np.inf
    for name in names:
        scn = sc.scenario_by_name(name)
        res = st.evolve_ensemble(scn, N_PATHS, seed=717)
        for row in st.burkholder_bound_check(res, [1.5, 2.0, 3.0]):
            assert row.passed, \
                f"{name} p={row.p}: E|F|^p = {row.lhs} vs {row.rhs}"
            worst_margin = min(worst_margin, row.margin_sigmas)
    elapsed = time.time() - t0
    report(7, f"moment bound E|F|^p <= (p*-1)^p E|G|^p holds on "
              f"{len(names)} scenarios x p in {{1.5, 2, 3}} at {N_PATHS} "
              f"paths (closest margin {worst_margin:.0f} sigma); "
              f"{elapsed:.1f}s")


def test_criterion_08_projection_identity():
    t0 = time.time()
    f = sc.bump_profile(32, 16.0, 2.0)
    n_curve = [250, 1000, 4000, 16000]
    results = {}
    for label, phi in (("plus", 1.0), ("sign_pattern", -1.0)):
        lat = PeriodicLattice((32,), 1.0, np.array([[1], [-1]]),
                              np.array([1.0, 1.0]),
                              np.array([phi, phi], dtype=complex))
        pr = st.projection_identity_check(lat, f, -0.8, 256_000, seed=818,
                                          n_curve=n_curve)
        assert pr.l2_error <= 5 * pr.stderr_norm, \
            f"{label}: error {pr.l2_error} vs 5 x {pr.stderr_norm}"
        results[label] = pr
    errs = np.array([e for _, e in results["plus"].grouped_curve])
    slope = float(np.polyfit(np.log(n_curve), np.log(errs), 1)[0])
    assert abs(slope + 0.5) <= 0.15, f"convergence slope {slope:.3f}"
    elapsed = time.time() - t0
    pr = results["plus"]
    report(8, f"duality recovery of the finite-window multiplier: l2 error "
              f"{pr.l2_error:.2e} <= 5 x stderr {pr.stderr_norm:.2e} for "
              f"both modulators; convergence slope {slope:+.3f} in "
              f"-0.5 +- 0.15; {elapsed:.1f}s")


def test_criterion_09_l1_mass():
    t0 = time.time()
    scn = sc.scenario_by_name("mass_rate4")
    cases = [((0.0, 1.0), 16.0), ((0.0, 2.0), 32.0)]
    zs = []
    for window, expect in cases:
        mc, se, closed = st.l1_mass_check(scn.lattice, scn.f, window,
                                          N_PATHS, seed=919)
        assert closed == pytest.approx(expect, abs=1e-9)
        assert abs(mc - closed) <= 3 * se, \
            f"window {window}: {mc} vs {closed} (se {se})"
        zs.append(abs(mc - closed) / se)
    elapsed = time.time() - t0
    report(9, f"dominating-process mass: {cases[0][1]:g} and {cases[1][1]:g} "
              f"reproduced within {max(zs):.2f} sigma (<= 3) at {N_PATHS} "
              f"paths; {elapsed:.1f}s")


def test_criterion_10_levy_khinchin_and_semigroup():
    t0 = time.time()
    tol = 1e-12
    measures = [
        lm.DiscreteLevyMeasure.axes(1),
        lm.DiscreteLevyMeasure.from_atoms(
            [([1.0], 1.0), ([-1.0], 1.0), ([2.0], 0.5), ([-2.0], 0.5)]),
    ]
    worst = 0.0
    for m in measures:
        for t in (0.2, 0.7, 1.5):
            pt = lm.transition_measure(m, t, tol=tol)
            budget = 10 * max(pt.tail_bound, 1e-16)
            for xi in (0.3, 0.9, 1.7, 2.9):
                lhs, rhs = lm.levy_khinchin_check(m, t, xi, tol=tol)
                gap = abs(lhs - rhs)
                assert gap <= budget, f"t={t} xi={xi}: {gap} > {budget}"
                worst = max(worst, gap / budget)
        for (t1, t2) in ((0.4, 0.9), (0.3, 1.2)):
            p1 = lm.transition_measure(m, t1, tol=tol)
            p2 = lm.transition_measure(m, t2, tol=tol)
            p3 = lm.transition_measure(m, t1 + t2, tol=tol)
            conv = p1.convolve(p2)
            span = p3.array.shape[0] // 2
            l1 = sum(abs(conv.weight_at(float(z)) - p3.weight_at(float(z)))
                     for z in range(-span, span + 1))
            budget = 10 * max(p1.tail_bound + p2.tail_bound + p3.tail_bound,
                              1e-16)
            assert l1 <= budget, f"semigroup gap {l1} > {budget}"
    elapsed = time.time() - t0
    report(10, f"transform identity and semigroup property on a (t, xi) "
               f"sweep: worst gap at {worst:.2e} of the 10x truncation "
               f"budget; {elapsed:.1f}s")
