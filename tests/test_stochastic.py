import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import levymult as lm
from levymult import _accel
from levymult import scenarios as sc
from levymult import stochastic as st
from levymult._accel import core
from levymult._accel import rng as prng
from levymult.exceptions import InvalidInputError
from levymult.lattice import PeriodicLattice


def walk_lattice(phi=(1.0, 1.0), n=32):
    return PeriodicLattice((n,), 1.0, np.array([[1], [-1]]),
                           np.array([1.0, 1.0]), np.array(phi, dtype=complex))


def rich_lattice():
    return PeriodicLattice((32,), 1.0, np.array([[1], [-1], [2], [-2]]),
                           np.array([1.0, 1.0, 0.5, 0.5]),
                           np.array([1.0, 1.0, -1.0, -1.0], dtype=complex))


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------

def test_path_bitwise_deterministic():
    lat = walk_lattice()
    a = st.sample_path(lat, (0.0, 1.0), seed=5, path_index=9)
    b = st.sample_path(lat, (0.0, 1.0), seed=5, path_index=9)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.atom_indices, b.atom_indices)
    c = st.sample_path(lat, (0.0, 1.0), seed=6, path_index=9)
    assert not (len(a.times) == len(c.times)
                and np.array_equal(a.times, c.times))


def test_prefix_stability():
    lat = walk_lattice()
    c1, o1, t1, a1 = st.sample_ensemble(lat, (0.0, 1.0), 100, seed=3)
    c2, o2, t2, a2 = st.sample_ensemble(lat, (0.0, 1.0), 1000, seed=3)
    assert np.array_equal(c1, c2[:100])
    assert np.array_equal(t1, t2[:o2[100]])
    assert np.array_equal(a1, a2[:o2[100]])


def test_jump_count_poisson_mean():
    # |nu| = 4, unit window: mean 4 within 3 sigma = 3 sqrt(4/n)
    lat = PeriodicLattice((32,), 1.0, np.array([[1], [-1]]),
                          np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    counts, *_ = st.sample_ensemble(lat, (0.0, 1.0), 40000, seed=11)
    assert counts.mean() == pytest.approx(4.0, abs=3 * np.sqrt(4 / 40000))
    # variance of a Poisson count equals its mean
    assert counts.var() == pytest.approx(4.0, rel=0.05)


def test_jump_histogram_matches_weights():
    # weights {1, 3} on +-1: frequencies 1/4, 3/4 within 3 sigma
    lat = PeriodicLattice((32,), 1.0, np.array([[1], [-1]]),
                          np.array([1.0, 3.0]), np.array([1.0, 1.0]))
    counts, offsets, times, aidx = st.sample_ensemble(lat, (0.0, 1.0), 50000,
                                                      seed=12)
    freq = np.bincount(aidx, minlength=2) / len(aidx)
    se = 3 * np.sqrt(0.25 * 0.75 / len(aidx))
    assert freq[0] == pytest.approx(0.25, abs=se)
    assert freq[1] == pytest.approx(0.75, abs=se)


def test_gaps_are_exponential():
    lat = walk_lattice()
    counts, offsets, times, _ = st.sample_ensemble(lat, (0.0, 4.0), 4000,
                                                   seed=13)
    first = times[offsets[:-1][counts > 0]]  # first arrival of each path
    ks = stats.kstest(first, "expon", args=(0.0, 1.0 / lat.total_rate))
    assert ks.pvalue > 0.01


def test_exchangeability_uniform_order_statistics():
    lat = walk_lattice()
    tt = st.exchangeability_times(lat, (0.0, 1.0), 6000, seed=14)
    assert stats.kstest(tt, "uniform").pvalue > 0.01
    # the pooled times are exactly those of the modal-count paths
    counts, offsets, times, _ = st.sample_ensemble(lat, (0.0, 1.0), 6000,
                                                   seed=14)
    modal = np.bincount(counts[counts > 0]).argmax()
    direct = np.concatenate([times[offsets[m]:offsets[m + 1]]
                             for m in np.nonzero(counts == modal)[0]])
    assert np.array_equal(tt, direct)


def test_empty_measure_rejected():
    with pytest.raises(InvalidInputError):
        PeriodicLattice((8,), 1.0, np.array([[1], [-1]]),
                        np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        PeriodicLattice((8,), 1.0, np.zeros((0, 1), dtype=np.int64),
                        np.zeros(0), np.zeros(0, dtype=complex))


def test_scenario_base_point_bounds():
    lat = walk_lattice()
    with pytest.raises(InvalidInputError):
        st.Scenario("bad", lat, np.zeros(32), 32, (0.0, 1.0))


# ---------------------------------------------------------------------------
# single-path evolution against independent oracles
# ---------------------------------------------------------------------------

def gauss_legendre_compensator(lat, path, x0, f, t, nodes_per_unit=160):
    """Independent compensator oracle: Gauss-Legendre panels between jumps."""
    s, u = path.window
    f = np.asarray(f, dtype=complex).ravel()
    fhat = lat.fft(f)

    def pf(flat, v):
        return (fhat * np.exp((u - v) * lat.psi) * lat.phase[:, flat]).sum() \
            / lat.n_points

    events = [s] + [tt for tt in path.times if tt <= t] + [t]
    positions = [0]
    pos = np.zeros(lat.d, dtype=np.int64)
    for a in path.atom_indices[:len(events) - 2]:
        pos = (pos + lat.atom_steps[a]) % np.array(lat.sizes)
        positions.append(int(np.ravel_multi_index(pos, lat.sizes)))
    total = 0.0 + 0.0j
    gl_x, gl_w = np.polynomial.legendre.leggauss(12)
    for i in range(len(events) - 1):
        v1, v2 = events[i], events[i + 1]
        if v2 <= v1:
            continue
        base = (int(x0) + positions[i]) % lat.n_points if lat.d == 1 else None
        if lat.d == 1:
            flat = base
        n_panels = max(1, int(np.ceil((v2 - v1) * nodes_per_unit / 12)))
        edges = np.linspace(v1, v2, n_panels + 1)
        for a_, b_ in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a_ + b_), 0.5 * (b_ - a_)
            for xg, wg in zip(gl_x, gl_w):
                v = mid + half * xg
                acc = 0.0 + 0.0j
                for st_i, w_i, ph_i in zip(lat.atom_steps, lat.weights, lat.phi):
                    shifted = (flat + int(st_i[0])) % lat.n_points
                    acc += w_i * ph_i * (pf(shifted, v) - pf(flat, v))
                total += half * wg * acc
    return total


def test_single_path_matches_gl_oracle():
    lat = rich_lattice()
    f = sc.bump_profile(32, 14.0, 2.5)
    for idx in range(4):
        path = st.sample_path(lat, (0.0, 1.0), seed=21, path_index=idx)
        pair = st.evolve_martingales(lat, path, 7, f)
        # rebuild F_u from the jump sum and the independent GL compensator
        comp = gauss_legendre_compensator(lat, path, 7, f, 1.0)
        jsum = 0.0 + 0.0j
        fhat = lat.fft(f)
        pos = 7
        for t, a in zip(path.times, path.atom_indices):
            new = (pos + int(lat.atom_steps[a][0])) % lat.n_points
            pf_new = (fhat * np.exp((1.0 - t) * lat.psi)
                      * lat.phase[:, new]).sum() / lat.n_points
            pf_old = (fhat * np.exp((1.0 - t) * lat.psi)
                      * lat.phase[:, pos]).sum() / lat.n_points
            jsum += lat.phi[a] * (pf_new - pf_old)
            pos = new
        assert pair.f_terminal == pytest.approx(jsum - comp, abs=5e-10)


def test_lemma_identity_phi_one_pathwise():
    lat = walk_lattice()
    f = sc.bump_profile(32, 16.0, 3.0)
    for idx in range(6):
        path = st.sample_path(lat, (0.0, 1.0), seed=22, path_index=idx)
        pair = st.evolve_martingales(lat, path, 16, f)
        resid = np.abs(pair.f_values + pair.p_su_f_x0 - pair.g_values).max()
        assert resid < 1e-12


def test_terminal_boundary_value_exact():
    lat = walk_lattice()
    f = sc.bump_profile(32, 16.0, 3.0)
    path = st.sample_path(lat, (0.0, 1.0), seed=23, path_index=1)
    pair = st.evolve_martingales(lat, path, 16, f)
    shift = int(path.jumps.sum()) % 32
    assert pair.g_terminal == f[(16 + shift) % 32]


def test_phi_zero_gives_zero_martingale():
    lat = walk_lattice(phi=(0.0, 0.0))
    f = sc.bump_profile(32, 16.0, 3.0)
    path = st.sample_path(lat, (0.0, 1.0), seed=24, path_index=2)
    pair = st.evolve_martingales(lat, path, 16, f)
    assert np.abs(pair.f_values).max() == 0.0
    assert pair.qv_f[-1] == 0.0


def test_constant_boundary_function():
    lat = rich_lattice()
    f = np.full(32, 2.5)
    path = st.sample_path(lat, (0.0, 1.0), seed=25, path_index=0)
    pair = st.evolve_martingales(lat, path, 5, f)
    assert np.abs(pair.f_values).max() < 1e-13  # increments all vanish
    assert np.allclose(pair.g_values, 2.5, atol=1e-13)


def test_quadratic_variation_monotone_dominance():
    lat = rich_lattice()
    f = sc.bump_profile(32, 10.0, 2.0)
    for idx in range(8):
        path = st.sample_path(lat, (0.0, 1.5), seed=26, path_index=idx)
        pair = st.evolve_martingales(lat, path, 4, f)
        gap = pair.qv_g - pair.qv_f
        assert np.all(gap >= 0)
        # exact per-jump statement: each [G,G] increment dominates [F,F]'s,
        # so the gap is nondecreasing in t (no tolerance on the increments)
        assert np.all(pair.qv_g_increments >= pair.qv_f_increments)


# ---------------------------------------------------------------------------
# ensemble checks
# ---------------------------------------------------------------------------

ORACLE_SCENARIOS = ("two_scale_signs", "plane_axis_phi")


def test_single_path_consistent_with_ensemble_kernel():
    # every path of the ensemble kernel against the per-path oracle
    for name in ORACLE_SCENARIOS:
        scn = sc.scenario_by_name(name)
        res = st.evolve_ensemble(scn, 32, seed=31)
        for idx in range(32):
            path = st.sample_path(scn.lattice, scn.window, seed=31,
                                  path_index=idx)
            pair = st.evolve_martingales(scn.lattice, path, scn.x0, scn.f)
            assert res.f_u[idx] == pytest.approx(pair.f_terminal, abs=1e-12)
            assert res.g_u[idx] == pytest.approx(pair.g_terminal, abs=1e-12)
            assert res.qv_f[idx] == pytest.approx(pair.qv_f[-1], abs=1e-12)
            assert res.qv_g[idx] == pytest.approx(pair.qv_g[-1], abs=1e-12)
            assert res.violations[idx] == np.sum(
                pair.qv_f_increments > pair.qv_g_increments)
            lemma = np.abs(pair.f_values + pair.p_su_f_x0
                           - pair.g_values).max()
            assert res.lemma_residual[idx] == pytest.approx(lemma, abs=1e-12)


def test_checkpoint_values_are_parabolic_extensions():
    # G at a checkpoint t is P_{t,u} f at the path's position at t
    for name in ORACLE_SCENARIOS:
        scn = sc.scenario_by_name(name)
        lat = scn.lattice
        u = scn.window[1]
        res = st.evolve_ensemble(scn, 32, seed=32)
        start = np.array(np.unravel_index(scn.x0, lat.sizes))
        for idx in range(32):
            path = st.sample_path(lat, scn.window, seed=32, path_index=idx)
            positions = path.positions()
            for c, t in enumerate(scn.checkpoints):
                jumped = np.searchsorted(path.times, t, side="right")
                flat = lat.flat_index(start + positions[jumped])
                want = lat.parabolic(scn.f, u - t)[flat]
                assert res.g_cp[idx, c] == pytest.approx(want, abs=1e-12)


def test_projection_rows_match_oracle():
    # row m is the spectrum of H(w) = F_u(w - X_u), with F_u taken from the
    # oracle started at every base point
    for name in ORACLE_SCENARIOS:
        scn = sc.scenario_by_name(name)
        lat = scn.lattice
        window = (scn.window[0] - scn.window[1], 0.0)
        n = 4
        counts, offsets, times, aidx = st.sample_ensemble(lat, window, n,
                                                          seed=34)
        rows = core.projection_ensemble(
            np.asarray(lat.sizes, dtype=np.int64), lat.psi, lat.fft(scn.f),
            lat.sphi, lat.phase, lat.atom_steps, lat.phi, *window,
            counts, offsets, times, aidx)
        for m in range(n):
            path = st.sample_path(lat, window, seed=34, path_index=m)
            f_u = np.array([st.evolve_martingales(lat, path, x, scn.f)
                            .f_terminal for x in range(lat.n_points)])
            want = np.roll(f_u.reshape(lat.sizes), tuple(path.positions()[-1]),
                           axis=tuple(range(lat.d))).ravel()
            assert np.abs(lat.ifft(rows[m]) - want).max() < 1e-12


def test_levy_sums_match_direct_sum():
    for name in ORACLE_SCENARIOS:
        scn = sc.scenario_by_name(name)
        lat = scn.lattice
        s = scn.window[0]
        n = 32
        counts, offsets, times, aidx = st.sample_ensemble(lat, scn.window, n,
                                                          seed=35)
        paths = [st.sample_path(lat, scn.window, seed=35, path_index=m)
                 for m in range(n)]
        for fid, p1 in st.LEVY_FUNCTIONALS.values():
            j = p1 - 1
            period = lat.sizes[j] * lat.h
            sums = core.levy_ensemble(
                np.asarray(lat.sizes, dtype=np.int64), lat.h, lat.atom_steps,
                s, counts, offsets, times, aidx, fid, float(p1), period)
            for m, path in enumerate(paths):
                y = path.positions()[:-1, j] * lat.h  # before each jump
                z = path.jumps[:, j] * lat.h
                direct = [np.ones(path.n_jumps),
                          (path.atom_indices == p1).astype(float),
                          z, (path.times - s) * z,
                          np.cos(2 * np.pi * y / period) * z][fid]
                assert sums[m] == pytest.approx(direct.sum(), abs=1e-12)


def test_get_backend_names_the_numpy_core():
    assert _accel.get_backend() is core
    assert _accel.get_backend("numpy") is core
    with pytest.raises(ValueError):
        _accel.get_backend("jit")


def test_first_monte_carlo_call_releases_its_scenario():
    # in a fresh interpreter, so that the check is the first Monte Carlo call
    code = textwrap.dedent("""
        import gc
        import weakref

        from levymult import scenarios, stochastic

        scn = scenarios.scenario_by_name("two_scale_signs")
        ref = weakref.ref(scn.lattice)
        stochastic.subordination_check(stochastic.evolve_ensemble(scn, 8, 1))
        del scn
        gc.collect()
        assert ref() is None, "the lattice outlived its scenario"
    """)
    src = Path(lm.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_martingale_drift_and_tower():
    scn = sc.scenario_by_name("walk_phi1")
    rows, tower = st.martingale_property_check(
        st.evolve_ensemble(scn, 20000, seed=41))
    for r in rows:
        assert r.sigmas <= 3.0
    for t, mean, se, target in tower:
        assert abs(mean - target) <= 3.0 * se


def test_drift_and_tower_without_checkpoints():
    scn = sc.scenario_by_name("walk_phi1")
    bare = st.Scenario("bare", scn.lattice, scn.f, scn.x0, scn.window)
    rows, tower = st.martingale_property_check(st.evolve_ensemble(bare, 500, 2))
    assert [(r.t1, r.t2, r.process) for r in rows] == [
        (*scn.window, "F"), (*scn.window, "G")]
    assert [r.t for r in tower] == [scn.window[1]]


def test_tower_target_against_transition_series_oracle():
    # E G_t = P_{s,u} f(x0): the right side computed with the truncated-series
    # transition measure (module oracle), independent of the spectral tables
    scn = sc.scenario_by_name("walk_phi1")
    lat = scn.lattice
    s, u = scn.window
    measure = lm.DiscreteLevyMeasure.from_atoms([([1.0], 1.0), ([-1.0], 1.0)])
    pt = lm.transition_measure(measure, u - s, tol=1e-13)
    wrapped = np.zeros(32)
    offs = pt.offsets()[0]
    for off, w in zip(offs.ravel(), pt.array.ravel()):
        wrapped[(scn.x0 + int(off)) % 32] += w
    oracle = (wrapped * scn.f.real).sum()
    res = st.evolve_ensemble(scn, 100, seed=1)
    assert res.p_su_f_x0.real == pytest.approx(oracle, abs=1e-12)


def test_subordination_exact_across_scenarios():
    for scn in sc.shipped_scenarios():
        viol, lemma, qvfail = st.subordination_check(
            st.evolve_ensemble(scn, 4000, seed=43))
        assert viol == 0
        assert qvfail == 0
        if scn.name == "walk_phi1":
            assert lemma < 1e-11


def test_burkholder_bound():
    for name in ("walk_phi1", "two_scale_signs", "two_scale_half"):
        scn = sc.scenario_by_name(name)
        rows = st.burkholder_bound_check(
            st.evolve_ensemble(scn, 20000, seed=44), [1.5, 2.0, 3.0])
        for r in rows:
            assert r.passed, f"{name} p={r.p}: {r.lhs} vs {r.rhs}"


def test_p2_isometry_chain():
    # E |F_u|^2 == E [F,F]_u (martingale isometry, F_s = 0), and the
    # variation of F never exceeds that of G pathwise
    scn = sc.scenario_by_name("two_scale_signs")
    n = 30000
    res = st.evolve_ensemble(scn, n, seed=45)
    sq = np.abs(res.f_u) ** 2
    ef2 = sq.mean()
    eqf = res.qv_f.mean()
    se = np.sqrt(sq.var(ddof=1) / n + res.qv_f.var(ddof=1) / n)
    assert abs(ef2 - eqf) <= 3 * se
    assert np.all(res.qv_f <= res.qv_g + 1e-12)


def _projection(l2_error, stderr_norm):
    return st.ProjectionResult(None, None, l2_error, stderr_norm, 1.0, [], [])


@pytest.mark.parametrize("row, passed", [
    # drift: within 3 sigma, or below 1e-12 whatever the stderr
    (st.DriftRow(0.0, 0.5, "F", 1e-13 + 0j, 0.0), True),
    (st.DriftRow(0.0, 0.5, "F", 1e-13 + 0j, 1e-20), True),
    (st.DriftRow(0.0, 0.5, "G", 0.75 + 0j, 0.25), True),
    (st.DriftRow(0.0, 0.5, "G", complex(np.nextafter(0.75, 1.0)), 0.25),
     False),
    # tower: exact agreement, then the 3-sigma edge
    (st.TowerRow(0.5, 0.25 + 0.5j, 0.0, 0.25 + 0.5j), True),
    (st.TowerRow(0.5, 1.75 + 0j, 0.25, 1.0 + 0j), True),
    (st.TowerRow(0.5, complex(np.nextafter(1.75, 2.0)), 0.25, 1.0 + 0j),
     False),
    # subordination is exact; the lemma residual does not decide it
    (st.SubordinationResult(0, 1.0, 0), True),
    (st.SubordinationResult(1, 0.0, 0), False),
    (st.SubordinationResult(0, 0.0, 1), False),
    # l1 mass: 3 sigma either side of the closed form
    (st.L1MassResult(16.75, 0.25, 16.0), True),
    (st.L1MassResult(15.25, 0.25, 16.0), True),
    (st.L1MassResult(float(np.nextafter(16.75, 17.0)), 0.25, 16.0), False),
    # projection: l2 error up to 5 stderr
    (_projection(5 * 0.1, 0.1), True),
    (_projection(float(np.nextafter(5 * 0.1, 1.0)), 0.1), False),
])
def test_pass_rule_boundaries(row, passed):
    assert row.passed is passed


def test_projection_identity_planar_lattice():
    lat2 = PeriodicLattice((16, 16), 1.0,
                           np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                           np.array([1.0] * 4),
                           np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    prof = (sc.bump_profile(16, 8.0, 2.0)[:, None]
            * sc.bump_profile(16, 8.0, 2.0)[None, :]).ravel()
    pr = st.projection_identity_check(lat2, prof, -0.6, 20000, seed=77)
    assert pr.spec_norm > 0.1
    assert pr.l2_error <= 5 * pr.stderr_norm


def test_levy_system_all_functionals():
    lat = rich_lattice()
    rows = st.levy_system_check(lat, (0.0, 1.0), 30000, seed=46)
    assert {r.name for r in rows} == set(st.LEVY_FUNCTIONALS)
    for r in rows:
        assert r.passed, f"{r.name}: lhs={r.lhs} rhs={r.rhs} se={r.stderr}"


def test_levy_system_counting_identity():
    # F == 1 reduces both sides to the expected jump count |nu| (t - s)
    lat = rich_lattice()
    rows = st.levy_system_check(lat, (0.0, 0.7), 20000, seed=47,
                                functionals=["ones"])
    assert rows[0].rhs == pytest.approx(3.0 * 0.7, abs=1e-9)


def test_levy_system_atom_indicator_rate():
    # F = 1{jump == atom 0} has compensator weight_0 (t - s)
    lat = rich_lattice()
    rows = st.levy_system_check(lat, (0.0, 1.0), 20000, seed=48,
                                functionals=["jump_is_atom0"])
    assert rows[0].rhs == pytest.approx(1.0, abs=1e-9)


def test_levy_system_odd_functional_vanishes():
    lat = rich_lattice()
    rows = st.levy_system_check(lat, (0.0, 1.0), 20000, seed=49,
                                functionals=["jump_coord_1"])
    assert rows[0].rhs == 0.0  # symmetry kills the mean jump


def test_levy_system_planar_lattice():
    lat = PeriodicLattice((16, 16), 1.0,
                          np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                          np.array([1.0, 1.0, 0.5, 0.5]),
                          np.array([1.0, 1.0, 1.0, 1.0], dtype=complex))
    rows = st.levy_system_check(lat, (0.0, 0.8), 15000, seed=50)
    for r in rows:
        assert r.passed, f"{r.name}: lhs={r.lhs} rhs={r.rhs} se={r.stderr}"
    ones = next(r for r in rows if r.name == "ones")
    assert ones.rhs == pytest.approx(3.0 * 0.8, abs=1e-9)


def test_levy_system_asymmetric_measure():
    # a drifting walk: every functional has a nonzero compensator, so the
    # check sees the jump law and the position process, not only symmetry
    lat = PeriodicLattice((8,), 1.0, np.array([[1], [-1]]),
                          np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    rows = st.levy_system_check(lat, (0.0, 1.0), 100000, seed=56)
    for r in rows:
        assert r.rhs != 0.0
        assert r.passed, f"{r.name}: lhs={r.lhs} rhs={r.rhs} se={r.stderr}"


# ---------------------------------------------------------------------------
# projection identity
# ---------------------------------------------------------------------------

def test_projection_phi_one_closed_form():
    # phi == 1: m_s = 1 - e^{2|s| psi}, i.e. h = f - p_{2|s|} * f
    lat = walk_lattice()
    f = sc.bump_profile(32, 16.0, 2.0)
    pr = st.projection_identity_check(lat, f, -0.8, 20000, seed=51)
    closed = f - lat.parabolic(f, 1.6).real
    assert np.abs(pr.h_spec.real - closed).max() < 1e-12
    assert pr.l2_error <= 5 * pr.stderr_norm


def test_projection_sign_pattern():
    lat = walk_lattice(phi=(-1.0, -1.0))
    f = sc.bump_profile(32, 16.0, 2.0)
    pr = st.projection_identity_check(lat, f, -0.8, 20000, seed=52)
    assert pr.l2_error <= 5 * pr.stderr_norm
    # the recovered function is the negative of the phi == 1 case
    lat1 = walk_lattice()
    pr1 = st.projection_identity_check(lat1, f, -0.8, 20000, seed=52)
    assert np.abs(pr.h_spec + pr1.h_spec).max() < 1e-12


def test_projection_phi_zero():
    lat = walk_lattice(phi=(0.0, 0.0))
    f = sc.bump_profile(32, 16.0, 2.0)
    pr = st.projection_identity_check(lat, f, -0.8, 2000, seed=53)
    assert pr.spec_norm == 0.0
    assert np.abs(pr.h_mc).max() < 1e-14


def test_projection_short_window_vanishes():
    lat = walk_lattice()
    f = sc.bump_profile(32, 16.0, 2.0)
    pr = st.projection_identity_check(lat, f, -1e-6, 4000, seed=54)
    assert pr.spec_norm < 1e-5
    assert np.linalg.norm(pr.h_mc) < 1e-3


def test_projection_error_curve_shrinks():
    lat = walk_lattice()
    f = sc.bump_profile(32, 16.0, 2.0)
    pr = st.projection_identity_check(lat, f, -0.8, 32000, seed=55,
                                      n_curve=[500, 4000, 32000])
    errs = [e for _, e in pr.error_curve]
    assert errs[-1] < errs[0]


def test_space_integrated_moment_bound():
    # sum_x E|F_u(x)|^p h <= (p*-1)^p ||f||_p^p: the projection rows hold
    # F_u(. - X_u) per path, and the lattice p-norm is shift invariant
    from levymult.grid import PStar

    lat = walk_lattice()
    f = sc.bump_profile(32, 16.0, 2.5)
    n = 8000
    counts, offsets, times, aidx = st.sample_ensemble(lat, (-0.8, 0.0), n,
                                                      seed=81)
    rows = core.projection_ensemble(
        np.asarray(lat.sizes, dtype=np.int64), lat.psi, lat.fft(f), lat.sphi,
        lat.phase, lat.atom_steps, lat.phi, -0.8, 0.0,
        counts, offsets, times, aidx)
    phys = np.fft.ifft(rows, axis=1)
    for p in (1.5, 2.0, 3.0):
        per_path = (np.abs(phys) ** p).sum(axis=1) * lat.h
        lhs = per_path.mean()
        se = per_path.std(ddof=1) / np.sqrt(n)
        rhs = PStar(p).bound ** p * (np.abs(f) ** p).sum() * lat.h
        assert lhs <= rhs + 3 * se, f"p={p}: {lhs} vs {rhs}"


def test_projection_requires_negative_s():
    lat = walk_lattice()
    with pytest.raises(InvalidInputError):
        st.projection_identity_check(lat, np.zeros(32), 0.5, 100, seed=1)


def test_projection_window_variance_guard():
    lat = walk_lattice()
    with pytest.raises(InvalidInputError):
        st.projection_identity_check(lat, np.zeros(32), -1e4, 100, seed=1)


def test_levy_system_unknown_functional():
    lat = walk_lattice()
    with pytest.raises(InvalidInputError):
        st.levy_system_check(lat, (0.0, 1.0), 100, seed=1,
                             functionals=["unbounded_nonsense"])


# ---------------------------------------------------------------------------
# L1 mass
# ---------------------------------------------------------------------------

def test_l1_mass_rate4():
    scn = sc.scenario_by_name("mass_rate4")
    mc, se, closed = st.l1_mass_check(scn.lattice, scn.f, scn.window,
                                      30000, seed=61)
    assert closed == pytest.approx(16.0, abs=1e-12)
    assert abs(mc - closed) <= 3 * se


def test_l1_mass_zero_function():
    scn = sc.scenario_by_name("mass_rate4")
    mc, se, closed = st.l1_mass_check(scn.lattice, np.zeros(32), scn.window,
                                      1000, seed=62)
    assert mc == 0.0 and closed == 0.0


def test_l1_mass_window_linearity():
    scn = sc.scenario_by_name("mass_rate4")
    mc1, se1, c1 = st.l1_mass_check(scn.lattice, scn.f, (0.0, 1.0), 30000, 63)
    mc2, se2, c2 = st.l1_mass_check(scn.lattice, scn.f, (0.0, 2.0), 30000, 63)
    assert c2 == pytest.approx(2 * c1, abs=1e-12)
    assert abs(mc2 - 2 * mc1) <= 3 * (se2 + 2 * se1)


# ---------------------------------------------------------------------------
# rng building blocks
# ---------------------------------------------------------------------------

def test_uniforms_deterministic_and_in_range():
    k = prng.path_keys(7, np.arange(100), 0)
    u = prng.uniforms(k[:, None], np.arange(50)[None, :])
    assert u.shape == (100, 50)
    assert np.all((0 <= u) & (u < 1))
    k2 = prng.path_keys(7, np.arange(100), 0)
    assert np.array_equal(u, prng.uniforms(k2[:, None], np.arange(50)[None, :]))


def test_uniforms_pass_ks():
    k = prng.path_keys(123, np.arange(500), 3)
    u = prng.uniforms(k[:, None], np.arange(200)[None, :]).ravel()
    assert stats.kstest(u, "uniform").pvalue > 0.001
