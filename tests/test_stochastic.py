import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
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
    # conditioned on their count, the jump times are uniform order
    # statistics: the pooled times of the modal-count paths are uniform
    lat = walk_lattice()
    counts, offsets, times, _ = st.sample_ensemble(lat, (0.0, 1.0), 6000,
                                                   seed=14)
    modal = np.bincount(counts[counts > 0]).argmax()
    pooled = np.concatenate([times[offsets[m]:offsets[m + 1]]
                             for m in np.nonzero(counts == modal)[0]])
    assert stats.kstest(pooled, "uniform").pvalue > 0.01


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
    """Independent compensator oracle: Gauss-Legendre panels between jumps,
    with every column built whole by ``lat.column``."""
    s, u = path.window
    f = np.asarray(f, dtype=complex).ravel()
    fhat = lat.fft(f)

    def pf(coords, v):
        flat = np.ravel_multi_index(coords, lat.sizes, mode="wrap")
        return (fhat * np.exp((u - v) * lat.psi) * lat.column(flat)).sum() \
            / lat.n_points

    events = [s] + [tt for tt in path.times if tt <= t] + [t]
    positions = [np.array(np.unravel_index(int(x0), lat.sizes))]
    for a in path.atom_indices[:len(events) - 2]:
        positions.append(positions[-1] + lat.atom_steps[a])
    total = 0.0 + 0.0j
    gl_x, gl_w = np.polynomial.legendre.leggauss(12)
    for i in range(len(events) - 1):
        v1, v2 = events[i], events[i + 1]
        if v2 <= v1:
            continue
        pos = positions[i]
        n_panels = max(1, int(np.ceil((v2 - v1) * nodes_per_unit / 12)))
        edges = np.linspace(v1, v2, n_panels + 1)
        for a_, b_ in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a_ + b_), 0.5 * (b_ - a_)
            for xg, wg in zip(gl_x, gl_w):
                v = mid + half * xg
                acc = 0.0 + 0.0j
                for st_i, w_i, ph_i in zip(lat.atom_steps, lat.weights, lat.phi):
                    acc += w_i * ph_i * (pf(pos + st_i, v) - pf(pos, v))
                total += half * wg * acc
    return total


def gl_terminal_f(lat, path, x0, f):
    """F_u on one path: the jump sum minus the Gauss-Legendre compensator,
    every column built whole by ``lat.column``."""
    u = path.window[1]
    fhat = lat.fft(np.asarray(f, dtype=complex).ravel())
    pos = np.array(np.unravel_index(int(x0), lat.sizes))
    jsum = 0.0 + 0.0j
    for t, a in zip(path.times, path.atom_indices):
        new = pos + lat.atom_steps[a]
        pf_new, pf_old = ((fhat * np.exp((u - t) * lat.psi)
                           * lat.column(np.ravel_multi_index(
                               c, lat.sizes, mode="wrap"))).sum()
                          / lat.n_points for c in (new, pos))
        jsum += lat.phi[a] * (pf_new - pf_old)
        pos = new
    return jsum - gauss_legendre_compensator(lat, path, x0, f, u)


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
                      * lat.column(new)).sum() / lat.n_points
            pf_old = (fhat * np.exp((1.0 - t) * lat.psi)
                      * lat.column(pos)).sum() / lat.n_points
            jsum += lat.phi[a] * (pf_new - pf_old)
            pos = new
        assert pair.f_terminal == pytest.approx(jsum - comp, abs=5e-10)


def test_single_path_matches_gl_oracle_in_2d():
    # a non-square lattice with the off-axis atom (1, 2) and complex phi: the
    # kernel contracts per-axis factors, the oracle builds each column whole
    scn = skew_scenario()
    lat = scn.lattice
    res = st.evolve_ensemble(scn, 4, seed=21)
    jumps = 0
    for idx in range(4):
        path = st.sample_path(lat, scn.window, seed=21, path_index=idx)
        jumps += path.n_jumps
        want = gl_terminal_f(lat, path, scn.x0, scn.f)
        pair = st.evolve_martingales(lat, path, scn.x0, scn.f)
        assert pair.f_terminal == pytest.approx(want, abs=5e-10)
        assert res.f_u[idx] == pytest.approx(want, abs=5e-10)
    assert jumps > 0


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

def skew_scenario():
    """6 x 10 lattice (N = lcm = 30) with a (1, 2) atom and mixed phi."""
    lat = PeriodicLattice((6, 10), 1.0,
                          np.array([[1, 2], [-1, -2], [1, 0], [-1, 0],
                                    [0, 1], [0, -1]]),
                          np.array([0.75, 0.75, 1.0, 1.0, 0.5, 0.5]),
                          np.array([1.0, 1.0, -0.5, -0.5, 0.5j, 0.5j]))
    x, y = np.meshgrid(np.arange(6), np.arange(10), indexing="ij")
    f = np.cos(2 * np.pi * x / 6) + np.sin(2 * np.pi * (x + 2 * y) / 10) \
        + 0.3j * np.cos(2 * np.pi * y / 5)
    return st.Scenario("skew_6x10", lat, f, 23, (0.0, 1.0),
                       checkpoints=(0.3, 0.7))


def oracle_scenarios():
    return [sc.scenario_by_name("two_scale_signs"),
            sc.scenario_by_name("plane_axis_phi"), skew_scenario()]


def test_single_path_consistent_with_ensemble_kernel():
    # every path of the ensemble kernel against the per-path oracle
    for scn in oracle_scenarios():
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
    # G at a checkpoint t is P_{t,u} f at the path's position at t, and F_t
    # is the oracle's terminal F on (s, t] with boundary function P_{t,u} f
    for scn in oracle_scenarios():
        lat = scn.lattice
        s, u = scn.window
        res = st.evolve_ensemble(scn, 32, seed=32)
        start = np.array(np.unravel_index(scn.x0, lat.sizes))
        for idx in range(32):
            path = st.sample_path(lat, scn.window, seed=32, path_index=idx)
            positions = path.positions()
            for c, t in enumerate(scn.checkpoints):
                jumped = np.searchsorted(path.times, t, side="right")
                flat = np.ravel_multi_index(start + positions[jumped],
                                            lat.sizes, mode="wrap")
                f_t = lat.parabolic(scn.f, u - t)
                assert res.g_cp[idx, c] == pytest.approx(f_t[flat],
                                                         abs=1e-12)
                head = st.PoissonPath((s, t), path.times[:jumped],
                                      path.atom_indices[:jumped],
                                      path.jumps[:jumped], path.seed,
                                      path.path_index)
                pair = st.evolve_martingales(lat, head, scn.x0, f_t)
                assert res.f_cp[idx, c] == pytest.approx(pair.f_terminal,
                                                         abs=1e-12)


def long_window_scenario():
    """|psi| T = 150 on a 1-d lattice: its tau-window takes several pieces."""
    lat = PeriodicLattice((32,), 1.0, np.array([[1], [-1], [3], [-3]]),
                          np.array([1.0, 1.0, 0.5, 0.5]),
                          np.array([1.0, 1.0, -0.5, -0.5], dtype=complex))
    f = sc.bump_profile(32, 10.0, 2.0) + 0.2j * sc.bump_profile(32, 20.0, 5.0)
    span = 150.0 / np.abs(lat.psi).max()
    return st.Scenario("long_window", lat, f, 5, (0.0, span),
                       checkpoints=(span / 3, span / 2))


def assert_matches_oracle(scn, n, seed):
    """Every output of the evolve kernel against the per-path oracle, the
    checkpoints against P_{t,u} f and the oracle on (s, t], to 1e-12."""
    lat = scn.lattice
    s, u = scn.window
    res = st.evolve_ensemble(scn, n, seed)
    start = np.array(np.unravel_index(scn.x0, lat.sizes))
    for idx in range(n):
        path = st.sample_path(lat, scn.window, seed=seed, path_index=idx)
        pair = st.evolve_martingales(lat, path, scn.x0, scn.f)
        got = [res.f_u[idx], res.g_u[idx], res.qv_f[idx], res.qv_g[idx],
               res.lemma_residual[idx]]
        want = [pair.f_terminal, pair.g_terminal, pair.qv_f[-1],
                pair.qv_g[-1], np.abs(pair.f_values + pair.p_su_f_x0
                                      - pair.g_values).max()]
        assert np.abs(np.subtract(got, want)).max() < 1e-12
        assert res.violations[idx] == np.sum(
            pair.qv_f_increments > pair.qv_g_increments)
        for c, t in enumerate(scn.checkpoints):
            jumped = np.searchsorted(path.times, t, side="right")
            flat = np.ravel_multi_index(start + path.positions()[jumped],
                                        lat.sizes, mode="wrap")
            f_t = lat.parabolic(scn.f, u - t)
            head = st.PoissonPath((s, t), path.times[:jumped],
                                  path.atom_indices[:jumped],
                                  path.jumps[:jumped], seed, idx)
            f_cp = st.evolve_martingales(lat, head, scn.x0, f_t).f_terminal
            assert abs(res.g_cp[idx, c] - f_t[flat]) < 1e-12
            assert abs(res.f_cp[idx, c] - f_cp) < 1e-12


def test_multi_piece_window_matches_oracle():
    scn = long_window_scenario()
    s, u = scn.window
    pieces, nodes = core.evolve_pieces(scn.lattice.psi, u - s)
    assert pieces == 11 and nodes <= core.MAX_NODES
    assert_matches_oracle(scn, 8, seed=5)


def test_checkpoint_on_a_node_matches_oracle():
    # plane_axis_phi: max|psi| = 8 on the window (0, 0.8), so K = 23 is odd
    # and the midpoint checkpoint's tau = 0.4 is the middle node exactly
    scn = sc.scenario_by_name("plane_axis_phi")
    s, u = scn.window
    pieces, k = core.evolve_pieces(scn.lattice.psi, u - s)
    nodes = core.chebyshev(np.empty(0), u - s, k)[0]
    assert (pieces, k) == (1, 23) and u - scn.checkpoints[0] in nodes
    res = st.evolve_ensemble(scn, 16, seed=33)
    assert np.isfinite(res.f_cp).all() and np.isfinite(res.g_cp).all()
    assert_matches_oracle(scn, 16, seed=33)


def test_node_count_is_the_fewest_meeting_the_tail_bound():
    def tail(b, k):
        return 2 * (b / 2) ** k / math.factorial(k)

    for b in (0.0, 0.5, 3.2, 7.0, 40.0):
        k = core._node_count(b)
        assert tail(b, k) < 1e-17 and (k == 1 or tail(b, k - 1) >= 1e-17)
    # and K nodes interpolate e^{tau psi} to roundoff on the whole window
    psi = -np.linspace(0.0, 8.0, 41)
    k = core._node_count(8.0 * 0.8 / 2)
    nodes, B = core.chebyshev(np.linspace(0.0, 0.8, 97), 0.8, k)
    exact = np.exp(np.linspace(0.0, 0.8, 97)[:, None] * psi)
    assert np.abs(B @ np.exp(nodes[:, None] * psi) - exact).max() < 1e-14
    # the fewest equal pieces whose node count is at most MAX_NODES
    for span in (0.8, 25.0, 200.0):
        pieces, k = core.evolve_pieces(psi, span)
        assert k == core._node_count(8.0 * span / (2 * pieces)) <= \
            core.MAX_NODES
        assert pieces == 1 or core._node_count(
            8.0 * span / (2 * (pieces - 1))) > core.MAX_NODES


def test_evolve_kernel_memory_is_per_path():
    # the node tables and the event blocks do not grow with the ensemble:
    # ten times the paths adds less than 320 bytes per added event, the
    # event list, its values and the per-path rows (a block-free
    # evaluation with K = 31 nodes adds ~2,000)
    scn = long_window_scenario()
    lat = scn.lattice
    s, u = scn.window
    peaks = []
    for n in (1000, 10000):
        data = st.sample_ensemble(lat, scn.window, n, 3)
        tracemalloc.start()
        try:
            core.evolve_ensemble(
                np.asarray(lat.sizes), lat.psi, lat.fft(scn.f), lat.sphi,
                lat.phase, lat.atom_steps, lat.phi, scn.f, scn.x0, s, u,
                *data, np.asarray(scn.checkpoints))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append((peak, int(data[0].sum()) + 3 * n))
    (small, e_small), (big, e_big) = peaks
    assert big - small < 320 * (e_big - e_small)


def test_evolve_kernel_keeps_one_piece_of_tables():
    # 64 x 64 at |psi| T = 150: eleven pieces of two 4 MB tables each
    lat = PeriodicLattice((64, 64), 1.0,
                          np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                          np.ones(4), np.array([1.0, 1.0, 0.0, 0.0]))
    span = 150.0 / 8.0
    pieces, k = core.evolve_pieces(lat.psi, span)
    table = 2 * k * lat.n_points * 16
    assert pieces == 11
    f = np.cos(2 * np.pi * np.arange(lat.n_points) / 64).astype(complex)
    data = st.sample_ensemble(lat, (0.0, span), 20, 3)
    tracemalloc.start()
    try:
        core.evolve_ensemble(np.asarray(lat.sizes), lat.psi, lat.fft(f),
                             lat.sphi, lat.phase, lat.atom_steps, lat.phi, f,
                             7, 0.0, span, *data, np.array([span / 2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table + (2 << 20)


def test_projection_rows_match_oracle():
    # row m is the spectrum of H(w) = F_u(w - X_u), with F_u taken from the
    # oracle started at every base point
    for scn in oracle_scenarios():
        lat = scn.lattice
        window = (scn.window[0] - scn.window[1], 0.0)
        n = 4
        counts, offsets, times, aidx = st.sample_ensemble(lat, window, n,
                                                          seed=34)
        rows = lat.fft(scn.f) * core.projection_ensemble(
            np.asarray(lat.sizes, dtype=np.int64), lat.psi, lat.sphi,
            lat.phase, lat.atom_steps, lat.phi, *window,
            counts, offsets, times, aidx)
        for m in range(n):
            path = st.sample_path(lat, window, seed=34, path_index=m)
            f_u = np.array([st.evolve_martingales(lat, path, x, scn.f)
                            .f_terminal for x in range(lat.n_points)])
            want = np.roll(f_u.reshape(lat.sizes), tuple(path.positions()[-1]),
                           axis=tuple(range(lat.d))).ravel()
            assert np.abs(lat.ifft(rows[m]) - want).max() < 1e-12


# ---------------------------------------------------------------------------
# mutation guards: each defect must push a kernel past its oracle tolerance
# ---------------------------------------------------------------------------

def evolve_kernel_gap(scn, n=8, seed=31):
    """Largest gap of the evolve kernel's F_u and [G, G]_u from the oracle."""
    res = st.evolve_ensemble(scn, n, seed)
    gaps = []
    for idx in range(n):
        path = st.sample_path(scn.lattice, scn.window, seed=seed,
                              path_index=idx)
        pair = st.evolve_martingales(scn.lattice, path, scn.x0, scn.f)
        gaps += [abs(res.f_u[idx] - pair.f_terminal),
                 abs(res.qv_g[idx] - pair.qv_g[-1])]
    return max(gaps)


def projection_kernel_gap(scn, n=2, seed=34):
    """Largest gap of the projection rows from the oracle started at every
    base point, as in ``test_projection_rows_match_oracle``."""
    lat = scn.lattice
    window = (scn.window[0] - scn.window[1], 0.0)
    counts, offsets, times, aidx = st.sample_ensemble(lat, window, n, seed)
    rows = lat.fft(scn.f) * core.projection_ensemble(
        np.asarray(lat.sizes, dtype=np.int64), lat.psi, lat.sphi, lat.phase,
        lat.atom_steps, lat.phi, *window, counts, offsets, times, aidx)
    gaps = []
    for m in range(n):
        path = st.sample_path(lat, window, seed=seed, path_index=m)
        f_u = np.array([st.evolve_martingales(lat, path, x, scn.f).f_terminal
                        for x in range(lat.n_points)])
        want = np.roll(f_u.reshape(lat.sizes), tuple(path.positions()[-1]),
                       axis=tuple(range(lat.d))).ravel()
        gaps.append(np.abs(lat.ifft(rows[m]) - want).max())
    return max(gaps)


def swap_axis_factors(monkeypatch):
    factors = core._factors
    monkeypatch.setattr(core, "_factors",
                        lambda *args: factors(*args)[::-1])


def drop_jump_factor(monkeypatch):
    # omega = 1, so the column after a jump is the column before it
    table = core._jump_table
    monkeypatch.setattr(core, "_jump_table",
                        lambda sizes, phase, steps, phi:
                        table(sizes, phase, 0 * steps, phi))


def scale_compensator(monkeypatch):
    blocks = core._blocks

    def scaled(*args):
        for *head, drop in blocks(*args):
            yield (*head, 1.01 * drop)
    monkeypatch.setattr(core, "_blocks", scaled)


def conjugate_phi(monkeypatch):
    # phi is argument 6 of the evolve kernel and 5 of the projection kernel;
    # skew_6x10 has phi = 0.5i on (0, +-1)
    for name, i in (("evolve_ensemble", 6), ("projection_ensemble", 5)):
        kernel = getattr(core, name)
        monkeypatch.setattr(core, name,
                            lambda *args, kernel=kernel, i=i: kernel(
                                *args[:i], np.conj(args[i]), *args[i + 1:]))


def walk_one_step_ahead(monkeypatch):
    walk = core.walk

    def ahead(sizes, atom_steps, start, offsets, aidx):
        return (walk(sizes, atom_steps, start, offsets, aidx)
                + atom_steps[aidx]) % sizes
    monkeypatch.setattr(core, "walk", ahead)


def transpose_table_axes(monkeypatch):
    # each node's grid table read with the lattice axes swapped
    tables = core._tables

    def transposed(shape, psi, spectra, nodes, out):
        tables(shape, psi, spectra, nodes, out)
        out[:] = out.reshape(*shape, *out.shape[1:]).swapaxes(0, 1).reshape(
            out.shape)
        return out
    monkeypatch.setattr(core, "_tables", transposed)


def scale_h_table(monkeypatch):
    tables = core._tables

    def scaled(*args):
        out = tables(*args)
        out[:, 1] *= 1.01
        return out
    monkeypatch.setattr(core, "_tables", scaled)


def reflect_tau(monkeypatch):
    # tau = u - t read as T - tau = t - s
    cheb = core.chebyshev
    monkeypatch.setattr(core, "chebyshev",
                        lambda points, a, n: cheb(a - points, a, n))


def drop_odd_nodes(monkeypatch):
    cheb = core.chebyshev

    def every_other(points, a, n):
        nodes, B = cheb(points, a, n)
        B[:, 1::2] = 0.0
        return nodes, B / B.sum(axis=1, keepdims=True)
    monkeypatch.setattr(core, "chebyshev", every_other)


def previous_tau_is_own(monkeypatch):
    monkeypatch.setattr(core, "_previous", lambda tau, off, span: tau)


@pytest.mark.parametrize("mutate, scenario, kernels", [
    (swap_axis_factors, "plane_axis_phi", (projection_kernel_gap,)),
    (drop_jump_factor, "skew_6x10", (projection_kernel_gap,)),
    (scale_compensator, "skew_6x10", (projection_kernel_gap,)),
    (conjugate_phi, "skew_6x10", (evolve_kernel_gap, projection_kernel_gap)),
    (walk_one_step_ahead, "skew_6x10", (evolve_kernel_gap,
                                        projection_kernel_gap)),
    (transpose_table_axes, "skew_6x10", (evolve_kernel_gap,)),
    (scale_h_table, "skew_6x10", (evolve_kernel_gap,)),
    (reflect_tau, "skew_6x10", (evolve_kernel_gap,)),
    (drop_odd_nodes, "skew_6x10", (evolve_kernel_gap,)),
    (previous_tau_is_own, "skew_6x10", (evolve_kernel_gap,)),
])
def test_kernel_defect_breaks_the_oracle_comparison(monkeypatch, mutate,
                                                    scenario, kernels):
    scn = (skew_scenario() if scenario == "skew_6x10"
           else sc.scenario_by_name(scenario))
    for gap in kernels:
        assert gap(scn) < 1e-12
    mutate(monkeypatch)
    for gap in kernels:
        assert gap(scn) > 1e-12, gap.__name__


def test_levy_sums_match_direct_sum():
    for scn in oracle_scenarios():
        lat = scn.lattice
        s = scn.window[0]
        n = 32
        counts, jumps = st._sample_jumps(lat, scn.window, n, seed=35)
        paths = [st.sample_path(lat, scn.window, seed=35, path_index=m)
                 for m in range(n)]
        period = lat.sizes[0] * lat.h
        for name, fn in st.LEVY_FUNCTIONALS.items():
            sums = core.levy_ensemble(counts, fn.value(lat, s, jumps))
            for m, path in enumerate(paths):
                y = path.positions()[:-1, 0] * lat.h  # before each jump
                z = path.jumps[:, 0] * lat.h
                direct = {
                    "ones": np.ones(path.n_jumps),
                    "jump_is_atom0": (path.atom_indices == 0).astype(float),
                    "jump_coord_1": z,
                    "time_weighted_jump_1": (path.times - s) * z,
                    "position_cos_jump_1": np.cos(2 * np.pi * y / period) * z,
                    "position_cos_jump_sq_1":
                        np.cos(2 * np.pi * y / period) * z ** 2,
                }[name]
                assert sums[m] == pytest.approx(direct.sum(), abs=1e-12)


def test_column_is_the_dft_column():
    # conj(fft(delta_x))_k = e^{2 pi i k.x/n}; the kernels read its per-axis
    # factors from the N = lcm(sizes) = 30 roots of unity in lat.phase
    lat = skew_scenario().lattice
    assert lat.phase.shape == (30,)
    coords = np.indices(lat.sizes).reshape(lat.d, -1).T
    factors = core._factors(np.asarray(lat.sizes), lat.phase, coords)
    assert [f.shape for f in factors] == [(60, 6), (60, 10)]
    product = (factors[0][:, :, None] * factors[1][:, None, :]).reshape(60, 60)
    for x in range(lat.n_points):
        delta = np.zeros(lat.n_points)
        delta[x] = 1.0
        want = np.conj(lat.fft(delta))
        assert np.abs(lat.column(x) - want).max() < 1e-14
        assert np.abs(product[x] - want).max() < 1e-14


def test_lattice_tables_are_small():
    # the dense P x P phase table took 268 MB at 64 x 64
    tracemalloc.start()
    try:
        lat = PeriodicLattice((64, 64), 1.0,
                              np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                              np.ones(4), np.array([1.0, 1.0, 0.0, 0.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert lat.phase.shape == (64,)
    # the projection's per-call table of step columns fits in one block
    table = core._jump_table(np.asarray(lat.sizes), lat.phase, lat.atom_steps,
                             lat.phi)
    assert table.shape == (5, 64 * 64)
    assert table.size <= core.BLOCK


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
    return st.ProjectionResult(None, None, l2_error, stderr_norm, 1.0, [], 2)


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
    # drift: the same nonzero value on every path (stderr 0) fails
    (st.DriftRow(0.0, 0.5, "F", 1.0 + 0j, 0.0), False),
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


def plane64():
    """The 64 x 64 axis walk with an axis modulator, and a bump on it."""
    lat = PeriodicLattice((64, 64), 1.0,
                          np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                          np.ones(4), np.array([1.0, 1.0, 0.0, 0.0]))
    f = (sc.bump_profile(64, 20.0, 6.0)[:, None]
         * sc.bump_profile(64, 40.0, 6.0)[None, :]).ravel()
    return lat, f


def traced_peak(fn, *args):
    """The tracemalloc peak of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_projection_reduction_holds_no_second_row_matrix():
    # the rows are folded as the kernel makes them: the whole check stays
    # below one (n/2, P) row matrix, which the check held (with a kernel
    # block of 5.3 MB on top) before it streamed its rows
    lat, f = plane64()
    peak = traced_peak(st.projection_identity_check, lat, f, -0.8, 500, 11)
    assert peak < 250 * lat.n_points * 16


def test_projection_check_memory_is_flat():
    # ten times the paths on 64 x 64 adds less than 2 MB (the event list
    # and a sampled chunk); a check holding its row matrix adds 147 MB
    lat, f = plane64()
    small, big = (traced_peak(st.projection_identity_check, lat, f, -0.8, n,
                              11) for n in (500, 5000))
    assert big - small < 2 << 20


@pytest.mark.parametrize("stage, out_bytes", [
    # f_cp and g_cp at two checkpoints, f_u, g_u complex; qv_f, qv_g,
    # violations, lemma_residual 8 bytes each
    ("evolve", 6 * 16 + 4 * 8),
    ("levy_system", 8 * len(st.LEVY_FUNCTIONALS)),  # one sum per functional
    ("l1_mass", 8),
])
def test_stage_memory_grows_only_by_the_per_path_outputs(stage, out_bytes):
    # ~75 jumps per path, so both sizes run in chunks of 840 paths: ten
    # times the paths adds the per-path outputs, and at most 1 MB for the
    # chunks' spread of event counts and the per-path reductions (a stage
    # holding its whole ensemble's jumps adds tens of MB, the evolve
    # kernel's events ~190 MB)
    scn = long_window_scenario()
    lat = scn.lattice
    run = {"evolve": lambda n: st.evolve_ensemble(scn, n, 3),
           "levy_system": lambda n: st.levy_system_check(lat, scn.window,
                                                         n, 3),
           "l1_mass": lambda n: st.l1_mass_check(lat, scn.f, scn.window, n,
                                                 3)}[stage]
    assert st.chunk_paths(lat, scn.window[1] - scn.window[0], 2) < 1000
    small, big = (traced_peak(run, n) for n in (1000, 10000))
    assert big - small < out_bytes * 9000 + (1 << 20)


def test_sample_variance_keeps_numpys_bytes():
    rng = np.random.default_rng(3)
    for shape in ((250, 4096), (40, 3000), (7, 3), (1001,)):
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mean, var = st._mean_var(values)
        want = (values.real.var(axis=0, ddof=1)
                + values.imag.var(axis=0, ddof=1)) / shape[0]
        assert np.array_equal(var, want)
        assert np.array_equal(mean, values.mean(axis=0))


def test_levy_system_all_functionals():
    lat = rich_lattice()
    rows = st.levy_system_check(lat, (0.0, 1.0), 30000, seed=46)
    assert {r.name for r in rows} == set(st.LEVY_FUNCTIONALS)
    for r in rows:
        assert r.passed, f"{r.name}: lhs={r.lhs} rhs={r.rhs} se={r.stderr}"


def levy_row(rows, name):
    return next(r for r in rows if r.name == name)


def test_levy_system_counting_identity():
    # F == 1 reduces both sides to the expected jump count |nu| (t - s)
    lat = rich_lattice()
    rows = st.levy_system_check(lat, (0.0, 0.7), 20000, seed=47)
    assert levy_row(rows, "ones").rhs == pytest.approx(3.0 * 0.7, abs=1e-9)


def test_levy_system_atom_indicator_rate():
    # F = 1{jump == atom 0} has compensator weight_0 (t - s)
    lat = rich_lattice()
    rows = st.levy_system_check(lat, (0.0, 1.0), 20000, seed=48)
    assert levy_row(rows, "jump_is_atom0").rhs == pytest.approx(1.0, abs=1e-9)


def test_levy_system_odd_functional_vanishes():
    lat = rich_lattice()
    rows = st.levy_system_check(lat, (0.0, 1.0), 20000, seed=49)
    # symmetry kills the mean jump
    assert levy_row(rows, "jump_coord_1").rhs == 0.0


def test_levy_system_planar_lattice():
    lat = PeriodicLattice((16, 16), 1.0,
                          np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                          np.array([1.0, 1.0, 0.5, 0.5]),
                          np.array([1.0, 1.0, 1.0, 1.0], dtype=complex))
    rows = st.levy_system_check(lat, (0.0, 0.8), 15000, seed=50)
    for r in rows:
        assert r.passed, f"{r.name}: lhs={r.lhs} rhs={r.rhs} se={r.stderr}"
    assert levy_row(rows, "ones").rhs == pytest.approx(3.0 * 0.8, abs=1e-9)


def asymmetric_walk():
    return PeriodicLattice((8,), 1.0, np.array([[1], [-1]]),
                           np.array([2.0, 1.0]), np.array([1.0, 1.0]))


def test_levy_system_asymmetric_measure():
    # a drifting walk: every functional has a nonzero compensator, so the
    # check sees the jump law and the position process, not only symmetry
    rows = st.levy_system_check(asymmetric_walk(), (0.0, 1.0), 100000,
                                seed=56)
    for r in rows:
        assert r.rhs != 0.0
        assert r.passed, f"{r.name}: lhs={r.lhs} rhs={r.rhs} se={r.stderr}"


def test_levy_system_has_a_nonzero_rhs_on_every_shipped_scenario():
    fn = st.LEVY_FUNCTIONALS["position_cos_jump_sq_1"]
    for scn in sc.shipped_scenarios():
        span = scn.window[1] - scn.window[0]
        assert fn.compensator(scn.lattice, span) > 0.0, scn.name


def assert_only_row_fails(rows, name):
    for r in rows:
        assert r.passed == (r.name != name), (r.name, r.sigmas)


@pytest.mark.parametrize("scale", [0.96, 1.04])
@pytest.mark.parametrize("name", list(st.LEVY_FUNCTIONALS))
def test_levy_system_catches_a_scaled_compensator(monkeypatch, name, scale):
    # every right-hand side of the drifting walk is nonzero, so a few percent
    # off any one of them fails that row alone (5.9 sigmas or more at seed 56)
    fn = st.LEVY_FUNCTIONALS[name]
    monkeypatch.setitem(st.LEVY_FUNCTIONALS, name, fn._replace(
        compensator=lambda lat, span: scale * fn.compensator(lat, span)))
    rows = st.levy_system_check(asymmetric_walk(), (0.0, 1.0), 100000,
                                seed=56)
    assert_only_row_fails(rows, name)


def test_levy_system_catches_the_position_after_the_jump(monkeypatch):
    name = "position_cos_jump_1"
    fn = st.LEVY_FUNCTIONALS[name]
    monkeypatch.setitem(st.LEVY_FUNCTIONALS, name, fn._replace(
        value=lambda lat, s, jp: fn.value(lat, s, jp._replace(y=jp.y + jp.z))))
    rows = st.levy_system_check(asymmetric_walk(), (0.0, 1.0), 100000,
                                seed=56)
    assert_only_row_fails(rows, name)


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
    errs = [e for _, e in pr.grouped_curve]
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
        np.asarray(lat.sizes, dtype=np.int64), lat.psi, lat.sphi, lat.phase,
        lat.atom_steps, lat.phi, -0.8, 0.0, counts, offsets, times, aidx)
    phys = np.fft.ifft(lat.fft(f) * rows, axis=1)
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


def kernel_rows(lat, s, counts, offsets, times, aidx):
    """The projection kernel's rows R on the window (s, 0]."""
    return core.projection_ensemble(
        np.asarray(lat.sizes, dtype=np.int64), lat.psi, lat.sphi, lat.phase,
        lat.atom_steps, lat.phi, s, 0.0, counts, offsets, times, aidx)


def mirrored(lat, counts, offsets, times, aidx):
    """The mirror of an ensemble: the same jump times, every atom a replaced
    by the first atom whose step is -step(a)."""
    match = np.all(lat.atom_steps[None, :] == -lat.atom_steps[:, None],
                   axis=-1)
    assert match.any(axis=1).all()
    return counts, offsets, times, match.argmax(axis=1)[aidx]


def reflection_gap(lat, s=-0.8, n=8, seed=61):
    """Largest gap, relative to the largest oracle value, of the check's pair
    means from fhat (R + R') / 2, R' the kernel rows of the mirror ensemble
    built explicitly, for a boundary function with no zero in its spectrum."""
    ens = st.sample_ensemble(lat, (s, 0.0), n, seed)
    f = np.random.default_rng(seed).normal(size=(2, lat.n_points))
    fhat = lat.fft(f[0] + 1j * f[1])
    rows = kernel_rows(lat, s, *ens)
    oracle = 0.5 * fhat * (rows + kernel_rows(lat, s, *mirrored(lat, *ens)))
    st._pair_means(rows, lat.sizes, fhat)
    gap = np.abs(rows - oracle).max()
    scale = np.abs(oracle).max()  # 0 when every phi is 0
    return gap / scale if scale else gap


def reflection_lattices():
    return [rich_lattice(), sc.scenario_by_name("plane_axis_phi").lattice,
            skew_scenario().lattice]


def test_reflected_rows_are_the_mirror_ensemble_rows():
    for lat in reflection_lattices():
        assert reflection_gap(lat) < 1e-12


def drop_reflection(monkeypatch):
    monkeypatch.setattr(st, "_reflected", lambda block: block.copy())


def flip_without_roll(monkeypatch):
    monkeypatch.setattr(st, "_reflected", lambda block: np.flip(
        block, tuple(range(1, block.ndim))).copy())


@pytest.mark.parametrize("mutate", [drop_reflection, flip_without_roll])
def test_reflection_defect_breaks_the_mirror_oracle(monkeypatch, mutate):
    mutate(monkeypatch)
    for lat in reflection_lattices():
        assert reflection_gap(lat) > 1e-6
    assert min(projection_stderr_gap()) > 1e-6


@st_.composite
def symmetric_lattices(draw):
    """A lattice of d in {1, 2} with every atom's mirror at the same weight
    and phi: distinct nonzero steps up to sign, each listed with -step."""
    d = draw(st_.sampled_from([1, 2]))
    sizes = draw(st_.lists(st_.integers(2, 9), min_size=d, max_size=d))
    steps = draw(st_.lists(
        st_.lists(st_.integers(-3, 3), min_size=d, max_size=d)
        .filter(any).map(lambda z: tuple(max(z, [-c for c in z]))),
        min_size=1, max_size=3, unique=True))
    weights = draw(st_.lists(st_.floats(0.1, 3.0), min_size=len(steps),
                             max_size=len(steps)))
    phi = draw(st_.lists(st_.complex_numbers(max_magnitude=1.0),
                         min_size=len(steps), max_size=len(steps)))
    return PeriodicLattice(sizes, 1.0, [z for step in steps
                                        for z in (step, [-c for c in step])],
                           np.repeat(weights, 2), np.repeat(phi, 2))


@settings(max_examples=30, deadline=None)
@given(lat=symmetric_lattices())
def test_reflection_matches_the_mirror_ensemble_on_symmetric_lattices(lat):
    assert reflection_gap(lat, s=-0.5, n=4) < 1e-12


def test_projection_kernel_sees_only_the_base_paths(monkeypatch):
    lat, n, seed, s = rich_lattice(), 40, 58, -0.8
    seen = []
    projection = core.projection_blocks

    def spy(*args):
        seen.append(args[-4:])
        return projection(*args)

    monkeypatch.setattr(core, "projection_blocks", spy)
    st.projection_identity_check(lat, sc.bump_profile(32, 16.0, 2.0), s, n,
                                 seed)
    (ensemble,) = seen
    for got, want in zip(ensemble,
                         st.sample_ensemble(lat, (s, 0.0), n // 2, seed)):
        assert np.array_equal(got, want)


def projection_stderr_gap(n=400, seed=57, s=-0.8):
    """The gaps of the check's h_mc and, relative, of its stderr_norm from
    those recomputed over the pair means of kernel rows for the base paths
    and their mirrors, the mirror ensemble built explicitly."""
    lat = walk_lattice()
    f = sc.bump_profile(32, 16.0, 2.0)
    pr = st.projection_identity_check(lat, f, s, n, seed)
    ens = st.sample_ensemble(lat, (s, 0.0), n // 2, seed)
    pair = 0.5 * lat.fft(f) * (kernel_rows(lat, s, *ens)
                               + kernel_rows(lat, s, *mirrored(lat, *ens)))
    var = pair.real.var(axis=0, ddof=1) + pair.imag.var(axis=0, ddof=1)
    oracle = np.sqrt(var.sum() / (n // 2) / lat.n_points)
    return (np.abs(pr.h_mc - lat.ifft(pair.mean(axis=0))).max(),
            abs(pr.stderr_norm - oracle) / oracle)


def test_projection_stderr_is_over_pair_means():
    assert max(projection_stderr_gap()) < 1e-12


def test_projection_stderr_oracle_catches_a_per_path_stderr(monkeypatch):
    # the stderr over the base paths alone, unpaired, is not that of the
    # pairs
    def unpaired(rows, sizes, fhat):
        rows *= fhat

    monkeypatch.setattr(st, "_pair_means", unpaired)
    assert projection_stderr_gap()[1] > 0.1


def test_grouped_curve_groups_straddle_fold_edges(monkeypatch):
    # BLOCK = 3 P: 24-row fold buffers and 36-path chunks, so groups of 5, 7
    # and 25 pair means straddle fold edges; the curve, the mean and the
    # stderr stay those of the pair means taken all at once
    monkeypatch.setattr(core, "BLOCK", 3 * 32)
    lat, s, n, seed = walk_lattice(), -0.8, 400, 57
    f = sc.bump_profile(32, 16.0, 2.0)
    pr = st.projection_identity_check(lat, f, s, n, seed, n_curve=[10, 14, 50])
    ens = st.sample_ensemble(lat, (s, 0.0), n // 2, seed)
    pair = 0.5 * lat.fft(f) * (kernel_rows(lat, s, *ens)
                               + kernel_rows(lat, s, *mirrored(lat, *ens)))
    assert [size for size, _ in pr.grouped_curve] == [10, 14, 50]
    for size, got in pr.grouped_curve:
        m = size // 2
        sq = [np.linalg.norm(lat.ifft(pair[g * m:(g + 1) * m].mean(axis=0))
                             - pr.h_spec) ** 2 for g in range(n // 2 // m)]
        assert abs(got - np.sqrt(np.mean(sq))) <= 1e-12 * got
    var = pair.real.var(axis=0, ddof=1) + pair.imag.var(axis=0, ddof=1)
    want = np.sqrt(var.sum() / (n // 2) / lat.n_points)
    assert abs(pr.stderr_norm - want) <= 1e-12 * want
    h_mc = lat.ifft(pair.mean(axis=0))
    assert np.abs(pr.h_mc - h_mc).max() <= 1e-12 * np.abs(h_mc).max()


def test_projection_rejects_a_lattice_without_mirrors():
    # on this drifting walk the check failed at ~144 sigma on correct code:
    # the lattice symbol and the real psi assume a symmetric measure
    with pytest.raises(InvalidInputError,
                       match=r"not symmetric: no mirror for atom \[1\]"):
        st.projection_identity_check(asymmetric_walk(),
                                     sc.bump_profile(8, 4.0, 2.0), -0.8,
                                     2000, seed=1)


def test_projection_rejects_an_odd_phi():
    # the weights are symmetric, but the mirror of a path would not have
    # the path's law
    lat = PeriodicLattice((8,), 1.0, np.array([[1], [-1]]),
                          np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    with pytest.raises(InvalidInputError,
                       match=r"phi\(-z\) != phi\(z\) at atom \[1\]"):
        st.projection_identity_check(lat, sc.bump_profile(8, 4.0, 2.0),
                                     -0.8, 2000, seed=1)


def test_projection_accepts_repeated_atoms():
    # {+1: 2, -1: 1, -1: 1} is symmetric as a measure
    lat = PeriodicLattice((32,), 1.0, np.array([[1], [-1], [-1]]),
                          np.array([2.0, 1.0, 1.0]),
                          np.array([0.5, 0.5, 0.5]))
    pr = st.projection_identity_check(lat, sc.bump_profile(32, 16.0, 2.0),
                                      -0.8, 4000, seed=59)
    assert pr.passed, (pr.l2_error, pr.stderr_norm)
    assert reflection_gap(lat) < 1e-12


@pytest.mark.parametrize("n_paths", [0, 2, 3, 401])
def test_projection_needs_an_even_path_count_of_at_least_4(n_paths):
    with pytest.raises(InvalidInputError, match="even and at least 4"):
        st.projection_identity_check(walk_lattice(), np.zeros(32), -0.8,
                                     n_paths, seed=1)


@pytest.mark.parametrize("n_curve", [[3], [0], [402]])
def test_projection_curve_sizes_are_even_and_within_the_ensemble(n_curve):
    with pytest.raises(InvalidInputError, match="curve size"):
        st.projection_identity_check(walk_lattice(), np.zeros(32), -0.8,
                                     400, seed=1, n_curve=n_curve)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lattice_rejects_non_finite_weights(bad):
    # a NaN weight made total_rate NaN and filled the tables with NaN; an
    # infinite one failed in the sampler with a bare OverflowError
    with pytest.raises(InvalidInputError, match="non-finite"):
        PeriodicLattice((8,), 1.0, [[1], [-1]], [1.0, bad], [1.0, 1.0])


@pytest.mark.parametrize("h", [-1.0, 0.0, np.nan, np.inf])
def test_lattice_spacing_is_checked_by_the_constructor(h):
    # h = -1 was accepted, and l1_mass_check then passed a negative mass
    with pytest.raises(InvalidInputError, match="spacing"):
        PeriodicLattice((8,), h, [[1], [-1]], [1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("steps", [[[1.5], [-1.5]], [[np.nan], [1.0]]])
def test_lattice_rejects_steps_off_the_integers(steps):
    # 1.5 was truncated to 1 and NaN cast to -2**63, both without an error
    with pytest.raises(InvalidInputError, match="integers|non-finite"):
        PeriodicLattice((8,), 1.0, steps, [1.0, 1.0], [1.0, 1.0])


def test_l1_mass_rejects_a_boundary_function_of_another_size():
    lat = sc.scenario_by_name("walk_phi1").lattice  # 32 points
    with pytest.raises(InvalidInputError, match="size mismatch"):
        st.l1_mass_check(lat, np.ones(5), (0.0, 1.0), 100, seed=1)


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


def test_sample_extension_continues_the_cumsum(monkeypatch):
    # uniforms scaled by 0.02 make the gaps ~100 times shorter, so the
    # streams run past their first block of draws and are extended at
    # least three times; the times equal those of the old formula, which
    # re-concatenated and re-summed every block on each extension
    uniforms = prng.uniforms
    monkeypatch.setattr(prng, "uniforms",
                        lambda keys, ctr: 0.02 * uniforms(keys, ctr))
    lat, seed, n, (s, u) = walk_lattice(), 8, 1000, (0.5, 2.0)
    rate, span = lat.total_rate, u - s
    keys = prng.path_keys(seed, np.arange(n, dtype=np.uint64), 0)[:, None]
    block = max(8, int(rate * span + 12.0 * np.sqrt(rate * span) + 30))
    parts = []
    while True:
        ctr = np.arange(len(parts) * block, (len(parts) + 1) * block,
                        dtype=np.uint64)
        parts.append(-np.log1p(-prng.uniforms(keys, ctr[None, :])) / rate)
        cum = np.cumsum(np.concatenate(parts, axis=1), axis=1)
        if not (cum[:, -1] <= span).any():
            break
    assert len(parts) >= 4
    counts, offsets, times, _ = prng.sample_ensemble(
        seed, n, rate, s, u, lat.cum_weights)
    assert np.array_equal(counts, (cum <= span).sum(axis=1))
    assert np.array_equal(times, s + cum[cum <= span])
