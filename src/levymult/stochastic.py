"""Monte Carlo verification of the jump-martingale construction.

A compound Poisson path on a window (s, u] drives two coupled processes for
a boundary function f on a periodic lattice:

* the parabolic martingale  G_t = P_{t,u} f(x + X_{s,t}),
* the transformed martingale F_t, whose jumps are those of G weighted by the
  modulator phi and whose drift is removed by the compensator integral.

The checks below verify, at Monte Carlo resolution: the jump-compensation
identity (expected jump sums against the intensity measure), the pathwise
quadratic-variation domination of F by G, the moment inequality with the
constant (p* - 1)^p, the L1 mass formula for the dominating process, and the
recovery of the finite-time multiplier by duality against lattice
indicators.  All ensembles are reproducible from (seed, path index) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._accel import core
from ._accel import rng as _rng
from .exceptions import InvalidInputError
from .grid import PStar
from .lattice import PeriodicLattice

__all__ = [
    "PoissonPath",
    "MartingalePair",
    "Scenario",
    "sample_path",
    "sample_ensemble",
    "evolve_martingales",
    "evolve_ensemble",
    "martingale_property_check",
    "burkholder_bound_check",
    "subordination_check",
    "levy_system_check",
    "LEVY_FUNCTIONALS",
    "projection_identity_check",
    "l1_mass_check",
    "exchangeability_times",
]


@dataclass(frozen=True)
class PoissonPath:
    """One realisation of jump times and lattice jumps on (s, u]."""

    window: tuple
    times: np.ndarray  # strictly increasing in (s, u]
    atom_indices: np.ndarray
    jumps: np.ndarray  # (n, d) integer lattice steps
    seed: int
    path_index: int

    @property
    def n_jumps(self) -> int:
        return len(self.times)

    def positions(self) -> np.ndarray:
        """Cumulative lattice displacement after each jump (n+1, d), row 0 = 0."""
        if self.n_jumps == 0:
            return np.zeros((1, self.jumps.shape[1] if self.jumps.ndim > 1 else 1),
                            dtype=np.int64)
        return np.vstack([np.zeros((1, self.jumps.shape[1]), dtype=np.int64),
                          np.cumsum(self.jumps, axis=0)])


@dataclass(frozen=True)
class Scenario:
    """A shipped verification setup: lattice, measure, modulator, boundary f."""

    name: str
    lattice: PeriodicLattice
    f: np.ndarray  # flat complex boundary values
    x0: int  # flat base-point index
    window: tuple
    checkpoints: tuple = ()

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex).ravel()
        if f.size != self.lattice.n_points:
            raise InvalidInputError("boundary function size mismatch")
        if not 0 <= self.x0 < self.lattice.n_points:
            raise InvalidInputError("base point is off the lattice")
        s, u = self.window
        if not s < u:
            raise InvalidInputError("window must satisfy s < u")
        for t in self.checkpoints:
            if not s < t <= u:
                raise InvalidInputError("checkpoints must lie in (s, u]")
        object.__setattr__(self, "f", f)


def sample_ensemble(lat: PeriodicLattice, window, n_paths: int, seed: int,
                    first_path: int = 0):
    """Packed jump data (counts, offsets, times, atom_idx) for an ensemble."""
    s, u = window
    return _rng.sample_ensemble(seed, n_paths, lat.total_rate, s, u,
                                lat.cum_weights, first_path)


def sample_path(lat: PeriodicLattice, window, seed: int,
                path_index: int = 0) -> PoissonPath:
    """A single reproducible path (stream determined by seed and index)."""
    if lat.total_rate <= 0:
        raise InvalidInputError("measure has no mass")
    counts, offsets, times, aidx = sample_ensemble(lat, window, 1, seed,
                                                   first_path=path_index)
    jumps = lat.atom_steps[aidx]
    return PoissonPath(tuple(window), times, aidx, jumps, seed, path_index)


# ---------------------------------------------------------------------------
# single-path trajectories (plain numpy walk; the ensemble kernels are the
# fast path and the two are cross-checked in the test suite)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingalePair:
    """Sampled (G_t, F_t) trajectory of one path with quadratic variations."""

    path: PoissonPath
    x0: int
    times: np.ndarray  # jump times then u
    g_values: np.ndarray
    f_values: np.ndarray
    qv_g: np.ndarray  # [G,G] at the sampled times
    qv_f: np.ndarray  # [F,F] at the sampled times
    qv_g_increments: np.ndarray  # per-jump |dG|^2 (before accumulation)
    qv_f_increments: np.ndarray  # per-jump |dF|^2
    p_su_f_x0: complex  # P_{s,u} f (x0)

    @property
    def g_terminal(self) -> complex:
        return complex(self.g_values[-1])

    @property
    def f_terminal(self) -> complex:
        return complex(self.f_values[-1])


def evolve_martingales(lat: PeriodicLattice, path: PoissonPath, x0: int,
                       f) -> MartingalePair:
    """Walk one path, recording G, F and both quadratic variations.

    The compensator between jumps is integrated in closed form per Fourier
    mode, so the trajectory identities are exact to roundoff.
    """
    f = np.asarray(f, dtype=complex).ravel()
    s, u = path.window
    fhat = lat.fft(f)
    psi, sphi = lat.psi, lat.sphi
    n_modes = lat.n_points

    def point(flat, v):
        return (fhat * np.exp((u - v) * psi)
                * lat.column(flat)).sum() / n_modes

    def panel(v1, v2, flat):
        safe = np.where(psi == 0.0, 1.0, psi)
        ik = np.where(psi == 0.0, v2 - v1,
                      (np.exp((u - v1) * psi) - np.exp((u - v2) * psi)) / safe)
        return ik * lat.column(flat)

    flat = int(x0)
    pf0 = point(flat, s)
    comp_fourier = np.zeros(n_modes, dtype=complex)
    jsum = 0.0 + 0.0j
    qv_g_run = abs(pf0) ** 2
    qv_f_run = 0.0
    v_prev = s
    times_out, g_out, f_out, qvg_out, qvf_out = [], [], [], [], []
    inc_g, inc_f = [], []
    steps = lat.atom_steps
    coords = np.array(np.unravel_index(flat, lat.sizes), dtype=np.int64)
    for t, a in zip(path.times, path.atom_indices):
        comp_fourier += panel(v_prev, t, flat)
        v_prev = t
        old_flat = flat
        coords = (coords + steps[a]) % np.array(lat.sizes)
        flat = int(np.ravel_multi_index(coords, lat.sizes))
        dg = point(flat, t) - point(old_flat, t)
        df = lat.phi[a] * dg
        jsum += df
        inc_g.append(abs(dg) ** 2)
        inc_f.append(abs(df) ** 2)
        qv_g_run += abs(dg) ** 2
        qv_f_run += abs(df) ** 2
        comp = (fhat * sphi * comp_fourier).sum() / n_modes
        times_out.append(t)
        g_out.append(point(flat, t))
        f_out.append(jsum - comp)
        qvg_out.append(qv_g_run)
        qvf_out.append(qv_f_run)
    comp_fourier += panel(v_prev, u, flat)
    comp = (fhat * sphi * comp_fourier).sum() / n_modes
    times_out.append(u)
    g_out.append(f[flat])
    f_out.append(jsum - comp)
    qvg_out.append(qv_g_run)
    qvf_out.append(qv_f_run)
    return MartingalePair(path, int(x0), np.array(times_out),
                          np.array(g_out), np.array(f_out),
                          np.array(qvg_out), np.array(qvf_out),
                          np.array(inc_g), np.array(inc_f), complex(pf0))


# ---------------------------------------------------------------------------
# ensemble checks
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    n_paths: int
    n_jumps: int
    window: tuple
    checkpoints: np.ndarray
    f_cp: np.ndarray
    g_cp: np.ndarray
    f_u: np.ndarray
    g_u: np.ndarray
    qv_f: np.ndarray
    qv_g: np.ndarray
    violations: np.ndarray
    lemma_residual: np.ndarray
    p_su_f_x0: complex


def evolve_ensemble(scn: Scenario, n_paths: int, seed: int) -> EnsembleResult:
    """The pair (F, G) along ``n_paths`` paths; the drift, moment and
    subordination checks are reductions of this one ensemble."""
    lat = scn.lattice
    counts, offsets, times, aidx = sample_ensemble(lat, scn.window, n_paths, seed)
    s, u = scn.window
    cps = np.asarray(scn.checkpoints, dtype=float)
    *rows, pf0 = core.evolve_ensemble(
        np.asarray(lat.sizes, dtype=np.int64), lat.psi, lat.fft(scn.f),
        lat.sphi, lat.phase, lat.atom_steps, lat.phi, scn.f.astype(complex),
        int(scn.x0), float(s), float(u), counts, offsets, times, aidx, cps)
    return EnsembleResult(n_paths, int(counts.sum()), tuple(scn.window), cps,
                          *rows, complex(pf0))


def _mean_se(values):
    values = np.asarray(values)
    n = len(values)
    mean = values.mean(axis=0)
    if np.iscomplexobj(values):
        var = values.real.var(axis=0, ddof=1) + values.imag.var(axis=0, ddof=1)
    else:
        var = values.var(axis=0, ddof=1)
    return mean, np.sqrt(var / n)


@dataclass
class DriftRow:
    t1: float
    t2: float
    process: str
    drift: complex
    stderr: float

    @property
    def sigmas(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.drift == 0 else math.inf
        return abs(self.drift) / self.stderr

    @property
    def passed(self) -> bool:
        return self.sigmas <= 3.0 or abs(self.drift) < 1e-12


class TowerRow(NamedTuple):
    """E[G_t] against its deterministic value G_s = P_{s,u}f(x0)."""

    t: float
    mean: complex
    stderr: float
    target: complex

    @property
    def passed(self) -> bool:
        return abs(self.mean - self.target) <= 3 * self.stderr or \
            abs(self.mean - self.target) < 1e-12


def martingale_property_check(res: EnsembleResult):
    """Drift rows E[F_{t2} - F_{t1}] and E[G_{t2} - G_{t1}] between consecutive
    times of s, the checkpoints and u, plus tower rows comparing E[G_t] with
    P_{s,u}f(x0)."""
    s, u = res.window
    grid = [s, *res.checkpoints, u]
    # column 0 is time s: F_s == 0 and G_s = P_{s,u}f(x0) is deterministic
    f_all = np.column_stack([np.zeros(res.n_paths), res.f_cp, res.f_u])
    g_all = np.column_stack([np.full(res.n_paths, res.p_su_f_x0), res.g_cp,
                             res.g_u])
    rows = []
    for i in range(len(grid) - 1):
        for name, values in (("F", f_all), ("G", g_all)):
            mean, se = _mean_se(values[:, i + 1] - values[:, i])
            rows.append(DriftRow(grid[i], grid[i + 1], name, complex(mean),
                                 float(se)))
    tower = []
    for t, g in zip(grid[1:], g_all[:, 1:].T):
        mean, se = _mean_se(g)
        tower.append(TowerRow(t, complex(mean), float(se), res.p_su_f_x0))
    return rows, tower


@dataclass
class MomentRow:
    p: float
    lhs: float  # E |F_u|^p
    lhs_se: float
    rhs: float  # (p*-1)^p E |G_u|^p
    rhs_se: float

    @property
    def margin_sigmas(self) -> float:
        se = math.hypot(self.lhs_se, self.rhs_se)
        return (self.rhs - self.lhs) / se if se > 0 else math.inf

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * math.hypot(self.lhs_se, self.rhs_se)


def burkholder_bound_check(res: EnsembleResult, p_list) -> list[MomentRow]:
    """E|F_u|^p against (p* - 1)^p E|G_u|^p, with Monte Carlo errors."""
    rows = []
    for p in p_list:
        cp = PStar(p).bound ** p
        lm, ls = _mean_se(np.abs(res.f_u) ** p)
        rm, rs = _mean_se(cp * np.abs(res.g_u) ** p)
        rows.append(MomentRow(p, float(lm), float(ls), float(rm), float(rs)))
    return rows


class SubordinationResult(NamedTuple):
    """The residual max |F_t + P_{s,u}f(x0) - G_t| is the phi == 1 pathwise
    identity, meaningful only for such scenarios, so it decides no pass."""

    violations: int
    lemma_residual: float
    qv_failures: int

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.qv_failures == 0


def subordination_check(res: EnsembleResult) -> SubordinationResult:
    """Exact pathwise check: jumps of [G,G] dominate jumps of [F,F]."""
    qv_fail = int((res.qv_f > res.qv_g + 1e-12).sum())
    return SubordinationResult(int(res.violations.sum()),
                               float(res.lemma_residual.max()), qv_fail)


# ---------------------------------------------------------------------------
# the jump-compensation (Levy system) identity
# ---------------------------------------------------------------------------

class Jumps(NamedTuple):
    """An ensemble's jumps in packed order: times v, atoms, and the integer
    coordinates y before each jump (walks from 0) and steps z, (J, d) each."""

    v: np.ndarray
    atom: np.ndarray
    y: np.ndarray
    z: np.ndarray


class LevyFunctional(NamedTuple):
    """F(v, y, y + z) at every jump, ``value(lat, s, jumps)``, and its exact
    compensator int_s^t sum_a w_a E F(v, X_{v-}, X_{v-} + z_a) dv,
    ``compensator(lat, t - s)``."""

    value: Callable
    compensator: Callable


def _jump_coord(lat, s, jp):
    return jp.z[:, 0] * lat.h


def _mean_jump(lat):
    # fsum cancels mirrored atoms exactly, so m = 0 for symmetric measures
    return math.fsum(lat.weights * lat.atom_steps[:, 0] * lat.h)


def _position_cos_value(lat, s, jp):
    n = lat.sizes[0]  # y_1 centred before the cosine
    y = ((jp.y[:, 0] + n // 2) % n - n // 2) * lat.h
    return np.cos(2.0 * np.pi * y / (n * lat.h)) * _jump_coord(lat, s, jp)


def _position_cos_compensator(lat, span):
    """m Re int_0^span e^{v c} dv = m int_0^span E cos(theta X_1) dv, with
    c = sum_a w_a (e^{i theta z_a1} - 1) at theta = 2 pi / n_1 (psi_1, the
    lattice exponent, for a symmetric measure)."""
    m = _mean_jump(lat)
    c = complex(lat.weights @ np.expm1(2j * np.pi * lat.atom_steps[:, 0]
                                       / lat.sizes[0]))
    return m * span if c == 0.0 else m * float((np.expm1(span * c) / c).real)


# the shipped functionals, all bounded on the lattice, in the check's row order
LEVY_FUNCTIONALS = {
    "ones": LevyFunctional(lambda lat, s, jp: np.ones(jp.v.shape[0]),
                           lambda lat, span: lat.total_rate * span),
    "jump_is_atom0": LevyFunctional(
        lambda lat, s, jp: (jp.atom == 0).astype(np.float64),
        lambda lat, span: float(lat.weights[0]) * span),
    "jump_coord_1": LevyFunctional(
        _jump_coord, lambda lat, span: _mean_jump(lat) * span),
    "time_weighted_jump_1": LevyFunctional(
        lambda lat, s, jp: (jp.v - s) * _jump_coord(lat, s, jp),
        lambda lat, span: _mean_jump(lat) * span ** 2 / 2.0),
    "position_cos_jump_1": LevyFunctional(_position_cos_value,
                                          _position_cos_compensator),
}


@dataclass
class LevySystemRow:
    name: str
    lhs: float
    stderr: float
    rhs: float

    @property
    def sigmas(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.lhs == self.rhs else math.inf
        return abs(self.lhs - self.rhs) / self.stderr

    @property
    def passed(self) -> bool:
        return abs(self.lhs - self.rhs) <= 3.0 * self.stderr or \
            abs(self.lhs - self.rhs) <= 1e-12


def _sample_jumps(lat: PeriodicLattice, window, n_paths: int, seed: int):
    """Per-path jump counts and the Jumps of an ensemble."""
    counts, offsets, times, aidx = sample_ensemble(lat, window, n_paths, seed)
    z = lat.atom_steps[aidx]
    y = core.walk(lat.sizes, lat.atom_steps, 0, offsets, aidx) - z
    return counts, Jumps(times, aidx, y, z)


def levy_system_check(lat: PeriodicLattice, window, n_paths: int, seed: int,
                      functionals=None) -> list[LevySystemRow]:
    """Monte Carlo jump sums against the compensator integral, per functional."""
    s, t = window
    counts, jumps = _sample_jumps(lat, window, n_paths, seed)
    rows = []
    for name in functionals if functionals is not None else LEVY_FUNCTIONALS:
        if name not in LEVY_FUNCTIONALS:
            raise InvalidInputError(
                f"unknown functional {name!r}; the shipped library has "
                f"{sorted(LEVY_FUNCTIONALS)} (all bounded on the lattice)")
        fn = LEVY_FUNCTIONALS[name]
        mean, se = _mean_se(core.levy_ensemble(
            counts, fn.value(lat, float(s), jumps)))
        rows.append(LevySystemRow(name, float(mean), float(se),
                                  fn.compensator(lat, t - s)))
    return rows


# ---------------------------------------------------------------------------
# multiplier recovery by duality
# ---------------------------------------------------------------------------

@dataclass
class ProjectionResult:
    h_mc: np.ndarray
    h_spec: np.ndarray
    l2_error: float
    stderr_norm: float
    spec_norm: float
    error_curve: list  # (n, l2 error) over nested prefixes
    grouped_curve: list  # (n, mean l2 error over disjoint n-path groups)

    @property
    def passed(self) -> bool:
        return self.l2_error <= 5 * self.stderr_norm


def finite_time_lattice_symbol(lat: PeriodicLattice, s: float) -> np.ndarray:
    """m_s at the lattice frequencies: (1 - e^{2|s| psi}) sphi / psi, 0 at zeros."""
    out = np.zeros(lat.n_points, dtype=complex)
    nz = lat.psi != 0.0
    # sphi equals the modulated exponent: the sine parts cancel by symmetry
    out[nz] = (1.0 - np.exp(2.0 * abs(s) * lat.psi[nz])) \
        * lat.sphi[nz] / lat.psi[nz]
    return out


_MAX_RATE_WINDOW = 50.0  # guard on |s| * rate, the mean jumps per path


def projection_identity_check(lat: PeriodicLattice, f, s: float,
                              n_paths: int, seed: int, n_curve=None) -> ProjectionResult:
    """Recover the finite-time multiplier from path functionals.

    The duality pairing of F_u against lattice indicators recovers, path by
    path, H(w) = F_u(w - X_{s,u}); its ensemble mean converges to the
    function with spectrum m_s(k) fhat(k).  Works on the window (s, 0].
    Long windows blow up the per-path jump count and hence the Monte Carlo
    variance, so |s| * rate is guarded.
    """
    if not s < 0:
        raise InvalidInputError("s must be negative (window (s, 0])")
    if abs(s) * lat.total_rate > _MAX_RATE_WINDOW:
        raise InvalidInputError(
            f"window depth |s| * rate = {abs(s) * lat.total_rate:.3g} exceeds "
            f"the variance guard {_MAX_RATE_WINDOW}")
    f = np.asarray(f, dtype=complex).ravel()
    if f.size != lat.n_points:
        raise InvalidInputError("boundary function size mismatch")
    u = 0.0
    counts, offsets, times, aidx = sample_ensemble(lat, (s, u), n_paths, seed)
    fhat = lat.fft(f)
    rows = core.projection_ensemble(
        np.asarray(lat.sizes, dtype=np.int64), lat.psi, fhat, lat.sphi,
        lat.phase, lat.atom_steps, lat.phi, float(s), float(u),
        counts, offsets, times, aidx)
    h_spec = lat.ifft(finite_time_lattice_symbol(lat, s) * fhat)
    mean_rows = rows.mean(axis=0)
    var_rows = (rows.real.var(axis=0, ddof=1) + rows.imag.var(axis=0, ddof=1))
    h_mc = lat.ifft(mean_rows)
    err = float(np.linalg.norm(h_mc - h_spec))
    stderr_norm = float(np.sqrt((var_rows / n_paths).sum() / lat.n_points))
    curve = []
    grouped = []
    if n_curve:
        for n in n_curve:
            if n > n_paths:
                raise InvalidInputError("curve size exceeds the ensemble")
            hm = lat.ifft(rows[:n].mean(axis=0))
            curve.append((int(n), float(np.linalg.norm(hm - h_spec))))
            # rms of the error over disjoint n-path groups: its square has
            # expectation trace(cov)/n exactly, so the n^{-1/2} scale is
            # pinned far more tightly than by a single prefix
            k = n_paths // n
            sq = [np.linalg.norm(
                lat.ifft(rows[g * n:(g + 1) * n].mean(axis=0)) - h_spec) ** 2
                for g in range(k)]
            grouped.append((int(n), float(np.sqrt(np.mean(sq)))))
    return ProjectionResult(h_mc, h_spec, err, stderr_norm,
                            float(np.linalg.norm(h_spec)), curve, grouped)


# ---------------------------------------------------------------------------
# L1 mass of the dominating process
# ---------------------------------------------------------------------------

class L1MassResult(NamedTuple):
    mc: float
    stderr: float
    closed_form: float

    @property
    def passed(self) -> bool:
        return abs(self.mc - self.closed_form) <= 3 * self.stderr


def l1_mass_check(lat: PeriodicLattice, f, window, n_paths: int, seed: int):
    """Space-integrated mean of the dominating process |F|_t vs its closed form.

    The exact value is 4 (t-s) (sum_a w_a |phi_a|) ||f||_1, which reduces to
    4 (t-s) |nu| ||f||_1 when |phi| == 1.  The jump half of the estimator is
    the only random part: each jump contributes 2 ||f||_1 |phi(jump)|, the
    compensator half is deterministic.
    """
    s, t = window
    f = np.asarray(f, dtype=complex).ravel()
    norm1 = float(np.abs(f).sum() * lat.h ** lat.d)
    counts, _, _, aidx = sample_ensemble(lat, window, n_paths, seed)
    abs_phi = np.abs(lat.phi)
    per_path = core.levy_ensemble(counts, abs_phi[aidx])
    modulated_rate = float((lat.weights * abs_phi).sum())
    comp_part = (t - s) * modulated_rate
    values = 2.0 * norm1 * (per_path + comp_part)
    mean, se = _mean_se(values)
    closed = 4.0 * (t - s) * modulated_rate * norm1
    return L1MassResult(float(mean), float(se), closed)


def exchangeability_times(lat: PeriodicLattice, window, n_paths: int,
                          seed: int):
    """Pooled jump times of the modal-count paths, normalised to (0, 1].

    Conditioned on the jump count these are uniform order statistics, so the
    pooled sample should pass a uniformity test.
    """
    s, u = window
    counts, _, times, _ = sample_ensemble(lat, window, n_paths, seed)
    pos = counts[counts > 0]
    if len(pos) == 0:
        raise InvalidInputError("no jumps in the ensemble")
    modal = int(np.bincount(pos).argmax())
    sel = np.repeat(counts == modal, counts)
    return (times[sel] - s) / (u - s)
