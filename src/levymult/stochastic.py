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
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._accel import core
from ._accel import rng as _rng
from .exceptions import InvalidInputError
from .grid import PStar
from .lattice import PeriodicLattice
from .measures import _check_even_phi, _check_symmetric_atoms
from .symbols import _ratio

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
    "check_projection_inputs",
    "projection_identity_check",
    "l1_mass_check",
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


def _boundary(lat: PeriodicLattice, f) -> np.ndarray:
    """``f`` as flat complex values, one per lattice point."""
    f = np.asarray(f, dtype=complex).ravel()
    if f.size != lat.n_points:
        raise InvalidInputError("boundary function size mismatch")
    return f


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
        f = _boundary(self.lattice, self.f)
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


def chunk_paths(lat: PeriodicLattice, span: float,
                n_checkpoints: int = 0) -> int:
    """Paths per chunk of a Monte Carlo stage: ``core.BLOCK`` events at the
    expected rate * span + n_checkpoints + 1 events per path (its jumps,
    checkpoints and end time), and at least one path."""
    events = lat.total_rate * span + n_checkpoints + 1
    return max(1, int(core.BLOCK // events))


def _chunks(lat: PeriodicLattice, span: float, n_paths: int,
            n_checkpoints: int = 0):
    """(first, n) per chunk [first, first + n) of an ensemble's paths.  Each
    path owns its random stream, so a chunk drawn with ``first_path`` holds
    the paths of a single draw bit for bit."""
    step = chunk_paths(lat, span, n_checkpoints)
    for first in range(0, n_paths, step):
        yield first, min(step, n_paths - first)


def evolve_ensemble(scn: Scenario, n_paths: int, seed: int) -> EnsembleResult:
    """The pair (F, G) along ``n_paths`` paths; the drift, moment and
    subordination checks are reductions of this one ensemble.  The paths go
    through the kernel in chunks (see ``chunk_paths``), and only the per-path
    outputs are kept for the whole ensemble."""
    lat = scn.lattice
    s, u = scn.window
    cps = np.asarray(scn.checkpoints, dtype=float)
    fhat, fvals = lat.fft(scn.f), scn.f.astype(complex)
    outs, n_jumps = None, 0
    for first, n in _chunks(lat, u - s, n_paths, cps.shape[0]):
        counts, offsets, times, aidx = sample_ensemble(lat, scn.window, n,
                                                       seed, first)
        *rows, pf0 = core.evolve_ensemble(
            np.asarray(lat.sizes, dtype=np.int64), lat.psi, fhat, lat.sphi,
            lat.phase, lat.atom_steps, lat.phi, fvals, int(scn.x0), float(s),
            float(u), counts, offsets, times, aidx, cps)
        if outs is None:
            outs = [np.empty((n_paths, *r.shape[1:]), r.dtype) for r in rows]
        for out, r in zip(outs, rows):
            out[first:first + n] = r
        n_jumps += int(counts.sum())
    return EnsembleResult(n_paths, n_jumps, tuple(scn.window), cps, *outs,
                          complex(pf0))


def _mean_var(values):
    """The mean over paths (axis 0) and its variance, the sample variance
    over n (that of the real part plus that of the imaginary part)."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        var = values.real.var(axis=0, ddof=1) + values.imag.var(axis=0, ddof=1)
    else:
        var = values.var(axis=0, ddof=1)
    return values.mean(axis=0), var / len(values)


def _mean_se(values):
    mean, var = _mean_var(values)
    return mean, np.sqrt(var)


def _sigmas(diff, stderr) -> float:
    """|diff| in standard errors; an exact 0 with stderr 0 is 0 sigmas."""
    if stderr == 0.0:
        return 0.0 if diff == 0 else math.inf
    return abs(diff) / stderr


@dataclass
class DriftRow:
    t1: float
    t2: float
    process: str
    drift: complex
    stderr: float

    @property
    def sigmas(self) -> float:
        return _sigmas(self.drift, self.stderr)

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


def _jump_sq(lat):
    return math.fsum(lat.weights * (lat.atom_steps[:, 0] * lat.h) ** 2)


def _position_cos(lat, jp):
    n = lat.sizes[0]  # y_1 centred before the cosine
    y = ((jp.y[:, 0] + n // 2) % n - n // 2) * lat.h
    return np.cos(2.0 * np.pi * y / (n * lat.h))


def _position_cos_compensator(lat, span, moment):
    """m Re int_0^span e^{v c} dv = m int_0^span E cos(theta X_1) dv, with
    c = sum_a w_a (e^{i theta z_a1} - 1) at theta = 2 pi / n_1 (psi_1, the
    lattice exponent, for a symmetric measure) and m = ``moment(lat)``, the
    jump factor's compensator sum_a w_a g(z_a)."""
    m = moment(lat)
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
    "position_cos_jump_1": LevyFunctional(
        lambda lat, s, jp: _position_cos(lat, jp) * _jump_coord(lat, s, jp),
        lambda lat, span: _position_cos_compensator(lat, span, _mean_jump)),
    # even in z and position-dependent: nonzero on a symmetric measure too
    "position_cos_jump_sq_1": LevyFunctional(
        lambda lat, s, jp: (_position_cos(lat, jp)
                            * _jump_coord(lat, s, jp) ** 2),
        lambda lat, span: _position_cos_compensator(lat, span, _jump_sq)),
}


@dataclass
class LevySystemRow:
    name: str
    lhs: float
    stderr: float
    rhs: float

    @property
    def sigmas(self) -> float:
        return _sigmas(self.lhs - self.rhs, self.stderr)

    @property
    def passed(self) -> bool:
        return abs(self.lhs - self.rhs) <= 3.0 * self.stderr or \
            abs(self.lhs - self.rhs) <= 1e-12


def _sample_jumps(lat: PeriodicLattice, window, n_paths: int, seed: int,
                  first_path: int = 0):
    """Per-path jump counts and the Jumps of the paths [first_path,
    first_path + n_paths) of an ensemble."""
    counts, offsets, times, aidx = sample_ensemble(lat, window, n_paths, seed,
                                                   first_path)
    z = lat.atom_steps[aidx]
    y = core.walk(lat.sizes, lat.atom_steps, 0, offsets, aidx) - z
    return counts, Jumps(times, aidx, y, z)


def levy_system_check(lat: PeriodicLattice, window, n_paths: int,
                      seed: int) -> list[LevySystemRow]:
    """Monte Carlo jump sums against the compensator integral, one row per
    functional of ``LEVY_FUNCTIONALS``, in its order."""
    s, t = window
    sums = np.empty((len(LEVY_FUNCTIONALS), n_paths))  # per functional, path
    for first, n in _chunks(lat, t - s, n_paths):
        counts, jumps = _sample_jumps(lat, window, n, seed, first)
        for row, fn in zip(sums, LEVY_FUNCTIONALS.values()):
            row[first:first + n] = core.levy_ensemble(
                counts, fn.value(lat, float(s), jumps))
        del counts, jumps  # freed before the next chunk is drawn
    rows = []
    for (name, fn), values in zip(LEVY_FUNCTIONALS.items(), sums):
        mean, se = _mean_se(values)
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
    grouped_curve: list  # (n, mean l2 error over disjoint n-path groups)
    pairs: int  # the base paths, each a pair with its mirror
    kernel_seconds: float = 0.0  # wall seconds in the projection kernel

    @property
    def passed(self) -> bool:
        return self.l2_error <= 5 * self.stderr_norm


def finite_time_lattice_symbol(lat: PeriodicLattice, s: float) -> np.ndarray:
    """m_s at the lattice frequencies: (1 - e^{2|s| psi}) sphi / psi, 0 at zeros."""
    # sphi equals the modulated exponent: the sine parts cancel by symmetry
    return _ratio((1.0 - np.exp(2.0 * abs(s) * lat.psi)) * lat.sphi, lat.psi,
                  lat.psi != 0.0)


_MAX_RATE_WINDOW = 50.0  # guard on |s| * rate, the mean jumps per path


def check_projection_inputs(lat: PeriodicLattice, s: float, n_paths: int,
                            n_curve=None):
    """The usage rules of ``projection_identity_check``: s < 0, the window
    guard on |s| * rate, an even ``n_paths`` of at least 4, even curve sizes
    within the ensemble, a symmetric measure nu(A) = nu(-A) on the lattice
    steps and an even phi(-z) = phi(z).  Raises InvalidInputError."""
    if not s < 0:
        raise InvalidInputError("s must be negative (window (s, 0])")
    if abs(s) * lat.total_rate > _MAX_RATE_WINDOW:
        raise InvalidInputError(
            f"window depth |s| * rate = {abs(s) * lat.total_rate:.3g} exceeds "
            f"the variance guard {_MAX_RATE_WINDOW}")
    if n_paths % 2 or n_paths < 4:
        raise InvalidInputError(
            f"the projection check pairs paths: n_paths must be even and at "
            f"least 4, got {n_paths}")
    for n in n_curve or ():
        if n % 2 or not 2 <= n <= n_paths:
            raise InvalidInputError(
                f"curve size {n} must be even and within the ensemble")
    what = "the projection check's lattice"
    _check_symmetric_atoms(lat.atom_steps, lat.weights, what)
    _check_even_phi(lat.atom_steps, lat.phi, what)


def _reflected(block):
    """A copy of each row (axis 0) read at -k: flipped along the mode axes,
    then rolled by one, so that mode 0 stays in place."""
    axes = tuple(range(1, block.ndim))
    return np.roll(np.flip(block, axes), 1, axes)


def _pair_means(rows, sizes, fhat):
    """Turn the base rows R into the pair means fhat(k) (R(k) + R(-k)) / 2,
    R(-k) the mirror's row, in place ``core.BLOCK // P`` rows at a time: no
    second (n, P) array exists."""
    fhat = 0.5 * fhat.reshape(sizes)
    width = max(1, core.BLOCK // rows.shape[1])
    for r0 in range(0, rows.shape[0], width):
        block = rows[r0:r0 + width].reshape(-1, *sizes)
        block += _reflected(block)
        block *= fhat


class _PairMoments:
    """The pair means of a stream of base rows, folded a buffer at a time.

    Rows are copied into one reused buffer of ``8 * core.BLOCK`` values;
    each full buffer becomes pair means (``_pair_means``) and is folded in:

    * ``total``, their running sum, added row after row as numpy's axis-0
      sum adds them, so ``total / n`` is the mean of one sum over all n;
    * ``m2``, the per-mode sum of squared deviations (of the real part plus
      those of the imaginary part), each batch's merged into the running
      one as in Chan, Golub and LeVeque (1983);
    * per group size m, the running sum of the current group of m
      consecutive pair means, groups straddling buffer edges, and the
      squared error ||ifft(group mean) - h_spec||^2 of each of the first
      ``n_pairs // m`` groups; pair means past them are not read.
    """

    def __init__(self, lat: PeriodicLattice, fhat, h_spec, group_sizes,
                 n_pairs):
        n_modes = lat.n_points
        self.lat, self.fhat, self.h_spec = lat, fhat, h_spec
        # 8 BLOCKs, twice the kernel's block buffers: the check's largest
        # transient array by a margin, so the allocator keeps the heap
        # between checks instead of returning it (with 4 BLOCKs a 64 x 64,
        # 500-path verify took ~2,300 minor page faults, against 1).  Row 0
        # takes the running total before each batch's sum
        self.buf = np.empty((1 + 8 * max(1, core.BLOCK // n_modes), n_modes),
                            np.complex128)
        self.fill = 0
        self.n = 0
        self.total = np.zeros(n_modes, np.complex128)
        self.m2 = np.zeros(n_modes)
        self.groups = [(m, n_pairs // m, np.zeros(n_modes, np.complex128), [])
                       for m in group_sizes]

    def push(self, rows):
        """Buffer base rows; fold the buffer each time it fills."""
        room = self.buf.shape[0] - 1
        i = 0
        while i < rows.shape[0]:
            take = min(rows.shape[0] - i, room - self.fill)
            self.buf[1 + self.fill:1 + self.fill + take] = rows[i:i + take]
            self.fill += take
            i += take
            if self.fill == room:
                self.fold()

    def fold(self):
        """Turn the buffered rows into pair means and merge them in."""
        k = self.fill
        if not k:
            return
        batch = self.buf[1:1 + k]
        _pair_means(batch, self.lat.sizes, self.fhat)
        for m, n_groups, acc, sq in self.groups:
            i = 0
            while i < k and (self.n + i) // m < n_groups:
                j = min(k, i + m - (self.n + i) % m)
                acc += batch[i:j].sum(axis=0)
                if (self.n + j) % m == 0:  # the group is complete
                    sq.append(np.linalg.norm(
                        self.lat.ifft(acc / m) - self.h_spec) ** 2)
                    acc[:] = 0.0
                i = j
        self.buf[0] = self.total
        total = (self.buf[:1 + k] if self.n else batch).sum(axis=0)
        centre = (total - self.total) / k  # the batch mean, to roundoff
        dev = np.subtract(batch, centre, out=batch).view(np.float64)
        np.square(dev, out=dev)
        m2 = dev.sum(axis=0)
        n = self.n + k
        delta = centre - self.total / max(self.n, 1)
        self.m2 += m2[0::2] + m2[1::2]
        self.m2 += (delta.real ** 2 + delta.imag ** 2) * (self.n * k / n)
        self.total, self.n, self.fill = total, n, 0


def projection_identity_check(lat: PeriodicLattice, f, s: float,
                              n_paths: int, seed: int, n_curve=None) -> ProjectionResult:
    """Recover the finite-time multiplier from path functionals.

    The duality pairing of F_u against lattice indicators recovers, path by
    path, H(w) = F_u(w - X_{s,u}); its ensemble mean converges to the
    function with spectrum m_s(k) fhat(k).  Works on the window (s, 0].
    Long windows blow up the per-path jump count and hence the Monte Carlo
    variance, so |s| * rate is guarded.

    The measure is symmetric and phi even, so a path and its mirror (every
    jump z replaced by -z, the same jump times) are equally likely, and the
    mirror's Fourier row is the path's read at -k.  Base path i is path i of
    the ``n_paths // 2``-path ensemble at ``seed``; only the base paths go
    through the kernel, and the mean and its stderr are taken over the
    ``n_paths // 2`` pair means.  ``n_paths`` and each ``n_curve`` size
    count paths, mirrors included (see ``check_projection_inputs``): an
    ``n_curve`` group is n/2 consecutive pair means.

    The base paths are drawn and sent through the kernel in chunks (see
    ``chunk_paths``), and the kernel's rows are folded as they are made
    (``_PairMoments``), so no (n/2, P) array exists.
    """
    check_projection_inputs(lat, s, n_paths, n_curve)
    f = _boundary(lat, f)
    u = 0.0
    half = n_paths // 2
    fhat = lat.fft(f)
    h_spec = lat.ifft(finite_time_lattice_symbol(lat, s) * fhat)
    # rms of the error over disjoint groups of n/2 pair means: its square
    # has expectation trace(cov)/(n/2) exactly, cov that of a pair mean, so
    # the n^{-1/2} scale is pinned far more tightly than by a single prefix
    pairs = _PairMoments(lat, fhat, h_spec, [n // 2 for n in n_curve or ()],
                         half)
    sizes = np.asarray(lat.sizes, dtype=np.int64)
    kernel_s = 0.0
    for first, n in _chunks(lat, u - s, half):
        ens = sample_ensemble(lat, (s, u), n, seed, first)
        clock = time.perf_counter()
        for _, _, rows in core.projection_blocks(
                sizes, lat.psi, lat.sphi, lat.phase, lat.atom_steps, lat.phi,
                float(s), u, *ens):
            kernel_s += time.perf_counter() - clock
            pairs.push(rows)
            clock = time.perf_counter()
        kernel_s += time.perf_counter() - clock
    pairs.fold()
    h_mc = lat.ifft(pairs.total / half)
    err = float(np.linalg.norm(h_mc - h_spec))
    stderr_norm = float(np.sqrt(pairs.m2.sum() / (half - 1) / half
                                / lat.n_points))
    grouped = [(int(n), float(np.sqrt(np.mean(sq))))
               for n, (*_, sq) in zip(n_curve or (), pairs.groups)]
    return ProjectionResult(h_mc, h_spec, err, stderr_norm,
                            float(np.linalg.norm(h_spec)), grouped, half,
                            kernel_s)


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
    f = _boundary(lat, f)
    norm1 = float(np.abs(f).sum() * lat.h ** lat.d)
    abs_phi = np.abs(lat.phi)
    per_path = np.empty(n_paths)
    for first, n in _chunks(lat, t - s, n_paths):
        counts, _, _, aidx = sample_ensemble(lat, window, n, seed, first)
        per_path[first:first + n] = core.levy_ensemble(counts, abs_phi[aidx])
        del counts, _, aidx  # freed before the next chunk is drawn
    modulated_rate = float((lat.weights * abs_phi).sum())
    comp_part = (t - s) * modulated_rate
    values = 2.0 * norm1 * (per_path + comp_part)
    mean, se = _mean_se(values)
    closed = 4.0 * (t - s) * modulated_rate * norm1
    return L1MassResult(float(mean), float(se), closed)

