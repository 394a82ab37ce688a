"""Symmetric jump-intensity measures, jump modulators, and their exponents.

Two measure families are supported:

* :class:`DiscreteLevyMeasure` -- finitely many symmetric atoms, exact
  arithmetic everywhere (characteristic exponent by finite summation,
  transition measures by truncated convolution-exponential series).
* :class:`TruncatedStableMeasure` -- polar form r**(-1-alpha) dr mu(dtheta)
  with an inner truncation radius and optional outer radius; the angular
  measure mu is a finite symmetric set of directions.

The characteristic exponent of a symmetric measure nu is

    psi(xi) = integral (cos(xi . z) - 1) nu(dz)  <= 0,

real, even and vanishing at 0.  A jump modulator phi (symmetric, |phi| <= 1)
weights the same integral, producing the numerator of the multiplier ratio.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import gamma as _gamma

from .exceptions import ConvergenceError, InvalidInputError, UnsupportedMeasureError

__all__ = [
    "DiscreteLevyMeasure",
    "TruncatedStableMeasure",
    "JumpModulator",
    "TransitionMeasure",
    "char_exponent",
    "char_exponent_stable_closed_form",
    "modulated_exponent",
    "stable_power_coefficient",
    "transition_measure",
    "levy_khinchin_check",
    "measure_to_dict",
    "measure_from_dict",
    "modulator_to_dict",
    "modulator_from_dict",
    "dumps_measure",
    "loads_measure",
]

_ATOM_TOL = 1e-12


def _as_points(points, d=None):
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if d is not None and arr.shape[1] != d:
        raise InvalidInputError(f"expected {d}-vectors, got shape {arr.shape}")
    return arr


def _close(points, keys):
    """(n, k) mask: row i of ``points`` and row j of ``keys`` agree in every
    coordinate within ``_ATOM_TOL``."""
    return np.all(np.abs(points[:, None, :] - keys[None, :, :]) <= _ATOM_TOL,
                  axis=-1)


def _check_symmetric_atoms(locations, weights, what):
    """nu(A) = nu(-A): at each atom z, the weight within tolerance of z equals
    the weight within tolerance of -z (to a relative 1e-12)."""
    here = _close(locations, locations) @ weights
    mirror = _close(-locations, locations) @ weights
    bad = ~(np.abs(here - mirror) <= 1e-12 * np.maximum(here, mirror))
    if np.any(bad):
        i = np.argmax(bad)
        raise InvalidInputError(
            f"{what} is not symmetric: no mirror for atom {locations[i]} "
            f"(weight {weights[i]})")


@dataclass(frozen=True)
class DiscreteLevyMeasure:
    """Finite symmetric measure given by atoms (location, weight)."""

    locations: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        loc = _as_points(self.locations)
        w = np.asarray(self.weights, dtype=float).ravel()
        if loc.shape[0] != w.shape[0]:
            raise InvalidInputError("locations and weights length mismatch")
        if loc.shape[1] not in (1, 2):
            raise InvalidInputError("dimension must be 1 or 2")
        if not np.all(np.isfinite(loc)) or not np.all(np.isfinite(w)):
            raise InvalidInputError("non-finite atom data")
        if np.any(w <= 0):
            raise InvalidInputError("weights must be positive")
        if np.any(np.all(np.abs(loc) <= _ATOM_TOL, axis=1)):
            raise InvalidInputError("no atom may sit at the origin")
        _check_symmetric_atoms(loc, w, "measure")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple]) -> "DiscreteLevyMeasure":
        locs, ws = zip(*((np.atleast_1d(z), w) for z, w in atoms))
        return cls(np.vstack([np.atleast_1d(z) for z in locs]), np.array(ws))

    @classmethod
    def axes(cls, d: int, weight: float = 1.0, spacing: float = 1.0):
        """Atoms +-spacing*e_j on every coordinate axis, equal weights."""
        atoms = []
        for j in range(d):
            e = np.zeros(d)
            e[j] = spacing
            atoms.append((e, weight))
            atoms.append((-e, weight))
        return cls.from_atoms(atoms)

    @property
    def dimension(self) -> int:
        return self.locations.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def exponent_scale(self) -> float:
        """Natural magnitude of the characteristic exponent (|psi| <= 2 mass)."""
        return self.total_mass


@dataclass(frozen=True)
class TruncatedStableMeasure:
    """Polar measure r**(-1-alpha) dr mu(dtheta) on epsilon < r < outer_radius."""

    alpha: float
    epsilon: float
    directions: np.ndarray  # (n, d) unit vectors
    angular_weights: np.ndarray  # (n,)
    outer_radius: float = math.inf

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise InvalidInputError("alpha must lie in (0, 2)")
        if not self.epsilon > 0:
            raise InvalidInputError("epsilon must be positive")
        if not self.outer_radius > self.epsilon:
            raise InvalidInputError("outer_radius must exceed epsilon")
        dirs = _as_points(self.directions)
        w = np.asarray(self.angular_weights, dtype=float).ravel()
        if dirs.shape[0] != w.shape[0]:
            raise InvalidInputError("directions and weights length mismatch")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("non-finite angular weights")
        if np.any(w <= 0):
            raise InvalidInputError("angular weights must be positive")
        norms = np.linalg.norm(dirs, axis=1)
        if not np.allclose(norms, 1.0, rtol=0, atol=1e-9):
            raise InvalidInputError("directions must be unit vectors")
        _check_symmetric_atoms(dirs, w, "angular measure")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "angular_weights", w)

    @classmethod
    def axes(cls, d: int, alpha: float, epsilon: float, outer_radius: float = math.inf):
        """The standard angular measure: unit atoms on +-e_j for every axis."""
        dirs, ws = [], []
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            dirs += [e, -e]
            ws += [1.0, 1.0]
        return cls(alpha, epsilon, np.vstack(dirs), np.array(ws), outer_radius)

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    @property
    def total_mass(self) -> float:
        """Radial mass integral times total angular weight (finite for eps > 0)."""
        a, eps, r = self.alpha, self.epsilon, self.outer_radius
        radial = (eps ** (-a) - (0.0 if math.isinf(r) else r ** (-a))) / a
        return float(self.angular_weights.sum() * radial)

    @property
    def exponent_scale(self) -> float:
        """Natural magnitude of the characteristic exponent.

        The total mass blows up like eps**(-alpha) while the exponent at
        order-one frequencies stays near |c(alpha)| x angular mass (the mass
        sits at radii where cos(xi.z) - 1 is quadratically small), so the
        mass is the wrong yardstick for a zero-of-psi threshold here.
        """
        return float(self.angular_weights.sum()
                     * abs(stable_power_coefficient(self.alpha)))


class JumpModulator:
    """Bounded symmetric weight phi on jump space, |phi| <= 1, phi(-z) = phi(z).

    Kinds:
      constant      -- phi == c everywhere
      axis          -- 1 on the j-th coordinate axis (origin excluded), else 0
      per_axis      -- a_j on the j-th axis, 0 off the axes
      table         -- explicit value per atom location
      sign_pattern  -- +-1 per atom, listed in the measure's atom order
    """

    def __init__(self, kind: str, **payload):
        if kind not in ("constant", "axis", "per_axis", "table", "sign_pattern"):
            raise InvalidInputError(f"unknown modulator kind {kind!r}")
        try:
            if kind == "axis":
                payload["j"] = _int(payload["j"])
            if kind == "sign_pattern":
                payload["signs"] = [_int(s) for s in payload["signs"]]
        except ValueError as exc:
            raise InvalidInputError(f"{kind} modulator: {exc}") from None
        if kind == "sign_pattern" and any(s not in (-1, 1) for s in payload["signs"]):
            raise InvalidInputError("sign pattern entries must be +-1")
        self.kind = kind
        self.payload = payload
        if kind == "constant" and abs(payload["value"]) > 1 + 1e-15:
            raise InvalidInputError("|phi| must not exceed 1")
        if kind == "per_axis" and np.any(np.abs(payload["coefficients"]) > 1 + 1e-15):
            raise InvalidInputError("|phi| must not exceed 1")

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, value) -> "JumpModulator":
        return cls("constant", value=complex(value))

    @classmethod
    def axis_indicator(cls, j: int) -> "JumpModulator":
        return cls("axis", j=j)

    @classmethod
    def per_axis(cls, coefficients: Sequence[float]) -> "JumpModulator":
        return cls("per_axis", coefficients=np.asarray(coefficients, dtype=complex))

    @classmethod
    def table(cls, mapping: dict) -> "JumpModulator":
        tab = {tuple(np.atleast_1d(np.asarray(k, dtype=float))): complex(v)
               for k, v in mapping.items()}
        return cls("table", mapping=tab)

    @classmethod
    def sign_pattern(cls, signs: Sequence[int]) -> "JumpModulator":
        return cls("sign_pattern", signs=list(signs))

    # -- evaluation --------------------------------------------------------
    def values_at(self, points: np.ndarray) -> np.ndarray:
        """phi evaluated at the rows of ``points`` (atom or direction list)."""
        pts = _as_points(points)
        n, d = pts.shape
        if self.kind == "constant":
            return np.full(n, self.payload["value"], dtype=complex)
        if self.kind in ("axis", "per_axis"):
            # the coordinate axis each point lies on, -1 off the axes
            off = np.abs(pts) > _ATOM_TOL
            axis = np.where(off.sum(axis=1) == 1, off @ np.arange(d), -1)
        if self.kind == "axis":
            j = self.payload["j"] - 1
            if not 0 <= j < d:
                raise InvalidInputError("axis index out of range")
            return (axis == j).astype(complex)
        if self.kind == "per_axis":
            coeff = np.asarray(self.payload["coefficients"], dtype=complex)
            if len(coeff) != d:
                raise InvalidInputError("per-axis coefficient count mismatch")
            return np.append(coeff, 0)[axis]  # index -1 reads the 0
        if self.kind == "sign_pattern":
            signs = self.payload["signs"]
            if len(signs) != n:
                raise InvalidInputError(
                    "sign pattern length does not match the atom list")
            return np.asarray(signs, dtype=complex)
        # table: the first key, in insertion order, within tolerance
        tab = self.payload["mapping"]
        keys = [k for k in tab if len(k) == d]
        hit = _close(pts, np.array(keys, dtype=float).reshape(-1, d))
        missing = ~hit.any(axis=1)
        if np.any(missing):
            raise InvalidInputError(
                f"modulator table has no value at {tuple(pts[np.argmax(missing)])}")
        return np.array([tab[k] for k in keys], dtype=complex)[hit.argmax(axis=1)]

    def validate_on(self, measure) -> np.ndarray:
        """Check the bound and the symmetry phi(-z) = phi(z) on the atoms.

        Asymmetric modulators (including antisymmetric ones, which would give
        an identically-zero symbol) are rejected rather than silently zeroed.
        Returns the atom-aligned values.
        """
        pts = measure.directions if isinstance(measure, TruncatedStableMeasure) \
            else measure.locations
        vals = self.values_at(pts)
        if np.any(np.abs(vals) > 1 + 1e-12):
            raise InvalidInputError("|phi| must not exceed 1 on the atoms")
        i, j = np.nonzero(_close(-pts, pts))
        if np.any(np.abs(vals[i] - vals[j]) > 1e-12):
            raise InvalidInputError("modulator is not symmetric: phi(-z) != phi(z)")
        return vals


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------

def stable_power_coefficient(alpha: float) -> float:
    """c(alpha) with  integral_0^inf (cos(b r) - 1) r**(-1-alpha) dr = c(alpha) |b|**alpha."""
    if not 0 < alpha < 2:
        raise InvalidInputError("alpha must lie in (0, 2)")
    return -math.pi / (2.0 * math.sin(math.pi * alpha / 2.0) * _gamma(1.0 + alpha))


_EDGE = 10.0  # in b*eps: the power series below it, the rotated contour above
_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(32)


_SERIES_TOL = 1e-14  # relative size of the last term kept
_SERIES_TERMS = 120


def _inner_correction(b, alpha, eps):
    """integral_0^eps (cos(b r) - 1) r**(-1-alpha) dr by its power series.

    Vectorised over b.  The series is alternating with factorial decay, but
    its terms first grow like e^{b eps} (to 3.5e2 at b*eps = 10, 2.5e8 at
    25), so ``_radial_integral`` uses it only up to b*eps = ``_EDGE``, where
    it converges in 22-23 terms and keeps 6.1e-13 relative or better.
    Raises ConvergenceError, carrying the partial sums, if ``_SERIES_TERMS``
    terms do not converge.
    """
    b = np.asarray(b, dtype=float)
    a = b * eps
    out = np.zeros_like(b)
    if b.size == 0:
        return out
    term_scale = np.ones_like(b)
    converged = np.zeros(b.shape, dtype=bool)
    floor = np.maximum(2, a.astype(np.int64) // 2)  # per value, not per batch
    for m in range(1, _SERIES_TERMS + 1):
        term_scale = term_scale * (a * a) / ((2 * m - 1) * (2 * m))
        term = ((-1) ** m) * term_scale * eps ** (-alpha) / (2 * m - alpha)
        out = np.where(converged, out, out + term)
        newly = np.abs(term) <= _SERIES_TOL * np.maximum(np.abs(out),
                                                         eps ** (-alpha) * 1e-30)
        converged |= newly & (m > floor)
        if np.all(converged):
            return out
    raise ConvergenceError(
        f"inner series did not converge in {_SERIES_TERMS} terms at "
        f"b*eps = {np.max(a[~converged]):.6g}", estimate=out)


def _contour_tail(a, alpha):
    """integral_a^inf (cos s - 1) s**(-1-alpha) ds for a > ``_EDGE``.

    On the rotated contour s = a + it the oscillating tail is
    i e^{ia} integral_0^inf e^{-t} (a + it)**(-1-alpha) dt, which one fixed
    Gauss-Laguerre rule resolves (Huybrechs and Vandewalle, SIAM J. Numer.
    Anal. 44, 2006): 32 nodes keep 1.5e-15 relative for a >= 8, but 8.6e-8
    at a = 2.  Summing node by node keeps each value batch-independent.
    """
    acc = np.zeros(np.shape(a), dtype=complex)
    for t, w in zip(_LAGUERRE_NODES, _LAGUERRE_WEIGHTS):
        acc += w * (a + 1j * t) ** (-1.0 - alpha)
    return (1j * np.exp(1j * a) * acc).real - a ** (-alpha) / alpha


def _radial_integral(b, alpha, eps, outer):
    """integral_eps^outer (cos(b r) - 1) r**(-1-alpha) dr, vectorised over b >= 0.

    The closed radial form with a series correction where b*eps (for a
    finite window, b*outer) is at most ``_EDGE``; past it, the tail beyond
    each such end is b**alpha * ``_contour_tail``.  Each distinct b is
    evaluated once; both routes are elementwise, so no value depends on
    the rest of its batch.
    """
    b = np.asarray(b, dtype=float)
    shape = b.shape
    b, inverse = np.unique(b, return_inverse=True)
    out = np.empty_like(b)
    near = b * (eps if math.isinf(outer) else outer) <= _EDGE
    far = b[~near]
    if math.isinf(outer):
        full = stable_power_coefficient(alpha) * np.abs(b[near]) ** alpha
        out[near] = full - _inner_correction(b[near], alpha, eps)
        out[~near] = far ** alpha * _contour_tail(far * eps, alpha)
    else:
        out[near] = (_inner_correction(b[near], alpha, outer)
                     - _inner_correction(b[near], alpha, eps))
        out[~near] = (_radial_integral(far, alpha, eps, math.inf)
                      - far ** alpha * _contour_tail(far * outer, alpha))
    out = out[inverse].reshape(shape)
    return out[()] if out.ndim == 0 else out


def _coords(xi, d):
    """``xi`` as a float array whose last axis is a finite d-vector."""
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise InvalidInputError("xi must have finite components")
    if xi.ndim == 0 or xi.shape[-1] != d:
        raise InvalidInputError(f"expected xi with last axis {d}, got {xi.shape}")
    return xi


def _jump_integral(measure, coeff, xi):
    """integral (cos(xi . z) - 1) c(z) nu(dz), shaped like xi's leading axes.

    ``coeff`` is c: one value for every atom, or one value per atom of a
    discrete measure or per direction of a truncated stable one.
    """
    xi = _coords(xi, measure.dimension)
    pts = xi.reshape(-1, measure.dimension)
    if isinstance(measure, DiscreteLevyMeasure):
        vals = (np.cos(pts @ measure.locations.T) - 1.0) @ (measure.weights * coeff)
    elif isinstance(measure, TruncatedStableMeasure):
        w = measure.angular_weights * coeff
        # a direction with c = 0 adds +-0.0 to sums that start at +0.0,
        # which changes no value: it is not integrated
        proj = np.abs(pts @ measure.directions.T)
        vals = np.zeros(pts.shape[0], dtype=w.dtype)
        for i in np.flatnonzero(w):
            vals += w[i] * _radial_integral(proj[:, i], measure.alpha,
                                            measure.epsilon, measure.outer_radius)
    else:
        raise UnsupportedMeasureError(f"unsupported measure type {type(measure)!r}")
    return vals.reshape(xi.shape[:-1])


def char_exponent(measure, xi):
    """psi(xi) = integral (cos(xi . z) - 1) nu(dz)  (real, <= 0).

    ``xi`` may be a single d-vector or an array of shape (..., d); the result
    has the leading shape.  Discrete measures are summed exactly.  Truncated
    stable measures take one radial integral per direction at each distinct
    |xi . theta|: the closed radial form with a power-series correction
    where |xi . theta| * epsilon (or * outer_radius) is at most 10, and a
    32-node Gauss-Laguerre rule on the rotated contour past that edge.  No
    quadrature runs.
    """
    # clip the +0.0-level float noise at psi == 0
    psi = np.minimum(_jump_integral(measure, 1.0, xi), 0.0)
    return float(psi) if psi.ndim == 0 else psi


def char_exponent_stable_closed_form(alpha: float, xi, directions, angular_weights):
    """c(alpha) * sum_i m_i |xi . theta_i|**alpha  (no truncation).

    This is the exact exponent of the untruncated polar measure.  Note that
    every direction atom contributes individually, so the standard +-axis
    angular measure gives 2 * c(alpha) * sum_j |xi_j|**alpha.
    """
    if not 0 < alpha < 2:
        raise InvalidInputError("alpha must lie in (0, 2)")
    dirs = _as_points(directions)
    w = np.asarray(angular_weights, dtype=float).ravel()
    if dirs.shape[0] != w.shape[0]:
        raise InvalidInputError("directions and weights length mismatch")
    if not (np.all(np.isfinite(dirs)) and np.all(np.isfinite(w))):
        raise InvalidInputError("directions and weights must be finite")
    if np.any(w < 0):
        raise InvalidInputError("angular weights must be nonnegative")
    xi = _coords(xi, dirs.shape[1])
    single = xi.ndim == 1
    pts = xi.reshape(-1, dirs.shape[1])
    proj = np.abs(pts @ dirs.T) ** alpha
    vals = stable_power_coefficient(alpha) * (proj @ w)
    return float(vals[0]) if single else vals.reshape(xi.shape[:-1])


def modulated_exponent(measure, modulator: JumpModulator, xi):
    """psi_phi(xi) = integral (cos(xi . z) - 1) phi(z) nu(dz)."""
    psi_phi = _jump_integral(measure, modulator.validate_on(measure), xi)
    return complex(psi_phi) if psi_phi.ndim == 0 else psi_phi


# ---------------------------------------------------------------------------
# transition measures p_t on a lattice
# ---------------------------------------------------------------------------

def _float_gcd(values, tol=1e-9):
    vals = sorted(v for v in np.abs(np.asarray(values, float)).ravel() if v > tol)
    if not vals:
        raise UnsupportedMeasureError("measure has no nonzero coordinates")
    g = vals[0]
    for v in vals[1:]:
        a, b = v, g
        while b > tol * vals[-1]:
            a, b = b, math.fmod(a, b)
        g = a
    return g


@dataclass(frozen=True)
class TransitionMeasure:
    """Truncated series for p_t = exp(*t(nu - |nu| delta_0)) on a lattice.

    ``array`` holds the weights on integer offsets; ``origin`` is the index of
    the lattice point 0.  ``tail_bound`` is the discarded Poisson tail mass.
    """

    h: float
    array: np.ndarray
    origin: tuple
    t: float
    n_max: int
    tail_bound: float

    @property
    def dimension(self) -> int:
        return self.array.ndim

    @property
    def mass(self) -> float:
        return float(self.array.sum())

    def offsets(self):
        """Integer offset grids aligned with ``array``."""
        return np.meshgrid(
            *[np.arange(n) - o for n, o in zip(self.array.shape, self.origin)],
            indexing="ij")

    def weight_at(self, z) -> float:
        """Weight of the lattice point z (physical coordinates)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        idx = []
        for a in range(self.dimension):
            k = round(z[a] / self.h)
            if abs(z[a] - k * self.h) > 1e-9 * max(1.0, abs(z[a])):
                raise InvalidInputError("point off the lattice")
            i = k + self.origin[a]
            if not 0 <= i < self.array.shape[a]:
                return 0.0
            idx.append(i)
        return float(self.array[tuple(idx)])

    def convolve(self, other: "TransitionMeasure") -> "TransitionMeasure":
        if abs(self.h - other.h) > 1e-12:
            raise InvalidInputError("lattice scale mismatch")
        arr = _convolve(self.array, other.array)
        origin = tuple(a + b for a, b in zip(self.origin, other.origin))
        return TransitionMeasure(self.h, arr, origin, self.t + other.t,
                                 self.n_max + other.n_max,
                                 self.tail_bound + other.tail_bound)

    def fourier(self, xi) -> complex:
        """sum_z exp(i xi . z) p_t(z) over the stored atoms."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        grids = self.offsets()
        phase = sum(xi[a] * grids[a] * self.h for a in range(self.dimension))
        return complex((self.array * np.exp(1j * phase)).sum())


def _convolve(a, b):
    """Full discrete convolution of two 1-D or two 2-D arrays."""
    if a.ndim == 1:
        return np.convolve(a, b)
    from scipy.signal import convolve2d

    return convolve2d(a, b)


_MAX_RATE = 50.0  # guard on t*|nu|, the Poisson rate of the series


def transition_measure(measure: DiscreteLevyMeasure, t: float,
                       tol: float = 1e-12) -> TransitionMeasure:
    """Truncated p_t = e^{-t|nu|} sum_{n <= n_max} t^n/n! nu^{*n} on the lattice.

    All atoms must sit on a common lattice (inferred scale h).  n_max is the
    smallest n with Poisson(t|nu|) tail below ``tol``; the realised tail is
    recorded on the result.
    """
    if t < 0:
        raise InvalidInputError("t must be nonnegative")
    lam = t * measure.total_mass
    if lam > _MAX_RATE:
        raise InvalidInputError(f"t*|nu| = {lam:.3g} exceeds the guard {_MAX_RATE}")
    h = _float_gcd(measure.locations)
    steps = measure.locations / h
    if not np.allclose(steps, np.round(steps), rtol=0, atol=1e-9):
        raise UnsupportedMeasureError("atoms do not share a common lattice")
    steps = np.round(steps).astype(int)
    d = measure.dimension

    # Poisson weights and truncation order
    weights = [math.exp(-lam)]
    while 1.0 - math.fsum(weights) >= tol:
        n = len(weights)
        weights.append(weights[-1] * lam / n)
        if n > 10000:  # unreachable under the rate guard
            raise ConvergenceError("Poisson series did not truncate")
    n_max = len(weights) - 1
    tail = max(0.0, 1.0 - math.fsum(weights))

    span = np.abs(steps).max(axis=0) if len(steps) else np.zeros(d, int)
    half = span * n_max
    shape = tuple(2 * half + 1)
    origin = tuple(half)

    base = np.zeros(tuple(2 * span + 1))  # normalised single-jump law
    probs = measure.weights / measure.total_mass
    for s, p in zip(steps, probs):
        base[tuple(s + span)] += p

    out = np.zeros(shape)
    out[origin] = weights[0]
    current, cur_origin = base, span  # nu_tilde^{*n} on its natural support
    for n in range(1, n_max + 1):
        if n > 1:
            current = _convolve(current, base)
            cur_origin = cur_origin + span
        sl = tuple(slice(o - co, o - co + s) for o, co, s in
                   zip(origin, cur_origin, current.shape))
        out[sl] += weights[n] * current
    return TransitionMeasure(h, out, origin, t, n_max, tail)


def levy_khinchin_check(measure: DiscreteLevyMeasure, t: float, xi,
                        tol: float = 1e-12):
    """Return (lhs, rhs) with lhs = p_t-hat(xi) (truncated) and rhs = e^{t psi(xi)}."""
    pt = transition_measure(measure, t, tol=tol)
    lhs = pt.fourier(xi)
    rhs = math.exp(t * char_exponent(measure, np.atleast_1d(xi)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def measure_to_dict(measure) -> dict:
    if isinstance(measure, DiscreteLevyMeasure):
        return {
            "kind": "discrete",
            "atoms": [{"z": list(map(float, z)), "w": float(w)}
                      for z, w in zip(measure.locations, measure.weights)],
        }
    if isinstance(measure, TruncatedStableMeasure):
        return {
            "kind": "stable",
            "alpha": float(measure.alpha),
            "epsilon": float(measure.epsilon),
            "outer_radius": None if math.isinf(measure.outer_radius)
            else float(measure.outer_radius),
            "atoms": [{"z": list(map(float, z)), "w": float(w)}
                      for z, w in zip(measure.directions, measure.angular_weights)],
        }
    raise UnsupportedMeasureError(f"cannot serialise {type(measure)!r}")


@contextmanager
def _reading(what):
    """Report a malformed ``what`` document as InvalidInputError.

    An InvalidInputError raised inside (a constructor rejecting a value)
    passes through with its own message.
    """
    try:
        yield
    except InvalidInputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed {what} document: {exc}") from exc


def _num(x):
    # decimal strings are accepted and parsed losslessly into float
    return float(x)


def _cnum(x):
    """A complex number from a real number or an exact [re, im] pair."""
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ValueError(f"complex value {x!r} is not an [re, im] pair")
        return complex(_num(x[0]), _num(x[1]))
    return complex(_num(x))


def _int(x):
    """An integer from an integral real number; bools and strings are refused."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not (isinstance(x, numbers.Integral) or float(x).is_integer())):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def measure_from_dict(doc: dict):
    with _reading("measure"):
        kind = doc["kind"]
        atoms = [(np.array([_num(c) for c in a["z"]]), _num(a["w"]))
                 for a in doc["atoms"]]
        if kind == "discrete":
            return DiscreteLevyMeasure.from_atoms(atoms)
        if kind == "stable":
            outer = doc.get("outer_radius")
            return TruncatedStableMeasure(
                _num(doc["alpha"]), _num(doc["epsilon"]),
                np.vstack([z for z, _ in atoms]),
                np.array([w for _, w in atoms]),
                math.inf if outer is None else _num(outer))
    raise InvalidInputError(f"unknown measure kind {kind!r}")


def modulator_to_dict(mod: JumpModulator) -> dict:
    if mod.kind == "constant":
        v = mod.payload["value"]
        return {"kind": "constant", "value": [v.real, v.imag]}
    if mod.kind == "axis":
        return {"kind": "axis", "j": mod.payload["j"]}
    if mod.kind == "per_axis":
        return {"kind": "per_axis",
                "coefficients": [[c.real, c.imag] for c in mod.payload["coefficients"]]}
    if mod.kind == "sign_pattern":
        return {"kind": "sign_pattern", "signs": list(mod.payload["signs"])}
    return {"kind": "table",
            "entries": [{"z": list(k), "value": [v.real, v.imag]}
                        for k, v in mod.payload["mapping"].items()]}


def modulator_from_dict(doc: dict) -> JumpModulator:
    with _reading("modulator"):
        kind = doc["kind"]
        if kind == "constant":
            return JumpModulator.constant(_cnum(doc["value"]))
        if kind == "axis":
            return JumpModulator.axis_indicator(doc["j"])
        if kind == "per_axis":
            return JumpModulator.per_axis([_cnum(c) for c in doc["coefficients"]])
        if kind == "sign_pattern":
            return JumpModulator.sign_pattern(doc["signs"])
        if kind == "table":
            return JumpModulator.table(
                {tuple(_num(c) for c in e["z"]): _cnum(e["value"])
                 for e in doc["entries"]})
    raise InvalidInputError(f"unknown modulator kind {kind!r}")


def dumps_measure(measure, modulator: JumpModulator | None = None) -> str:
    doc = measure_to_dict(measure)
    if modulator is not None:
        doc["modulator"] = modulator_to_dict(modulator)
    return json.dumps(doc, sort_keys=True)


def loads_measure(text: str):
    doc = json.loads(text)
    measure = measure_from_dict(doc)
    mod = modulator_from_dict(doc["modulator"]) if "modulator" in doc else None
    return measure, mod
