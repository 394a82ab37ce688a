"""Deterministic test-function corpora for norm-ratio sweeps.

A corpus is reproducible from its seed alone (counter-based Philox stream),
so sweeps are bitwise stable across runs and machines.  Families: smooth
bumps (Gaussian and compactly supported cosine), box/disk indicators, random
band-limited trigonometric polynomials, and oscillatory near-extremal
members (axis-aligned waves under a smooth envelope).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .grid import GridFunction

__all__ = ["CorpusConfig", "build_corpus", "gaussian_bump", "cosine_bump"]

DEFAULT_MIX = (("gauss", 0.25), ("cosbump", 0.15), ("indicator", 0.2),
               ("trig", 0.25), ("wave", 0.15))


@dataclass(frozen=True)
class CorpusConfig:
    d: int = 2
    n: int = 256
    period: float = 2 * np.pi
    count: int = 40
    seed: int = 2024
    mean_zero: bool = False


def _family_counts(count):
    counts = {name: int(round(frac * count)) for name, frac in DEFAULT_MIX}
    drift = count - sum(counts.values())
    counts["trig"] += drift
    return counts


def _axis_offsets(sizes, period, center):
    """Periodic offsets from ``center`` along each axis, shaped to broadcast.

    Axis a gets the 1-d offsets in [-L/2, L/2) of its grid points, reshaped
    to length n_a on axis a and 1 on every other axis.  Broadcast, they give
    the values of full coordinate meshgrids bit for bit, at 1/n of the work.
    """
    sizes, period, center = (np.atleast_1d(v) for v in (sizes, period, center))
    if not len(sizes) == len(period) == len(center):
        raise InvalidInputError(
            f"sizes, period and center differ in length: "
            f"{len(sizes)}, {len(period)}, {len(center)}")
    offsets = []
    for a, (n, L, c) in enumerate(zip(sizes, period, center)):
        x = np.arange(n) * (L / n)
        shape = [1] * len(sizes)
        shape[a] = n
        offsets.append((np.remainder(x - c + L / 2, L) - L / 2).reshape(shape))
    return offsets


def _periodic_r2(sizes, period, center):
    """Squared periodic distance from ``center`` at every grid point."""
    r2 = 0.0
    for dx in _axis_offsets(sizes, period, center):
        r2 = r2 + dx * dx
    return r2


def gaussian_bump(sizes, period, center, width):
    """Periodised Gaussian, unit peak; integral (sqrt(2 pi) width)^d for width << L."""
    return np.exp(-_periodic_r2(sizes, period, center) / (2 * width * width))


def cosine_bump(sizes, period, center, width):
    """Compact support: cos^2(pi r / (2 w)) inside r < w, zero outside."""
    r = np.sqrt(_periodic_r2(sizes, period, center))
    return np.where(r < width, np.cos(np.pi * r / (2 * width)) ** 2, 0.0)


def build_corpus(config: CorpusConfig):
    """Return (list of GridFunction, list of ids), deterministic in the seed."""
    if config.count < 1:
        raise InvalidInputError("corpus count must be positive")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(config.seed)))
    d, n, L = config.d, config.n, config.period
    sizes = (n,) * d
    period = (L,) * d
    counts = _family_counts(config.count)
    members, ids = [], []

    def emit(name, arr):
        if config.mean_zero:
            arr = arr - arr.mean()
        members.append(GridFunction(sizes, period, arr.astype(complex)))
        ids.append(name)

    for i in range(counts["gauss"]):
        center = rng.uniform(0, L, size=d)
        width = rng.uniform(0.03, 0.12) * L
        emit(f"gauss{i}", gaussian_bump(sizes, period, center, width))
    for i in range(counts["cosbump"]):
        center = rng.uniform(0, L, size=d)
        width = rng.uniform(0.05, 0.2) * L
        emit(f"cosbump{i}", cosine_bump(sizes, period, center, width))
    for i in range(counts["indicator"]):
        center = rng.uniform(0, L, size=d)
        if d == 2 and i % 2 == 0:
            radius = rng.uniform(0.05, 0.2) * L
            r2 = _periodic_r2(sizes, period, center)
            emit(f"disk{i}", (r2 < radius * radius).astype(float))
        else:
            half = rng.uniform(0.05, 0.25, size=d) * L
            inside = True
            for dx, hw in zip(_axis_offsets(sizes, period, center), half):
                inside = inside & (np.abs(dx) < hw)
            emit(f"box{i}", np.broadcast_to(inside, sizes).astype(float))
    for i in range(counts["trig"]):
        band = int(rng.integers(2, max(3, n // 16)))
        spec = np.zeros(sizes, dtype=complex)
        modes = [np.fft.fftfreq(m, d=1.0 / m).astype(int) for m in sizes]
        sel = np.meshgrid(*[np.abs(k) <= band for k in modes], indexing="ij")
        mask = np.logical_and.reduce(sel)
        coeffs = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
        spec[mask] = coeffs
        arr = np.fft.ifftn(spec)
        arr = arr.real  # hermitian projection: keep the real part
        emit(f"trig{i}", arr)
    for i in range(counts["wave"]):
        k = int(rng.integers(4, n // 4))
        axis = int(rng.integers(0, d))
        center = rng.uniform(0, L, size=d)
        width = rng.uniform(0.1, 0.3) * L
        env = gaussian_bump(sizes, period, center, width)
        phase = rng.uniform(0, 2 * np.pi)
        x = (np.arange(n) * (L / n)).reshape([n if a == axis else 1
                                              for a in range(d)])
        carrier = np.cos(2 * np.pi * k * x / L + phase)
        emit(f"wave{i}_k{k}", env * carrier)
    return members, ids
