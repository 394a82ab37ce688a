"""Periodic uniform grids, Lebesgue norms, and the grid file formats."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError

__all__ = ["GridFunction", "PStar", "lp_norm", "write_grid", "read_grid"]

_MAGIC = b"LMGF"
_VERSION = 1


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a periodic uniform grid over [0, L)^d, d in {1, 2}.

    Grid sizes are powers of two (>= 8).  The frequency attached to index k
    along an axis is 2 pi k~ / L with k~ the signed alias in [-N/2, N/2).
    """

    sizes: tuple
    period: tuple
    samples: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(n) for n in np.atleast_1d(self.sizes))
        period = tuple(float(x) for x in np.atleast_1d(self.period))
        if len(sizes) not in (1, 2) or len(period) != len(sizes):
            raise InvalidInputError("dimension must be 1 or 2")
        if any(not _is_pow2(n) or n < 8 for n in sizes):
            raise InvalidInputError("grid sizes must be powers of two, >= 8")
        if not all(0 < L < np.inf for L in period):
            raise InvalidInputError("periods must be positive and finite")
        arr = np.asarray(self.samples, dtype=complex).reshape(sizes)
        if not np.all(np.isfinite(arr.view(float))):
            raise InvalidInputError("samples must be finite")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "samples", arr)

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod([L / n for L, n in zip(self.period, self.sizes)]))

    def frequencies(self) -> np.ndarray:
        """Array of shape sizes + (d,) holding the grid frequencies."""
        comps = [2 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / L
                 for n, L in zip(self.sizes, self.period)]
        grids = np.meshgrid(*comps, indexing="ij")
        return np.stack(grids, axis=-1)

    @classmethod
    def from_callable(cls, fn, sizes, period) -> "GridFunction":
        sizes = tuple(int(n) for n in np.atleast_1d(sizes))
        period = tuple(float(x) for x in np.atleast_1d(period))
        axes = [np.arange(n) * (L / n) for n, L in zip(sizes, period)]
        grids = np.meshgrid(*axes, indexing="ij")
        return cls(sizes, period, np.asarray(fn(*grids), dtype=complex))

    def with_samples(self, samples) -> "GridFunction":
        return GridFunction(self.sizes, self.period, samples)


def lp_norm(f: GridFunction, p: float) -> float:
    """Riemann-sum norm (sum |f_i|^p (L/N)^d)^(1/p)."""
    if p < 1:
        raise InvalidInputError("p must be at least 1")
    return _norm_of_abs(np.abs(f.samples), p, f.cell_volume)


def _norm_of_abs(mags, p, cell_volume, scratch=None):
    """(sum mags^p * cell_volume)^(1/p), the norm ``lp_norm`` takes of |f|.

    mags^p is a product of mags for integer p <= 4, mags sqrt(mags) for
    p = 3/2 and mags cbrt(mags) for p = 4/3, each within a few ulp of
    ``np.power`` at a fraction of its cost; any other p uses ``np.power``.
    ``scratch``, shaped like ``mags``, receives mags^p when given.
    """
    if p == 1.0:
        powered = mags
    elif p in (2.0, 3.0, 4.0):
        powered = np.multiply(mags, mags, out=scratch)
        if p == 3.0:
            powered *= mags
        elif p == 4.0:
            powered *= powered
    elif p in (1.5, 4.0 / 3.0):
        root = np.sqrt if p == 1.5 else np.cbrt
        powered = root(mags, out=scratch)
        powered *= mags
    else:
        powered = np.power(mags, p, out=scratch)
    return float(powered.sum() * cell_volume) ** (1.0 / p)


@dataclass(frozen=True)
class PStar:
    """Holder data: q = p/(p-1), p* = max(p, q), and the bound p* - 1."""

    p: float

    def __post_init__(self):
        if not 1 < self.p < np.inf:
            raise InvalidInputError("p must lie in (1, inf)")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def p_star(self) -> float:
        return max(self.p, self.q)

    @property
    def bound(self) -> float:
        """p* - 1, computed as max(p - 1, 1/(p - 1)) so the identity is exact."""
        return max(self.p - 1.0, 1.0 / (self.p - 1.0))


# ---------------------------------------------------------------------------
# flat binary format: magic, version, d, N per axis, L per axis, re/im f64
# ---------------------------------------------------------------------------

def write_grid(path, f: GridFunction) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, f.d))
        fh.write(struct.pack(f"<{f.d}I", *f.sizes))
        fh.write(struct.pack(f"<{f.d}d", *f.period))
        inter = np.empty(f.samples.size * 2, dtype="<f8")
        flat = f.samples.ravel()
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        fh.write(inter.tobytes())


def read_grid(path) -> GridFunction:
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidInputError(f"grid path must be a string, got {path!r}")
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise InvalidInputError(f"grid file not found: {path}") from None
    with fh:
        if fh.read(4) != _MAGIC:
            raise InvalidInputError(f"{path}: not a grid file")
        try:
            version, d = struct.unpack("<II", fh.read(8))
            if version != _VERSION:
                raise InvalidInputError(f"{path}: unsupported version {version}")
            if d not in (1, 2):
                raise InvalidInputError(f"{path}: bad dimension {d}")
            sizes = struct.unpack(f"<{d}I", fh.read(4 * d))
            period = struct.unpack(f"<{d}d", fh.read(8 * d))
        except struct.error:
            raise InvalidInputError(f"{path}: truncated header") from None
        count = int(np.prod(sizes))
        raw = np.frombuffer(fh.read(16 * count), dtype="<f8")
        if raw.size != 2 * count:
            raise InvalidInputError(f"{path}: truncated data section")
        samples = raw[0::2] + 1j * raw[1::2]
    return GridFunction(sizes, period, samples.reshape(sizes))

