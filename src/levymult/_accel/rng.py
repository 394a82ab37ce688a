"""Counter-based deterministic random streams for reproducible ensembles.

A stateless splitmix-style permutation maps (seed, path, stream, counter) to
a 64-bit word; uniforms are the top 53 bits.  Every path owns its stream, so
ensembles are reproducible and independent of worker count or generation
order, and any prefix of an ensemble is a deterministic sub-ensemble.  The
projection check draws only base paths and reads each mirror's row off its
base path's, so there this holds pair by pair.
"""

from __future__ import annotations

import numpy as np

__all__ = ["path_keys", "uniforms", "sample_ensemble"]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_PATH_SALT = np.uint64(0xD1342543DE82EF95)
_STREAM_SALT = np.uint64(0xAF251AF3B0F025B5)


def _mix(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # uint64 arithmetic wraps by design
        z = (z ^ (z >> np.uint64(30))) * _MULT1
        z = (z ^ (z >> np.uint64(27))) * _MULT2
        return z ^ (z >> np.uint64(31))


def path_keys(seed: int, paths, stream: int) -> np.ndarray:
    """One 64-bit key per (seed, path, stream)."""
    paths = np.asarray(paths, dtype=np.uint64)
    with np.errstate(over="ignore"):
        k = _mix(np.uint64(seed) + _GOLD)
        k = _mix(k ^ (paths * _PATH_SALT))
        return _mix(k ^ (np.uint64(stream) * _STREAM_SALT))


def uniforms(keys: np.ndarray, counters) -> np.ndarray:
    """U[0, 1) for key x counter (broadcast); 53-bit resolution."""
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        v = _mix(keys + counters * _GOLD)
    return (v >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def sample_ensemble(seed: int, n_paths: int, rate: float, s: float, u: float,
                    cum_weights: np.ndarray, first_path: int = 0):
    """Jump times and atom indices for paths [first_path, first_path + n).

    Inter-arrival gaps are exponential with mean 1/rate (counter-consumed in
    order, so prefixes of the stream are stable); atoms are drawn from the
    normalised weights.  Returns (counts, offsets, times, atom_idx).
    """
    span = u - s
    if span <= 0:
        raise ValueError("window must have positive length")
    if rate <= 0:
        raise ValueError("rate must be positive")
    idx = np.arange(first_path, first_path + n_paths, dtype=np.uint64)
    gap_keys = path_keys(seed, idx, 0)[:, None]
    lam = rate
    block = max(8, int(lam * span + 12.0 * np.sqrt(lam * span) + 30))
    parts = []
    last = np.zeros(n_paths)
    base = 0
    while True:
        ctr = np.arange(base, base + block, dtype=np.uint64)
        gaps = -np.log1p(-uniforms(gap_keys, ctr[None, :])) / lam
        # the block's times continue from the last one, as a cumsum over
        # every block's gaps would add them
        gaps[:, 0] += last
        parts.append(np.cumsum(gaps, axis=1, out=gaps))
        last = gaps[:, -1]
        if not (last <= span).any():
            break
        base += block  # extend every stream; extra draws are never consumed
    cum = np.concatenate(parts, axis=1)
    keep = cum <= span
    counts = keep.sum(axis=1).astype(np.int64)
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    times = np.empty(total, dtype=np.float64)
    times[:] = s + cum[keep]
    atom_keys = path_keys(seed, idx, 1)
    atom_idx = np.empty(total, dtype=np.int64)
    max_c = counts.max() if n_paths else 0
    if max_c:
        ctr = np.arange(max_c, dtype=np.uint64)
        us = uniforms(atom_keys[:, None], ctr[None, :])
        sel = ctr[None, :] < counts[:, None]
        atom_idx[:] = np.searchsorted(cum_weights, us[sel], side="right")
    np.clip(atom_idx, 0, len(cum_weights) - 1, out=atom_idx)
    return counts, offsets, times, atom_idx
