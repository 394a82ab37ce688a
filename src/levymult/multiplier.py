"""Spectral application of multiplier symbols and operator-norm ratio sweeps.

Real data stays real where the symbol allows: grid values that are
conjugate-symmetric on the DFT grid (every real even symbol) are kept as a
half spectrum, and real samples go through ``rfftn`` and ``irfftn`` under
them.  Complex samples and the other symbols take ``fftn`` and ``ifftn``.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .grid import GridFunction, PStar, _norm_of_abs
from .symbols import ConstantSymbol, MultiplierSymbol

__all__ = ["apply_multiplier", "symbol_on_grid", "norm_ratio_sweep", "SweepRow",
           "Sweep"]

RATIO_SLACK = 5e-3  # a ratio above (p*-1)(1+slack) counts as a violation


def symbol_on_grid(f: GridFunction, symbol: MultiplierSymbol) -> np.ndarray:
    """Symbol values aligned with the FFT bins of ``f``.

    Bin k of the forward FFT carries the e^{+i xi_k . x} component of f, on
    which the operator acts by M(-xi_k); for the even symbols in this package
    the reflection is invisible, but odd reference symbols rely on it.
    """
    return symbol.evaluate(-f.frequencies())


def _check_dimension(symbol: MultiplierSymbol, f: GridFunction) -> None:
    """Reject a symbol on a grid of another dimension (the constant fits any)."""
    if not isinstance(symbol, ConstantSymbol) and symbol.dimension != f.d:
        raise InvalidInputError(
            f"symbol dimension {symbol.dimension} != grid dimension {f.d}")


def _conj_symmetric(m: np.ndarray) -> bool:
    """Whether m[k] == conj(m[-k mod n]) exactly at every bin.

    Along an axis, bin 0 is its own mirror and bins 1..n-1 mirror n-1..1,
    so each block of bins is compared with a reversed view of its mirror
    block; no full-size copy is made.
    """
    blocks = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for pick in itertools.product(blocks, repeat=m.ndim):
        a = m[tuple(own for own, _ in pick)]
        b = m[tuple(mirror for _, mirror in pick)]
        if not (np.array_equal(a.real, b.real)
                and np.array_equal(a.imag, -b.imag)):
            return False
    return True


def _grid_factor(f: GridFunction, symbol: MultiplierSymbol):
    """What multiplies the spectrum of ``f``: a constant symbol's value, else
    the grid values m, kept as the half spectrum m[..., :n/2+1] when m is
    conjugate-symmetric (``_conj_symmetric``).  Such an m maps real samples
    to real samples, so real data can take ``rfftn`` and ``irfftn``.
    """
    if isinstance(symbol, ConstantSymbol):
        return symbol.value
    m = symbol_on_grid(f, symbol)
    if _conj_symmetric(m):
        return m[..., : f.sizes[-1] // 2 + 1].copy()
    return m


def _is_half(factor, sizes) -> bool:
    return np.ndim(factor) > 0 and factor.shape != tuple(sizes)


def _full_spectrum(half: np.ndarray, sizes) -> np.ndarray:
    """The conjugate-symmetric m whose half spectrum is ``half``, bit for bit."""
    n = sizes[-1]
    full = np.empty(sizes, dtype=complex)
    full[..., : n // 2 + 1] = half
    # column j > n/2 is conj(m[-k, n - j]); -k mod n is a flip and a roll
    mirror = half[..., n // 2 - 1: 0: -1]
    for axis in range(len(sizes) - 1):
        mirror = np.roll(np.flip(mirror, axis), 1, axis)
    np.conjugate(mirror, out=full[..., n // 2 + 1:])
    return full


class _Spectra:
    """One grid function's transforms, each taken on first use, and the
    output buffers reused by every factor applied to it.

    A real function (``not samples.imag.any()``) under a half-spectrum factor
    goes through ``rfftn``, the product and ``irfftn``, and the result is
    real.  Anything else, complex samples or grid values that are not
    conjugate-symmetric, goes through ``fftn`` and ``ifftn`` of the full
    grid.  A constant multiplies the samples with no transform.
    """

    def __init__(self, f: GridFunction):
        self.f = f
        self.real = not f.samples.imag.any()
        self._half = self._full = None
        self._buffers = {}

    def _buffer(self, dtype, shape):
        key = (dtype, shape)
        if key not in self._buffers:
            self._buffers[key] = np.empty(shape, dtype)
        return self._buffers[key]

    def apply(self, factor) -> np.ndarray:
        """Samples of M f, in a buffer that the next call may overwrite."""
        samples, sizes = self.f.samples, self.f.sizes
        if np.ndim(factor) == 0:
            return np.multiply(samples, factor, out=self._buffer(complex, sizes))
        if _is_half(factor, sizes):
            if self.real:
                if self._half is None:
                    self._half = np.fft.rfftn(samples.real)
                prod = np.multiply(self._half, factor,
                                   out=self._buffer(complex, factor.shape))
                return np.fft.irfftn(prod, sizes, tuple(range(len(sizes))),
                                     out=self._buffer(float, sizes))
            factor = _full_spectrum(factor, sizes)
        if self._full is None:
            self._full = np.fft.fftn(samples)
        prod = np.multiply(self._full, factor, out=self._buffer(complex, sizes))
        return np.fft.ifftn(prod, out=prod)


def apply_multiplier(f: GridFunction, symbol: MultiplierSymbol) -> GridFunction:
    """Forward FFT, multiply by the symbol at each grid frequency, inverse FFT.

    The zero bin is governed by the symbol's own value at xi = 0 (zero for
    every measure-backed or homogeneous kind, c for the constant kind).
    Real samples under a symbol whose grid values are conjugate-symmetric
    (m[k] == conj(m[-k]) exactly, as for every real even symbol) take the
    real transforms ``rfftn``/``irfftn`` on half the spectrum, and the
    result is exactly real.  Complex samples, and symbols that are not
    conjugate-symmetric on the grid (Beurling-Ahlfors, the first-order
    Riesz transforms, and the mixed Riesz pair and other odd-in-one-axis
    symbols, which differ from their mirror on the Nyquist line), take the
    complex ``fftn``/``ifftn``.  The constant kind needs no transform and
    keeps c == 1 bitwise exact.
    """
    _check_dimension(symbol, f)
    return f.with_samples(_Spectra(f).apply(_grid_factor(f, symbol)))


@dataclass(frozen=True)
class SweepRow:
    p: float
    bound: float  # p* - 1
    max_ratio: float
    argmax_id: str
    violation: bool


def _pool_size(members: int) -> int:
    """Sweep threads: one per CPU this process may run on, one per member at most."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, members)


def _member_ratios(f, norms, factors, p_list):
    """ratios[symbol][k] = ||M f||_{p_k} / ||f||_{p_k} for one member.

    ``factors`` holds each symbol's ``_grid_factor``.  The arithmetic is
    that of ``apply_multiplier`` and ``lp_norm``, in reused buffers.
    """
    spectra = _Spectra(f)
    mags, scratch = np.empty(f.sizes), np.empty(f.sizes)
    cell = f.cell_volume
    ratios = []
    for factor in factors:
        g = spectra.apply(factor)
        if not np.all(np.isfinite(g.view(float))):  # as GridFunction checks
            raise InvalidInputError("samples must be finite")
        np.abs(g, out=mags)
        ratios.append([_norm_of_abs(mags, p, cell, scratch) / n
                       for p, n in zip(p_list, norms)])
    return ratios


class Sweep(list):
    """``norm_ratio_sweep``'s rows, one list per symbol, and how it ran.

    ``seconds`` holds the wall seconds of its stages: ``norms`` (the
    members' norms), ``symbols`` (grid values and their symmetry test) and
    ``sweep`` (the transforms and ratios).  ``half_spectrum_symbols`` counts
    the symbols kept as a half spectrum, which real members take through
    the real transforms.  ``threads`` is the size of the member pool.
    """

    def __init__(self, rows, seconds, half_spectrum_symbols, threads):
        super().__init__(rows)
        self.seconds = seconds
        self.half_spectrum_symbols = half_spectrum_symbols
        self.threads = threads


def norm_ratio_sweep(symbols, corpus, p_list, ids=None) -> Sweep:
    """Max over the corpus of ||Mf||_p / ||f||_p for each symbol and p.

    Returns one row list per symbol, one row per p, each against p* - 1.
    The ratios are lower bounds on the operator norm; the check is one-sided
    (a finite corpus can falsify the bound, never certify it).  The corpus
    shares one grid, so each member is transformed and normed once, and each
    symbol is evaluated and tested for conjugate symmetry once; every ratio
    equals the one ``apply_multiplier`` and ``lp_norm`` give member by
    member, real members taking the real transforms where the symbol allows.

    Norms and symbol values are computed first, on the calling thread; then
    each member is one task on a pool of ``_pool_size`` threads, and the
    results are gathered in corpus order, so the rows do not depend on the
    thread count.
    """
    symbols, corpus, p_list = list(symbols), list(corpus), list(p_list)
    if not corpus:
        raise InvalidInputError("corpus must be nonempty")
    if ids is None:
        ids = [f"f{i}" for i in range(len(corpus))]
    if len(ids) != len(corpus):
        raise InvalidInputError("ids and corpus lengths differ")
    grid = corpus[0]
    if any(f.sizes != grid.sizes or f.period != grid.period for f in corpus):
        raise InvalidInputError("corpus members must share one grid")
    for symbol in symbols:
        _check_dimension(symbol, grid)
    bounds = [PStar(p).bound for p in p_list]
    seconds = {}
    start = time.perf_counter()
    norms = []  # norms[member][k] = ||f||_{p_k}
    for f, fid in zip(corpus, ids):
        mags = np.abs(f.samples)
        norms.append([_norm_of_abs(mags, p, f.cell_volume) for p in p_list])
        if 0.0 in norms[-1]:
            raise InvalidInputError(f"corpus member {fid} has zero norm")
    seconds["norms"] = time.perf_counter() - start
    start = time.perf_counter()
    factors = [_grid_factor(grid, symbol) for symbol in symbols]
    seconds["symbols"] = time.perf_counter() - start
    start = time.perf_counter()
    threads = _pool_size(len(corpus))
    with ThreadPoolExecutor(threads) as pool:
        # ratios[member][symbol][k]; map yields in corpus order
        ratios = list(pool.map(
            lambda f, nf: _member_ratios(f, nf, factors, p_list),
            corpus, norms))
    seconds["sweep"] = time.perf_counter() - start
    sweeps = []
    for s in range(len(symbols)):
        rows = []
        for k, (p, bound) in enumerate(zip(p_list, bounds)):
            m = int(np.argmax([r[s][k] for r in ratios]))  # first maximum wins
            best = ratios[m][s][k]
            rows.append(SweepRow(p, bound, best, ids[m],
                                 best > bound * (1.0 + RATIO_SLACK)))
        sweeps.append(rows)
    half = sum(_is_half(factor, grid.sizes) for factor in factors)
    return Sweep(sweeps, seconds, half, threads)
