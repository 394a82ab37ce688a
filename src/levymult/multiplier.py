"""Spectral application of multiplier symbols and operator-norm ratio sweeps."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .grid import GridFunction, PStar, _norm_of_abs, lp_norm
from .symbols import ConstantSymbol, MultiplierSymbol

__all__ = ["apply_multiplier", "symbol_on_grid", "norm_ratio_sweep", "SweepRow"]

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


def apply_multiplier(f: GridFunction, symbol: MultiplierSymbol) -> GridFunction:
    """Forward FFT, multiply by the symbol at each grid frequency, inverse FFT.

    The zero bin is governed by the symbol's own value at xi = 0 (zero for
    every measure-backed or homogeneous kind, c for the constant kind).
    """
    if isinstance(symbol, ConstantSymbol):
        # c * identity needs no transform; keeps the c == 1 case bitwise exact
        return f.with_samples(f.samples * symbol.value)
    _check_dimension(symbol, f)
    spec = np.fft.fftn(f.samples)
    out = np.fft.ifftn(spec * symbol_on_grid(f, symbol))
    return f.with_samples(out)


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

    ``factors`` holds each symbol's grid values, or its value for a constant
    symbol, which multiplies the samples with no transform.  The arithmetic
    is that of ``apply_multiplier`` and ``lp_norm``, in reused buffers.
    """
    spec = np.fft.fftn(f.samples)
    prod, g = np.empty_like(spec), np.empty_like(spec)
    mags, scratch = np.empty(f.sizes), np.empty(f.sizes)
    cell = f.cell_volume
    ratios = []
    for factor in factors:
        if np.ndim(factor) == 0:
            np.multiply(f.samples, factor, out=g)
        else:
            np.fft.ifftn(np.multiply(spec, factor, out=prod), out=g)
        if not np.all(np.isfinite(g.view(float))):  # as GridFunction checks
            raise InvalidInputError("samples must be finite")
        np.abs(g, out=mags)
        ratios.append([_norm_of_abs(mags, p, cell, scratch) / n
                       for p, n in zip(p_list, norms)])
    return ratios


def norm_ratio_sweep(symbols, corpus, p_list, ids=None) -> list[list[SweepRow]]:
    """Max over the corpus of ||Mf||_p / ||f||_p for each symbol and p.

    Returns one row list per symbol, one row per p, each against p* - 1.
    The ratios are lower bounds on the operator norm; the check is one-sided
    (a finite corpus can falsify the bound, never certify it).  The corpus
    shares one grid, so each member is transformed and normed once, and each
    symbol is evaluated once; every ratio equals the one ``apply_multiplier``
    and ``lp_norm`` give member by member.

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
    norms = []  # norms[member][k] = ||f||_{p_k}
    for f, fid in zip(corpus, ids):
        norms.append([lp_norm(f, p) for p in p_list])
        if 0.0 in norms[-1]:
            raise InvalidInputError(f"corpus member {fid} has zero norm")
    factors = [symbol.value if isinstance(symbol, ConstantSymbol)
               else symbol_on_grid(grid, symbol) for symbol in symbols]
    with ThreadPoolExecutor(_pool_size(len(corpus))) as pool:
        # ratios[member][symbol][k]; map yields in corpus order
        ratios = list(pool.map(
            lambda f, nf: _member_ratios(f, nf, factors, p_list),
            corpus, norms))
    sweeps = []
    for s in range(len(symbols)):
        rows = []
        for k, (p, bound) in enumerate(zip(p_list, bounds)):
            m = int(np.argmax([r[s][k] for r in ratios]))  # first maximum wins
            best = ratios[m][s][k]
            rows.append(SweepRow(p, bound, best, ids[m],
                                 best > bound * (1.0 + RATIO_SLACK)))
        sweeps.append(rows)
    return sweeps
