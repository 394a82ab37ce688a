"""Spans around the library's layer entry points, installed from outside.

Each wrapped entry point records a span: name, start, end, parent span and
operation id.  Wrappers replace module attributes, and every reference that
another ``levymult`` module imported by name, so calls made inside the
library are seen too.  Spans stay in memory until the run writes them out.

With ``memory=True`` each span also records the ``tracemalloc`` peak above
its entry level; nested spans share the interpreter-wide peak counter, so
each frame keeps the highest peak seen before a child reset it.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "scenarios", "lattice", "stochastic", "rng", "core",
          "measures", "symbols", "multiplier", "grid", "corpus", "kernel")

STOCHASTIC_CHECKS = {
    "drift": "martingale_property_check",
    "moment": "burkholder_bound_check",
    "subordination": "subordination_check",
    "levy_system": "levy_system_check",
    "l1_mass": "l1_mass_check",
    "projection": "projection_identity_check",
}


def _count_lattice(tracer, args, out):
    lat = args[0]
    tracer.counts["lattice.table_bytes"] += (lat.phase.nbytes + lat.psi.nbytes
                                             + lat.sphi.nbytes)


def _count_sample(tracer, args, out):
    tracer.counts["rng.jumps"] += len(out[2])


def _count_uniforms(tracer, args, out):
    tracer.counts["rng.uniforms"] += out.size


def _count_evolve(tracer, args, out):
    tracer.counts["core.evolve_calls"] += 1
    tracer.counts["core.evolve_paths"] += len(args[11])  # counts array


def _count_projection(tracer, args, out):
    tracer.counts["core.projection_row_bytes"] += out.nbytes


def _count_levy(tracer, args, out):
    tracer.counts["core.levy_calls"] += 1


def _count_symbol_points(tracer, args, out):
    if not tracer.open_layer("symbols"):  # outermost evaluate only
        tracer.counts["symbols.points"] += getattr(out, "size", 1)


def _count_lp_norm(tracer, args, out):
    tracer.counts["grid.lp_norm_calls"] += 1


def _count_apply(tracer, args, out):
    tracer.counts["multiplier.fft_points"] += args[0].samples.size


def _count_kernel_evals(tracer, args, out):
    tracer.counts["kernel.kernel_evals"] += getattr(out, "size", 1)


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []  # (id, name, start, end, parent id, op id, peak bytes)
        self.done = []  # spans of passes already taken
        self.counts = defaultdict(float)
        self.op_id = -1
        self._stack = []  # [id, name, base bytes, highest peak] per open span
        self._next_id = 0
        self._undo = []

    # -- recording -----------------------------------------------------------
    def _enter(self, name):
        sid = self._next_id
        self._next_id += 1
        base = mark = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], peak)
            tracemalloc.reset_peak()
            base = mark = cur
        self._stack.append([sid, name, base, mark])
        return sid, time.perf_counter()

    def _exit(self, sid, start):
        end = time.perf_counter()
        _, name, base, mark = self._stack.pop()
        peak_above = 0
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            peak_above = max(mark, peak) - base
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], peak)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, name, start, end, parent, self.op_id,
                           peak_above))

    def take_pass(self):
        """Spans and counts recorded since the last call."""
        spans, counts = self.spans, dict(self.counts)
        self.done.extend(spans)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    def open_layer(self, layer: str) -> bool:
        """True while a span of ``layer`` is open."""
        return any(frame[1].startswith(layer + ".") for frame in self._stack)

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, start = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, start)
            if count is not None:
                count(tracer, args, out)
            return out

        return wrapper

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr, name, count=None):
        orig = owner.__dict__[attr]
        wrapped = self.wrap(name, orig, count)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("levymult"):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def install(self):
        import scipy.integrate

        from levymult import (cli, corpus, grid, kernel, lattice, measures,
                              multiplier, scenarios, stochastic, symbols)
        from levymult._accel import core, rng

        for fn in ("main", "cmd_symbol", "cmd_apply", "cmd_normratio",
                   "cmd_kernel", "cmd_verify"):
            self._patch(cli, fn, f"cli.{fn}")
        for fn in ("shipped_scenarios", "scenario_by_name",
                   "scenario_from_dict"):
            self._patch(scenarios, fn, f"scenarios.{fn}")
        self._patch(lattice.PeriodicLattice, "__init__", "lattice.build",
                    _count_lattice)
        for fn in (*STOCHASTIC_CHECKS.values(), "evolve_ensemble"):
            self._patch(stochastic, fn, f"stochastic.{fn}")
        self._patch(rng, "sample_ensemble", "rng.sample_ensemble",
                    _count_sample)
        self._patch(rng, "uniforms", "rng.uniforms", _count_uniforms)
        self._patch(core, "evolve_ensemble", "core.evolve_ensemble",
                    _count_evolve)
        self._patch(core, "projection_ensemble", "core.projection_ensemble",
                    _count_projection)
        self._patch(core, "levy_ensemble", "core.levy_ensemble", _count_levy)
        for fn in ("char_exponent", "modulated_exponent"):
            self._patch(measures, fn, f"measures.{fn}")
        for cls in vars(symbols).values():
            if (isinstance(cls, type)
                    and issubclass(cls, symbols.MultiplierSymbol)
                    and "evaluate" in cls.__dict__):
                self._patch(cls, "evaluate", "symbols.evaluate",
                            _count_symbol_points)
        self._patch(symbols, "symbol_from_dict", "symbols.symbol_from_dict")
        self._patch(multiplier, "apply_multiplier",
                    "multiplier.apply_multiplier", _count_apply)
        self._patch(multiplier, "norm_ratio_sweep",
                    "multiplier.norm_ratio_sweep")
        self._patch(grid, "lp_norm", "grid.lp_norm", _count_lp_norm)
        self._patch(grid, "read_grid", "grid.read_grid")
        self._patch(grid, "write_grid", "grid.write_grid")
        self._patch(corpus, "build_corpus", "corpus.build_corpus")
        self._patch(kernel, "kernel_weight_table",
                    "kernel.kernel_weight_table")
        self._patch(kernel, "pv_convolve", "kernel.pv_convolve")
        self._patch(kernel, "kernel_closed_form", "kernel.kernel_closed_form",
                    _count_kernel_evals)

        quad = scipy.integrate.quad
        tracer = self

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            if tracer.open_layer("measures"):
                tracer.counts["measures.quad_calls"] += 1
            return quad(*args, **kwargs)

        scipy.integrate.quad = counted_quad
        self._undo.append((scipy.integrate, "quad", quad))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-pass metrics
# ---------------------------------------------------------------------------

INCLUSIVE = {  # metric -> span names whose outermost durations it sums
    "lattice.build_s": ("lattice.build",),
    "rng.sample_s": ("rng.sample_ensemble",),
    "core.evolve_s": ("core.evolve_ensemble",),
    "core.projection_s": ("core.projection_ensemble",),
    "core.levy_s": ("core.levy_ensemble",),
    "measures.exponent_s": ("measures.char_exponent",
                            "measures.modulated_exponent"),
    "symbols.eval_s": ("symbols.evaluate",),
    "multiplier.apply_s": ("multiplier.apply_multiplier",),
    "grid.lp_norm_s": ("grid.lp_norm",),
    "corpus.build_s": ("corpus.build_corpus",),
    "kernel.weight_table_s": ("kernel.kernel_weight_table",),
}

COUNTS = ("lattice.table_bytes", "rng.jumps", "core.evolve_calls",
          "core.evolve_paths", "core.projection_row_bytes", "core.levy_calls",
          "measures.quad_calls", "symbols.points", "multiplier.fft_points",
          "grid.lp_norm_calls", "kernel.kernel_evals")


def pass_metrics(spans, counts, wall: float) -> dict:
    """Per-layer metrics of one traced pass whose ops took ``wall`` seconds.

    Self time is a span's duration minus its children's; the children of
    one span run one after another, so their durations do not overlap.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, name, start, end, parent, op, peak in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_by_name = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_peak = dict.fromkeys(LAYERS, 0)
    for sid, name, start, end, parent, op, peak in spans:
        own = end - start - child_time[sid]
        layer = name.split(".")[0]
        self_by_name[name] += own
        layer_self[layer] += own
        layer_peak[layer] = max(layer_peak[layer], peak)

    def outermost(names):
        total = 0.0
        for sid, name, start, end, parent, op, peak in spans:
            if name not in names:
                continue
            while parent is not None and by_id[parent][1] not in names:
                parent = by_id[parent][4]
            if parent is None:
                total += end - start
        return total

    out = {metric: outermost(names) for metric, names in INCLUSIVE.items()}
    for key in COUNTS:
        out[key] = float(counts.get(key, 0.0))
    uniforms = counts.get("rng.uniforms", 0.0)
    out["rng.draw_ratio"] = counts.get("rng.jumps", 0.0) / uniforms \
        if uniforms else 0.0
    for short, fn in STOCHASTIC_CHECKS.items():
        out[f"stochastic.{short}_self_s"] = self_by_name[f"stochastic.{fn}"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.peak_alloc_mb"] = layer_peak[layer] / 2 ** 20
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(layer_self.values())
    return out

