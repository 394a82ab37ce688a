#!/usr/bin/env python3
"""Benchmark of levymult's Monte Carlo and spectral paths.

Run from the repository root:

    python3 perfbench/run.py --workload mc_plane --seed 1 --seconds 45 --trace 0

Workloads are ``mc_plane`` and ``spectral``, plus ``mc_verify`` by name
(see ``workloads.py``).  Each run is one process.  It caps the BLAS, OpenMP and
numba thread pools at the CPU count, imports ``levymult`` from ``src/``,
writes the workload's inputs from ``--seed`` and runs one warm-up operation
(set-up, repeated three times), then repeats the workload's operations
through ``levymult.cli.main`` for about ``--seconds`` seconds and checks
every output.

``--trace 0`` wraps nothing and reports the end-to-end metrics.
``--trace 1`` spends half of the time untraced and half with spans on the
layer entry points, and reports the per-layer metrics.  The metric names
and units are those in ``BENCHMARK.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The environment, the seed, every pass and, when traced, every
span are written to ``.perfbench_out/<workload>/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

import environment  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
CAPS = environment.cap_threads(NPROC)  # before numpy is imported

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 3
MIN_PASSES = 2


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from levymult import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import levymult from {ROOT / 'src'}: "
                 f"{exc}")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: levymult was imported from {cli.__file__}, "
                 f"not from {ROOT / 'src'}")
    return cli


def run_op(cli, op):
    """(exit code or None if it raised, captured output)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv())
    except Exception:  # an exception is a failed operation, not a crash
        return None, buf.getvalue() + traceback.format_exc()
    return code, buf.getvalue()


class Runner:
    """Runs a workload's passes; each pass runs every operation once.

    Pass inputs come from variants of the workload seed: variant 0 is set
    up before timing, each further pass gets a fresh variant, and a closing
    pass repeats variant 0, whose outputs must then be byte-identical.
    """

    def __init__(self, cli, make_plan, seed, work):
        self.cli, self.make_plan = cli, make_plan
        self.seed, self.work = seed, work
        self.plans, self.seeds, self.first = {}, {}, {}
        self.fresh = 0  # next variant not yet run in a pass

    def plan(self, variant):
        if variant not in self.plans:
            self.seeds[variant] = int(np.random.SeedSequence(
                [self.seed % 2 ** 63, variant]).generate_state(1)[0])
            vdir = self.work / f"v{variant}"
            vdir.mkdir(parents=True, exist_ok=True)
            self.plans[variant] = self.make_plan(vdir, self.seeds[variant])
        return self.plans[variant]

    def run_pass(self, variant, tracer=None):
        plan = self.plan(variant)
        codes, wall, failed = [], 0.0, {}
        for i, op in enumerate(plan.ops):
            if tracer is not None:
                tracer.op_id += 1
            t = time.perf_counter()
            code, text = run_op(self.cli, op)
            wall += time.perf_counter() - t
            codes.append(code)
            if code is None:
                failed.setdefault(i, []).append(text.strip().splitlines()[-1])
        info = {}
        if not failed:
            try:
                msgs, info = plan.check(codes)
            except (OSError, ValueError, KeyError) as exc:
                msgs = [(i, f"output unreadable: {exc!r}")
                        for i in range(len(plan.ops))]
            for i, msg in msgs:
                failed.setdefault(i, []).append(msg)
        for i, op in enumerate(plan.ops):
            now = {name: checks.digest(op.out / name) for name in op.outputs
                   if (op.out / name).exists()}
            first = self.first.setdefault((variant, i), now)
            for msg in checks.same_bytes(first, now):
                failed.setdefault(i, []).append(msg)
        entry = {"variant": variant, "seed": self.seeds[variant],
                 "wall_s": wall, "failed": failed, "info": info}
        if tracer is not None:
            entry["layers"] = tracing.pass_metrics(*tracer.take_pass(), wall)
        return entry

    def _timed(self, variant, tracer):
        t = time.perf_counter()
        entry = self.run_pass(variant, tracer)
        entry["spent_s"] = time.perf_counter() - t
        return entry

    def passes(self, seconds, min_passes, tracer=None, repeat=True):
        """Passes for about ``seconds``; with ``repeat`` the last repeats 0."""
        done = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            # room left for another fresh pass, and the repeat if one is due
            if done and len(done) + repeat >= min_passes and \
                    elapsed + (1 + repeat) * done[-1]["spent_s"] > seconds:
                if repeat:
                    done.append(self._timed(0, tracer))
                return done
            done.append(self._timed(self.fresh, tracer))
            self.fresh += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - _T0

    out = ROOT / ".perfbench_out" / args.workload
    setup_times, warm_notes = [], []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        shutil.rmtree(out / "work", ignore_errors=True)
        runner = Runner(cli, WORKLOADS[args.workload], args.seed, out / "work")
        code, text = run_op(cli, runner.plan(0).warmup)
        setup_times.append(time.perf_counter() - t)
        if code not in (0, 1):
            warm_notes.append(f"warm-up exit {code}: {text[-400:]}")
    setup_s = import_s + median(setup_times)

    if args.trace:
        # tracemalloc slows per-path Python several times over, so span
        # times come from passes without it and the per-layer allocation
        # peaks from one closing pass with it
        budget = args.seconds / 2
        plain = runner.passes(budget, 1, repeat=False)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.passes(budget, 1, tracer, repeat=False)
            tracer.memory = True
            tracemalloc.start()
            try:
                memory = runner.run_pass(0, tracer)
            finally:
                tracemalloc.stop()
        finally:
            tracer.uninstall()
        passes = plain + traced + [memory]
        # one whole pass, so its self times add up to its wall time
        median_pass = sorted(traced, key=lambda p: p["wall_s"])[
            (len(traced) - 1) // 2]
        values = dict(median_pass["layers"])
        values.update({key: value for key, value in memory["layers"].items()
                       if key.endswith(".peak_alloc_mb")})
        values["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                      - median(p["wall_s"] for p in plain))
        wanted = spec["per_layer"]
    else:
        passes = runner.passes(args.seconds, MIN_PASSES)
        # the host's speed drifts for whole passes at a time, so the mean
        # over passes is steadier from run to run than their median
        wall = mean(p["wall_s"] for p in passes)
        errs = {p["variant"]: p["info"]["err_to_tol"] for p in passes
                if "err_to_tol" in p["info"]}
        err = median(errs.values()) if errs else 0.0
        values = {"setup_s": setup_s, "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "time_to_tol_s": wall * err ** 2, "err_to_tol": err}
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    n_ops = len(runner.plan(0).ops)
    attempted = len(passes) * n_ops
    failed = sum(len(p["failed"]) for p in passes)
    env = environment.record(ROOT, NPROC, CAPS)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_times_s": setup_times, "import_s": import_s,
              "warmup_notes": warm_notes, "passes": passes,
              "metrics": metrics, "attempted": attempted, "failed": failed}
    name = f"result_trace{args.trace}_seed{args.seed}.json"
    (out / name).write_text(json.dumps(result, indent=1, default=str))
    if args.trace:
        spans = [dict(zip(("id", "name", "start", "end", "parent", "op",
                           "peak_bytes"), s)) for s in tracer.done]
        (out / f"spans_seed{args.seed}.json").write_text(json.dumps(spans))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  variants {len(runner.plans)}")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for key in sorted(passes[0]["info"]):
        if key not in metrics:
            seen = [p["info"][key] for p in passes if key in p["info"]]
            print(f"  {key:34s} {median(seen):.6g} (median over passes)")
    for p in passes:
        for i, msgs in sorted(p["failed"].items()):
            for msg in msgs:
                print(f"  FAILED variant {p['variant']} op {i}: {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
