"""Command-line entry point: config-driven runs emitting CSV/JSON artifacts.

Subcommands
    symbol    -- tabulate a multiplier symbol on a frequency grid (CSV)
    apply     -- apply a symbol to a stored grid function (binary in/out)
    normratio -- norm-ratio sweep of symbols over a generated corpus (CSV)
    kernel    -- tabulate the singular kernel, optionally truncated (CSV)
    verify    -- run the stochastic verification battery (JSON report)

Every run is a pure function of its config and seed; outputs are byte
stable.  Wall-clock metadata goes to a separate ``run_meta.json`` sidecar.
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import multiplier
from .corpus import CorpusConfig, build_corpus
from .exceptions import InvalidInputError
from .grid import read_grid, write_grid
from .kernel import kernel_closed_form, kernel_truncated
from .measures import _int
from .multiplier import apply_multiplier, norm_ratio_sweep
from .scenarios import scenario_by_name, scenario_from_dict, shipped_scenarios
from .stochastic import (
    burkholder_bound_check,
    evolve_ensemble,
    l1_mass_check,
    levy_system_check,
    martingale_property_check,
    projection_identity_check,
    subordination_check,
)
from .symbols import symbol_from_dict

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise InvalidInputError("config must be a JSON object")
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out: Path, args, extra=None):
    meta = {"command": args.command, "config": str(args.config),
            "seed": args.seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if extra:
        meta.update(extra)
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serialisable: {type(obj)!r}")


# ---------------------------------------------------------------------------

def cmd_symbol(args) -> int:
    cfg = _load_config(args.config)
    sym = symbol_from_dict(cfg["symbol"])
    gspec = cfg.get("grid", {})
    d = _int(gspec.get("d", getattr(sym, "dimension", 2)))
    n = _int(gspec.get("n", 64))
    xi_max = float(gspec.get("xi_max", 3.0))
    axes = [np.linspace(-xi_max, xi_max, n) for _ in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(grids, axis=-1)
    values = sym.evaluate(pts)
    out = _out_dir(args)
    table = out / "symbol.csv"
    with open(table, "w") as fh:
        cols = ",".join(f"xi_{a + 1}" for a in range(d))
        fh.write(f"{cols},re,im\n")
        flatpts = pts.reshape(-1, d)
        flatval = np.asarray(values).reshape(-1)
        for row, v in zip(flatpts, flatval):
            coords = ",".join(repr(float(c)) for c in row)
            fh.write(f"{coords},{float(v.real)!r},{float(v.imag)!r}\n")
    _write_meta(out, args, {"rows": int(flatval.size)})
    print(f"wrote {table} ({flatval.size} rows)")
    return 0


def cmd_apply(args) -> int:
    cfg = _load_config(args.config)
    f = read_grid(cfg["input"])
    sym = symbol_from_dict(cfg["symbol"])
    g = apply_multiplier(f, sym)
    out = _out_dir(args)
    dest = out / cfg.get("output", "applied.lmgf")
    write_grid(dest, g)
    _write_meta(out, args)
    print(f"wrote {dest}")
    return 0


def cmd_normratio(args) -> int:
    cfg = _load_config(args.config)
    symbol_specs = cfg["symbols"] if "symbols" in cfg else [cfg["symbol"]]
    ccfg = cfg.get("corpus", {})
    d = _int(ccfg.get("d", 2))
    corpus_config = CorpusConfig(
        d=d, n=_int(ccfg.get("n", 256 if d == 2 else 4096)),
        period=float(ccfg.get("period", 2 * np.pi)),
        count=_int(ccfg.get("count", 20)),
        seed=_int(ccfg.get("seed", args.seed)),
        mean_zero=bool(ccfg.get("mean_zero", False)))
    p_list = [float(p) for p in cfg.get("p_list", [4 / 3, 1.5, 2.0, 3.0, 4.0])]
    seconds = {}
    corpus, ids = _timed(seconds, "corpus", build_corpus, corpus_config)
    out = _out_dir(args)
    any_violation = False
    symbols = [symbol_from_dict(spec) for spec in symbol_specs]
    sweeps = norm_ratio_sweep(symbols, corpus, p_list, ids)
    seconds.update(sweeps.seconds)
    with open(out / "normratio.csv", "w") as fh:
        fh.write("symbol_id,p,p_star_minus_1,max_ratio,argmax_corpus_id\n")
        for i, (spec, rows) in enumerate(zip(symbol_specs, sweeps)):
            sid = spec.get("id", f"{spec['kind']}#{i}")
            for r in rows:
                fh.write(f"{sid},{r.p!r},{r.bound!r},{r.max_ratio!r},"
                         f"{r.argmax_id}\n")
                any_violation |= r.violation
    _write_meta(out, args, {"violation": any_violation,
                            "threads": multiplier._pool_size(len(corpus)),
                            "seconds": seconds,
                            "half_spectrum_symbols": sweeps.half_spectrum_symbols})
    print(f"wrote {out / 'normratio.csv'}"
          + ("  [BOUND VIOLATION]" if any_violation else "  [all within bound]"))
    return VERIFY_ERROR if any_violation else 0


def cmd_kernel(args) -> int:
    cfg = _load_config(args.config)
    if "pv" in cfg:
        spec = cfg["pv"]
        f = read_grid(spec["input"])
        out = _out_dir(args)
        from .kernel import pv_convolve, weight_table_meta

        g = pv_convolve(f, rho=float(spec["rho"]),
                        orientation=_int(spec.get("orientation", 1)),
                        images=spec.get("images"))
        dest = out / spec.get("output", "pv.lmgf")
        write_grid(dest, g)
        _write_meta(out, args, weight_table_meta(f.sizes, spec.get("images")))
        print(f"wrote {dest}")
        return 0
    if "points" in cfg:
        xs = [float(x) for x in cfg["points"]["x"]]
        ys = [float(y) for y in cfg["points"]["y"]]
        if len(xs) != len(ys):
            raise InvalidInputError("points.x and points.y lengths differ")
        pairs = list(zip(xs, ys))
    else:
        g = cfg.get("log_grid", {})
        lo, hi, n = float(g.get("lo", 0.1)), float(g.get("hi", 10.0)), _int(g.get("n", 20))
        vals = np.geomspace(lo, hi, n)
        pairs = [(float(x), float(y)) for x in vals for y in vals]
    eps = cfg.get("eps")
    big_t = cfg.get("T")
    tol = float(cfg.get("tol", 1e-10))
    out = _out_dir(args)
    with open(out / "kernel.csv", "w") as fh:
        if eps is None:
            fh.write("x,y,K\n")
            for x, y in pairs:
                fh.write(f"{x!r},{y!r},{kernel_closed_form(x, y)!r}\n")
        else:
            fh.write("x,y,K,K_truncated\n")
            for x, y in pairs:
                kt = kernel_truncated(float(eps), float(big_t), x, y, tol=tol)
                fh.write(f"{x!r},{y!r},{kernel_closed_form(x, y)!r},{kt!r}\n")
    _write_meta(out, args, {"rows": len(pairs)})
    print(f"wrote {out / 'kernel.csv'} ({len(pairs)} rows)")
    return 0


def _timed(seconds, stage, fn, *args):
    """fn(*args), its wall seconds recorded as ``seconds[stage]``."""
    start = time.perf_counter()
    out = fn(*args)
    seconds[stage] = time.perf_counter() - start
    return out


def _row(row, *keys):
    """A ``verify.json`` row: the named fields and the row's own verdict."""
    return {**{key: getattr(row, key) for key in keys}, "pass": row.passed}


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    names = cfg.get("scenarios", [s.name for s in shipped_scenarios()])
    n_paths = _int(cfg.get("n_paths", 20000))
    seed = _int(cfg.get("seed", args.seed))
    p_list = [float(p) for p in cfg.get("p_list", [1.5, 2, 3])]
    report = {"seed": seed, "n_paths": n_paths, "scenarios": {}}
    stages = {}  # per scenario, for run_meta.json only
    failed = False
    for name in names:
        if isinstance(name, dict):  # inline scenario document
            scn = scenario_from_dict(name)
            name = scn.name
        else:
            try:
                scn = scenario_by_name(name)
            except KeyError:
                raise InvalidInputError(f"unknown scenario {name!r}")
        seconds = {}
        res = _timed(seconds, "ensemble", evolve_ensemble, scn, n_paths, seed)
        drift, tower = martingale_property_check(res)
        levy = _timed(seconds, "levy_system", levy_system_check, scn.lattice,
                      scn.window, n_paths, seed + 3)
        l1 = _timed(seconds, "l1_mass", l1_mass_check, scn.lattice, scn.f,
                    scn.window, n_paths, seed + 4)
        proj = _timed(seconds, "projection", projection_identity_check,
                      scn.lattice, scn.f, -(scn.window[1] - scn.window[0]),
                      n_paths, seed + 5)
        stages[name] = {"seconds": seconds, "paths": n_paths,
                        "jumps": res.n_jumps, "modes": scn.lattice.n_points}
        entry = {
            "drift": [_row(r, "process", "t1", "t2", "drift", "stderr",
                           "sigmas") for r in drift],
            "tower": [_row(r, "t", "mean", "stderr", "target")
                      for r in tower],
            "moment_bound": [_row(r, "p", "lhs", "lhs_se", "rhs", "rhs_se")
                             for r in burkholder_bound_check(res, p_list)],
            "subordination": _row(subordination_check(res), "violations",
                                  "qv_failures"),
            "levy_system": [{"functional": r.name,
                             **_row(r, "lhs", "stderr", "rhs")} for r in levy],
            "l1_mass": _row(l1, "mc", "stderr", "closed_form"),
            "projection": _row(proj, "l2_error", "stderr_norm", "spec_norm"),
        }
        report["scenarios"][name] = entry
        for section in entry.values():
            rowlist = section if isinstance(section, list) else [section]
            failed |= any(not row["pass"] for row in rowlist)
    out = _out_dir(args)
    (out / "verify.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=_json_default))
    _write_meta(out, args, {"failed": failed, "scenarios": stages})
    print(f"wrote {out / 'verify.json'}"
          + ("  [3-SIGMA FAILURE]" if failed else "  [all checks passed]"))
    return VERIFY_ERROR if failed else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levymult",
        description="Jump-measure Fourier multipliers: tables, transforms, "
                    "kernel evaluation and stochastic verification.")
    ap.add_argument("--config", required=True, help="JSON config path")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=2024, help="master seed")
    ap.add_argument("command", choices=["symbol", "apply", "normratio",
                                        "kernel", "verify"])
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    handler = {"symbol": cmd_symbol, "apply": cmd_apply,
               "normratio": cmd_normratio, "kernel": cmd_kernel,
               "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
