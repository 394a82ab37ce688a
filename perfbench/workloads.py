"""The benchmark's workloads: inputs made from a seed, operations, checks.

Each workload writes its configs and ``.lmgf`` grids under a work
directory and returns a :class:`Plan`.  The library sees only those files,
through ``levymult.cli.main``.

* ``mc_verify`` -- ``verify`` on the default scenario list (all six shipped
  scenarios).  P <= 256 modes, so per-path Python overhead dominates.  Its
  wall time follows the host's load too closely for a spread bound of 0.25
  on a shared 2-vCPU machine, so ``BENCHMARK.json`` leaves it out; run it
  by name to see small-P effects.
* ``mc_plane`` -- ``verify`` on one inline 64x64 planar scenario whose
  boundary function is a stored grid.  Per-mode work and memory dominate:
  the dense phase table alone is 268 MB.
* ``spectral`` -- ``normratio`` over the acceptance-1 symbols plus a
  truncated-stable symbol in its series regime, ``apply`` of a
  truncated-stable symbol past the series edge (one quadrature per point),
  and the 512^2 p.v. kernel against the spectral ``apply`` of the same
  symbol.  No Monte Carlo.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from levymult.grid import GridFunction, read_grid, write_grid
from levymult.scenarios import shipped_scenarios

TAU = 0.01  # Monte Carlo target for the largest projection stderr_norm
VERIFY_PATHS = 1000
PLANE_PATHS = 500
PLANE_N = 64
PLANE_WINDOW = (0.0, 0.8)
SPECTRAL_N = 512
L = 2 * math.pi


@dataclass
class Op:
    command: str
    config: Path
    out: Path
    outputs: tuple  # files compared byte for byte across passes

    def argv(self):
        return ["--config", str(self.config), "--out", str(self.out),
                self.command]


@dataclass
class Plan:
    ops: list
    warmup: Op
    # exit codes of ``ops`` -> ([(op index, failure)], {"err_to_tol": ...})
    check: Callable = field(repr=False)


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def _periodic_bump(n, period, center, width):
    """exp(-|x - center|^2 / (2 width^2)) with periodic distance, (n, n).

    Kept apart from ``levymult.corpus`` so the inputs cannot change with
    the library under test.
    """
    x = np.arange(n) * (period / n)
    dx = np.remainder(x - center[0] + period / 2, period) - period / 2
    dy = np.remainder(x - center[1] + period / 2, period) - period / 2
    return np.exp(-(dx[:, None] ** 2 + dy[None, :] ** 2) / (2 * width ** 2))


def _expected_closed_forms(weights, phi, f, window, h, d):
    """l1 mass 4 (t-s) sum_a w_a |phi_a| ||f||_1 and Levy rhs |nu| (t-s)."""
    span = window[1] - window[0]
    norm1 = float(np.abs(f).sum() * h ** d)
    modulated_rate = float((weights * np.abs(phi)).sum())
    return {"l1_mass": 4.0 * span * modulated_rate * norm1,
            "levy_ones": float(weights.sum()) * span}


def _verify_check(op: Op, expected: dict):
    def check(codes):
        report = json.loads((op.out / "verify.json").read_text())
        failures, flagged = checks.verify_report(report, codes[0], expected)
        s = max(e["projection"]["stderr_norm"]
                for e in report["scenarios"].values())
        return [(0, msg) for msg in failures], {
            "err_to_tol": s / TAU, "max_stderr_norm": s,
            "rows_flagged_at_3_sigma": flagged}
    return check


def mc_verify(work: Path, seed: int) -> Plan:
    cfg = _write_config(work / "verify.json", {
        "n_paths": VERIFY_PATHS, "seed": seed, "p_list": [1.5, 2.0, 3.0]})
    warm = _write_config(work / "warmup.json", {
        "scenarios": ["walk_phi1"], "n_paths": 64, "seed": seed})
    expected = {}
    for scn in shipped_scenarios():
        lat = scn.lattice
        expected[scn.name] = _expected_closed_forms(
            lat.weights, lat.phi, scn.f, scn.window, lat.h, lat.d)
    op = Op("verify", cfg, work / "out", ("verify.json",))
    return Plan([op], Op("verify", warm, work / "warmup_out", ()),
                _verify_check(op, expected))


def mc_plane(work: Path, seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    center = rng.uniform(0, PLANE_N, size=2)
    f = _periodic_bump(PLANE_N, float(PLANE_N), center, 6.0)
    grid = work / "plane_f.lmgf"
    write_grid(grid, GridFunction((PLANE_N, PLANE_N),
                                  (float(PLANE_N), float(PLANE_N)), f))
    atoms = [{"z": z, "w": 1.0}
             for z in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])]
    x0 = np.ravel_multi_index(tuple(np.round(center).astype(int) % PLANE_N),
                              (PLANE_N, PLANE_N))
    doc = {"name": "plane64", "measure": {"kind": "discrete", "atoms": atoms},
           "modulator": {"kind": "axis", "j": 1}, "sizes": [PLANE_N, PLANE_N],
           "f": {"grid": str(grid)}, "x0": int(x0),
           "window": list(PLANE_WINDOW), "checkpoints": [0.4]}
    cfg = _write_config(work / "verify.json", {
        "scenarios": [doc], "n_paths": PLANE_PATHS, "seed": seed})
    warm = _write_config(work / "warmup.json", {
        "scenarios": [doc], "n_paths": 8, "seed": seed})
    weights = np.ones(4)
    phi = np.array([1.0, 1.0, 0.0, 0.0])  # axis modulator, j = 1
    expected = {"plane64": _expected_closed_forms(
        weights, phi, f, PLANE_WINDOW, 1.0, 2)}
    op = Op("verify", cfg, work / "out", ("verify.json",))
    return Plan([op], Op("verify", warm, work / "warmup_out", ()),
                _verify_check(op, expected))


def _smooth_grid(n, shift):
    """Mean-zero sum of the three criterion-3 smooth members, translated.

    A translation changes neither the p.v. nor the spectral operator, so
    pv_rel_err stays comparable across seeds.
    """
    x = np.arange(n) * (L / n)
    arr = (_periodic_bump(n, L, (2.5 + shift[0], 3.5 + shift[1]), 0.5)
           - _periodic_bump(n, L, (4.0 + shift[0], 2.0 + shift[1]), 0.8))
    cx = np.remainder(x - shift[0], L)
    cy = np.remainder(x - shift[1], L)
    arr += (np.cos(2 * cx[:, None] + cy[None, :])
            * _periodic_bump(n, L, (math.pi + shift[0], math.pi + shift[1]),
                             math.sqrt(2.0)))
    return GridFunction((n, n), (L, L), arr - arr.mean())


def _axes_atoms(diag=False):
    zs = ([1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]) if diag else \
        ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])
    return [{"z": z, "w": 1.0} for z in zs]


def _stable(eps):
    return {"kind": "stable", "alpha": 1.0, "epsilon": eps,
            "outer_radius": None, "atoms": _axes_atoms()}


# acceptance criterion 1's symbol set, plus one truncated-stable symbol whose
# eps |xi| stays below the series edge (25) on the 256^2 corpus grid
SWEEP_SYMBOLS = [
    {"id": "power_0.5", "kind": "power", "alpha": 0.5, "j": 1, "d": 2},
    {"id": "power_1.0", "kind": "power", "alpha": 1.0, "j": 1, "d": 2},
    {"id": "power_1.5", "kind": "power", "alpha": 1.5, "j": 1, "d": 2},
    {"id": "riesz2", "kind": "riesz2", "j": 1, "d": 2},
    {"id": "riesz_pair", "kind": "riesz_pair", "j": 1, "k": 2, "d": 2},
    {"id": "riesz_combo_pm", "kind": "riesz_combo",
     "coefficients": [1.0, -1.0]},
    {"id": "general_axes_pm", "kind": "general",
     "measure": {"kind": "discrete", "atoms": _axes_atoms()},
     "modulator": {"kind": "per_axis", "coefficients": [1.0, -1.0]}},
    {"id": "general_diag_pm", "kind": "general",
     "measure": {"kind": "discrete", "atoms": _axes_atoms(diag=True)},
     "modulator": {"kind": "table", "entries": [
         {"z": [1.0, 1.0], "value": 1.0},
         {"z": [-1.0, -1.0], "value": 1.0},
         {"z": [1.0, -1.0], "value": -1.0},
         {"z": [-1.0, 1.0], "value": -1.0}]}},
    {"id": "stable_series", "kind": "general", "measure": _stable(0.01),
     "modulator": {"kind": "axis", "j": 1}},
]
P_LIST = [4 / 3, 1.5, 2.0, 3.0, 4.0]
# eps |xi| passes the series edge on part of the 64^2 grid: quadrature there
QUAD_SYMBOL = {"kind": "general", "measure": _stable(1.0),
               "modulator": {"kind": "axis", "j": 1}}


def spectral(work: Path, seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    big, small = work / "f512.lmgf", work / "f64.lmgf"
    write_grid(big, _smooth_grid(SPECTRAL_N, rng.uniform(0, L, size=2)))
    write_grid(small, _smooth_grid(64, rng.uniform(0, L, size=2)))
    ids = [s["id"] for s in SWEEP_SYMBOLS]
    sweep = _write_config(work / "normratio.json", {
        "symbols": SWEEP_SYMBOLS, "p_list": P_LIST,
        "corpus": {"d": 2, "n": 256, "count": 40, "seed": seed}})
    quad = _write_config(work / "apply_quad.json", {
        "input": str(small), "symbol": QUAD_SYMBOL, "output": "quad.lmgf"})
    pv = _write_config(work / "pv.json", {"pv": {
        "input": str(big), "rho": 2 * L / SPECTRAL_N, "output": "pv.lmgf"}})
    spec = _write_config(work / "apply_power.json", {
        "input": str(big), "output": "spectral.lmgf",
        "symbol": {"kind": "power", "alpha": 1.0, "j": 1, "d": 2}})
    warm = _write_config(work / "warmup.json", {
        "symbols": SWEEP_SYMBOLS, "p_list": P_LIST,
        "corpus": {"d": 2, "n": 16, "count": 2, "seed": seed}})
    ops = [Op("normratio", sweep, work / "out_sweep", ("normratio.csv",)),
           Op("apply", quad, work / "out_quad", ("quad.lmgf",)),
           Op("kernel", pv, work / "out_pv", ("pv.lmgf",)),
           Op("apply", spec, work / "out_spectral", ("spectral.lmgf",))]

    def check(codes):
        failures = [(i, f"{op.command}: exit code {code}")
                    for i, (op, code) in enumerate(zip(ops, codes))
                    if code != 0 and op.command != "normratio"]
        csv_text = (ops[0].out / "normratio.csv").read_text()
        failures += [(0, msg) for msg in
                     checks.normratio_csv(csv_text, codes[0], ids, P_LIST)]
        f64 = read_grid(small).samples
        failures += [(1, msg) for msg in checks.contraction(
            f64, read_grid(ops[1].out / "quad.lmgf").samples)]
        pv_fail, err = checks.pv_error(
            read_grid(ops[2].out / "pv.lmgf").samples,
            read_grid(ops[3].out / "spectral.lmgf").samples)
        failures += [(2, msg) for msg in pv_fail]
        return failures, {"err_to_tol": err / checks.PV_TOL, "pv_rel_err": err}

    return Plan(ops, Op("normratio", warm, work / "warmup_out", ()), check)


WORKLOADS = {"mc_verify": mc_verify, "mc_plane": mc_plane,
             "spectral": spectral}
