"""The benchmark's hooks into the library: ``perfbench/tracing.py`` patches
library names and reads their positional arguments, and
``perfbench/environment.py`` asks ``_accel.get_backend`` for the kernels.
A renamed or deleted name breaks a traced or an untraced benchmark run;
these tests break with it."""

import json
import sys
from pathlib import Path

import numpy as np

from levymult import cli
from levymult.grid import GridFunction, write_grid
from levymult.kernel import weight_table_meta

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import environment  # noqa: E402
import tracing  # noqa: E402

WALK = {"kind": "discrete",
        "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0], "w": 1.0}]}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_tracer_sees_verify_and_normratio(tmp_path):
    scenario = {"name": "walk8", "measure": WALK,
                "modulator": {"kind": "constant", "value": 1.0},
                "sizes": [16], "f": list(np.cos(2 * np.pi * np.arange(16) / 16)),
                "x0": 3, "window": [0.0, 1.0], "checkpoints": [0.5]}
    verify = write_json(tmp_path / "v.json", {"scenarios": [scenario],
                                              "n_paths": 8, "seed": 3})
    normratio = write_json(tmp_path / "n.json", {
        "symbol": {"kind": "riesz2", "j": 1, "d": 2},
        "corpus": {"d": 2, "n": 16, "count": 3, "seed": 1}})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["--config", verify, "--out", str(tmp_path / "v"),
                         "verify"]) in (0, 1)
        assert cli.main(["--config", normratio, "--out", str(tmp_path / "n"),
                         "normratio"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["core.evolve_paths"] == 8
    assert tracer.counts["rng.jumps"] > 0
    assert tracer.counts["symbols.points"] > 0


def test_tracer_counts_the_spectral_side(tmp_path):
    # the counters read apply_multiplier's grid argument and the kernel
    # evaluations of the p.v. weight table
    n, period = 16, 2 * np.pi
    x = np.arange(n) * (period / n)
    grid = tmp_path / "f.lmgf"
    write_grid(grid, GridFunction((n, n), (period, period),
                                  np.cos(x)[:, None] * np.sin(2 * x)))
    apply = write_json(tmp_path / "a.json", {
        "input": str(grid), "output": "g.lmgf",
        "symbol": {"kind": "power", "alpha": 1.0, "j": 1, "d": 2}})
    kernel = write_json(tmp_path / "k.json", {"pv": {
        "input": str(grid), "rho": 2 * period / n, "output": "pv.lmgf"}})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["--config", apply, "--out", str(tmp_path / "a"),
                         "apply"]) == 0
        assert cli.main(["--config", kernel, "--out", str(tmp_path / "k"),
                         "kernel"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["multiplier.fft_points"] == n * n
    assert (tracer.counts["kernel.kernel_evals"]
            == weight_table_meta((n, n))["kernel_evals"])


def test_environment_names_the_backend():
    assert environment.record(ROOT, 1, {})["backend"] == "numpy"
