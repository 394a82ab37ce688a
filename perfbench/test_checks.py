"""Each output check must fail on a corrupted result.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from levymult import cli  # noqa: E402
from levymult.scenarios import scenario_by_name  # noqa: E402


def _verify(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"scenarios": ["walk_phi1"], "n_paths": 300,
                               "seed": 5}))
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "verify"])
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    scn = scenario_by_name("walk_phi1")
    lat = scn.lattice
    expected = {"walk_phi1": workloads._expected_closed_forms(
        lat.weights, lat.phi, scn.f, scn.window, lat.h, lat.d)}
    return report, code, expected


def test_verify_checker(tmp_path):
    report, code, expected = _verify(tmp_path)
    failures, flagged = checks.verify_report(report, code, expected)
    assert failures == [] and flagged == 0 and code == 0

    flipped = copy.deepcopy(report)
    row = flipped["scenarios"]["walk_phi1"]["drift"][0]
    row["pass"] = not row["pass"]
    assert any("contradicts" in f for f in
               checks.verify_report(flipped, 1, expected)[0])

    biased = copy.deepcopy(report)
    row = biased["scenarios"]["walk_phi1"]["levy_system"][0]
    row["lhs"] = row["rhs"] + 10 * row["stderr"]
    row["pass"] = False
    assert any("family-wise" in f for f in
               checks.verify_report(biased, 1, expected)[0])

    closed = copy.deepcopy(report)
    closed["scenarios"]["walk_phi1"]["l1_mass"]["closed_form"] *= 1 + 1e-9
    assert any("closed form" in f for f in
               checks.verify_report(closed, 0, expected)[0])

    assert any("exit code" in f for f in
               checks.verify_report(report, 1, expected)[0])


def _sweep_csv(ratio_of_bound):
    lines = ["symbol_id,p,p_star_minus_1,max_ratio,argmax_corpus_id"]
    for p in workloads.P_LIST:
        bound = checks.p_star_minus_1(p)
        lines.append(f"s,{p!r},{bound!r},{bound * ratio_of_bound!r},f0")
    return "\n".join(lines) + "\n"


def test_normratio_checker(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "symbols": workloads.SWEEP_SYMBOLS[:2], "p_list": workloads.P_LIST,
        "corpus": {"d": 2, "n": 16, "count": 2, "seed": 3}}))
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "normratio"])
    text = (tmp_path / "out" / "normratio.csv").read_text()
    ids = [s["id"] for s in workloads.SWEEP_SYMBOLS[:2]]
    assert checks.normratio_csv(text, code, ids, workloads.P_LIST) == []

    assert checks.normratio_csv(_sweep_csv(0.9), 0, ["s"],
                                workloads.P_LIST) == []
    assert checks.normratio_csv(_sweep_csv(1.01), 0, ["s"], workloads.P_LIST)
    short = "\n".join(_sweep_csv(0.9).splitlines()[:-1]) + "\n"
    assert checks.normratio_csv(short, 0, ["s"], workloads.P_LIST)


def test_pv_checker():
    spec = workloads._smooth_grid(64, (0.3, 1.1)).samples
    noise = np.random.default_rng(0).normal(size=spec.shape)
    noise *= np.linalg.norm(spec) / np.linalg.norm(noise)
    assert checks.pv_error(spec + 1e-3 * noise, spec)[0] == []
    failures, err = checks.pv_error(spec + 0.1 * noise, spec)
    assert failures and err > checks.PV_TOL


def test_contraction_and_bytes():
    f = workloads._smooth_grid(64, (0.0, 0.0)).samples
    assert checks.contraction(f, 0.5 * f) == []
    assert checks.contraction(f, 1.01 * f)
    assert checks.same_bytes({"a": "1"}, {"a": "1"}) == []
    assert checks.same_bytes({"a": "1"}, {"a": "2"})
