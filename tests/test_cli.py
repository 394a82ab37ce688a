import json
import os
import subprocess
import sys

import numpy as np
import pytest

import levymult as lm
from levymult import cli
from levymult import stochastic as st
from levymult._accel import core
from levymult.cli import main
from levymult.grid import GridFunction, read_grid, write_grid
from levymult.kernel import kernel_closed_form
from levymult.scenarios import scenario_by_name, scenario_from_dict

L = 2 * np.pi


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------

def test_symbol_table_row_count(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "symbol": {"kind": "power", "alpha": 1.0, "j": 1, "d": 2},
        "grid": {"d": 2, "n": 64, "xi_max": 3.0}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "symbol"]) == 0
    lines = (tmp_path / "o" / "symbol.csv").read_text().strip().splitlines()
    assert len(lines) == 64 * 64 + 1
    assert lines[0] == "xi_1,xi_2,re,im"


def test_symbol_constant_modulator_values(tmp_path):
    measure = {"kind": "discrete",
               "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0], "w": 1.0}]}
    cfg = write_json(tmp_path / "c.json", {
        "symbol": {"kind": "general", "measure": measure,
                   "modulator": {"kind": "constant", "value": 0.5}},
        "grid": {"d": 1, "n": 33, "xi_max": 3.0}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "symbol"]) == 0
    rows = (tmp_path / "o" / "symbol.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        xi, re, im = (float(v) for v in row.split(","))
        if abs(xi) > 1e-9:  # off the exponent zero at the origin
            assert re == pytest.approx(0.5, abs=1e-12)
        else:
            assert re == 0.0


def test_symbol_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o"),
                 "symbol"]) == 2


def test_symbol_invalid_spec(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"symbol": {"kind": "nope"}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "symbol"]) == 2


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def grid_file(tmp_path, name="f.lmgf"):
    f = GridFunction.from_callable(lambda x, y: np.cos(x) * np.sin(2 * y),
                                   (32, 32), (L, L))
    p = tmp_path / name
    write_grid(p, f)
    return p, f


def test_apply_identity_bitwise(tmp_path):
    p, f = grid_file(tmp_path)
    cfg = write_json(tmp_path / "c.json", {
        "input": str(p),
        "symbol": {"kind": "constant", "value": 1.0, "d": 2},
        "output": "g.lmgf"})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "apply"]) == 0
    g = read_grid(tmp_path / "o" / "g.lmgf")
    assert np.array_equal(g.samples, f.samples)


def test_apply_twice_equals_squared_symbol(tmp_path):
    p, f = grid_file(tmp_path)
    riesz = {"kind": "riesz2", "j": 1, "d": 2}
    cfg1 = write_json(tmp_path / "c1.json", {
        "input": str(p), "symbol": riesz, "output": "once.lmgf"})
    assert main(["--config", cfg1, "--out", str(tmp_path / "o"), "apply"]) == 0
    cfg2 = write_json(tmp_path / "c2.json", {
        "input": str(tmp_path / "o" / "once.lmgf"), "symbol": riesz,
        "output": "twice.lmgf"})
    assert main(["--config", cfg2, "--out", str(tmp_path / "o"), "apply"]) == 0
    cfg3 = write_json(tmp_path / "c3.json", {
        "input": str(p),
        "symbol": {"kind": "product", "factors": [riesz, riesz]},
        "output": "squared.lmgf"})
    assert main(["--config", cfg3, "--out", str(tmp_path / "o"), "apply"]) == 0
    twice = read_grid(tmp_path / "o" / "twice.lmgf")
    squared = read_grid(tmp_path / "o" / "squared.lmgf")
    assert np.abs(twice.samples - squared.samples).max() < 1e-12


def test_apply_missing_file(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "input": str(tmp_path / "absent.lmgf"),
        "symbol": {"kind": "riesz2", "j": 1, "d": 2}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "apply"]) == 2


def test_apply_dimension_mismatch(tmp_path):
    f = GridFunction((16,), (L,), np.zeros(16))
    p = tmp_path / "f1.lmgf"
    write_grid(p, f)
    cfg = write_json(tmp_path / "c.json", {
        "input": str(p), "symbol": {"kind": "riesz2", "j": 1, "d": 2}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "apply"]) == 2


# ---------------------------------------------------------------------------
# normratio
# ---------------------------------------------------------------------------

def test_normratio_small_suite(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "symbols": [{"kind": "riesz2", "j": 1, "d": 2},
                    {"kind": "power", "alpha": 1.0, "j": 1, "d": 2}],
        "corpus": {"n": 64, "count": 8, "seed": 5},
        "p_list": [4 / 3, 2.0, 4.0]})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "normratio"]) == 0
    lines = (tmp_path / "o" / "normratio.csv").read_text().strip().splitlines()
    assert lines[0] == "symbol_id,p,p_star_minus_1,max_ratio,argmax_corpus_id"
    assert len(lines) == 1 + 2 * 3
    p2_rows = [l for l in lines[1:] if l.split(",")[1] == "2.0"]
    for row in p2_rows:
        assert float(row.split(",")[2]) == 1.0  # bound at p = 2


def test_normratio_output_does_not_depend_on_threads(tmp_path, monkeypatch):
    from levymult import multiplier

    cfg = write_json(tmp_path / "c.json", {
        "symbols": [{"kind": "riesz2", "j": 1, "d": 2},
                    {"kind": "power", "alpha": 1.0, "j": 1, "d": 2}],
        "corpus": {"n": 64, "count": 5, "seed": 5},
        "p_list": [4 / 3, 2.0, 4.0]})
    csv = {}
    for threads in (1, 2):
        monkeypatch.setattr(multiplier, "_pool_size", lambda members: threads)
        out = tmp_path / f"o{threads}"
        assert main(["--config", cfg, "--out", str(out), "normratio"]) == 0
        csv[threads] = (out / "normratio.csv").read_bytes()
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["threads"] == threads
    assert csv[1] == csv[2]
    assert b"threads" not in csv[1]


def test_normratio_run_meta_records_stages(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "symbols": [{"kind": "riesz2", "j": 1, "d": 2},
                    {"kind": "riesz_pair", "j": 1, "k": 2, "d": 2},
                    {"kind": "beurling_ahlfors"},
                    {"kind": "power", "alpha": 1.0, "j": 1, "d": 2},
                    {"kind": "constant", "value": 0.5, "d": 2}],
        "corpus": {"n": 64, "count": 4, "seed": 5},
        "p_list": [4 / 3, 2.0, 4.0]})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "normratio"]) == 0
    meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
    assert sorted(meta["seconds"]) == ["corpus", "norms", "sweep", "symbols"]
    assert all(t >= 0.0 for t in meta["seconds"].values())
    # riesz2 and power: the pair and Beurling-Ahlfors are not conjugate-
    # symmetric on the grid, and the constant takes no transform
    assert meta["half_spectrum_symbols"] == 2
    csv = (tmp_path / "o" / "normratio.csv").read_text()
    assert "seconds" not in csv and "half_spectrum" not in csv


def test_normratio_run_meta_records_the_corpus_seed(tmp_path):
    # no --seed flag: the corpus seed of the config is the one the run used
    cfg = write_json(tmp_path / "c.json", {
        "symbols": [{"kind": "riesz2", "j": 1, "d": 2}],
        "corpus": {"n": 32, "count": 2, "seed": 9}, "p_list": [2.0]})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "normratio"]) == 0
    assert json.loads((tmp_path / "o" / "run_meta.json").read_text())[
        "seed"] == 9
    # without a corpus seed the flag is the corpus seed
    cfg = write_json(tmp_path / "d.json", {
        "symbols": [{"kind": "riesz2", "j": 1, "d": 2}],
        "corpus": {"n": 32, "count": 2}, "p_list": [2.0]})
    assert main(["--config", cfg, "--out", str(tmp_path / "p"), "--seed",
                 "13", "normratio"]) == 0
    assert json.loads((tmp_path / "p" / "run_meta.json").read_text())[
        "seed"] == 13


def test_normratio_empty_corpus(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "symbol": {"kind": "riesz2", "j": 1, "d": 2},
        "corpus": {"count": 0}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "normratio"]) == 2


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_pv_mode_rejects_nonintegral_images(tmp_path, capsys):
    n = 16
    f = GridFunction.from_callable(lambda x, y: np.cos(x) * np.sin(y), (n, n), (L, L))
    p = tmp_path / "f.lmgf"
    write_grid(p, f)
    cfg = write_json(tmp_path / "c.json", {
        "pv": {"input": str(p), "rho": 2 * L / n, "images": 3.5}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "kernel"]) == 2
    assert "images must be a nonnegative integer" in capsys.readouterr().err


def test_kernel_table_matches_closed_form(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "points": {"x": [1.0, 2.0], "y": [2.0, 1.0]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "kernel"]) == 0
    rows = (tmp_path / "o" / "kernel.csv").read_text().strip().splitlines()[1:]
    x, y, k = (float(v) for v in rows[0].split(","))
    assert k == kernel_closed_form(1.0, 2.0)


def test_kernel_mismatched_points(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "points": {"x": [1.0], "y": [2.0, 3.0]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "kernel"]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_reproducible_and_passing(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["walk_phi1"], "n_paths": 2500, "seed": 17})
    assert main(["--config", cfg, "--out", str(tmp_path / "o1"),
                 "verify"]) == 0
    assert main(["--config", cfg, "--out", str(tmp_path / "o2"),
                 "verify"]) == 0
    r1 = (tmp_path / "o1" / "verify.json").read_bytes()
    r2 = (tmp_path / "o2" / "verify.json").read_bytes()
    assert r1 == r2  # byte-identical given the seed
    doc = json.loads(r1)
    scn = doc["scenarios"]["walk_phi1"]
    assert scn["subordination"]["violations"] == 0


def test_verify_evolves_once_per_scenario(tmp_path, monkeypatch):
    paths = []
    evolve = core.evolve_ensemble

    def counted(*args):
        paths.append(len(args[11]))
        return evolve(*args)

    monkeypatch.setattr(core, "evolve_ensemble", counted)
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["walk_phi1", "two_scale_half"], "n_paths": 300,
        "seed": 3})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "verify"]) in (0, 1)
    assert paths == [300, 300]


def _pair(z):
    return [z.real, z.imag]


def test_verify_sections_are_the_library_reductions(tmp_path):
    names, n, seed = ["walk_phi1", "two_scale_signs"], 400, 8
    p_list = [1.5, 3.0]
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": names, "n_paths": n, "seed": seed, "p_list": p_list})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "verify"]) in (0, 1)
    rep = json.loads((tmp_path / "o" / "verify.json").read_text())
    for name in names:
        res = st.evolve_ensemble(scenario_by_name(name), n, seed)
        drift, tower = st.martingale_property_check(res)
        sub = st.subordination_check(res)
        want = {
            "drift": [{"process": r.process, "t1": r.t1, "t2": r.t2,
                       "drift": _pair(r.drift), "stderr": r.stderr,
                       "sigmas": r.sigmas, "pass": r.passed} for r in drift],
            "tower": [{"t": r.t, "mean": _pair(r.mean), "stderr": r.stderr,
                       "target": _pair(r.target), "pass": r.passed}
                      for r in tower],
            "moment_bound": [{"p": r.p, "lhs": r.lhs, "lhs_se": r.lhs_se,
                              "rhs": r.rhs, "rhs_se": r.rhs_se,
                              "pass": r.passed}
                             for r in st.burkholder_bound_check(res, p_list)],
            "subordination": {"violations": sub.violations,
                              "qv_failures": sub.qv_failures,
                              "pass": sub.passed},
        }
        for section, rows in want.items():
            assert rep["scenarios"][name][section] == rows, section


def test_verify_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # 7-path chunks for every stage: 29 evolve calls per scenario and the
    # projection's 100 base paths in 15 chunks, and verify.json unchanged
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["walk_phi1", "plane_axis_phi"], "n_paths": 200,
        "seed": 5})
    assert main(["--config", cfg, "--out", str(tmp_path / "one"),
                 "verify"]) in (0, 1)
    paths = []
    evolve = core.evolve_ensemble

    def counted(*args):
        paths.append(len(args[11]))
        return evolve(*args)

    monkeypatch.setattr(core, "evolve_ensemble", counted)
    monkeypatch.setattr(st, "chunk_paths", lambda *args: 7)
    assert main(["--config", cfg, "--out", str(tmp_path / "chunked"),
                 "verify"]) in (0, 1)
    assert paths == 2 * ([7] * 28 + [4])
    assert (tmp_path / "one" / "verify.json").read_bytes() == \
        (tmp_path / "chunked" / "verify.json").read_bytes()


def test_verify_unknown_scenario(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"scenarios": ["nope"]})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "verify"]) == 2


def test_verify_inline_scenario(tmp_path):
    doc = {"name": "inline_walk",
           "measure": {"kind": "discrete",
                       "atoms": [{"z": [1.0], "w": 1.0},
                                 {"z": [-1.0], "w": 1.0}]},
           "modulator": {"kind": "constant", "value": 1.0},
           "sizes": [32],
           "f": list(np.exp(-0.5 * ((np.arange(32) - 16.0) / 3.0) ** 2)),
           "x0": 16,
           "window": [0.0, 1.0],
           "checkpoints": [0.5]}
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": [doc], "n_paths": 2000, "seed": 21})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "verify"]) == 0
    rep = json.loads((tmp_path / "o" / "verify.json").read_text())
    assert "inline_walk" in rep["scenarios"]
    assert rep["scenarios"]["inline_walk"]["subordination"]["violations"] == 0


def test_verify_inline_stable_scenario_exits_2(tmp_path, capsys):
    # a Monte Carlo scenario runs on a lattice, which needs a discrete
    # measure; a stable one raised AttributeError and exited 1, the code of
    # a failed verification
    doc = {"name": "stable_walk",
           "measure": {"kind": "stable", "alpha": 1.0, "epsilon": 0.5,
                       "atoms": [{"z": [1.0], "w": 1.0},
                                 {"z": [-1.0], "w": 1.0}]},
           "modulator": {"kind": "constant", "value": 1.0},
           "sizes": [16], "f": [1.0] * 16, "x0": 3, "window": [0.0, 1.0]}
    cfg = write_json(tmp_path / "c.json", {"scenarios": [doc], "n_paths": 8})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "discrete measure" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "verify.json").exists()


def test_kernel_pv_mode_writes_grid(tmp_path):
    n = 64
    f = GridFunction.from_callable(
        lambda x, y: np.exp(-((x - 3) ** 2 + (y - 3) ** 2)), (n, n), (L, L))
    f = f.with_samples(f.samples - f.samples.mean())
    p = tmp_path / "f.lmgf"
    write_grid(p, f)
    cfg = write_json(tmp_path / "c.json", {
        "pv": {"input": str(p), "rho": 2 * L / n, "output": "pv.lmgf"}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "kernel"]) == 0
    g = read_grid(tmp_path / "o" / "pv.lmgf")
    direct = lm.pv_convolve(f, rho=2 * L / n)
    assert np.array_equal(g.samples, direct.samples)
    meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
    assert (meta["images"], meta["chebyshev_nodes"]) == (3, 20)
    assert meta["kernel_evals"] == 33 * 33 + (6 * 20) ** 2 + 6 * 20 * 66
    assert meta["table_bytes"] == 64 * 64 * 8


def test_verify_run_meta_records_the_config_seed(tmp_path):
    # the config's seed wins over the --seed flag and its default
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["walk_phi1"], "n_paths": 40, "seed": 7})
    for flags, out in (([], "o"), (["--seed", "5"], "p")):
        main(["--config", cfg, "--out", str(tmp_path / out), *flags,
              "verify"])
        meta = json.loads((tmp_path / out / "run_meta.json").read_text())
        report = json.loads((tmp_path / out / "verify.json").read_text())
        assert meta["seed"] == report["seed"] == 7


def test_verify_rerun_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["two_scale_half"], "n_paths": 1500, "seed": 99})
    assert main(["--config", cfg, "--out", str(tmp_path / "r1"),
                 "verify"]) == 0
    assert main(["--config", cfg, "--out", str(tmp_path / "r2"),
                 "verify"]) == 0
    assert (tmp_path / "r1" / "verify.json").read_bytes() == \
        (tmp_path / "r2" / "verify.json").read_bytes()
    meta = json.loads((tmp_path / "r1" / "run_meta.json").read_text())
    assert "workers" not in meta


def test_verify_run_meta_records_stages(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["walk_phi1", "plane_axis_phi"], "n_paths": 200,
        "seed": 7})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "verify"]) == 0
    meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
    for name, modes in (("walk_phi1", 32), ("plane_axis_phi", 256)):
        entry = meta["scenarios"][name]
        assert sorted(entry["seconds"]) == ["ensemble", "l1_mass",
                                            "levy_system", "projection"]
        assert all(t >= 0.0 for t in entry["seconds"].values())
        counts, *_ = st.sample_ensemble(scenario_by_name(name).lattice,
                                        scenario_by_name(name).window, 200, 7)
        assert (entry["paths"], entry["jumps"], entry["modes"]) == \
            (200, int(counts.sum()), modes)
        # the projection check pairs each base path with its mirror
        assert entry["projection_pairs"] == 100
        assert 0.0 <= entry["projection_kernel_s"] <= \
            entry["seconds"]["projection"]
        # chunks of BLOCK expected events per path: its jumps, checkpoints
        # and end time; 200 paths or 100 base paths fit in one
        scn = scenario_by_name(name)
        span = scn.window[1] - scn.window[0]
        events = scn.lattice.total_rate * span + 1
        assert entry["chunk_paths"] == {
            "ensemble": int(65536 // (events + len(scn.checkpoints))),
            "levy_system": int(65536 // events),
            "l1_mass": int(65536 // events),
            "projection": int(65536 // events)}
        assert entry["chunks"] == {"ensemble": 1, "levy_system": 1,
                                   "l1_mass": 1, "projection": 1}
        lat = scenario_by_name(name).lattice
        jump = core._jump_table(np.asarray(lat.sizes), lat.phase,
                                lat.atom_steps, lat.phi)
        # one piece of the evolve kernel's two complex P x K node tables
        nodes = 2 * entry["evolve_nodes"] * lat.n_points * 16
        assert entry["table_bytes"] == (lat.phase.nbytes + lat.psi.nbytes
                                        + lat.sphi.nbytes + jump.nbytes
                                        + nodes)
    # max|psi| T = 4 and 6.4: one piece of 20 and of 23 nodes
    assert [(meta["scenarios"][name]["evolve_pieces"],
             meta["scenarios"][name]["evolve_nodes"])
            for name in ("walk_phi1", "plane_axis_phi")] == [(1, 20), (1, 23)]
    assert meta["scenarios"]["plane_axis_phi"]["table_bytes"] == \
        16 * 16 + 256 * 8 + 256 * 16 + 5 * 256 * 16 + 2 * 23 * 256 * 16
    assert meta["seed"] == 7
    report = (tmp_path / "o" / "verify.json").read_text()
    assert "seconds" not in report and "jumps" not in report
    assert "chunk" not in report
    assert "projection_pairs" not in report and "table_bytes" not in report


@pytest.mark.parametrize("n_paths", [201, 2])
def test_verify_projection_path_count_exits_2(tmp_path, capsys, n_paths):
    # the projection check pairs paths: an odd count or one below 4 is a
    # usage error, reported before any report is written
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["walk_phi1"], "n_paths": n_paths, "seed": 7})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "verify"]) == 2
    assert "even and at least 4" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verify.json").exists()


WALK_DOC = {"name": "deep_walk",
            "measure": {"kind": "discrete",
                        "atoms": [{"z": [1.0], "w": 1.0},
                                  {"z": [-1.0], "w": 1.0}]},
            "modulator": {"kind": "constant", "value": 1.0},
            "sizes": [16], "f": [1.0] * 16, "x0": 3, "window": [0.0, 30.0]}


@pytest.mark.parametrize("scenarios, n_paths", [
    (["walk_phi1"], 401),
    # the second scenario's depth |s| * rate = 30 * 2 fails the guard
    (["walk_phi1", WALK_DOC], 40),
])
def test_verify_projection_usage_error_runs_no_ensemble(tmp_path, capsys,
                                                        monkeypatch,
                                                        scenarios, n_paths):
    evolved = []
    monkeypatch.setattr(cli, "evolve_ensemble",
                        lambda *args: evolved.append(args))
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": scenarios, "n_paths": n_paths, "seed": 7})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "verify"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert evolved == []
    assert not (tmp_path / "o" / "verify.json").exists()


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_verify_seed_outside_u64_exits_2(tmp_path, capsys, seed):
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["walk_phi1"], "n_paths": 8, "seed": seed})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "verify"]) == 2
    assert "is outside [0, 2^64 - 1]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verify.json").exists()


def test_verify_seed_offsets_wrap_modulo_2_64(tmp_path):
    # seed + 3 is 2^64 - 1; seed + 4 and seed + 5 wrap to 0 and 1
    seed, n = (1 << 64) - 4, 40
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": ["walk_phi1"], "n_paths": n, "seed": seed})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "verify"]) in (0, 1)
    rep = json.loads((tmp_path / "o" / "verify.json").read_text())
    entry = rep["scenarios"]["walk_phi1"]
    scn = scenario_by_name("walk_phi1")
    lat, window = scn.lattice, scn.window
    levy = st.levy_system_check(lat, window, n, (1 << 64) - 1)
    assert [r["lhs"] for r in entry["levy_system"]] == [r.lhs for r in levy]
    assert entry["l1_mass"]["mc"] == st.l1_mass_check(lat, scn.f, window, n,
                                                      0).mc
    proj = st.projection_identity_check(lat, scn.f, window[0] - window[1], n,
                                        1)
    assert entry["projection"]["l2_error"] == proj.l2_error
    assert rep["seed"] == seed


@pytest.mark.parametrize("corpus, flags", [
    ({"seed": -1}, []),
    ({"seed": 1 << 64}, []),
    ({}, ["--seed", "-3"]),
])
def test_normratio_seed_outside_u64_exits_2(tmp_path, capsys, corpus, flags):
    cfg = write_json(tmp_path / "c.json", {
        "symbol": {"kind": "riesz2", "j": 1, "d": 2},
        "corpus": {"d": 2, "n": 16, "count": 2, **corpus}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), *flags,
                 "normratio"]) == 2
    assert "is outside [0, 2^64 - 1]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "normratio.csv").exists()


def test_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the evolve kernel contracts by batched matmul: each BLAS thread count
    # must give the same bytes, on a lattice large enough to split the work
    n = 64
    x = np.arange(n)
    f = np.exp(-0.5 * (((x - 20.0) / 6.0) ** 2)[:, None]
               - 0.5 * (((x - 41.0) / 5.0) ** 2)[None, :])
    atoms = [{"z": z, "w": 1.0}
             for z in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])]
    doc = {"name": "plane64", "measure": {"kind": "discrete", "atoms": atoms},
           "modulator": {"kind": "axis", "j": 1}, "sizes": [n, n],
           "f": list(f.ravel()), "x0": 20 * n + 41, "window": [0.0, 0.8],
           "checkpoints": [0.4]}
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": [doc, "plane_axis_phi"], "n_paths": 60, "seed": 5})
    src = os.path.dirname(os.path.dirname(lm.__file__))
    cpus = len(os.sched_getaffinity(0))
    reports = []
    for run, threads in enumerate((1, max(cpus, 2))):
        env = dict(os.environ, PYTHONPATH=src,
                   **{var: str(threads) for var in (
                       "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                       "MKL_NUM_THREADS")})
        out = tmp_path / f"o{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "levymult.cli", "--config", cfg,
             "--out", str(out), "verify"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode in (0, 1), proc.stderr
        reports.append((out / "verify.json").read_bytes())
    assert reports[0] == reports[1]


def test_verify_128x128_lattice(tmp_path):
    # 128^2 modes: a dense P x P phase table would need 4.3 GB
    n, window = 128, (0.0, 0.5)
    x = np.arange(n)
    f = np.exp(-0.5 * (((x - 64.0) / 9.0) ** 2)[:, None]
               - 0.5 * (((x - 60.0) / 7.0) ** 2)[None, :])
    atoms = [{"z": z, "w": 1.0}
             for z in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])]
    doc = {"name": "plane128", "measure": {"kind": "discrete", "atoms": atoms},
           "modulator": {"kind": "axis", "j": 1}, "sizes": [n, n],
           "f": list(f.ravel()), "x0": 64 * n + 60, "window": list(window),
           "checkpoints": [0.25]}
    cfg = write_json(tmp_path / "c.json", {
        "scenarios": [doc], "n_paths": 64, "seed": 13})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "verify"]) in (0, 1)
    rep = json.loads((tmp_path / "o" / "verify.json").read_text())["scenarios"]
    assert rep["plane128"]["subordination"]["violations"] == 0
    # axis modulator: |phi| = 1 on the two first-axis atoms, 0 on the others
    l1 = rep["plane128"]["l1_mass"]["closed_form"]
    assert l1 == pytest.approx(4 * 0.5 * 2.0 * f.sum(), rel=1e-12)
    scn = scenario_from_dict(doc)
    res = st.evolve_ensemble(scn, 4, seed=13)
    for idx in range(4):
        path = st.sample_path(scn.lattice, window, seed=13, path_index=idx)
        pair = st.evolve_martingales(scn.lattice, path, scn.x0, scn.f)
        assert res.f_u[idx] == pytest.approx(pair.f_terminal, abs=1e-12)
        assert res.g_u[idx] == pytest.approx(pair.g_terminal, abs=1e-12)


def test_modulator_bound_rejected_at_parse(tmp_path):
    measure = {"kind": "discrete",
               "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0], "w": 1.0}]}
    cfg = write_json(tmp_path / "c.json", {
        "symbol": {"kind": "general", "measure": measure,
                   "modulator": {"kind": "constant", "value": 1.5}},
        "grid": {"d": 1, "n": 8}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "symbol"]) == 2


WALK = {"kind": "discrete",
        "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0], "w": 1.0}]}
WALK_SCENARIO = {"name": "walk", "measure": WALK,
                 "modulator": {"kind": "constant", "value": 1.0},
                 "sizes": [8], "f": [0.0] * 8, "x0": 2, "window": [0.0, 1.0]}


@pytest.mark.parametrize("command, cfg", [
    ("symbol", {"symbol": {"kind": "constant", "value": [0.5]}}),
    ("symbol", {"symbol": {"kind": "riesz2", "j": 1.7, "d": 2}}),
    ("symbol", {"symbol": {"kind": "general", "measure": WALK,
                           "modulator": {"kind": "axis", "j": "1"}}}),
    ("verify", {"scenarios": [{**WALK_SCENARIO, "x0": 2.5}]}),
    ("verify", {"scenarios": [{**WALK_SCENARIO, "window": [0]}]}),
    ("verify", {"scenarios": [{**WALK_SCENARIO, "f": {"grid": "absent.lmgf"}}]}),
    ("verify", []),
    ("kernel", []),
], ids=["symbol_constant_short", "riesz2_j_float", "axis_j_text", "x0_float",
        "window_short", "scenario_grid_missing", "verify_config_list",
        "kernel_config_list"])
def test_malformed_config_exits_2(tmp_path, capsys, command, cfg):
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["--config", path, "--out", str(tmp_path / "o"), command]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, cfg", [
    ("kernel", {"log_grid": {"n": 2.9}}),
    ("symbol", {"symbol": {"kind": "riesz2", "j": 1, "d": 2}, "grid": {"n": "8"}}),
    ("verify", {"scenarios": ["walk_phi1"], "n_paths": 10.5}),
    ("normratio", {"symbol": {"kind": "riesz2", "j": 1, "d": 2},
                   "corpus": {"d": 2, "n": 16, "count": True}}),
], ids=["log_grid_n", "grid_n_text", "n_paths_float", "count_bool"])
def test_config_integer_field_is_not_truncated(tmp_path, capsys, command, cfg):
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["--config", path, "--out", str(tmp_path / "o"), command]) == 2
    assert "is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_apply_short_grid_file_exits_2(tmp_path, capsys):
    p = tmp_path / "short.lmgf"
    p.write_bytes(b"LMGF\x01\x00")
    cfg = write_json(tmp_path / "c.json", {
        "input": str(p), "symbol": {"kind": "riesz2", "j": 1, "d": 2}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "apply"]) == 2
    assert "truncated header" in capsys.readouterr().err


RIESZ2 = {"kind": "riesz2", "j": 1, "d": 2}


@pytest.mark.parametrize("command, cfg", [
    ("normratio", {"symbol": RIESZ2, "corpus": {"d": 2, "n": 16, "count": 2,
                                                "mean_zero": "false"}}),
    ("normratio", {"symbol": RIESZ2, "corpus": {"d": 2, "n": 16, "count": 4,
                                                "period": "nan"}}),
    ("symbol", {"symbol": {"kind": "power", "alpha": True, "j": 1, "d": 2},
                "grid": {"n": 8}}),
    ("symbol", {"symbol": RIESZ2, "grid": {"n": 8, "xi_max": True}}),
    ("symbol", {"symbol": {"kind": "general", "measure": WALK,
                           "modulator": {"kind": "constant", "value": "nan"}},
                "grid": {"d": 1, "n": 8}}),
    ("symbol", {"symbol": {"kind": "riesz_combo",
                           "coefficients": ["nan", 0.5]},
                "grid": {"n": 8}}),
    ("kernel", {"points": {"x": [1.0], "y": [2.0]}, "eps": 1e-3, "T": True}),
], ids=["mean_zero_text", "period_nan", "alpha_bool", "xi_max_bool",
        "modulator_nan", "combo_coefficient_nan", "kernel_T_bool"])
def test_config_real_and_boolean_fields_are_checked(tmp_path, command, cfg):
    path = write_json(tmp_path / "c.json", cfg)
    assert main(["--config", path, "--out", str(tmp_path / "o"), command]) == 2
    # a rejected config writes nothing
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_apply_input_must_be_a_path(tmp_path, capsys):
    # an integer is no file name: open() would read that file descriptor
    cfg = write_json(tmp_path / "c.json", {"input": 0, "symbol": RIESZ2})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "apply"]) == 2
    assert "grid path must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("j", [0, 3])
@pytest.mark.parametrize("spec", [
    {"kind": "power", "alpha": 1.0, "j": "J", "d": 2},
    {"kind": "riesz2", "j": "J", "d": 2},
    {"kind": "riesz_pair", "j": "J", "k": 1, "d": 2},
    {"kind": "riesz_pair", "j": 1, "k": "J", "d": 2},
    {"kind": "first_order_riesz", "j": "J", "d": 2},
], ids=["power", "riesz2", "riesz_pair_j", "riesz_pair_k", "first_order_riesz"])
def test_axis_index_out_of_range(tmp_path, capsys, spec, j):
    # axes are 1-based, 1 <= j <= d, for every kind that names one
    spec = {key: j if value == "J" else value for key, value in spec.items()}
    with pytest.raises(lm.InvalidInputError, match="axis index out of range"):
        lm.symbol_from_dict(spec)
    cfg = write_json(tmp_path / "c.json", {"symbol": spec, "grid": {"n": 8}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "symbol"]) == 2
    assert "axis index out of range" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(lm.__file__))
    code = ("import sys, levymult.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_usage_error_on_bad_command():
    assert main(["--config", "x.json", "definitely-not-a-command"]) == 2
