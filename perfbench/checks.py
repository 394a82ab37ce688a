"""Output checks for the benchmark's operations.

Each check returns a list of failure messages; an empty list means the
output is correct.  The checks re-derive what they can from the numbers in
the output instead of trusting its verdict fields.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from statistics import NormalDist

import numpy as np

# The battery flags each Monte Carlo row at 3 sigma, so with ~80 rows one
# correct run in eight carries a flagged row.  A run counts as failed when a
# row's z-score passes the Bonferroni threshold for this family-wise rate.
FAMILY_ALPHA = 1e-4
RATIO_SLACK = 5e-3  # normratio: a ratio above (p*-1)(1+slack) is a violation
PV_TOL = 5e-2  # acceptance criterion 3: p.v. against spectral at 512^2
CLOSED_RTOL = 1e-12  # l1 mass closed form, computed in the same arithmetic
QUAD_RTOL = 1e-9  # Levy "ones" rhs, which the library integrates numerically


def _mag(value) -> float:
    """|value| for a real or a complex serialised as [re, im]."""
    if isinstance(value, list):
        return math.hypot(value[0], value[1])
    return abs(value)


def _diff(a, b) -> float:
    if isinstance(a, list) or isinstance(b, list):
        a = a if isinstance(a, list) else [a, 0.0]
        b = b if isinstance(b, list) else [b, 0.0]
        return math.hypot(a[0] - b[0], a[1] - b[1])
    return abs(a - b)


def _z(diff: float, se: float) -> float:
    if se > 0:
        return diff / se
    return 0.0 if diff == 0 else math.inf


def _rows(report_entry):
    """(section, row, library rule verdict, z-score or None if exact)."""
    for row in report_entry["drift"]:
        small = _mag(row["drift"]) < 1e-12
        se = row["stderr"]
        z = 0.0 if small or se <= 0 else _mag(row["drift"]) / se
        yield "drift", row, z <= 3.0, z
    for row in report_entry["tower"]:
        diff = _diff(row["mean"], row["target"])
        z = 0.0 if diff < 1e-12 else _z(diff, row["stderr"])
        yield "tower", row, z <= 3.0, z
    for row in report_entry["moment_bound"]:
        se = math.hypot(row["lhs_se"], row["rhs_se"])
        yield ("moment_bound", row, row["lhs"] <= row["rhs"] + 3.0 * se,
               _z(row["lhs"] - row["rhs"], se) if se > 0 else
               (-math.inf if row["lhs"] <= row["rhs"] else math.inf))
    sub = report_entry["subordination"]
    yield ("subordination", sub,
           sub["violations"] == 0 and sub["qv_failures"] == 0, None)
    for row in report_entry["levy_system"]:
        diff = abs(row["lhs"] - row["rhs"])
        z = 0.0 if diff <= 1e-12 else _z(diff, row["stderr"])
        yield "levy_system", row, z <= 3.0, z
    l1 = report_entry["l1_mass"]
    z = _z(abs(l1["mc"] - l1["closed_form"]), l1["stderr"])
    yield "l1_mass", l1, z <= 3.0, z
    proj = report_entry["projection"]
    yield ("projection", proj, proj["l2_error"] <= 5.0 * proj["stderr_norm"],
           None)


def verify_report(report: dict, exit_code, expected: dict):
    """Check a ``verify.json`` report against the benchmark's expectations.

    ``expected`` maps each scenario name to its closed forms,
    ``{"l1_mass": ..., "levy_ones": ...}``.  Returns (failures, rows the
    battery flagged at 3 sigma).
    """
    failures = []
    got = sorted(report.get("scenarios", {}))
    if got != sorted(expected):
        return [f"verify: scenarios {got} != {sorted(expected)}"], 0
    rows = [(name, *row) for name in got
            for row in _rows(report["scenarios"][name])]
    n_stat = sum(1 for r in rows if r[4] is not None)
    z_star = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * max(n_stat, 1)))
    flagged = 0
    for name, section, row, rule, z in rows:
        if row["pass"] is not rule:
            failures.append(f"verify {name}/{section}: pass flag "
                            f"{row['pass']} contradicts its numbers")
        flagged += not row["pass"]
        if z is None and not rule:
            failures.append(f"verify {name}/{section}: exact check failed")
        if z is not None and z > z_star:
            failures.append(f"verify {name}/{section}: z = {z:.2f} exceeds "
                            f"the family-wise threshold {z_star:.2f}")
    for name in got:
        entry, want = report["scenarios"][name], expected[name]
        closed = entry["l1_mass"]["closed_form"]
        if abs(closed - want["l1_mass"]) > CLOSED_RTOL * abs(want["l1_mass"]):
            failures.append(f"verify {name}: l1 closed form {closed!r} != "
                            f"{want['l1_mass']!r}")
        ones = [r["rhs"] for r in entry["levy_system"]
                if r["functional"] == "ones"]
        if len(ones) != 1 or abs(ones[0] - want["levy_ones"]) > \
                QUAD_RTOL * want["levy_ones"]:
            failures.append(f"verify {name}: Levy 'ones' rhs {ones} != "
                            f"{want['levy_ones']!r}")
    want_code = 1 if flagged else 0
    if exit_code != want_code:
        failures.append(f"verify: exit code {exit_code}, expected {want_code}")
    return failures, flagged


def p_star_minus_1(p: float) -> float:
    return max(p - 1.0, 1.0 / (p - 1.0))


def normratio_csv(text: str, exit_code, symbol_ids, p_list):
    """Every (symbol, p) row present, in order, and within its bound."""
    failures = []
    if exit_code != 0:
        failures.append(f"normratio: exit code {exit_code}")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["symbol_id", "p", "p_star_minus_1", "max_ratio",
                  "argmax_corpus_id"]:
        return failures + [f"normratio: bad header {header}"]
    rows = list(reader)
    want = [(sid, p) for sid in symbol_ids for p in p_list]
    if [(r[0], float(r[1])) for r in rows] != want:
        return failures + ["normratio: rows do not match symbols x p_list"]
    for sid, p, bound, ratio, _ in rows:
        p, bound, ratio = float(p), float(bound), float(ratio)
        if abs(bound - p_star_minus_1(p)) > 1e-12 * p_star_minus_1(p):
            failures.append(f"normratio {sid} p={p}: bound {bound!r} is not "
                            f"p*-1")
        if not 0.0 < ratio <= p_star_minus_1(p) * (1.0 + RATIO_SLACK):
            failures.append(f"normratio {sid} p={p}: ratio {ratio!r} outside "
                            f"(0, (p*-1)(1+{RATIO_SLACK})]")
    return failures


def pv_error(pv: np.ndarray, spectral: np.ndarray):
    """(failures, relative error) of the p.v. result against spectral."""
    if pv.shape != spectral.shape:
        return [f"pv: shape {pv.shape} != {spectral.shape}"], math.inf
    err = float(np.linalg.norm(pv - spectral) / np.linalg.norm(spectral))
    if not err <= PV_TOL:
        return [f"pv: relative error {err:.4g} > {PV_TOL}"], err
    return [], err


def contraction(f: np.ndarray, g: np.ndarray):
    """A symbol with |M| <= 1 cannot raise the L2 norm of a grid."""
    if f.shape != g.shape or not np.all(np.isfinite(g)):
        return ["apply: output shape or values are wrong"]
    if np.linalg.norm(g) > np.linalg.norm(f) * (1.0 + 1e-9):
        return ["apply: |M| <= 1 symbol raised the L2 norm"]
    return []


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def same_bytes(first: dict, now: dict):
    """Outputs of a repeated operation must be byte-identical."""
    return [f"{name}: bytes differ from the first pass"
            for name in sorted(set(first) | set(now))
            if first.get(name) != now.get(name)]
