"""Output checks of one benchmark run.

``check_output`` holds on every seed: the invariants a correct run of the
workload's command satisfies.  ``summarize`` extracts the numbers that
``compare_golden`` holds against the outputs recorded in bench/golden for
the default seed, up to the gauge: reference shapes and everything in their
frame are compared after an orthogonal alignment, so a legitimate change of
eigensolver that flips or rotates the reference is not a failure.
"""

import csv
import hashlib
import json
import math

import numpy as np

from workloads import SWEEP_THETAS

TOL = 1e-8
STDERR_FAILURES = ("Traceback", '"error"', "Warning", "skipping fold")


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _finite_array(value, shape, what):
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise CheckFailed(f"{what} holds a null or non-number") from None
    _require(arr.shape == shape, f"{what} has shape {arr.shape}, expected {shape}")
    _require(np.all(np.isfinite(arr)), f"{what} is not finite")
    return arr


def _read_sweep(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["theta", "rmse_r", "rmse_d", "cve"],
             f"unexpected sweep header {rows[:1]}")
    return [[float(v) for v in row] for row in rows[1:]]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class RunChecker:
    """Checks every run of one workload on one seed.

    Each run must exit 0 with a clean stderr and a correct output, match the
    golden summary when one is given, and write the same bytes as the first
    run checked.
    """

    def __init__(self, workload, shapes_doc, golden=None):
        self.workload = workload
        self.shapes_doc = shapes_doc
        self.golden = golden
        self.first_digest = None

    def check(self, code, stderr_text, path):
        _require(code == 0, f"CLI exited with code {code}")
        for line in stderr_text.splitlines():
            _require(not any(word in line for word in STDERR_FAILURES),
                     f"stderr reports a failure: {line[:200]}")
        check_output(self.workload, path, self.shapes_doc)
        if self.golden is not None:
            compare_golden(self.workload, summarize(self.workload, path), self.golden)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        _require(digest == self.first_digest, "output differs byte-wise from the first run's")


def check_output(workload, path, shapes_doc):
    """Raise CheckFailed unless the output at `path` is a correct result."""
    d, m, n = workload.d, workload.m, workload.n
    if workload.command == "sweep":
        rows = _read_sweep(path)
        _require(len(rows) == SWEEP_THETAS, f"sweep wrote {len(rows)} rows")
        thetas = np.logspace(-5, 5, SWEEP_THETAS)
        for row, theta in zip(rows, thetas):
            _require(len(row) == 4 and all(math.isfinite(v) for v in row),
                     f"sweep row {row} is not finite")
            _require(abs(row[0] - theta) <= 1e-12 * theta, f"unexpected theta {row[0]}")
        return
    doc = _read_json(path)
    if workload.command == "cve":
        _finite_array(doc["cve"], (), "cve")
        _require(doc["group_size"] == workload.group, "wrong group size")
        pred = doc["predicted"]
        _require((pred["d"], pred["m"], pred["n"]) == (d, m, n), "predicted dims differ")
        for i, (shape, given) in enumerate(zip(pred["shapes"], shapes_doc["shapes"])):
            for j, (p, q) in enumerate(zip(shape["points"], given["points"])):
                if q is None:
                    _require(p is None, f"shape {i} point {j} is hidden but predicted")
                else:
                    _finite_array(p, (d,), f"prediction of shape {i} point {j}")
        return
    _require((doc["d"], doc["m"], doc["n"]) == (d, m, n), "solution dims differ")
    S = _finite_array(doc["reference"], (d, m), "reference")
    prior = _finite_array(doc["prior"], (d,), "prior")
    for i, W in enumerate(doc["weights"]):
        _finite_array(W, (len(W), d), f"weights of shape {i}")
    for key in ("nu", "cost", "data_cost", "reg_cost", "penalty_cost"):
        _finite_array(doc[key], (), key)
    for key in ("rmse_r", "rmse_d"):
        _finite_array(doc["metrics"][key], (), key)
    gap = np.max(np.abs(S @ S.T - np.diag(prior)))
    _require(gap <= TOL * np.max(prior), f"S S^T differs from diag(prior) by {gap:.3g}")
    _require(doc["conditions"]["all_pass"], "theorem conditions do not hold")


def summarize(workload, path):
    """The numbers of an output that the golden comparison checks."""
    if workload.command == "sweep":
        return {"rows": _read_sweep(path)}
    doc = _read_json(path)
    if workload.command == "cve":
        return {"cve": doc["cve"],
                "predicted": [s["points"] for s in doc["predicted"]["shapes"]]}
    keep = ("reference", "weights", "prior", "nu", "mu", "cost", "data_cost",
            "reg_cost", "penalty_cost")
    out = {key: doc[key] for key in keep}
    out.update(rmse_r=doc["metrics"]["rmse_r"], rmse_d=doc["metrics"]["rmse_d"])
    return out


def _close(got, want, scale, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what} has shape {got.shape}, golden {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    _require(err <= TOL * scale, f"{what} differs from golden by {err:.3g} (scale {scale:.3g})")


def _align(got, want):
    """Orthogonal R minimizing ||R got - want||_F."""
    U, _, Vt = np.linalg.svd(want @ got.T)
    return U @ Vt


def _visible_columns(shapes):
    return np.array([p for points in shapes for p in points if p is not None]).T


def _vmax(x):
    return float(np.max(np.abs(np.asarray(x, dtype=float))))


def compare_golden(workload, got, want):
    """Raise CheckFailed unless `got` matches the golden summary up to gauge."""
    if workload.command == "sweep":
        _require(len(got["rows"]) == len(want["rows"]), "sweep row count differs")
        for g, w in zip(got["rows"], want["rows"]):
            for name, a, b in zip(("theta", "rmse_r", "rmse_d", "cve"), g, w):
                _close(a, b, abs(b), f"sweep {name} at theta {w[0]:g}")
        return
    if workload.command == "cve":
        _close(got["cve"], want["cve"], abs(want["cve"]), "cve")
        for g, w in zip(got["predicted"], want["predicted"]):
            _require([p is None for p in g] == [p is None for p in w],
                     "predicted points differ in which are hidden")
        P, G = _visible_columns(got["predicted"]), _visible_columns(want["predicted"])
        _close(_align(P, G) @ P, G, _vmax(G), "predicted shapes")
        return
    S, G = np.array(got["reference"]), np.array(want["reference"])
    R = _align(S, G)
    _close(R @ S, G, _vmax(G), "reference")
    for i, (W, Wg) in enumerate(zip(got["weights"], want["weights"])):
        _close(np.array(W) @ R.T, Wg, _vmax(Wg), f"weights of shape {i}")
    for key in ("prior", "nu", "mu", "rmse_r", "rmse_d"):
        _close(got[key], want[key], _vmax(want[key]), key)
    for key in ("cost", "data_cost", "reg_cost", "penalty_cost"):
        _close(got[key], want[key], abs(want["cost"]), key)
