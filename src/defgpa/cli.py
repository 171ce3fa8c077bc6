"""Command-line front end.

Subcommands:

* ``defgpa solve``  -- run the closed-form GPA, write the solution JSON and a
  metrics row.
* ``defgpa sweep``  -- evaluate a grid of smoothing values theta and write one
  CSV row per value ({theta, rmse_r, rmse_d, cve}).
* ``defgpa cve``    -- leave-N-out cross-validation; writes the CVE scalar and
  the predicted shapes.
* ``defgpa prior``  -- print the estimated reference covariance prior.

Exit codes: 0 success, 1 runtime failure inside the solver, 2 usage/config or
input-format errors.  Outputs are byte-deterministic at a fixed BLAS build and
thread count: fixed key order and shortest round-trip float formatting.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import gpa, metrics
from .errors import DefgpaError, DimensionError, FormatError, _raised
from .shapes import load_shapes, shape_document
from .warps import AffineWarp, TpsWarp, place_control_points, tps_build

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _validate(config):
    """Reject option values that no solve accepts, before any input is read.  `sweep` takes no theta:
    it checks each grid value as one."""
    theta = getattr(config, "theta", None)
    for name, value in (("theta", theta), ("lambda_internal", config.lambda_internal)):
        if value is not None and not math.isfinite(value):
            raise FormatError(f"{name} must be a finite number, got {value}")
        if name != "theta" and value is not None and value < 0:
            raise FormatError(f"{name} must be non-negative, got {value}")
    if config.model == "tps":
        if theta is not None and theta <= 0:
            raise FormatError("theta must be positive for the TPS model")
        if config.ctrl < 2:
            raise FormatError("ctrl must be at least 2 for the TPS model")
        if config.flat_axes < 0:
            raise FormatError("flat_axes must be non-negative for the TPS model")


def build_models(shape_set, config):
    """Per-shape warp models for a run configuration, the parsed command line, with no smoothing.

    TPS control grids are placed per shape along its principal axes; `_with_theta`
    sets the smoothing weight mu_i = nnz(Gamma_i) * theta.
    """
    if config.model == "affine":
        return [AffineWarp(shape_set.d) for _ in shape_set]
    return [tps_build(place_control_points(shape, config.ctrl, config.flat_axes),
                      config.lambda_internal) for shape in shape_set]


def _with_theta(models, shape_set, theta):
    """The models with mu_i = nnz(Gamma_i) * theta; affine warps carry no smoothing."""
    return [model.with_smoothing(shape.num_visible * theta) if isinstance(model, TpsWarp) else model
            for model, shape in zip(models, shape_set)]


def _load_input(config, group=None):
    """The input shape set, checked against the config before any solve: a CVE fold size must keep at
    least d+1 points, and a TPS must leave some of the d principal axes unflattened.  `prior` has no
    model options to check."""
    fmt = config.input_format
    if fmt is None:
        fmt = "csv" if config.input.endswith((".csv", ".txt", ".manifest")) else "json"
    shape_set = load_shapes(config.input, format=fmt)
    if "model" not in config:
        return shape_set
    d, m = shape_set.d, shape_set.m
    if group is not None and not 1 <= group < m - d:
        raise FormatError(f"group size must lie in [1, m-d), got {group} with m={m}, d={d}")
    if config.model == "tps" and config.flat_axes >= d:
        raise FormatError(f"flat_axes must lie in [0, d), got {config.flat_axes} with d={d}")
    return shape_set


def _write_json(path, doc):
    text = json.dumps(doc, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _fmt(v):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "nan"
    return repr(float(v))


def _write_metrics(path, fmt, rows):
    """Metrics report: one row per method/configuration, JSON or CSV."""
    if fmt == "json":
        _write_json(path, rows)
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(
            str(row[c]) if isinstance(row[c], str) else _fmt(row[c]) for c in cols))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _default_output(config, suffix):
    if config.output:
        return config.output
    stem = os.path.splitext(config.input)[0]
    return f"{stem}.{suffix}"


def _resolve_reflection_ref(shape_set, ref):
    """Accept a shape index or a shape id string."""
    try:
        index = int(ref)
    except ValueError:
        labels = [s.label for s in shape_set]
        if ref not in labels:
            raise FormatError(f"no shape with id {ref!r}") from None
        index = labels.index(ref)
    if not 0 <= index < shape_set.n:
        raise FormatError(f"reflection reference {ref!r} out of range for n={shape_set.n}")
    return index


def _solve_grid(shape_set, config, thetas, group, check_conditions=False):
    """The solves of a shape set at each theta of a grid, and their CVE when `group` is set.

    The datum shape, the splines and then the prior are resolved once: only mu_i
    depends on theta.  Returns one entry per theta: (models, solution, CVE
    outcome or None), a CVE outcome being (cve, predicted shapes) or the
    DefgpaError that stopped it; or the DefgpaError that stopped the solve.
    """
    reflection_ref = _resolve_reflection_ref(shape_set, config.reflection_ref)
    try:
        splines = build_models(shape_set, config)
        prior = gpa.estimate_prior_for_set(shape_set, allow_reflection=config.allow_reflection)
    except DefgpaError as exc:  # every grid point fails alike
        return [exc] * len(thetas)
    model_sets = [_with_theta(splines, shape_set, theta) for theta in thetas]
    results = metrics._grid(shape_set, model_sets, prior, None if group is None else metrics.CveConfig(group),
                            reflection_ref, config.allow_reflection, check_conditions)
    return [result if isinstance(result, DefgpaError) else (models, *result)
            for models, result in zip(model_sets, results)]


def _rows(shape_set, results):
    """The solution and metrics row {rmse_r, rmse_d, cve} of each `_solve_grid` entry, or the DefgpaError
    that stopped it.  rmse_r = sqrt(data_cost / sum_i nnz(Gamma_i)) is read from the solve, and the
    rmse_d of every solved entry come from one `metrics._rmse_ds` call."""
    solved = [result for result in results if not isinstance(result, DefgpaError)]
    rmse_ds = iter(metrics._rmse_ds(shape_set, [models for models, _, _ in solved],
                                    [solution for _, solution, _ in solved]))
    visible = sum(s.num_visible for s in shape_set)
    rows = []
    for result in results:
        try:
            _, solution, outcome = _raised(result)
            rows.append((solution, {"rmse_r": math.sqrt(solution.data_cost / visible),
                                    "rmse_d": _raised(next(rmse_ds)),
                                    "cve": None if outcome is None else _raised(outcome)[0]}))
        except DefgpaError as exc:
            rows.append(exc)
    return rows


def cmd_solve(config):
    shape_set = _load_input(config, config.cve_group)
    start = time.perf_counter()
    (result,) = _rows(shape_set, _solve_grid(shape_set, config, [config.theta], config.cve_group,
                                             check_conditions=True))
    solution, row = _raised(result)
    elapsed = time.perf_counter() - start

    out = _default_output(config, "solution.json")
    # wall time lives only in the metrics report, so the solution JSON stays byte-identical across runs
    _write_json(out, {**solution.to_json_dict(), "metrics": row})
    _write_metrics(os.path.splitext(out)[0] + ".metrics." + config.format,
                   config.format, [{"method": _method_name(config), **row, "wall_time_seconds": elapsed}])
    print(json.dumps({"output": out, **row}))
    return EXIT_OK


def _method_name(config):
    if config.model == "affine":
        return "AFF_r"
    return f"TPS_r({config.ctrl})"


def cmd_sweep(config):
    thetas = _parse_thetas(config.thetas)
    if len(thetas) < 2:
        raise FormatError("sweep needs at least two theta values")
    for theta in thetas:  # a bad grid value fails the sweep before any solve
        _validate(argparse.Namespace(**vars(config), theta=theta))
    shape_set = _load_input(config, config.cve_group)
    rows = []
    results = _rows(shape_set, _solve_grid(shape_set, config, thetas, config.cve_group))
    for theta, result in zip(thetas, results):
        try:
            rows.append({"theta": theta, **_raised(result)[1]})
        except DefgpaError as exc:  # a failed grid point is a nan row; the sweep goes on
            sys.stderr.write(json.dumps({"theta": theta, "error": type(exc).__name__,
                                         "message": str(exc)}) + "\n")
            rows.append({"theta": theta, **dict.fromkeys(("rmse_r", "rmse_d", "cve"), float("nan"))})

    out = _default_output(config, "sweep.csv")
    _write_metrics(out, "csv", rows)
    print(json.dumps({"output": out, "rows": len(rows)}))
    return EXIT_OK


def cmd_cve(config):
    shape_set = _load_input(config, config.group)
    (result,) = _solve_grid(shape_set, config, [config.theta], config.group)
    cve, predicted = _raised(_raised(result)[2])
    out = _default_output(config, "cve.json")
    doc = {"cve": cve, "group_size": config.group,
           "predicted": shape_document(predicted, [s.label for s in shape_set])}
    _write_json(out, doc)
    print(json.dumps({"output": out, "cve": cve}))
    return EXIT_OK


def cmd_prior(config):
    shape_set = _load_input(config)
    prior = gpa.estimate_prior_for_set(shape_set, allow_reflection=config.allow_reflection)
    print(json.dumps({"lambdas": prior.lambdas.tolist()}))
    return EXIT_OK


def _add_common(parser, run, solves=True, theta=True):
    """The options of a command; `run` is the command that takes the parsed arguments.  Only the
    commands that solve take the model, datum-shape and output options, and all but `sweep`,
    which takes a grid, a theta."""
    parser.set_defaults(run=run)
    parser.add_argument("--input", required=True, help="shape document (JSON) or CSV manifest")
    parser.add_argument("--input-format", choices=["json", "csv"], default=None)
    parser.add_argument("--allow-reflection", action="store_true",
                        help="permit O(d) pairwise completion transforms")
    if not solves:
        return parser
    parser.add_argument("--model", choices=["affine", "tps"], default="affine")
    parser.add_argument("--ctrl", type=int, default=3, help="control points per principal axis")
    if theta:
        parser.add_argument("--theta", type=float, default=1.0,
                            help="smoothing scalar; mu_i = nnz(Gamma_i) * theta")
    parser.add_argument("--lambda-internal", dest="lambda_internal", default="auto",
                        help="TPS internal conditioning or 'auto'")
    parser.add_argument("--flat-axes", type=int, default=0,
                        help="trailing principal axes that get 2 control layers")
    parser.add_argument("--reflection-ref", default="0",
                        help="index or id of the datum shape anchoring the orientation")
    parser.add_argument("--output", default=None)
    return parser


def _parse_scalar(value, name):
    if value is None or value == "auto":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise FormatError(f"{name} must be a number or 'auto', got {value!r}") from exc


def _config_from_args(args):
    """The parsed arguments as the run configuration: an 'auto' scalar becomes None, then checked.
    `prior` has no model options to check."""
    if "model" in args:
        args.lambda_internal = _parse_scalar(args.lambda_internal, "--lambda-internal")
        _validate(args)
    return args


def _parse_thetas(text):
    if text is None:
        return np.logspace(-5, 5, 11).tolist()
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise FormatError(f"--thetas must be a comma-separated list, got {text!r}") from exc
    return vals


def build_parser():
    # no abbreviated flags: `--theta` must not be read as `--thetas`, nor a prefix as a future option
    parser = argparse.ArgumentParser(prog="defgpa", allow_abbrev=False,
                                     description="Closed-form GPA with linear basis warps")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, description):
        return sub.add_parser(name, help=description, allow_abbrev=False)

    p_solve = _add_common(command("solve", "solve one GPA instance"), cmd_solve)
    p_solve.add_argument("--cve-group", type=int, default=None,
                         help="also report leave-N-out CVE in the metrics row")
    p_solve.add_argument("--format", choices=["json", "csv"], default="json",
                         help="metrics report format")

    p_sweep = _add_common(command("sweep", "sweep the smoothing parameter theta"), cmd_sweep, theta=False)
    p_sweep.add_argument("--thetas", default=None,
                         help="comma-separated theta grid (default: 11 log-spaced in [1e-5, 1e5])")
    p_sweep.add_argument("--cve-group", type=int, default=1)

    p_cve = _add_common(command("cve", "leave-N-out cross-validation"), cmd_cve)
    p_cve.add_argument("--group", type=int, required=True, help="points held out per fold")

    _add_common(command("prior", "estimate the reference covariance prior"), cmd_prior, solves=False)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(_config_from_args(args))
    except (FormatError, DimensionError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_USAGE
    except (DefgpaError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
