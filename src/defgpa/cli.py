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
input-format errors.  Outputs are byte-deterministic: fixed key order and
shortest round-trip float formatting.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import gpa, metrics
from .errors import DefgpaError, DimensionError, FormatError
from .shapes import load_shapes, shape_document
from .warps import AffineWarp, TpsWarp, place_control_points, tps_build

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """Everything a solve needs beyond the data itself."""

    input: str
    model: str = "affine"            # {affine, tps}
    ctrl: int = 3                    # control points per principal axis
    theta: float = 1.0               # smoothing scalar; mu_i = nnz(Gamma_i) * theta
    nu: float | None = None          # None = "auto" (n/m)
    lambda_internal: float | None = None  # TPS internal conditioning; None = auto
    flat_axes: int = 0
    reflection_ref: int | str = 0    # shape index or shape id
    allow_reflection: bool = False
    output: str | None = None
    format: str = "json"             # metrics report format: {json, csv}
    input_format: str | None = None  # inferred from extension when None

    def validate(self):
        if self.model not in ("affine", "tps"):
            raise FormatError(f"unknown model {self.model!r}")
        for name in ("theta", "nu", "lambda_internal"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise FormatError(f"{name} must be a finite number, got {value}")
        if self.model == "tps":
            if self.theta <= 0:
                raise FormatError("theta must be positive for the TPS model")
            if self.ctrl < 2:
                raise FormatError("ctrl must be at least 2 for the TPS model")
        if self.format not in ("json", "csv"):
            raise FormatError(f"unknown report format {self.format!r}")


def build_models(shape_set, config):
    """Per-shape warp models for a RunConfig.

    TPS control grids are placed per shape along its principal axes; the
    smoothing weight is mu_i = nnz(Gamma_i) * theta.
    """
    if config.model == "affine":
        return [AffineWarp(shape_set.d) for _ in shape_set]
    models = [tps_build(place_control_points(shape, config.ctrl, config.flat_axes),
                        config.lambda_internal) for shape in shape_set]
    return _with_theta(models, shape_set, config.theta)


def _with_theta(models, shape_set, theta):
    """The models with mu_i = nnz(Gamma_i) * theta; affine warps carry no smoothing."""
    return [model.with_smoothing(shape.num_visible * theta) if isinstance(model, TpsWarp) else model
            for model, shape in zip(models, shape_set)]


def _load_input(config):
    fmt = config.input_format
    if fmt is None:
        fmt = "csv" if config.input.endswith((".csv", ".txt", ".manifest")) else "json"
    return load_shapes(config.input, format=fmt)


def _write_json(path, doc):
    text = json.dumps(doc, indent=2, allow_nan=False)
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
    if isinstance(ref, int):
        index = ref
    else:
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


def _check_group(shape_set, group):
    """A CVE fold size must keep at least d+1 points; checked before any solve."""
    if not 1 <= group < shape_set.m - shape_set.d:
        raise FormatError(f"group size must lie in [1, m-d), got {group} "
                          f"with m={shape_set.m}, d={shape_set.d}")


def _solve_once(shape_set, config, models=None, prior=None):
    models = models or build_models(shape_set, config)
    solution = gpa.solve(
        shape_set, models,
        prior=prior,
        nu=config.nu,
        reflection_ref=_resolve_reflection_ref(shape_set, config.reflection_ref),
        allow_reflection=config.allow_reflection,
    )
    return models, solution


def _cve(shape_set, models, solution, config, group):
    """CVE of one solved model set: (cve, predicted shapes); raises what stopped it."""
    outcome, = metrics.cross_validation_errors(
        shape_set, [(models, solution)], config=metrics.CveConfig(group),
        reflection_ref=_resolve_reflection_ref(shape_set, config.reflection_ref),
        allow_reflection=config.allow_reflection)
    if isinstance(outcome, DefgpaError):
        raise outcome
    return outcome


def cmd_solve(config, cve_group=None):
    shape_set = _load_input(config)
    if cve_group is not None:
        _check_group(shape_set, cve_group)
    start = time.perf_counter()
    models, solution = _solve_once(shape_set, config)
    r_ref = metrics.rmse_r(solution, shape_set, models)
    r_dat = metrics.rmse_d(solution, shape_set, models)
    cve = None
    if cve_group is not None:
        cve, _ = _cve(shape_set, models, solution, config, cve_group)
    elapsed = time.perf_counter() - start

    out = _default_output(config, "solution.json")
    doc = solution.to_json_dict()
    # wall time lives only in the metrics report so the solution JSON stays
    # byte-identical across runs
    doc["metrics"] = {"rmse_r": r_ref, "rmse_d": r_dat, "cve": cve}
    _write_json(out, doc)
    row = {"method": _method_name(config), "rmse_r": r_ref, "rmse_d": r_dat,
           "cve": cve, "wall_time_seconds": elapsed}
    _write_metrics(os.path.splitext(out)[0] + ".metrics." + config.format,
                   config.format, [row])
    print(json.dumps({"output": out, "rmse_r": r_ref, "rmse_d": r_dat, "cve": cve}))
    return EXIT_OK


def _method_name(config):
    if config.model == "affine":
        return "AFF_r"
    return f"TPS_r({config.ctrl})"


def cmd_sweep(config, thetas=None, cve_group=1):
    if thetas is None:
        thetas = np.logspace(-5, 5, 11).tolist()
    if len(thetas) < 2:
        raise FormatError("sweep needs at least two theta values")
    configs = [replace(config, theta=theta) for theta in thetas]
    for cfg in configs:  # a bad grid value fails the sweep before any solve
        cfg.validate()
    shape_set = _load_input(config)
    _check_group(shape_set, cve_group)
    reflection_ref = _resolve_reflection_ref(shape_set, config.reflection_ref)

    # the prior and the splines do not depend on theta; only mu_i does
    errors = {}
    rows = {}
    fits = {}
    try:
        prior = gpa.estimate_prior_for_set(shape_set, allow_reflection=config.allow_reflection)
        base_models = build_models(shape_set, config)
    except DefgpaError as exc:  # every grid point fails alike
        errors = dict.fromkeys(range(len(thetas)), exc)
    for idx, cfg in enumerate(configs):
        if idx in errors:
            continue
        try:
            models, solution = _solve_once(shape_set, cfg, _with_theta(base_models, shape_set, cfg.theta),
                                           prior)
            rows[idx] = {"theta": cfg.theta,
                         "rmse_r": metrics.rmse_r(solution, shape_set, models),
                         "rmse_d": metrics.rmse_d(solution, shape_set, models)}
            fits[idx] = (models, solution)
        except DefgpaError as exc:  # record the failed grid point, keep sweeping
            errors[idx] = exc

    if fits:
        outcomes = metrics.cross_validation_errors(
            shape_set, list(fits.values()), config=metrics.CveConfig(cve_group),
            reflection_ref=reflection_ref, allow_reflection=config.allow_reflection)
        for idx, outcome in zip(fits, outcomes):
            if isinstance(outcome, DefgpaError):
                errors[idx] = outcome
            else:
                rows[idx]["cve"] = outcome[0]

    results = []
    for idx, theta in enumerate(thetas):
        if idx in errors:
            exc = errors[idx]
            sys.stderr.write(json.dumps({"theta": theta, "error": type(exc).__name__,
                                         "message": str(exc)}) + "\n")
            nan = float("nan")
            rows[idx] = {"theta": theta, "rmse_r": nan, "rmse_d": nan, "cve": nan}
        results.append(rows[idx])

    out = _default_output(config, "sweep.csv")
    _write_metrics(out, "csv", results)
    print(json.dumps({"output": out, "rows": len(results)}))
    return EXIT_OK


def cmd_cve(config, group):
    shape_set = _load_input(config)
    _check_group(shape_set, group)
    models, solution = _solve_once(shape_set, config)
    cve, predicted = _cve(shape_set, models, solution, config, group)
    out = _default_output(config, "cve.json")
    doc = {"cve": cve, "group_size": group,
           "predicted": shape_document(predicted, [s.label for s in shape_set])}
    _write_json(out, doc)
    print(json.dumps({"output": out, "cve": cve}))
    return EXIT_OK


def cmd_prior(config):
    shape_set = _load_input(config)
    prior = gpa.estimate_prior_for_set(shape_set, allow_reflection=config.allow_reflection)
    print(json.dumps({"lambdas": prior.lambdas.tolist()}))
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--input", required=True, help="shape document (JSON) or CSV manifest")
    parser.add_argument("--input-format", choices=["json", "csv"], default=None)
    parser.add_argument("--model", choices=["affine", "tps"], default="affine")
    parser.add_argument("--ctrl", type=int, default=3, help="control points per principal axis")
    parser.add_argument("--theta", type=float, default=1.0,
                        help="smoothing scalar; mu_i = nnz(Gamma_i) * theta")
    parser.add_argument("--nu", default="auto", help="translation penalty weight or 'auto' (n/m)")
    parser.add_argument("--lambda-internal", dest="lambda_internal", default="auto",
                        help="TPS internal conditioning or 'auto'")
    parser.add_argument("--flat-axes", type=int, default=0,
                        help="trailing principal axes that get 2 control layers")
    parser.add_argument("--reflection-ref", default="0",
                        help="index or id of the datum shape anchoring the orientation")
    parser.add_argument("--allow-reflection", action="store_true",
                        help="permit O(d) pairwise completion transforms")
    parser.add_argument("--output", default=None)
    parser.add_argument("--format", choices=["json", "csv"], default="json",
                        help="metrics report format")


def _parse_scalar(value, name):
    if value is None or value == "auto":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise FormatError(f"{name} must be a number or 'auto', got {value!r}") from exc


def _config_from_args(args):
    cfg = RunConfig(
        input=args.input,
        model=args.model,
        ctrl=args.ctrl,
        theta=args.theta,
        nu=_parse_scalar(args.nu, "--nu"),
        lambda_internal=_parse_scalar(args.lambda_internal, "--lambda-internal"),
        flat_axes=args.flat_axes,
        reflection_ref=args.reflection_ref,
        allow_reflection=args.allow_reflection,
        output=args.output,
        format=args.format,
        input_format=args.input_format,
    )
    cfg.validate()
    return cfg


def _parse_thetas(text):
    if text is None:
        return None
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise FormatError(f"--thetas must be a comma-separated list, got {text!r}") from exc
    return vals


def build_parser():
    parser = argparse.ArgumentParser(prog="defgpa",
                                     description="Closed-form GPA with linear basis warps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one GPA instance")
    _add_common(p_solve)
    p_solve.add_argument("--cve-group", type=int, default=None,
                         help="also report leave-N-out CVE in the metrics row")

    p_sweep = sub.add_parser("sweep", help="sweep the smoothing parameter theta")
    _add_common(p_sweep)
    p_sweep.add_argument("--thetas", default=None,
                         help="comma-separated theta grid (default: 11 log-spaced in [1e-5, 1e5])")
    p_sweep.add_argument("--cve-group", type=int, default=1)

    p_cve = sub.add_parser("cve", help="leave-N-out cross-validation")
    _add_common(p_cve)
    p_cve.add_argument("--group", type=int, required=True, help="points held out per fold")

    p_prior = sub.add_parser("prior", help="estimate the reference covariance prior")
    _add_common(p_prior)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _config_from_args(args)
        if args.command == "solve":
            return cmd_solve(config, cve_group=args.cve_group)
        if args.command == "sweep":
            return cmd_sweep(config, thetas=_parse_thetas(args.thetas),
                             cve_group=args.cve_group)
        if args.command == "cve":
            return cmd_cve(config, args.group)
        if args.command == "prior":
            return cmd_prior(config)
        raise FormatError(f"unknown command {args.command!r}")
    except (FormatError, DimensionError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_USAGE
    except (DefgpaError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
