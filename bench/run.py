"""The defgpa benchmark: the CLI as users run it, timed, traced and checked.

Usage (from the repository root):

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The benchmark runs one CLI child at a time (``python3 -m defgpa.cli`` on
``src/``, import included) with BLAS pinned to one thread and
``DEFGPA_THREADS`` unset, so the sweep uses the CLI's default thread pool.
The input is generated from the seed before any timing starts.

--trace 0 prints the end-to-end metrics: the medians over the CLI runs that
fit in --seconds of wall time, CPU time and peak RSS (each from ``os.wait4``
on that child), and the median wall time of a set-up child that only imports
``defgpa.cli`` and loads the input.  --trace 1 alternates untraced runs with
runs under bench/traced_cli.py and prints the per-layer metrics.

Every run's output is checked (bench/checks.py); on the default seed it is
also compared with bench/golden, and all runs of one invocation must write
byte-identical output files.  A run that fails any check fails all its
operations (sweep rows, CVE folds or solves).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS, write_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden"

DEFAULT_SEED = 0
SETUP_REPS = 5         # timed set-up children per run, after one warm-up
MIN_RUNS = 2           # CLI runs per run, so byte-determinism is always checked
DEADLINE_S = 170.0     # a run must end before 180 s, even if a child hangs
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = ("import sys\nimport defgpa.cli\nfrom defgpa.shapes import load_shapes\n"
              "load_shapes(sys.argv[1])\n")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# (span, fields) reported from the traced runs
SPAN_METRICS = (
    ("gpa.pairwise_similarity_procrustes", ("calls", "self_s")),
    ("gpa.complete_shape", ("self_s",)),
    ("gpa.pairwise_transform_table", ("self_s",)),
    ("gpa.estimate_prior", ("calls",)),
    ("warps.tps_build", ("calls",)),
    ("warps.TpsWarp.basis", ("calls", "self_s")),
    ("warps.fit_inverse_tps", ("self_s",)),
    ("gpa.solve", ("calls", "self_s")),
    ("spectral.eig_sym", ("calls", "self_s")),
    ("gpa.check_theorem_conditions", ("self_s",)),
    ("gpa.correct_reflection", ("self_s",)),
    ("metrics.cross_validation_error", ("self_s",)),
    ("metrics.gauge_align", ("self_s",)),
    ("metrics.rmse_r", ("self_s",)),
    ("metrics.rmse_d", ("self_s",)),
    ("shapes.load_shapes", ("self_s",)),
    ("cli.cmd_solve", ("self_s",)),
    ("cli.cmd_sweep", ("self_s",)),
    ("cli.cmd_cve", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "p50_s": "s", "p90_s": "s", "useful_ratio": "1",
         "per_solve": "count", "m3_sum": "count", "bytes_in": "B", "import_s": "s",
         "overhead_s": "s"}


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("DEFGPA_THREADS", "PYTHONPATH")}
    env.update(BLAS_PINS, PYTHONPATH=str(SRC))
    return env


def run_child(args, log_stem, deadline):
    """Run `python3 ARGS` to completion; return (exit code, wall s, rusage).

    stdout and stderr go to LOG_STEM.out/.err.  A child still running at the
    deadline is killed, waited for, and reported as ChildTimeout.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, f"{log_stem}.out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, f"{log_stem}.err", flags, 0o644)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildTimeout
    env = child_env()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    reaped = False
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BaseException:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage


def measure_setup(input_path, work, deadline):
    """Median wall time of SETUP_REPS set-up children (the first is a warm-up)."""
    walls = []
    for rep in range(SETUP_REPS + 1):
        code, wall, _ = run_child(["-c", SETUP_CODE, str(input_path)],
                                  work / "setup", deadline)
        if code != 0:
            raise SystemExit(f"set-up child failed with exit code {code}; "
                             f"see {work / 'setup.err'}")
        walls.append(wall)
    return statistics.median(walls[1:])


class Runner:
    """Timed CLI runs of one workload on one seed, each one checked."""

    def __init__(self, workload, seed, work, deadline, golden=True):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.input = work / "input.json"
        write_input(workload, seed, self.input)
        with open(self.input, encoding="utf-8") as fh:
            shapes_doc = json.load(fh)
        reference = None
        if golden and seed == DEFAULT_SEED:
            with open(GOLDEN / f"{workload.name}.json", encoding="utf-8") as fh:
                reference = json.load(fh)
        self.checker = checks.RunChecker(workload, shapes_doc, reference)
        self.output = work / workload.output_name
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, traced=False):
        """One CLI run; returns (wall s, rusage, trace summary or None)."""
        cli_args = self.workload.cli_args(str(self.input), str(self.output))
        trace_path = self.work / "trace.json"
        if traced:
            args = [str(BENCH / "traced_cli.py"), str(trace_path), *cli_args]
            trace_path.unlink(missing_ok=True)
        else:
            args = ["-m", "defgpa.cli", *cli_args]
        self.output.unlink(missing_ok=True)
        self.attempted += self.workload.operations
        try:
            code, wall, usage = run_child(args, self.work / "cli", self.deadline)
        except ChildTimeout:
            self._fail("CLI child did not finish before the deadline")
            raise
        try:
            self.checker.check(code, (self.work / "cli.err").read_text(encoding="utf-8"),
                               self.output)
        except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
        trace = None
        if traced and code == 0:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        return wall, usage, trace

    def _fail(self, message):
        self.failed += self.workload.operations
        self.problems.append(message)


def median(values):
    if not values:
        raise SystemExit("no CLI run finished before the deadline; nothing to report")
    return statistics.median(values)


def layer_metrics(trace):
    """Per-layer metrics of one traced run."""
    spans = trace["spans"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for span, fields in SPAN_METRICS:
        for field in fields:
            out[f"{span}.{field}"] = spans.get(span, zero)[field]
    solves = spans.get("gpa.solve", zero)["calls"]
    durations = trace["durations"].get("gpa.solve", [])
    out["gpa.solve.p50_s"] = float(np.percentile(durations, 50)) if durations else 0.0
    out["gpa.solve.p90_s"] = float(np.percentile(durations, 90)) if durations else 0.0
    prior_calls = spans.get("gpa.estimate_prior", zero)["calls"]
    out["gpa.estimate_prior.useful_ratio"] = (
        trace["counts"]["gpa.estimate_prior.distinct_inputs"] / prior_calls
        if prior_calls else 0.0)
    out["gpa.pairwise_similarity_procrustes.per_solve"] = (
        spans.get("gpa.pairwise_similarity_procrustes", zero)["calls"] / solves
        if solves else 0.0)
    out["spectral.eig_sym.m3_sum"] = trace["counts"].get("spectral.eig_sym.m3_sum", 0.0)
    out["spectral.eig_sym.bytes_in"] = trace["counts"].get("spectral.eig_sym.bytes_in", 0.0)
    out["cli.import_s"] = trace["import_s"]
    return out


def bench_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, human-readable summary line)."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work, deadline)
    metrics = {}
    walls, cpus, rsss, traced_walls, layers = [], [], [], [], []
    if not trace:
        metrics["setup_s"] = measure_setup(runner.input, work, deadline)
    loop_start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - loop_start
            last = max(walls[-1:] + traced_walls[-1:], default=0.0)
            runs = len(walls) + len(traced_walls)
            if runs >= MIN_RUNS and elapsed + last > seconds:
                break
            traced = bool(trace) and len(traced_walls) < len(walls)
            wall, usage, trace_doc = runner.run(traced=traced)
            if traced:
                traced_walls.append(wall)
                if trace_doc is not None:
                    layers.append(layer_metrics(trace_doc))
            else:
                walls.append(wall)
                cpus.append(usage.ru_utime + usage.ru_stime)
                rsss.append(usage.ru_maxrss / 1024.0)
    except ChildTimeout:
        pass
    if trace:
        if not layers:
            raise SystemExit("no traced CLI run succeeded; no per-layer metrics to report")
        for name in layers[0]:
            metrics[name] = median([layer[name] for layer in layers])
        metrics["trace.overhead_s"] = median(traced_walls) - median(walls)
        units = {name: UNITS[name.rsplit(".", 1)[1]] for name in metrics}
    else:
        metrics.update(wall_s=median(walls), cpu_s=median(cpus), peak_rss_mb=median(rsss))
        units = END_TO_END
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    summary = (f"{workload.name}: " + ", ".join(
        f"{name} {value['value']:.6g} {value['unit']}" for name, value in result["metrics"].items())
        + f", fail_ratio {runner.failed / max(runner.attempted, 1):.3g} 1"
        f" ({runner.failed}/{runner.attempted} operations, {len(walls)} untraced"
        f" + {len(traced_walls)} traced CLI runs, {time.monotonic() - started:.1f} s)"
        f"\n  wall_s samples: {' '.join(f'{w:.3f}' for w in walls)}")
    for problem in dict.fromkeys(runner.problems):
        summary += f"\n  FAILED: {problem}"
    return result, summary


def environment(seed):
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        llc = next((line.split(":", 1)[1].strip() for line in lscpu.splitlines()
                    if line.startswith("L3 cache")), None)
    except (OSError, subprocess.SubprocessError):
        llc = None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "llc": llc,
        "blas_threads": BLAS_PINS,
        "DEFGPA_THREADS": "unset: the sweep pool uses min(11, os.cpu_count()) threads",
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "defgpa" / "cli.py").is_file():
        sys.stderr.write(f"no defgpa sources at {SRC}; run from a checkout of the repository\n")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        print(json.dumps({"environment": env, "workload": {"name": name, **workload.record()}}))
        try:
            result, summary = bench_workload(workload, args.seed, args.seconds, args.trace)
        except ChildTimeout:
            sys.stderr.write("a set-up child did not finish before the deadline\n")
            return 1
        print(summary, flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
