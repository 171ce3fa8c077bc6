"""The benchmark's workloads and the seeded generator of their input files.

Each workload is one ``defgpa`` CLI command on one synthetic shape set.  The
three are chosen so that every layer a planned optimisation targets does most
of the work in one workload and little in another (see bench/README.md).
"""

import json
from dataclasses import dataclass

import numpy as np

SWEEP_THETAS = 11   # the CLI's default grid: 11 log-spaced values in [1e-5, 1e5]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # CLI subcommand: solve, sweep or cve
    d: int
    m: int
    n: int
    missing: float      # fraction of landmarks hidden per shape
    model: str
    ctrl: int | None    # TPS control points per principal axis
    theta: float | None  # smoothing scalar of a single solve
    group: int | None   # CVE group size (sweep: the CLI default of 1)
    why: str

    def cli_args(self, input_path, output_path):
        args = [self.command, "--input", input_path, "--output", output_path,
                "--model", self.model]
        if self.ctrl is not None:
            args += ["--ctrl", str(self.ctrl)]
        if self.command == "solve":
            args += ["--theta", repr(self.theta)]
        if self.command == "cve":
            args += ["--group", str(self.group)]
        return args

    @property
    def operations(self):
        """Operations in one CLI run: sweep rows, CVE folds or solves."""
        if self.command == "sweep":
            return SWEEP_THETAS
        if self.command == "cve":
            return -(-self.m // self.group)
        return 1

    @property
    def output_name(self):
        return {"solve": "out.solution.json", "sweep": "out.sweep.csv",
                "cve": "out.cve.json"}[self.command]

    def record(self):
        thetas = ("default: 11 log-spaced in [1e-5, 1e5]" if self.command == "sweep"
                  else [self.theta] if self.theta is not None else None)
        return {"command": self.command, "d": self.d, "m": self.m, "n": self.n,
                "missing": self.missing, "model": self.model, "ctrl": self.ctrl,
                "thetas": thetas, "cve_group": self.group, "why": self.why}


WORKLOADS = {w.name: w for w in (
    Workload("sweep-tps-partial", "sweep", d=2, m=40, n=8, missing=0.1, model="tps",
             ctrl=3, theta=None, group=1,
             why="sweep d2 m40 n8 partial, 11 thetas, 2-thread pool: theta-invariant "
                 "completion, prior and TPS builds redone per theta; hoisting or batched "
                 "Procrustes should cut wall_s and cpu_s here"),
    Workload("cve-affine-partial", "cve", d=2, m=150, n=12, missing=0.1, model="affine",
             ctrl=None, theta=None, group=1,
             why="cve d2 m150 n12 partial: each of 152 solves sees a new point subset at "
                 "one theta; batched Procrustes and fold downdates should cut wall_s here, "
                 "theta caching should not"),
    Workload("solve-tps-full-large", "solve", d=3, m=2000, n=10, missing=0.0, model="tps",
             ctrl=3, theta=10.0, group=None,
             why="solve d3 m2000 n10 full: completion bypassed; dense 2000^2 eigh, O(m^2) "
                 "assembly and a 2.2 MB parse; a low-rank spectral core should cut wall_s "
                 "and peak_rss_mb here only"),
)}


def make_shapes(seed, d, m, n, missing):
    """Shape document: noisy affine + quadratic-bend copies of one N(0,1) base.

    With ``missing`` > 0 each shape hides that fraction of its landmarks;
    repairs then make every landmark visible somewhere and every pair of
    shapes share at least d+2 visible landmarks, so that every pairwise
    Procrustes still has d+1 points when a CVE fold drops one.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(d, m))
    shapes = []
    for _ in range(n):
        affine = np.eye(d) + 0.2 * rng.normal(size=(d, d))
        bend = 0.05 * rng.normal(size=(d, 1)) * base[:1] ** 2
        shapes.append(affine @ base + bend + 0.01 * rng.normal(size=(d, m)))
    visible = np.ones((n, m), dtype=bool)
    hidden = int(round(missing * m))
    for i in range(n):
        visible[i, rng.choice(m, size=hidden, replace=False)] = False
    for j in np.flatnonzero(~visible.any(axis=0)):
        visible[rng.integers(n), j] = True
    for i in range(n):
        for k in range(i + 1, n):
            short = d + 2 - int(np.sum(visible[i] & visible[k]))
            if short > 0:
                fix = np.flatnonzero(visible[k] & ~visible[i])[:short]
                visible[i, fix] = True
    return {"d": d, "m": m, "n": n, "shapes": [
        {"id": f"s{i}", "points": [D[:, j].tolist() if visible[i, j] else None
                                   for j in range(m)]}
        for i, D in enumerate(shapes)]}


def write_input(workload, seed, path):
    doc = make_shapes(seed, workload.d, workload.m, workload.n, workload.missing)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
