"""The smoothing-parameter sweep behind the registration/overfitting trade-off.

Registers one noisy deformable data set with TPS warps across a log grid of
the smoothing scalar theta (mu_i = nnz(Gamma_i) * theta) and tabulates
rmse_r, rmse_d, and the cross-validation error.  rmse_r always decreases as
theta shrinks; the CVE turning upward is the overfitting signal used to pick
theta.

Run:  python3 demos/smoothing_tradeoff.py
The CLI equivalent is ``defgpa sweep --input data.json --model tps``.
"""

import csv

import numpy as np

import defgpa as dg

rng = np.random.default_rng(3)
d, m, n = 2, 40, 6

base = rng.uniform(0.0, 10.0, size=(d, m))
grid = dg.place_control_points(base, 3)
generator = dg.tps_build(grid, 0.0)
shapes = []
for _ in range(n):
    W = (grid + 0.35 * rng.normal(size=grid.shape)).T
    D = dg.apply_warp(generator, W, base) + 0.05 * rng.normal(size=(d, m))
    shapes.append(dg.Shape(D, np.ones(m, bool)))
shape_set = dg.ShapeSet(tuple(shapes))

# each spline is built once; only its smoothing weight changes with theta
splines = [dg.tps_build(dg.place_control_points(s, 3)) for s in shape_set]
thetas = np.logspace(3, -3, 7)
model_sets = [[spline.with_smoothing(s.num_visible * theta) for spline, s in zip(splines, shape_set)]
              for theta in thetas]

# one pass, as `defgpa sweep` runs it: the bases are computed and every theta is factored once, the full
# solves share one stacked eigensolve, and every leave-one-out fold downdates that factorization
outcomes = dg.cross_validation_errors(shape_set, model_sets, config=dg.CveConfig(1))
rows = []
for theta, models, (solution, (cve, _)) in zip(thetas, model_sets, outcomes):
    rows.append({
        "theta": theta,
        "rmse_r": dg.rmse_r(solution, shape_set, models),
        "rmse_d": dg.rmse_d(solution, shape_set, models),
        "cve": cve,
    })

print(f"{'theta':>10} {'rmse_r':>10} {'rmse_d':>10} {'cve':>10}")
for row in rows:
    print(f"{row['theta']:>10.2g} {row['rmse_r']:>10.4f} {row['rmse_d']:>10.4f} {row['cve']:>10.4f}")

out = "smoothing_tradeoff.csv"
with open(out, "w", newline="") as fh:
    writer = csv.DictWriter(fh, fieldnames=["theta", "rmse_r", "rmse_d", "cve"])
    writer.writeheader()
    writer.writerows(rows)
print(f"\nwrote {out} (plot-ready: theta on a log axis against each metric)")
