"""Deformable GPA with thin-plate splines and missing landmarks.

Generates smoothly deformed copies of a base shape, hides a fifth of the
landmarks, completes the missing ones through pairwise similarity Procrustes,
and registers with per-shape TPS warps.  Ends with a leave-one-out
cross-validation to show how the smoothing weight controls overfitting.

Run:  python3 demos/tps_partial_shapes.py
"""

import numpy as np

import defgpa as dg

rng = np.random.default_rng(21)
d, m, n = 2, 30, 5

print(f"-- generating {n} smoothly deformed shapes, then hiding ~20% of landmarks")
base = rng.uniform(0.0, 2.0, size=(d, m))
grid = dg.place_control_points(base, 3)
generator = dg.tps_build(grid, 0.0)
shapes = []
for i in range(n):
    W = (grid + 0.06 * rng.normal(size=grid.shape)).T   # mild random warp
    deformed = dg.apply_warp(generator, W, base)
    R = np.array([[np.cos(a := rng.uniform(0, 2 * np.pi)), -np.sin(a)],
                  [np.sin(a), np.cos(a)]])
    deformed = R @ deformed + rng.normal(size=(d, 1))
    vis = rng.random(m) > 0.2
    vis[: d + 2] = True                                  # keep every shape usable
    shapes.append(dg.Shape(deformed, vis, label=f"obs{i}"))
shape_set = dg.ShapeSet(tuple(shapes))
print(f"   visible landmarks per shape: {[s.num_visible for s in shape_set]}")

print("-- completing missing landmarks from the other shapes")
completed = dg.complete_all(shape_set)
print(f"   completed shape 0 has no gaps: {np.all(np.isfinite(completed[0]))}")

print("-- per-shape TPS warps (3x3 control grids along each shape's principal axes)")
theta = 1.0
models = []
for s in shape_set:
    centers = dg.place_control_points(s, 3)
    models.append(dg.tps_build(centers).with_smoothing(s.num_visible * theta))

solution = dg.solve(shape_set, models)
print(f"   prior eigenvalues : {np.round(solution.prior.lambdas, 3)}")
print(f"   rmse_r            : {dg.rmse_r(solution, shape_set, models):.4f}")
print(f"   conditions all-pass: {solution.report.all_pass}")

print("-- bending energy of each recovered warp (zero means purely affine)")
for i, (model, W) in enumerate(zip(models, solution.weights)):
    print(f"   shape {i}: {dg.bending_energy(model, W):.3e}")

print("-- leave-one-out cross-validation (prediction error of held-out landmarks)")
cve, predicted = dg.cross_validation_error(
    shape_set, models, config=dg.CveConfig(1))
print(f"   CVE = {cve:.4f}   (compare with rmse_r above: a large gap flags overfitting)")
