"""Acceptance criteria.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in the captured output).
Criterion 10 (benchmark dataset replication) is optional and skipped unless
DEFGPA_DATASET_DIR points at datasets in the documented JSON layout.
"""

import itertools
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from defgpa import (
    ShapeSet,
    Shape,
    apply_warp,
    assemble_P,
    bending_energy,
    check_theorem_conditions,
    cross_validation_error,
    CveConfig,
    eig_sym,
    estimate_prior_for_set,
    free_translation_witness,
    load_shapes,
    place_control_points,
    rmse_d,
    rmse_r,
    solve,
    solve_affine_centered,
    tps_build,
    tps_kernel,
)
from conftest import affine_models, full_set, mask_set, random_rotation, tps_models
from test_gpa import LinearOnlyWarp, alternating_minimization, row_space_projector
from test_metrics import independent_leave_one_out


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def make_instance(rng, d, m, n, masked, model_kind):
    ss = full_set(rng, d, m, n, kind="smooth", noise=0.05)
    if masked:
        ss = mask_set(rng, ss, 0.2)
    if model_kind == "affine":
        models = affine_models(ss)
    else:
        models = tps_models(ss, k=3, theta=1.0)
    return ss, models


def test_criterion_1_constraint_suite(rng):
    with criterion(1, "constraints S S^T = Lambda and S 1 = 0 on 50 random instances"):
        start = time.perf_counter()
        combos = list(itertools.product([2, 3], [False, True], ["affine", "tps"]))
        for idx in range(50):
            d, masked, kind = combos[idx % len(combos)]
            m = int(rng.integers(10, 61))
            n = int(rng.integers(3, 9))
            ss, models = make_instance(rng, d, m, n, masked, kind)
            sol = solve(ss, models)
            lam = sol.prior.lambdas
            S = sol.reference
            assert np.linalg.norm(S @ S.T - np.diag(lam)) <= 1e-8 * lam.sum()
            assert np.linalg.norm(S @ np.ones(m)) <= 1e-6 * np.sqrt(lam.sum())
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"constraint suite took {elapsed:.1f}s"


def test_criterion_2_global_optimality(rng):
    with criterion(2, "eigenvector-subset enumeration and alternating-minimization oracle"):
        start = time.perf_counter()
        for idx in range(20):
            d = 2
            m = int(rng.integers(7, 11))
            n = int(rng.integers(3, 6))
            masked = idx % 2 == 1
            kind = "tps" if idx % 3 == 0 else "affine"
            ss, models = make_instance(rng, d, m, n, masked, kind)
            prior = estimate_prior_for_set(ss)
            sol = solve(ss, models, prior=prior)
            nu = sol.nu
            P = assemble_P(ss, models)
            M = P + nu * np.ones((m, m))
            achieved = float(np.trace(sol.reference @ M @ sol.reference.T))
            pairs = eig_sym(M)
            lam = prior.lambdas
            best = np.inf
            for subset in itertools.combinations(range(m), d):
                alphas = np.sort(pairs.values[list(subset)])
                best = min(best, float(lam @ alphas))
            assert achieved <= best + 1e-9 * max(1.0, abs(best))

            if ss.all_full:
                for _ in range(20):
                    am_cost = alternating_minimization(ss, models, prior, nu, rng)
                    assert sol.cost <= am_cost + 1e-8 * max(1.0, abs(am_cost))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"optimality suite took {elapsed:.1f}s"


def test_criterion_3_theorem_condition_equivalence(rng):
    with criterion(3, "solvability conditions pass for affine/TPS and fail together for a constant-free basis"):
        for idx in range(20):
            d = 2 if idx % 2 == 0 else 3
            m = int(rng.integers(12, 20))
            n = int(rng.integers(3, 6))
            masked = idx % 2 == 1
            ss, _ = make_instance(rng, d, m, n, masked, "affine")

            for models in (affine_models(ss), tps_models(ss, k=3, theta=2.0)):
                report = check_theorem_conditions(ss, models)
                assert report.all_pass
                for sc in report.shapes:
                    assert sc.projector_residual < 1e-6 and sc.witness_found

            contrived = check_theorem_conditions(ss, [LinearOnlyWarp(d) for _ in range(n)])
            assert not contrived.all_pass
            assert contrived.aggregate_residual > 1e-6
            for sc in contrived.shapes:
                # no mixed verdicts: both statements fail for every shape
                assert not sc.witness_found
                assert sc.projector_residual > 1e-6


def test_criterion_4_translation_elimination(rng):
    with criterion(4, "Q identity and path agreement for full-shape affine instances"):
        for _ in range(10):
            d = 2
            m = int(rng.integers(10, 18))
            n = int(rng.integers(3, 7))
            ss = full_set(rng, d, m, n, kind="affine", noise=0.1)
            Q_hom = np.zeros((m, m))
            Q_cent = np.zeros((m, m))
            for s in ss:
                Dt = np.vstack([s.points, np.ones(m)])
                Q_hom += Dt.T @ np.linalg.solve(Dt @ Dt.T, Dt)
                Dbar = s.points - s.points.mean(axis=1, keepdims=True)
                Q_cent += Dbar.T @ np.linalg.solve(Dbar @ Dbar.T, Dbar)
            assert np.max(np.abs(Q_hom - (n / m) * np.ones((m, m)) - Q_cent)) < 1e-8

            prior = estimate_prior_for_set(ss)
            sol_hom = solve(ss, affine_models(ss), prior=prior)
            sol_cent = solve_affine_centered(ss, prior=prior)
            angles = scipy.linalg.subspace_angles(sol_hom.reference.T, sol_cent.reference.T)
            assert np.max(angles, initial=0.0) < 1e-6


def _min_bottom_separation(ss, models, nu):
    M = assemble_P(ss, models) + nu * np.ones((ss.m, ss.m))
    vals = eig_sym(M).values
    return float(np.min(np.diff(vals[: ss.d + 1])))


def test_criterion_5_coordinate_invariance(rng):
    with criterion(5, "independent rigid motions of the data change S* by row signs only"):
        accepted = 0
        attempts = 0
        while accepted < 10 and attempts < 60:
            attempts += 1
            d = 2 if attempts % 2 == 0 else 3
            m = int(rng.integers(12, 20))
            n = int(rng.integers(3, 6))
            use_tps = attempts % 3 == 0
            ss = full_set(rng, d, m, n, kind="smooth", noise=0.05)
            models = tps_models(ss, k=3, theta=2.0) if use_tps else affine_models(ss)
            nu = n / m
            if _min_bottom_separation(ss, models, nu) <= 1e-6:
                continue
            prior = estimate_prior_for_set(ss)
            sol1 = solve(ss, models, prior=prior)
            rigids = [(random_rotation(rng, d), rng.normal(size=(d, 1))) for _ in range(n)]
            moved = ShapeSet(tuple(
                Shape(R @ s.points + t, s.visibility)
                for s, (R, t) in zip(ss, rigids)))
            if use_tps:
                moved_models = [
                    tps_build(R @ mod.centers + t, mod.internal_smoothing)
                    .with_smoothing(mod.smoothing)
                    for mod, (R, t) in zip(models, rigids)]
            else:
                moved_models = models
            sol2 = solve(moved, moved_models, prior=prior)
            dist = np.linalg.norm(row_space_projector(sol1.reference)
                                  - row_space_projector(sol2.reference))
            assert dist < 1e-8
            for r1, r2 in zip(sol1.reference, sol2.reference):
                assert min(np.linalg.norm(r1 - r2), np.linalg.norm(r1 + r2)) < 1e-8 * max(
                    1.0, np.linalg.norm(r1))
            accepted += 1
        assert accepted == 10, f"only {accepted} instances had eigengap > 1e-6"


def _axis_grid(d, k):
    t = np.linspace(0.0, 1.0, k)
    mesh = np.meshgrid(*([t] * d), indexing="ij")
    return np.vstack([a.ravel() for a in mesh])


def test_criterion_6_tps_structural_suite(rng):
    with criterion(6, "TPS identities, rank, bending, interpolation, witness on 2D/3D grids"):
        for d, k in itertools.product([2, 3], [3, 5]):
            centers = _axis_grid(d, k)
            l = centers.shape[1]
            C = np.vstack([centers, np.ones(l)])
            for lam in (0.0, 1e-6):
                model = tps_build(centers, lam)
                K = tps_kernel(
                    np.linalg.norm(centers.T[:, None, :] - centers.T[None, :, :], axis=2), d)
                np.fill_diagonal(K, lam)
                E_bar = model.bending
                assert np.max(np.abs(E_bar @ K @ E_bar - E_bar)) < 1e-8
                assert np.max(np.abs(E_bar @ C.T)) < 1e-8
                vals = eig_sym(E_bar).values
                assert int(np.sum(vals > 1e-6 * vals.max())) == l - (d + 1)

                A = rng.normal(size=(d, d))
                t = rng.normal(size=(d, 1))
                W_affine = (A @ centers + t).T
                assert bending_energy(model, W_affine) < 1e-8

                D = rng.uniform(0, 1, size=(d, 3 * l))
                witness = free_translation_witness(model.with_smoothing(1.0), D)
                assert witness is not None
                B = model.basis(D)
                assert np.max(np.abs(B.T @ witness - 1.0)) < 1e-6
                assert np.max(np.abs(model.sqrt_bending @ witness)) < 1e-6

            model0 = tps_build(centers, 0.0)
            images = centers + 0.05 * rng.normal(size=centers.shape)
            assert np.max(np.abs(apply_warp(model0, images.T, centers) - images)) < 1e-8


def test_criterion_7_zero_noise_recovery(rng):
    with criterion(7, "exact recovery of affine-generated data and near recovery of TPS-generated data"):
        # affine-generated
        for d in (2, 3):
            ss = full_set(rng, d, 20, 5, kind="affine")
            models = affine_models(ss)
            sol = solve(ss, models)
            assert rmse_r(sol, ss, models) < 1e-7

        # TPS-generated with a matching control grid and theta -> 0+
        base = rng.uniform(0.0, 1.0, size=(2, 30))
        grid = place_control_points(base, 3)
        forward = tps_build(grid, 0.0)
        shapes = []
        for _ in range(4):
            W = (grid + 1e-3 * rng.normal(size=grid.shape)).T
            shapes.append(Shape(apply_warp(forward, W, base), np.ones(30, bool)))
        ss = ShapeSet(tuple(shapes))
        models = tps_models(ss, k=3, theta=1e-10)
        sol = solve(ss, models)
        assert rmse_r(sol, ss, models) < 1e-4


def test_criterion_8_monotone_smoothing(rng):
    with criterion(8, "rmse_r non-increasing over a descending theta grid on 5 fixed instances"):
        for seed in range(5):
            local = np.random.default_rng(100 + seed)
            ss = full_set(local, 2, 14, 4, kind="smooth", noise=0.05)
            prior = estimate_prior_for_set(ss)
            values = []
            for theta in np.logspace(2, -2, 5):
                models = tps_models(ss, k=3, theta=theta)
                sol = solve(ss, models, prior=prior)
                values.append(rmse_r(sol, ss, models))
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-10


def test_criterion_9_cve_oracle(rng):
    with criterion(9, "leave-one-out CVE vanishes on noiseless rigid data and matches an independent loop"):
        ss = full_set(rng, 2, 9, 3, kind="rigid")
        models = affine_models(ss)
        cve, _ = cross_validation_error(ss, models, config=CveConfig(1))
        assert cve < 1e-6

        for seed in (11, 12):
            local = np.random.default_rng(seed)
            ss = mask_set(local, full_set(local, 2, 9, 4, kind="smooth", noise=0.08),
                          0.15, min_joint=4)
            models = affine_models(ss)
            cve, _ = cross_validation_error(ss, models, config=CveConfig(1))
            assert cve == pytest.approx(independent_leave_one_out(ss, models), abs=1e-8)


# --- criterion 10: optional dataset replication ----------------------------

# Published benchmark rows {dataset: {method: (rmse_r, rmse_d)}} and the
# smoothing/theta choices that produced them; replication runs only when the
# user supplies the datasets (documented JSON layout) via DEFGPA_DATASET_DIR.
BENCHMARK_ROWS = {
    "face":   {"theta": 10.0,  "flat_axes": 0,
               "AFF_r": (6.67, 6.73), "TPS_r(3)": (4.74, 4.35),
               "TPS_r(5)": (3.96, 3.60), "TPS_r(7)": (3.72, 3.35)},
    "bag":    {"theta": 100.0, "flat_axes": 0,
               "AFF_r": (18.90, 18.08), "TPS_r(3)": (9.16, 8.91),
               "TPS_r(5)": (7.12, 6.80), "TPS_r(7)": (6.75, 6.42)},
    "pillow": {"theta": 100.0, "flat_axes": 0,
               "AFF_r": (16.84, 16.34), "TPS_r(3)": (7.82, 7.58),
               "TPS_r(5)": (5.47, 5.39), "TPS_r(7)": (5.02, 4.89)},
    "lits":   {"theta": 0.1,   "flat_axes": 0,
               "AFF_r": (15.74, 15.71), "TPS_r(3)": (13.50, 13.60),
               "TPS_r(5)": (11.57, 11.76), "TPS_r(7)": (10.77, 11.13)},
    "liver":  {"theta": 0.01,  "flat_axes": 0,
               "AFF_r": (4.29, 4.65), "TPS_r(3)": (1.95, 2.27),
               "TPS_r(5)": (1.14, 1.27), "TPS_r(7)": (0.90, 0.97)},
    "toyrug": {"theta": 0.01,  "flat_axes": 1,
               "AFF_r": (0.47, 2.94), "TPS_r(3)": (0.29, 0.60),
               "TPS_r(5)": (0.23, 0.57), "TPS_r(7)": (0.21, 0.58)},
}


@pytest.mark.skipif("DEFGPA_DATASET_DIR" not in os.environ,
                    reason="optional: set DEFGPA_DATASET_DIR to replicate benchmark rows")
def test_criterion_10_dataset_replication():
    with criterion(10, "benchmark rmse rows replicated within 5% on user-supplied datasets"):
        root = os.environ["DEFGPA_DATASET_DIR"]
        ran_any = False
        for name, spec in BENCHMARK_ROWS.items():
            path = os.path.join(root, f"{name}.json")
            if not os.path.exists(path):
                continue
            ran_any = True
            ss = load_shapes(path, format="json")
            for method, (want_r, want_d) in (
                    (k, v) for k, v in spec.items() if k not in ("theta", "flat_axes")):
                if method == "AFF_r":
                    models = affine_models(ss)
                else:
                    k = int(method[method.index("(") + 1: method.index(")")])
                    models = tps_models(ss, k=k, theta=spec["theta"],
                                        flat_axes=spec["flat_axes"])
                sol = solve(ss, models)
                got_r = rmse_r(sol, ss, models)
                got_d = rmse_d(sol, ss, models)
                assert abs(got_r - want_r) <= 0.05 * want_r, (name, method, got_r)
                assert abs(got_d - want_d) <= 0.05 * want_d, (name, method, got_d)
        assert ran_any, f"no benchmark datasets found under {root}"
