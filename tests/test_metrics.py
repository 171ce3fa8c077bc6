"""Residual metrics, gauge alignment, and cross-validation."""

import numpy as np
import pytest

from defgpa import (
    CveConfig,
    DefgpaError,
    DimensionError,
    Shape,
    ShapeSet,
    SingularSystem,
    SingularTransform,
    apply_warp,
    cross_validation_error,
    cross_validation_errors,
    estimate_prior_for_set,
    gauge_align,
    rmse_d,
    rmse_r,
    solve,
)
from defgpa.metrics import _fold_slices
from conftest import affine_models, full_set, mask_set, random_rotation, tps_models


class TestRmseR:
    def test_zero_residual_instance(self, rng):
        ss = full_set(rng, 2, 10, 4, kind="affine")
        models = affine_models(ss)
        sol = solve(ss, models)
        assert rmse_r(sol, ss, models) < 1e-8

    def test_hand_computed_masked_average(self, rng):
        # a single shape with residual (3,4) at one point and zero elsewhere:
        # rmse = sqrt(25 / kappa) with kappa the visible-point count
        ss = full_set(rng, 2, 6, 1, kind="affine")
        models = affine_models(ss)
        sol = solve(ss, models)
        assert rmse_r(sol, ss, models) < 1e-10  # single shape fits exactly
        bumped = sol.reference.copy()
        bumped[:, 0] -= np.array([3.0, 4.0])
        from defgpa.gpa import GpaSolution
        shifted = GpaSolution(reference=bumped, weights=sol.weights, prior=sol.prior,
                              nu=sol.nu, cost=0, data_cost=0, reg_cost=0, penalty_cost=0)
        assert rmse_r(shifted, ss, models) == pytest.approx(np.sqrt(25.0 / 6.0), abs=1e-8)

    def test_matches_direct_double_loop(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.1), 0.2)
        models = tps_models(ss, k=3, theta=2.0)
        sol = solve(ss, models)
        total = 0.0
        kappa = 0
        for s, model, W in zip(ss, models, sol.weights):
            mapped = apply_warp(model, W, s.filled(0.0))
            for j in range(s.m):
                if s.visibility[j]:
                    kappa += 1
                    diff = mapped[:, j] - sol.reference[:, j]
                    total += float(diff @ diff)
        assert rmse_r(sol, ss, models) == pytest.approx(np.sqrt(total / kappa), rel=1e-12)

    def test_squared_rmse_matches_reported_data_cost(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 14, 4, kind="smooth", noise=0.1), 0.2)
        models = tps_models(ss, k=3, theta=1.0)
        sol = solve(ss, models)
        kappa = sum(s.num_visible for s in ss)
        assert rmse_r(sol, ss, models) ** 2 * kappa == pytest.approx(sol.data_cost, rel=1e-8)


class TestRmseD:
    def test_rigid_instance_agrees_with_rmse_r(self, rng):
        ss = full_set(rng, 2, 10, 4, kind="rigid", noise=0.02)
        models = affine_models(ss)
        sol = solve(ss, models)
        # affine fits of rigid+noise data stay near-rigid; at zero noise the
        # two costs coincide exactly
        clean = full_set(rng, 2, 10, 4, kind="rigid")
        sol_c = solve(clean, models)
        assert rmse_d(sol_c, clean, models) == pytest.approx(
            rmse_r(sol_c, clean, models), abs=1e-6)

    def test_zero_residual_affine(self, rng):
        ss = full_set(rng, 2, 12, 4, kind="affine")
        models = affine_models(ss)
        sol = solve(ss, models)
        assert rmse_d(sol, ss, models) < 1e-8

    def test_matches_direct_affine_inverse(self, rng):
        ss = full_set(rng, 2, 10, 4, kind="affine", noise=0.1)
        models = affine_models(ss)
        sol = solve(ss, models)
        total = 0.0
        kappa = 0
        for s, W in zip(ss, sol.weights):
            A = W[:2, :].T
            t = W[2, :]
            back = np.linalg.inv(A) @ (sol.reference - t[:, None])
            for j in range(s.m):
                kappa += 1
                diff = s.points[:, j] - back[:, j]
                total += float(diff @ diff)
        assert rmse_d(sol, ss, models) == pytest.approx(np.sqrt(total / kappa), rel=1e-10)

    def test_singular_affine_part(self, rng):
        ss = full_set(rng, 2, 8, 2, kind="affine")
        models = affine_models(ss)
        sol = solve(ss, models)
        W_bad = sol.weights[0].copy()
        W_bad[:2, :] = 0.0
        from defgpa.gpa import GpaSolution
        broken = GpaSolution(reference=sol.reference,
                             weights=(W_bad,) + sol.weights[1:],
                             prior=sol.prior, nu=sol.nu, cost=0, data_cost=0,
                             reg_cost=0, penalty_cost=0)
        with pytest.raises(SingularTransform):
            rmse_d(broken, ss, models)

    def test_tps_inverse_round_trip_small_residual(self, rng):
        ss = full_set(rng, 2, 16, 4, kind="smooth", noise=0.02, deform=0.05)
        models = tps_models(ss, k=3, theta=10.0)
        sol = solve(ss, models)
        assert np.isfinite(rmse_d(sol, ss, models))


class TestGaugeAlign:
    def test_identity(self, rng):
        A = rng.normal(size=(2, 8))
        R, t = gauge_align(A, A)
        np.testing.assert_allclose(R, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(t, np.zeros(2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_known_transform(self, rng, d):
        A = rng.normal(size=(d, 9))
        R0 = random_rotation(rng, d)
        t0 = rng.normal(size=d)
        B = R0 @ A + t0[:, None]
        R, t = gauge_align(A, B)
        np.testing.assert_allclose(R, R0, atol=1e-10)
        np.testing.assert_allclose(t, t0, atol=1e-10)

    def test_rotation_only_no_scale(self, rng):
        A = rng.normal(size=(2, 7))
        B = 3.0 * A  # pure scaling: best rigid fit must keep |det| = 1
        R, t = gauge_align(A, B)
        assert abs(np.linalg.det(R)) == pytest.approx(1.0, abs=1e-10)

    def test_beats_random_candidates(self, rng):
        A = rng.normal(size=(2, 10))
        B = random_rotation(rng, 2) @ A + rng.normal(size=(2, 1)) + 0.1 * rng.normal(size=(2, 10))
        R, t = gauge_align(A, B)
        best = np.linalg.norm(R @ A + t[:, None] - B)
        for _ in range(1000):
            Rc = random_rotation(rng, 2)
            tc = rng.normal(size=(2, 1)) * 2
            assert best <= np.linalg.norm(Rc @ A + tc - B) + 1e-12

    def test_masked(self, rng):
        A = rng.normal(size=(2, 10))
        R0 = random_rotation(rng, 2)
        B = R0 @ A
        B[:, 6:] += 50.0  # junk outside the mask
        mask = np.array([True] * 6 + [False] * 4)
        R, t = gauge_align(A, B, mask)
        np.testing.assert_allclose(R, R0, atol=1e-9)


def independent_leave_one_out(shape_set, models, nu):
    """A from-scratch coding of the leave-N-out protocol with N = 1."""
    full = solve(shape_set, models, nu=nu, check_conditions=False)
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    preds = [np.full((d, m), np.nan) for _ in range(n)]
    for j in range(m):
        keep = [p for p in range(m) if p != j]
        reduced = ShapeSet(tuple(
            Shape(s.points[:, keep], s.visibility[keep], s.label) for s in shape_set))
        fold = solve(reduced, models, nu=max(nu, n / (m - 1)), check_conditions=False)
        R, t = gauge_align(fold.reference, full.reference[:, keep])
        for i, s in enumerate(shape_set):
            point = s.filled(0.0)[:, [j]]
            mapped = apply_warp(models[i], fold.weights[i], point)
            preds[i][:, j] = (R @ mapped + t[:, None]).ravel()
    total = 0.0
    kappa = 0
    for i, s in enumerate(shape_set):
        for j in range(m):
            if s.visibility[j]:
                kappa += 1
                diff = preds[i][:, j] - full.reference[:, j]
                total += float(diff @ diff)
    return float(np.sqrt(total / kappa))


class TestCrossValidation:
    def test_noiseless_rigid_cve_vanishes(self, rng):
        ss = full_set(rng, 2, 9, 3, kind="rigid")
        models = affine_models(ss)
        cve, _ = cross_validation_error(ss, models, config=CveConfig(1))
        assert cve < 1e-6

    def test_noiseless_rigid_cve_vanishes_with_tps(self, rng):
        # any model able to represent rigid motion generalizes perfectly here;
        # the bending penalty pins the TPS to its affine subfamily
        ss = full_set(rng, 2, 16, 3, kind="rigid")
        models = tps_models(ss, k=3, theta=1.0)
        cve, _ = cross_validation_error(ss, models, config=CveConfig(1))
        assert cve < 1e-6
        sol = solve(ss, models)
        assert rmse_d(sol, ss, models) == pytest.approx(rmse_r(sol, ss, models), abs=1e-6)

    def test_extreme_fold_runs(self, rng):
        ss = full_set(rng, 2, 10, 4, kind="affine", noise=0.05)
        models = affine_models(ss)
        N = ss.m - (ss.d + 2)
        cve, preds = cross_validation_error(ss, models, config=CveConfig(N))
        assert np.isfinite(cve)
        assert len(preds) == ss.n

    def test_matches_independent_loop(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 9, 4, kind="smooth", noise=0.1), 0.15,
                      min_joint=2 + 2)
        models = affine_models(ss)
        nu = ss.n / ss.m
        cve, _ = cross_validation_error(ss, models, nu=nu, config=CveConfig(1))
        reference = independent_leave_one_out(ss, models, nu)
        assert cve == pytest.approx(reference, abs=1e-8)

    def test_fold_layout_contiguous(self):
        folds = _fold_slices(7, CveConfig(3))
        assert [f.tolist() for f in folds] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_group_size_validation(self, rng):
        ss = full_set(rng, 2, 8, 3, kind="affine")
        with pytest.raises(DimensionError):
            cross_validation_error(ss, affine_models(ss), config=CveConfig(8))

    def test_predictions_masked_to_visibility(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 10, 4, kind="affine", noise=0.02), 0.2,
                      min_joint=2 + 2)
        models = affine_models(ss)
        _, preds = cross_validation_error(ss, models, config=CveConfig(1))
        for s, P in zip(ss, preds):
            assert np.all(np.isnan(P[:, ~s.visibility]))
            assert np.all(np.isfinite(P[:, s.visibility]))


def restrict_points(shape_set, keep):
    """The ShapeSet of the kept point columns, correspondence kept."""
    return ShapeSet(tuple(Shape(s.points[:, keep], s.visibility[keep], s.label) for s in shape_set))


def per_fold_reference(shape_set, fits, group=1, reflection_ref=0, allow_reflection=False):
    """`cross_validation_errors` as one `solve` per fold and model set, with no batching.

    Each fold solves its own restricted ShapeSet, and each held-out point is
    pushed through `apply_warp` on its own coordinates.
    """
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    results = []
    for models, full in fits:
        predicted = [np.full((d, m), np.nan) for _ in range(n)]
        covered = np.zeros(m, dtype=bool)
        for fold in _fold_slices(m, CveConfig(group)):
            keep = np.setdiff1d(np.arange(m), fold)
            reduced = restrict_points(shape_set, keep)
            prior = estimate_prior_for_set(reduced, allow_reflection=allow_reflection)
            sol = solve(reduced, models, prior=prior, nu=max(full.nu, n / keep.size),
                        reflection_ref=reflection_ref, check_conditions=False)
            R, t = gauge_align(sol.reference, full.reference[:, keep])
            for i, shape in enumerate(shape_set):
                mapped = apply_warp(models[i], sol.weights[i], shape.filled(0.0)[:, fold])
                predicted[i][:, fold] = R @ mapped + t[:, None]
            covered[fold] = True
        total = 0.0
        kappa = 0
        for i, shape in enumerate(shape_set):
            use = shape.visibility & covered
            kappa += int(use.sum())
            diff = np.where(use[None, :], predicted[i] - full.reference, 0.0)
            total += float(np.sum(diff * diff))
            predicted[i][:, ~shape.visibility] = np.nan
        results.append((float(np.sqrt(total / kappa)), predicted))
    return results


def solved_fits(shape_set, thetas, k=3, allow_reflection=False, affine=True):
    """(models, full solution) pairs: TPS splines built once and re-weighted per theta,
    plus an affine set when `affine`, all solved with one prior."""
    prior = estimate_prior_for_set(shape_set, allow_reflection=allow_reflection)
    splines = tps_models(shape_set, k=k)
    model_sets = [[model.with_smoothing(s.num_visible * theta) for model, s in zip(splines, shape_set)]
                  for theta in thetas]
    if affine:
        model_sets.append(affine_models(shape_set))
    return [(models, solve(shape_set, models, prior=prior, allow_reflection=allow_reflection,
                           check_conditions=False))
            for models in model_sets]


def assert_cve_parity(batched, reference, abs_cve=0.0):
    assert len(batched) == len(reference)
    for got, (cve, predicted) in zip(batched, reference):
        assert not isinstance(got, DefgpaError), got
        assert got[0] == pytest.approx(cve, rel=1e-10, abs=abs_cve)
        np.testing.assert_allclose(np.array(got[1]), np.array(predicted), rtol=0, atol=1e-9)


class TestBatchedCrossValidation:
    """All model sets of a fold solved in one pass match one solve per fold and set."""

    def test_partial_2d_tps(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 14, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        fits = solved_fits(ss, [10.0, 1.0, 0.1])
        assert_cve_parity(cross_validation_errors(ss, fits, reflection_ref=1),
                          per_fold_reference(ss, fits, reflection_ref=1))

    def test_full_3d_affine_on_the_span(self, rng, monkeypatch):
        import defgpa.gpa

        def dense(*args, **kwargs):
            raise AssertionError("the dense eigensolve ran on a full set")

        ss = full_set(rng, 3, 24, 4, kind="smooth", noise=0.05)
        fits = solved_fits(ss, [1.0, 0.01], k=2)
        monkeypatch.setattr(defgpa.gpa, "bottom_d_scaled", dense)
        assert_cve_parity(cross_validation_errors(ss, fits), per_fold_reference(ss, fits))

    def test_zero_residual_cluster(self, rng):
        # exact rigid copies: every fold's bottom-d eigenvalue is d-fold degenerate
        ss = full_set(rng, 2, 10, 4, kind="rigid")
        fits = solved_fits(ss, [])
        batched = cross_validation_errors(ss, fits)
        assert batched[0][0] < 1e-8
        assert_cve_parity(batched, per_fold_reference(ss, fits), abs_cve=1e-12)

    def test_allow_reflection(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        fits = solved_fits(ss, [1.0, 0.01], allow_reflection=True)
        assert_cve_parity(cross_validation_errors(ss, fits, allow_reflection=True),
                          per_fold_reference(ss, fits, allow_reflection=True))

    def test_ragged_last_fold(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 17, 4, kind="smooth", noise=0.05), 0.1,
                      min_joint=2 + 4)
        fits = solved_fits(ss, [1.0, 0.1])
        assert [f.size for f in _fold_slices(ss.m, CveConfig(3))][-1] == 2
        assert_cve_parity(cross_validation_errors(ss, fits, CveConfig(3)),
                          per_fold_reference(ss, fits, group=3))

    def test_no_shape_objects_per_fold(self, rng, monkeypatch):
        # folds slice the stacked arrays: no Shape is built, let alone validated
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        fits = solved_fits(ss, [1.0, 0.1])
        built = []
        post_init = Shape.__post_init__

        def spy(self):
            built.append(None)
            post_init(self)

        monkeypatch.setattr(Shape, "__post_init__", spy)
        outcomes = cross_validation_errors(ss, fits)
        assert built == []
        assert not any(isinstance(outcome, DefgpaError) for outcome in outcomes)

    def test_passes_split_by_the_stack_bound(self, rng, monkeypatch):
        import defgpa.gpa
        import defgpa.metrics
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        fits = solved_fits(ss, [10.0, 1.0, 0.1], affine=False)
        whole = cross_validation_errors(ss, fits)
        references = defgpa.gpa._references
        passes = []

        def spy(G, anchor, datum, Bg, solved, errors, nus, prior):
            passes.append(len(nus))
            return references(G, anchor, datum, Bg, solved, errors, nus, prior)

        monkeypatch.setattr(defgpa.gpa, "_references", spy)
        nl = ss.n * max(model.feature_dim for model in fits[0][0])
        monkeypatch.setattr(defgpa.metrics, "_STACK_ENTRIES", 2 * (nl * ss.m + ss.m ** 2))
        split = cross_validation_errors(ss, fits)
        assert passes == [2, 1] * ss.m
        for got, want in zip(split, whole):
            assert got[0] == want[0]
            np.testing.assert_array_equal(np.array(got[1]), np.array(want[1]))

    @pytest.mark.parametrize("bad", ["negative-smoothing", "missing-model"])
    def test_bad_model_set_fails_alone(self, rng, bad):
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        fits = solved_fits(ss, [1.0, 0.1])
        models = fits[0][0]
        models = ([models[0].with_smoothing(-1.0)] + models[1:] if bad == "negative-smoothing"
                  else models[:-1])
        outcomes = cross_validation_errors(ss, [fits[0], (models, fits[0][1]), fits[1]])
        assert isinstance(outcomes[1], DimensionError)
        for got, want in zip([outcomes[0], outcomes[2]], cross_validation_errors(ss, fits[:2])):
            assert got[0] == want[0]
            np.testing.assert_array_equal(np.array(got[1]), np.array(want[1]))

    def test_failing_model_set_is_isolated(self, rng):
        # an infinite smoothing weight breaks every normal matrix of that set only
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        fits = solved_fits(ss, [1.0, 0.1])
        broken = ([model.with_smoothing(np.inf) for model in fits[0][0]], fits[0][1])
        outcomes = cross_validation_errors(ss, [fits[0], broken, fits[1]])
        assert isinstance(outcomes[1], SingularSystem)
        assert outcomes[1].shape_index == 0
        for got, want in zip([outcomes[0], outcomes[2]], cross_validation_errors(ss, fits[:2])):
            assert got[0] == want[0]
            np.testing.assert_array_equal(np.array(got[1]), np.array(want[1]))

    @pytest.mark.parametrize("ref", [5, -1])
    def test_reflection_ref_out_of_range(self, rng, ref):
        ss = full_set(rng, 2, 8, 3, kind="affine", noise=0.05)
        fits = solved_fits(ss, [])
        with pytest.raises(DimensionError):
            cross_validation_errors(ss, fits, reflection_ref=ref)
