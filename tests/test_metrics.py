"""Residual metrics, the weighted Procrustes of the gauge alignment, and cross-validation."""

from dataclasses import replace

import numpy as np
import pytest

from defgpa import (
    CveConfig,
    DefgpaError,
    DegenerateConfiguration,
    DimensionError,
    InsufficientOverlap,
    Shape,
    ShapeSet,
    SingularSystem,
    SingularTransform,
    apply_warp,
    complete_all,
    cross_validation_error,
    cross_validation_errors,
    estimate_prior_for_set,
    rmse_d,
    rmse_r,
    solve,
)
from defgpa.gpa import _centred, _fold_priors, _moments, _procrustes, _rank_below, _stacked
from defgpa.metrics import _fold_slices
from defgpa.warps import AffineWarp
from conftest import (affine_models, checked_fits, cves, dense_runs, full_set, full_shapes, grid_sets, kabsch,
                      mask_set, per_fold_reference, random_rotation, restrict_points, tps_models)


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

    @pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
    @pytest.mark.parametrize("tps", [False, True], ids=["affine", "tps"])
    def test_squared_rmse_matches_reported_data_cost(self, rng, tps, partial):
        # the CLI reports rmse_r as sqrt(data_cost / sum_i nnz(Gamma_i)), so the two agree to round-off
        ss = full_set(rng, 2, 14, 4, kind="smooth", noise=0.1)
        if partial:
            ss = mask_set(rng, ss, 0.2)
        models = tps_models(ss, k=3, theta=1.0) if tps else affine_models(ss)
        sol = solve(ss, models)
        kappa = sum(s.num_visible for s in ss)
        assert rmse_r(sol, ss, models) ** 2 * kappa == pytest.approx(sol.data_cost, rel=1e-12)


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


class TestRmseInputChecks:
    """rmse_r and rmse_d reject a solution or models that do not fit the shape set."""

    @pytest.mark.parametrize("metric", [rmse_r, rmse_d])
    def test_fewer_models_than_shapes(self, rng, metric):
        # zip would stop at the second shape while the visible count covers all four
        ss = full_set(rng, 2, 10, 4, kind="affine", noise=0.05)
        models = affine_models(ss)
        sol = solve(ss, models)
        with pytest.raises(DimensionError, match="4 shapes but 2 models"):
            metric(sol, ss, models[:2])

    @pytest.mark.parametrize("metric", [rmse_r, rmse_d])
    def test_reference_of_another_point_set(self, rng, metric):
        ss = full_set(rng, 2, 10, 4, kind="affine", noise=0.05)
        models = affine_models(ss)
        other = solve(restrict_points(ss, np.arange(8)), models)
        with pytest.raises(DimensionError, match=r"reference has shape \(2, 8\), expected \(2, 10\)"):
            metric(other, ss, models)

    @pytest.mark.parametrize("metric", [rmse_r, rmse_d])
    def test_weights_without_d_columns(self, rng, metric):
        # 3 x 3 affine weights on a d = 2 set: the fit would be 3 x m against a 2 x m reference
        ss = full_set(rng, 2, 10, 4, kind="affine", noise=0.05)
        models = affine_models(ss)
        sol = solve(ss, models)
        wide = replace(sol, weights=(sol.weights[0], np.hstack([sol.weights[1], sol.weights[1][:, :1]]),
                                     *sol.weights[2:]))
        with pytest.raises(DimensionError, match=r"weights 1 have shape \(3, 3\), expected d=2 columns"):
            metric(wide, ss, models)

    def test_rmse_d_needs_an_invertible_warp(self, rng):
        # a warp that is neither a TPS nor a (d+1)-row affine map has no inverse to fit
        from test_gpa import LinearOnlyWarp
        ss = full_set(rng, 2, 10, 4, kind="affine", noise=0.05)
        models = [LinearOnlyWarp(2) for _ in ss]
        sol = solve(ss, models, check_conditions=False)
        assert np.isfinite(rmse_r(sol, ss, models))
        with pytest.raises(DimensionError, match=r"LinearOnlyWarp weights of shape \(2, 2\)"):
            rmse_d(sol, ss, models)


def gauge_align(A, B, mask=None):
    """R and t of `_procrustes` for one pair of d x m point sets, over the masked columns."""
    R, t, _ = _procrustes(A, B, np.ones(A.shape[1]) if mask is None else np.asarray(mask, dtype=float))
    return R, t


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

    def test_mirror_image_gets_a_rotation(self, rng):
        # the best orthogonal fit of a mirror image is the mirror; without reflections it must be a
        # rotation, and the 2 x 2 cross-covariance keeps full rank
        A = rng.normal(size=(2, 8))
        R, t, sv = _procrustes(A, np.diag([-1.0, 1.0]) @ A, np.ones(8))
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        assert not _rank_below(sv, 2)
        R, _, _ = _procrustes(A, np.diag([-1.0, 1.0]) @ A, np.ones(8), allow_reflection=True)
        np.testing.assert_allclose(R, np.diag([-1.0, 1.0]), atol=1e-12)

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


def independent_leave_one_out(shape_set, models):
    """A from-scratch coding of the leave-N-out protocol with N = 1."""
    full = solve(shape_set, models, check_conditions=False)
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    preds = [np.full((d, m), np.nan) for _ in range(n)]
    for j in range(m):
        keep = [p for p in range(m) if p != j]
        reduced = ShapeSet(tuple(
            Shape(s.points[:, keep], s.visibility[keep], s.label) for s in shape_set))
        fold = solve(reduced, models, check_conditions=False)
        R, t = kabsch(fold.reference, full.reference[:, keep])
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
        cve, _ = cross_validation_error(ss, models, config=CveConfig(1))
        reference = independent_leave_one_out(ss, models)
        assert cve == pytest.approx(reference, abs=1e-8)

    def test_fold_layout_contiguous(self):
        folds = _fold_slices(7, CveConfig(3))
        assert [f.tolist() for f in folds] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_group_size_validation(self, rng):
        ss = full_set(rng, 2, 8, 3, kind="affine")
        with pytest.raises(DimensionError):
            cross_validation_error(ss, affine_models(ss), config=CveConfig(8))

    @pytest.mark.parametrize("size", [1.5, "2", True, np.True_], ids=["float", "str", "bool", "numpy-bool"])
    def test_fold_size_must_be_an_integer(self, size):
        with pytest.raises(DimensionError, match="fold size must be an integer of at least 1"):
            CveConfig(size)

    def test_numpy_integer_fold_size(self, rng):
        ss = full_set(rng, 2, 9, 3, kind="affine", noise=0.05)
        models = affine_models(ss)
        want, predicted = cross_validation_error(ss, models, config=CveConfig(2))
        got, numpy_predicted = cross_validation_error(ss, models, config=CveConfig(np.int64(2)))
        assert got == want
        np.testing.assert_array_equal(np.array(numpy_predicted), np.array(predicted))

    def test_predictions_masked_to_visibility(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 10, 4, kind="affine", noise=0.02), 0.2,
                      min_joint=2 + 2)
        models = affine_models(ss)
        _, preds = cross_validation_error(ss, models, config=CveConfig(1))
        for s, P in zip(ss, preds):
            assert np.all(np.isnan(P[:, ~s.visibility]))
            assert np.all(np.isfinite(P[:, s.visibility]))


class ShortBasis(AffineWarp):
    """An affine model whose basis lacks its last row: its pass fails in `gpa._bases`."""

    def basis(self, points):
        return super().basis(points)[:-1]


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
        sets = grid_sets(ss, [10.0, 1.0, 0.1])
        outcomes = cross_validation_errors(ss, sets, reflection_ref=1)
        fits = checked_fits(ss, sets, outcomes, reflection_ref=1)
        assert_cve_parity(cves(outcomes), per_fold_reference(ss, fits, reflection_ref=1))

    def test_full_3d_affine_on_the_span(self, rng, monkeypatch):
        # the affine full solve and folds (k = 18 < m' = 23 or 24 factor columns) run the DPLR core and
        # form no m' x m' matrix; the TPS full solves and folds (k = 34) are dense by rule
        ss = full_set(rng, 3, 24, 4, kind="smooth", noise=0.05)
        sets = grid_sets(ss, [1.0, 0.01], k=2)
        calls = dense_runs(monkeypatch)
        outcomes = cross_validation_errors(ss, sets)
        assert {k for _, _, k in calls} == {ss.n * sets[0][0].feature_dim + 2} == {34}
        assert_cve_parity(cves(outcomes), per_fold_reference(ss, checked_fits(ss, sets, outcomes)))

    def test_zero_residual_cluster(self, rng):
        # exact rigid copies: every fold's bottom-d eigenvalue is d-fold degenerate
        ss = full_set(rng, 2, 10, 4, kind="rigid")
        sets = grid_sets(ss, [])
        outcomes = cross_validation_errors(ss, sets)
        batched = cves(outcomes)
        assert batched[0][0] < 1e-8
        assert_cve_parity(batched, per_fold_reference(ss, checked_fits(ss, sets, outcomes)), abs_cve=1e-12)

    def test_allow_reflection(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        sets = grid_sets(ss, [1.0, 0.01])
        outcomes = cross_validation_errors(ss, sets, allow_reflection=True)
        fits = checked_fits(ss, sets, outcomes, allow_reflection=True)
        assert_cve_parity(cves(outcomes), per_fold_reference(ss, fits, allow_reflection=True))

    def test_ragged_last_fold(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 17, 4, kind="smooth", noise=0.05), 0.1,
                      min_joint=2 + 4)
        sets = grid_sets(ss, [1.0, 0.1])
        assert [f.size for f in _fold_slices(ss.m, CveConfig(3))][-1] == 2
        outcomes = cross_validation_errors(ss, sets, config=CveConfig(3))
        assert_cve_parity(cves(outcomes), per_fold_reference(ss, checked_fits(ss, sets, outcomes), group=3))

    def test_no_shape_objects_per_fold(self, rng, monkeypatch):
        # folds slice the stacked arrays: no Shape is built, let alone validated
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        sets = grid_sets(ss, [1.0, 0.1])
        built = []
        post_init = Shape.__post_init__

        def spy(self):
            built.append(None)
            post_init(self)

        monkeypatch.setattr(Shape, "__post_init__", spy)
        outcomes = cves(cross_validation_errors(ss, sets))
        assert built == []
        assert not any(isinstance(outcome, DefgpaError) for outcome in outcomes)

    def test_passes_split_by_the_stack_bound(self, rng, monkeypatch):
        # a dense grid (3 x 3 controls, k = n l + 2 >= m' = m - 1) and a DPLR one (2 x 2 controls,
        # k < m'), each of three TPS sets.  A pair counts what its fold eigensolve holds (dense: its
        # m' x m' matrix and eigenvectors, its n m' held columns and its n l x l held-column verdicts;
        # DPLR: its m x k factor and three k x k kernels) or its tail, whichever is larger
        import defgpa.gpa
        import defgpa.metrics
        terms, held_terms = defgpa.gpa._per_shape_terms, defgpa.gpa._held_terms
        passes, pairs, failing = [], [], ()

        def spy(G, bases, mus):
            passes.append(len(mus))
            return terms(G, bases, mus)

        def spy_held(F, rows, held):
            U, E, errors = held_terms(F, rows, held)
            for p, (t, (fold,)) in enumerate(zip(rows, held)):
                pairs.append((len(F), int(t), int(fold)))
                if len(F) == 1 and fold in failing:
                    errors[p] = SingularSystem(f"injected at fold {fold}", shape_index=0)
            return U, E, errors

        # the DPLR grid's one-set pass fails at folds 2 and 3, which share a block, and again at fold 7
        for m, n, controls, failing in ((12, 4, 3, ()), (30, 3, 2, (2, 3, 7))):
            ss = mask_set(rng, full_set(rng, 2, m, n, kind="smooth", noise=0.05), 0.15, min_joint=2 + 2)
            sets = grid_sets(ss, [10.0, 1.0, 0.1], k=controls, affine=False)
            whole = cves(cross_validation_errors(ss, sets))
            kept, l = ss.m - 1, max(model.feature_dim for model in sets[0])
            k = ss.n * l + 2
            assert (k >= kept) == (controls == 3)
            pair = 2 * kept ** 2 + ss.n * (kept + l * l) if k >= kept else 2 * ss.m * k + 3 * k * k
            pair = max(pair, 12 * ss.d * ss.m + 4 * ss.n * ss.d)
            passes.clear()
            pairs.clear()
            with monkeypatch.context() as patch:
                patch.setattr(defgpa.metrics, "_STACK_ENTRIES", 2 * pair)
                patch.setattr(defgpa.gpa, "_per_shape_terms", spy)
                patch.setattr(defgpa.gpa, "_held_terms", spy_held)
                split = cves(cross_validation_errors(ss, sets))
            # pass-major, each pass factored once, in blocks of two pairs set by set: every fold of the
            # two-set pass's first set, then of its second, then of the one-set pass, which stops at the
            # block of its earliest failing fold and fails there
            solved = 4 if failing else ss.m
            assert passes == [2, 1]
            assert pairs == ([(2, t, f) for t in range(2) for f in range(ss.m)]
                             + [(1, 0, f) for f in range(solved)])
            if failing:
                assert type(split[2]) is SingularSystem and str(split[2]) == "injected at fold 2"
            for got, want in zip(split[:2] if failing else split, whole):
                assert got[0] == want[0]
                np.testing.assert_array_equal(np.array(got[1]), np.array(want[1]))

    @pytest.mark.parametrize("bad", ["negative-smoothing", "missing-model", "short-basis"])
    def test_bad_model_set_fails_alone(self, rng, bad):
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        sets = grid_sets(ss, [1.0, 0.1])
        models = sets[0]
        models = {"negative-smoothing": [models[0].with_smoothing(-1.0)] + models[1:],
                  "missing-model": models[:-1],
                  "short-basis": [ShortBasis(ss.d) for _ in ss]}[bad]
        results = cross_validation_errors(ss, [sets[0], models, sets[1]])
        checked_fits(ss, [sets[0], models, sets[1]], results)  # the bad set fails its own full solve
        outcomes = cves(results)
        assert isinstance(outcomes[1], DimensionError)
        for got, want in zip([outcomes[0], outcomes[2]], cves(cross_validation_errors(ss, sets[:2]))):
            assert got[0] == want[0]
            np.testing.assert_array_equal(np.array(got[1]), np.array(want[1]))

    def test_failing_model_set_is_isolated(self, rng):
        # an infinite smoothing weight breaks every normal matrix of that set only
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        sets = grid_sets(ss, [1.0, 0.1])
        broken = [model.with_smoothing(np.inf) for model in sets[0]]
        results = cross_validation_errors(ss, [sets[0], broken, sets[1]])
        checked_fits(ss, [sets[0], broken, sets[1]], results)  # the broken set fails its own full solve
        outcomes = cves(results)
        assert isinstance(outcomes[1], SingularSystem)
        assert outcomes[1].shape_index == 0
        for got, want in zip([outcomes[0], outcomes[2]], cves(cross_validation_errors(ss, sets[:2]))):
            assert got[0] == want[0]
            np.testing.assert_array_equal(np.array(got[1]), np.array(want[1]))

    @pytest.mark.parametrize("options", [{}, {"reflection_ref": 2, "allow_reflection": True}, {"prior": "given"}])
    def test_full_solutions_match_direct_solves(self, rng, monkeypatch, options):
        # a pass of four TPS sets, one of them infinitely smoothed so that its own full solve fails, and
        # a pass of one affine set: each full solution is the direct `solve` of its set
        import defgpa.gpa
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15, min_joint=2 + 2)
        if options.get("prior") == "given":
            options = {"prior": np.array([3.0, 0.5])}  # a plain array, coerced as `solve` coerces it
        sets = grid_sets(ss, [10.0, 1.0, 0.1])
        model_sets = [sets[0], [model.with_smoothing(np.inf) for model in sets[0]], *sets[1:]]
        terms, passes = defgpa.gpa._per_shape_terms, []

        def spy(G, bases, mus):
            passes.append(len(mus))
            return terms(G, bases, mus)

        monkeypatch.setattr(defgpa.gpa, "_per_shape_terms", spy)
        outcomes = cross_validation_errors(ss, model_sets, **options)
        assert passes == [4, 1]
        monkeypatch.undo()
        fits = checked_fits(ss, model_sets, outcomes, **options)
        assert [fit is None for fit in fits] == [False, True, False, False, False]
        assert type(outcomes[1]) is SingularSystem and outcomes[1].shape_index == 0
        assert not any(isinstance(cve, DefgpaError) for cve in cves(outcomes[:1] + outcomes[2:]))

    @pytest.mark.parametrize("ref", [5, -1])
    def test_reflection_ref_out_of_range(self, rng, ref):
        ss = full_set(rng, 2, 8, 3, kind="affine", noise=0.05)
        with pytest.raises(DimensionError):
            cross_validation_errors(ss, grid_sets(ss, []), reflection_ref=ref)


def fold_priors(shape_set, group=1, allow_reflection=False):
    """The folds of `_fold_slices` and their prior eigenvalues from the downdated moments of the whole set."""
    X, G = _stacked(shape_set)
    _, Y = _centred(X, G)
    folds = _fold_slices(shape_set.m, CveConfig(group))
    held = np.full((len(folds), group), shape_set.m)
    for f, fold in enumerate(folds):
        held[f, :fold.size] = fold
    lambdas, error = _fold_priors(Y, G, _moments(Y, G), held, allow_reflection)
    assert error is None
    return folds, lambdas


def flattened(shape_set, scale):
    """The set with its last coordinate scaled by `scale`."""
    factor = np.ones((shape_set.d, 1))
    factor[-1] = scale
    return ShapeSet(tuple(Shape(s.points * factor, s.visibility, s.label) for s in shape_set))


class TestFoldPriors:
    """Fold priors from the whole set's moments minus the held-out columns'."""

    @pytest.mark.parametrize("case", ["partial-2d", "ragged-3", "partial-3d", "flat-3d", "full",
                                      "reflection"])
    def test_match_the_restricted_set(self, rng, case):
        d = 3 if "3d" in case else 2
        group = 3 if case == "ragged-3" else 1
        ss = full_set(rng, d, 17 if case == "ragged-3" else 14, 4, kind="smooth", noise=0.05)
        if case == "flat-3d":
            ss = flattened(ss, 1e-3)
        if case != "full":
            ss = mask_set(rng, ss, 0.15, min_joint=d + 1 + group)
        allow_reflection = case == "reflection"
        folds, lambdas = fold_priors(ss, group, allow_reflection)
        assert lambdas.shape == (len(folds), d)
        for fold, got in zip(folds, lambdas):
            reduced = restrict_points(ss, np.setdiff1d(np.arange(ss.m), fold))
            completed = full_shapes(complete_all(reduced, allow_reflection=allow_reflection))
            for want in (estimate_prior_for_set(reduced, allow_reflection=allow_reflection).lambdas,
                         estimate_prior_for_set(completed).lambdas):
                assert np.max(np.abs(got - want)) <= 1e-12 * want[0]

    @staticmethod
    def three_joint_points(rng):
        """Shapes 0 and 1 share exactly d+1 = 3 points, columns 5, 9 and 12."""
        ss = full_set(rng, 2, 14, 4, kind="smooth", noise=0.05)
        vis = np.ones((4, 14), dtype=bool)
        vis[0, :4] = False
        vis[1] = False
        vis[1, [0, 1, 2, 3, 5, 9, 12]] = True
        return ShapeSet(tuple(Shape(s.points, v, s.label) for s, v in zip(ss, vis)))

    def test_first_failing_fold_fails_every_set(self, rng, monkeypatch):
        # holding out column 5 leaves shapes 0 and 1 two joint points; folds 0-4 are solved.  At 2000
        # entries the priors come in chunks of 2 folds, and fold 5 fails in the third, beside fold 4
        import defgpa.gpa
        import defgpa.metrics
        # the prior is given, so that the spied `_fold_priors` runs for the folds alone
        ss = self.three_joint_points(rng)
        sets, prior = grid_sets(ss, [1.0]), estimate_prior_for_set(ss)
        outcomes = cross_validation_errors(ss, sets, prior)
        with pytest.raises(InsufficientOverlap) as want:
            per_fold_reference(ss, checked_fits(ss, sets, outcomes, prior))
        assert str(want.value) == "need at least 3 jointly visible points, have 2"
        held_terms, fold_priors_core = defgpa.gpa._held_terms, defgpa.gpa._fold_priors
        solved_folds, chunks = [], []

        def spy(F, rows, held):
            solved_folds.extend(int(fold) for (fold,) in held)
            return held_terms(F, rows, held)

        def spy_priors(Y, G, moments, held, allow_reflection):
            chunks.append(len(held))
            return fold_priors_core(Y, G, moments, held, allow_reflection)

        monkeypatch.setattr(defgpa.gpa, "_held_terms", spy)
        monkeypatch.setattr(defgpa.gpa, "_fold_priors", spy_priors)
        for entries, want_chunks in ((defgpa.metrics._STACK_ENTRIES, [ss.m]), (2000, [2, 2, 2])):
            monkeypatch.setattr(defgpa.metrics, "_STACK_ENTRIES", entries)
            solved_folds.clear()
            chunks.clear()
            for outcome in cves(cross_validation_errors(ss, sets, prior)):
                assert type(outcome) is InsufficientOverlap
                assert str(outcome) == str(want.value)
            assert solved_folds == [0, 1, 2, 3, 4] * 2  # a TPS and an affine pass
            assert chunks == want_chunks  # no chunk after the failing one

    def test_earliest_failing_fold_wins(self, rng):
        # the broken set fails at its own full solve, before the chunk's failing prior at fold 5
        ss = self.three_joint_points(rng)
        sets = grid_sets(ss, [1.0])
        broken = [model.with_smoothing(np.inf) for model in sets[0]]
        results = cross_validation_errors(ss, [sets[0], broken, sets[1]])
        checked_fits(ss, [sets[0], broken, sets[1]], results)
        outcomes = cves(results)
        assert isinstance(outcomes[1], SingularSystem)
        assert type(outcomes[0]) is type(outcomes[2]) is InsufficientOverlap

    def test_failure_inside_a_block_keeps_its_fold(self, rng, monkeypatch):
        # shape 0 hides points 5 and 9 only, so the kept masks tell each of those folds from every
        # other; one TPS set fails at fold 5 and again at fold 9, inside a block of several folds
        import defgpa.gpa
        import defgpa.metrics
        ss = full_set(rng, 2, 24, 3, kind="smooth", noise=0.05)
        vis = ss.visibility_matrix()
        vis[0, [5, 9]] = False
        ss = ShapeSet(tuple(Shape(s.points, v, s.label) for s, v in zip(ss, vis)))
        sets = grid_sets(ss, [1.0, 0.01], k=2)
        monkeypatch.setattr(defgpa.metrics, "_STACK_ENTRIES", 2**17)  # room for every fold in one block
        whole = cves(cross_validation_errors(ss, sets))
        target = np.array([model.smoothing for model in sets[1]])
        terms, held_terms = defgpa.gpa._per_shape_terms, defgpa.gpa._held_terms
        dplr = defgpa.metrics._bottom_pairs_dplr
        blocks, mus_of_pass = [], []

        def spy_terms(G, bases, mus):
            mus_of_pass[:] = mus
            return terms(G, bases, mus)

        def spy_held(F, rows, held):
            U, E, errors = held_terms(F, rows, held)
            for p, (t, (fold,)) in enumerate(zip(rows, held)):
                if fold in (5, 9) and np.array_equal(mus_of_pass[t], target):
                    errors[p] = SingularSystem(f"injected at fold {fold}", shape_index=0)
            return U, E, errors

        def spy_dplr(D, W, d, start=None):
            blocks.append(len(W))
            return dplr(D, W, d, start)

        monkeypatch.setattr(defgpa.gpa, "_per_shape_terms", spy_terms)
        monkeypatch.setattr(defgpa.gpa, "_held_terms", spy_held)
        monkeypatch.setattr(defgpa.metrics, "_bottom_pairs_dplr", spy_dplr)
        outcomes = cves(cross_validation_errors(ss, sets))
        # one block of all folds for the affine set and one for the TPS pairs: set 0 at every fold,
        # set 1 at folds 0-4
        assert sorted(blocks) == [ss.m, ss.m + 5]
        assert type(outcomes[1]) is SingularSystem and str(outcomes[1]) == "injected at fold 5"
        for j in (0, 2):
            assert outcomes[j][0] == whole[j][0]
            np.testing.assert_array_equal(np.array(outcomes[j][1]), np.array(whole[j][1]))

    def test_tail_failure_keeps_the_earliest_fold(self, rng, monkeypatch):
        # a block's tail fails a (fold, set) pair where `_rank_below` says so: at rank d for an
        # undetermined orientation, at rank d-1 for a rank-deficient gauge.  The spies read the pairs
        # from the fold blocks' own `rows` up the call stack
        import sys
        import defgpa.gpa
        from defgpa.gpa import _RANK_DEFICIENT, _UNORIENTED
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15, min_joint=2 + 2)
        sets = grid_sets(ss, [10.0, 1.0, 0.1])  # three TPS sets, then an affine one
        whole = cves(cross_validation_errors(ss, sets))
        d = ss.d
        # set 0: deficient at fold 2, then undetermined at fold 5; set 1: undetermined at fold 1,
        # deficient at fold 4, and a singular normal matrix at fold 6, which the block downdates first
        inject = {(2, 0, d - 1), (5, 0, d), (1, 1, d), (4, 1, d - 1)}
        rank_below, held_terms = defgpa.gpa._rank_below, defgpa.gpa._held_terms
        blocks, injected = [], []

        def cve_locals():
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "_fold_blocks":
                frame = frame.f_back
            return {} if frame is None else frame.f_locals

        def spy_rank_below(sv, rank):
            low = rank_below(sv, rank)
            rows = cve_locals().get("rows")  # unbound while the fold priors run
            if rows is None:
                return low
            if rank == d:
                blocks.append(list(rows))
            return low | np.array([(f, j, rank) in inject for f, j in rows])

        def spy_held(F, at, held):
            U, E, errors = held_terms(F, at, held)
            for p, pair in enumerate(cve_locals()["rows"]):
                if pair == (6, 1):
                    errors[p] = SingularSystem("injected at fold 6", shape_index=0)
                    injected.append(pair[0])
            return U, E, errors

        monkeypatch.setattr(defgpa.gpa, "_rank_below", spy_rank_below)
        monkeypatch.setattr(defgpa.gpa, "_held_terms", spy_held)
        outcomes = cves(cross_validation_errors(ss, sets))
        # folds 1-6 share a block, so set 1's singular fold 6 is recorded before its tail runs
        assert injected == [6]
        assert any({(2, 0), (5, 0), (1, 1), (4, 1), (6, 0)} <= set(rows) for rows in blocks)
        assert type(outcomes[0]) is DegenerateConfiguration and str(outcomes[0]) == _RANK_DEFICIENT
        assert type(outcomes[1]) is DegenerateConfiguration and str(outcomes[1]) == _UNORIENTED
        for j in (2, 3):
            assert outcomes[j][0] == whole[j][0]
            np.testing.assert_array_equal(np.array(outcomes[j][1]), np.array(whole[j][1]))

    def test_collinear_datum_fold_is_undetermined(self, rng):
        # a model with no free translation keeps D Gamma D^T nonsingular on collinear points off the
        # origin.  The datum shape 0 has points 0-6 on y = 0.5 x + 2 and point 7 off it, so its full
        # solve is oriented, but fold 7 leaves it collinear: that fold's tail finds the orientation
        # undetermined, with no patching.  With a non-collinear datum every fold is oriented
        from defgpa.gpa import _UNORIENTED
        from test_gpa import LinearOnlyWarp
        x = np.append(np.linspace(-3.0, 3.0, 7), 0.5)
        base = np.vstack([x, 0.5 * x + 2.0])
        base[1, 7] += 1.5
        shapes = [base] + [(np.eye(2) + 0.2 * rng.normal(size=(2, 2))) @ base + rng.normal(size=(2, 1))
                           + 0.05 * rng.normal(size=(2, 8)) for _ in range(3)]
        ss = ShapeSet(tuple(Shape(S, np.ones(8, bool)) for S in shapes))
        models = [LinearOnlyWarp(2) for _ in ss]
        results = cross_validation_errors(ss, [models])
        (outcome,) = cves(results)
        assert type(outcome) is DegenerateConfiguration and str(outcome) == _UNORIENTED
        with pytest.raises(DegenerateConfiguration, match=_UNORIENTED):
            per_fold_reference(ss, checked_fits(ss, [models], results))
        results = cross_validation_errors(ss, [models], reflection_ref=1)
        checked_fits(ss, [models], results, reflection_ref=1)
        (outcome,) = cves(results)
        assert not isinstance(outcome, DefgpaError), outcome

    def test_line_reference_leaves_the_fold_gauge_undetermined(self, rng):
        # under the prior (1, 0, 0) the full reference of a d = 3 set is a line, while every fold
        # re-estimates a positive prior: the rigid gauge between a fold's reference and the line has
        # a cross-covariance of rank 1 < d - 1, and the tail's rank test fails the fold, with no
        # patching.  The prior (1, 0.5, 0) leaves a plane, whose gauge is determined
        from defgpa.gpa import _RANK_DEFICIENT
        ss = full_set(rng, 3, 12, 4, kind="affine")
        models = affine_models(ss)
        results = cross_validation_errors(ss, [models], prior=[1.0, 0.0, 0.0])
        (outcome,) = cves(results)
        assert type(outcome) is DegenerateConfiguration and str(outcome) == _RANK_DEFICIENT
        with pytest.raises(DegenerateConfiguration, match=_RANK_DEFICIENT):
            per_fold_reference(ss, checked_fits(ss, [models], results, prior=[1.0, 0.0, 0.0]))
        results = cross_validation_errors(ss, [models], prior=[1.0, 0.5, 0.0])
        fits = checked_fits(ss, [models], results, prior=[1.0, 0.5, 0.0])
        assert_cve_parity(cves(results), per_fold_reference(ss, fits))

    @pytest.mark.parametrize("kind", ["smooth", "rigid"])
    def test_chunks_do_not_change_outcomes(self, rng, monkeypatch, kind):
        # rigid copies make every fold's bottom eigenvalue degenerate: the anchor path runs
        import defgpa.metrics
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind=kind, noise=0.05 if kind == "smooth" else 0.0),
                      0.15, min_joint=2 + 2)
        # the prior is given, so that the spied `_fold_priors` runs for the folds alone
        sets, prior = grid_sets(ss, [10.0, 1.0, 0.1]), estimate_prior_for_set(ss)
        whole = cves(cross_validation_errors(ss, sets, prior))
        chunks = []
        fold_priors_core = defgpa.gpa._fold_priors

        def spy(Y, G, moments, held, allow_reflection):
            chunks.append(len(held))
            return fold_priors_core(Y, G, moments, held, allow_reflection)

        monkeypatch.setattr(defgpa.gpa, "_fold_priors", spy)
        monkeypatch.setattr(defgpa.metrics, "_STACK_ENTRIES", 4000)
        split = cves(cross_validation_errors(ss, sets, prior))
        assert len(chunks) > 2
        for got, want in zip(split, whole):
            assert got[0] == want[0]
            np.testing.assert_array_equal(np.array(got[1]), np.array(want[1]))


def test_prior_chunks_do_not_depend_on_the_model_sets(rng, monkeypatch):
    # a prior chunk counts only the priors it stacks, not the model sets the folds then solve; the
    # prior of the full solves is given, so that the spied `_fold_priors` runs for the folds alone
    import defgpa.gpa
    import defgpa.metrics
    ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.15, min_joint=2 + 2)
    runs = [grid_sets(ss, thetas, affine=False) for thetas in ([1.0], [10.0, 1.0, 0.1])]
    prior = estimate_prior_for_set(ss)
    fold_priors_core = defgpa.gpa._fold_priors
    chunks = []

    def spy(Y, G, moments, held, allow_reflection):
        chunks[-1].append(len(held))
        return fold_priors_core(Y, G, moments, held, allow_reflection)

    monkeypatch.setattr(defgpa.gpa, "_fold_priors", spy)
    monkeypatch.setattr(defgpa.metrics, "_STACK_ENTRIES", 4000)
    for sets in runs:
        chunks.append([])
        outcomes = cves(cross_validation_errors(ss, sets, prior))
        assert not any(isinstance(outcome, DefgpaError) for outcome in outcomes)
    assert chunks[0] == chunks[1] == [5, 5, 2]


def test_blocks_count_the_tail_of_each_pair(rng, monkeypatch):
    # d3 n2 affine m40: the DPLR eigensolve stacks 3 m k + 2 k^2 = 1242 entries per pair (k = 9),
    # fewer than its tail's 12 d m + 4 n d g = 1464, so a bound of 5000 stacks 3 pairs, not 4
    import defgpa.metrics
    ss = mask_set(rng, full_set(rng, 3, 40, 2, kind="affine", noise=0.05), 0.1)
    models = affine_models(ss)
    whole = cves(cross_validation_errors(ss, [models]))
    dplr = defgpa.metrics._bottom_pairs_dplr
    blocks = []

    def spy(D, W, d, start=None):
        blocks.append(len(W))
        return dplr(D, W, d, start)

    monkeypatch.setattr(defgpa.metrics, "_bottom_pairs_dplr", spy)
    monkeypatch.setattr(defgpa.metrics, "_STACK_ENTRIES", 5000)
    split = cves(cross_validation_errors(ss, [models]))
    assert blocks == [3] * 13 + [1]
    assert split[0][0] == whole[0][0]
    np.testing.assert_array_equal(np.array(split[0][1]), np.array(whole[0][1]))


def test_cve_memory_stays_within_the_stack_bound(rng, monkeypatch):
    # the CVE may hold one solve's arrays plus at most _STACK_ENTRIES float64 entries of stacks
    import tracemalloc
    import defgpa.metrics
    ss = mask_set(rng, full_set(rng, 2, 150, 12, kind="smooth", noise=0.05), 0.1, min_joint=2 + 2)
    models = affine_models(ss)
    tracemalloc.start()
    try:
        solve(ss, models, check_conditions=False)
        _, solve_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        (outcome,) = cves(cross_validation_errors(ss, [models]))
        _, cve_peak = tracemalloc.get_traced_memory()
        # the same CVE with one pair per pass and one fold per chunk holds no stacks to speak of
        with monkeypatch.context() as patch:
            patch.setattr(defgpa.metrics, "_STACK_ENTRIES", 1)
            tracemalloc.reset_peak()
            unstacked_base, _ = tracemalloc.get_traced_memory()
            cross_validation_errors(ss, [models])
            _, unstacked_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not isinstance(outcome, DefgpaError)
    assert cve_peak - base < solve_peak + 8 * defgpa.metrics._STACK_ENTRIES
    # the bound in entries alone: what the stacks add over that CVE
    assert (cve_peak - base) - (unstacked_peak - unstacked_base) < 8 * defgpa.metrics._STACK_ENTRIES


def test_dense_fold_blocks_stay_within_the_stack_bound(rng, monkeypatch):
    # on the CLI's grid of eleven smoothing values with k >= m', each pair's matrix is built from its
    # row's Gram; the stacks of a block hold at most _STACK_ENTRIES float64 entries over blocks of one
    # pair.  The pass's own T x k x m array is not counted, so the peaks are those of the fold blocks
    import tracemalloc
    import defgpa.metrics
    ss = mask_set(rng, full_set(rng, 2, 40, 8, kind="smooth", noise=0.05), 0.1, min_joint=2 + 2)
    sets = grid_sets(ss, np.logspace(-5, 5, 11).tolist(), affine=False)
    assert ss.n * sets[0][0].feature_dim + 2 >= ss.m - 1
    entries, fold_blocks, peaks = defgpa.metrics._STACK_ENTRIES, defgpa.metrics._fold_blocks, []

    def spy(*args):
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        outcomes = fold_blocks(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return outcomes

    monkeypatch.setattr(defgpa.metrics, "_fold_blocks", spy)
    tracemalloc.start()
    try:
        outcomes = cves(cross_validation_errors(ss, sets))
        (stacked,) = peaks  # one pass
        monkeypatch.setattr(defgpa.metrics, "_STACK_ENTRIES", 1)  # passes of one set, blocks of one pair
        peaks.clear()
        cross_validation_errors(ss, sets)
    finally:
        tracemalloc.stop()
    assert not any(isinstance(outcome, DefgpaError) for outcome in outcomes)
    assert len(peaks) == len(sets)
    assert stacked - max(peaks) < 8 * entries
