"""The DefGPA solver: pairwise Procrustes, completion, prior, closed-form solve."""

import itertools

import numpy as np
import pytest

from defgpa import (
    CovariancePrior,
    DegenerateConfiguration,
    DegenerateInput,
    DimensionError,
    InsufficientOverlap,
    Shape,
    ShapeSet,
    SingularSystem,
    UnconstrainedPoint,
    assemble_P,
    check_theorem_conditions,
    complete_all,
    eig_sym,
    estimate_prior_for_set,
    leftmost_singular_vector,
    rmse_r,
    solve,
    solve_affine_centered,
)
from defgpa import gpa as gpa_module
from defgpa.gpa import (_cholesky, _downdated_terms, _gram_anchor, _per_shape_terms, _procrustes,
                        _rank_below, _stacked)
from defgpa.warps import AffineWarp
from conftest import (
    affine_models,
    dense_runs,
    dense_selection,
    full_set,
    full_shapes,
    gauge_residual,
    kabsch,
    mask_set,
    pairwise_transform_table,
    random_rotation,
    tps_models,
)


def basis_stack(B):
    """The `_bases` layout of bases B (n x l x m): their n l rows and two zero rows."""
    return np.concatenate([B.reshape(-1, B.shape[-1]), np.zeros((2, B.shape[-1]))])


def row_space_projector(S):
    U, _, _ = np.linalg.svd(np.asarray(S).T, full_matrices=False)
    return U @ U.T


class LinearOnlyWarp(AffineWarp):
    """Contrived basis with no constant direction: B(D) = D."""

    def __init__(self, d):
        super().__init__(d)
        self.feature_dim = d

    def basis(self, D):
        return np.asarray(D, dtype=float)

    @property
    def regularizer(self):
        return np.zeros((0, self.d))

    def gram_regularizer(self):
        return np.zeros((self.d, self.d))

    def describe(self):
        return {"type": "linear-only", "d": self.d}


def pair_transform(d1, d2, allow_reflection=False):
    """s, R, t mapping d1 onto d2: entry [1, 0] of the two-shape table."""
    s, R, t = pairwise_transform_table(ShapeSet((d1, d2)), allow_reflection=allow_reflection)
    return s[1, 0], R[1, 0], t[1, 0]


def complete_shape(shape_set, i, table):
    """Full d x m matrix for shape i: visible points kept, missing ones filled.

    Each missing point is the visibility-weighted average of its occurrences
    in the other shapes mapped into frame i through the pairwise transforms
    (the sum runs over all shapes, each masked by its own visibility).
    `table` is the (s, R, t) of `pairwise_transform_table`.  The per-shape
    reference for `complete_all`.
    """
    s, R, t = table
    target = shape_set[i]
    d, m = target.d, target.m
    acc = np.zeros((d, m))
    counts = np.zeros(m)
    for k, src in enumerate(shape_set):
        gamma = src.visibility.astype(float)
        mapped = s[i, k] * (R[i, k] @ src.filled(0.0)) + t[i, k][:, None]
        acc += mapped * gamma[None, :]
        counts += gamma
    missing = ~target.visibility
    if np.any(counts[missing] == 0):
        bad = np.flatnonzero(missing & (counts == 0)).tolist()
        raise UnconstrainedPoint(f"points {bad} are visible in no shape")
    out = target.filled(0.0)
    safe = np.where(counts > 0, counts, 1.0)
    out[:, missing] = (acc / safe[None, :])[:, missing]
    return out


class TestPairwiseProcrustes:
    def test_identity(self, rng):
        pts = rng.normal(size=(2, 8))
        sh = Shape(pts, np.ones(8, bool))
        s, R, t = pair_transform(sh, sh)
        assert s == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(R, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(t, np.zeros(2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_known_transform_recovery(self, rng, d):
        pts = rng.normal(size=(d, 10))
        R0 = random_rotation(rng, d)
        t0 = rng.normal(size=d)
        moved = 2.0 * R0 @ pts + t0[:, None]
        s, R, t = pair_transform(Shape(pts, np.ones(10, bool)), Shape(moved, np.ones(10, bool)))
        assert s == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(R, R0, atol=1e-10)
        np.testing.assert_allclose(t, t0, atol=1e-9)

    def test_hand_example_two_points(self):
        # {(0,0),(1,0)} -> {(0,0),(0,2)}: scale 2, 90-degree rotation,
        # centroid mapped to centroid.  A third collinear pair keeps the
        # shapes valid without changing the fit.
        d1 = Shape(np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]]), np.ones(3, bool))
        d2 = Shape(np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0]]), np.ones(3, bool))
        s, R, t = pair_transform(d1, d2)
        assert s == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(R, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(s * (R @ np.array([[0.5], [0.0]])) + t[:, None], [[0.0], [1.0]],
                                   atol=1e-12)

    def test_masked_to_joint_points(self, rng):
        pts = rng.normal(size=(2, 10))
        R0 = random_rotation(rng, 2)
        moved = 1.5 * R0 @ pts + np.array([[1.0], [2.0]])
        # disagreeing coordinates on points that are not jointly visible
        noisy = moved.copy()
        noisy[:, 7:] += 100.0
        v1 = np.ones(10, bool)
        v2 = np.ones(10, bool)
        v1[7:] = False
        s, _, _ = pair_transform(Shape(pts, v1), Shape(noisy, v2))
        assert s == pytest.approx(1.5, abs=1e-9)

    def test_insufficient_overlap(self, rng):
        pts = rng.normal(size=(2, 8))
        v1 = np.array([True] * 4 + [False] * 4)
        v2 = np.array([False] * 4 + [True] * 4)
        # both shapes individually valid, but no joint support
        v1[4] = True
        v2[3] = True
        with pytest.raises(InsufficientOverlap):
            pair_transform(Shape(pts, v1), Shape(pts, v2))

    def test_coincident_source_degenerate(self):
        same = np.zeros((2, 5))
        tgt = np.arange(10.0).reshape(2, 5)
        with pytest.raises(DegenerateConfiguration):
            pair_transform(Shape(same, np.ones(5, bool)), Shape(tgt, np.ones(5, bool)))

    def test_reflection_flag(self, rng):
        pts = rng.normal(size=(2, 9))
        mirror = np.diag([1.0, -1.0])
        moved = mirror @ pts
        s1 = Shape(pts, np.ones(9, bool))
        s2 = Shape(moved, np.ones(9, bool))
        s, R, t = pair_transform(s1, s2, allow_reflection=True)
        assert np.linalg.det(R) == pytest.approx(-1.0, abs=1e-10)
        np.testing.assert_allclose(s * (R @ pts) + t[:, None], moved, atol=1e-9)
        _, R, _ = pair_transform(s1, s2, allow_reflection=False)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


class TestCompletion:
    def test_full_shape_unchanged(self, rng):
        ss = full_set(rng, 2, 8, 3, kind="affine")
        table = pairwise_transform_table(ss)
        np.testing.assert_allclose(complete_shape(ss, 0, table), ss[0].points, atol=1e-12)

    def test_two_identical_shapes_fill(self, rng):
        pts = rng.normal(size=(2, 6))
        v1 = np.ones(6, bool)
        v1[4] = False
        ss = ShapeSet((Shape(pts, v1), Shape(pts, np.ones(6, bool))))
        table = pairwise_transform_table(ss)
        full = complete_shape(ss, 0, table)
        np.testing.assert_allclose(full, pts, atol=1e-9)

    def test_matches_direct_formula(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 14, 4, kind="affine", noise=0.01), 0.25)
        table = pairwise_transform_table(ss)
        i = 1
        lib = complete_shape(ss, i, table)
        # direct term-by-term evaluation of the completion formula
        m = ss.m
        gamma_i = ss[i].visibility.astype(float)
        D_hat = np.zeros((2, m))
        gamma_plus = np.zeros(m)
        s, R, t = table
        for k, src in enumerate(ss):
            term = (s[i, k] * R[i, k] @ src.filled(0.0)
                    + t[i, k][:, None] @ np.ones((1, m)))
            D_hat += term @ np.diag(src.visibility.astype(float))
            gamma_plus += src.visibility.astype(float)
        direct = (ss[i].filled(0.0) @ np.diag(gamma_i)
                  + D_hat @ np.diag(1.0 / gamma_plus) @ np.diag(1.0 - gamma_i))
        np.testing.assert_allclose(lib, direct, atol=1e-10)


def two_pass_procrustes(src, tgt, allow_reflection):
    """Reference s, R, t: centered SVD Procrustes on the jointly visible points."""
    joint = src.visibility & tgt.visibility
    A1 = src.points[:, joint] - src.points[:, joint].mean(axis=1, keepdims=True)
    A2 = tgt.points[:, joint] - tgt.points[:, joint].mean(axis=1, keepdims=True)
    U, _, Vt = np.linalg.svd(A1 @ A2.T)
    D = np.eye(src.d)
    if not allow_reflection and np.linalg.det(Vt.T @ U.T) < 0:
        D[-1, -1] = -1.0
    R = Vt.T @ D @ U.T
    s = np.trace(R @ A1 @ A2.T) / np.sum(A1 * A1)
    mu1 = src.points[:, joint].mean(axis=1)
    mu2 = tgt.points[:, joint].mean(axis=1)
    return s, R, mu2 - s * R @ mu1


def mirrored_masked_set(rng, d):
    """Masked affine set whose second shape is mirrored, so reflections matter."""
    ss = full_set(rng, d, 16, 5, kind="affine", noise=0.02)
    mirror = np.diag([-1.0] + [1.0] * (d - 1))
    shapes = list(ss)
    shapes[1] = Shape(mirror @ shapes[1].points, shapes[1].visibility)
    return mask_set(rng, ShapeSet(tuple(shapes)), 0.25)


class TestBatchedCompletion:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("allow_reflection", [False, True])
    def test_complete_all_matches_per_shape_reference(self, rng, d, allow_reflection):
        ss = mirrored_masked_set(rng, d)
        table = pairwise_transform_table(ss, allow_reflection=allow_reflection)
        expected = [complete_shape(ss, i, table) for i in range(ss.n)]
        got = complete_all(ss, allow_reflection=allow_reflection)
        for full, want in zip(got, expected):
            np.testing.assert_allclose(full, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("allow_reflection", [False, True])
    def test_table_matches_two_pass_procrustes(self, rng, d, allow_reflection):
        ss = mirrored_masked_set(rng, d)
        scales, rotations, translations = pairwise_transform_table(
            ss, allow_reflection=allow_reflection)
        for i in range(ss.n):
            for k in range(ss.n):
                if i == k:
                    continue
                s, R, t = two_pass_procrustes(ss[k], ss[i], allow_reflection)
                assert scales[i, k] == pytest.approx(s, rel=1e-12)
                np.testing.assert_allclose(rotations[i, k], R, rtol=0, atol=1e-12)
                np.testing.assert_allclose(translations[i, k], t, rtol=0, atol=1e-12)
        dets = [np.linalg.det(rotations[0, 1]), np.linalg.det(rotations[1, 0])]
        np.testing.assert_allclose(dets, -1.0 if allow_reflection else 1.0, atol=1e-10)

    def test_insufficient_overlap_raises_like_per_pair(self, rng):
        pts = rng.normal(size=(2, 8))
        v1 = np.array([True] * 5 + [False] * 3)
        v2 = np.array([False] * 4 + [True] * 4)
        ss = ShapeSet((Shape(pts, v1), Shape(pts, v2)))
        with pytest.raises(InsufficientOverlap):
            pair_transform(ss[1], ss[0])
        with pytest.raises(InsufficientOverlap):
            complete_shape(ss, 0, pairwise_transform_table(ss))
        with pytest.raises(InsufficientOverlap):
            complete_all(ss)

    def test_coincident_points_raise_like_per_pair(self, rng):
        # identical points off the origin: their centroid carries round-off
        same = np.tile([[0.1], [0.7]], 6)
        other = rng.normal(size=(2, 6))
        vis = np.array([True] * 5 + [False])
        ss = ShapeSet((Shape(same, np.ones(6, bool)), Shape(other, vis)))
        with pytest.raises(DegenerateConfiguration):
            pair_transform(ss[0], ss[1])
        with pytest.raises(DegenerateConfiguration):
            complete_shape(ss, 1, pairwise_transform_table(ss))
        with pytest.raises(DegenerateConfiguration):
            complete_all(ss)


class TestPriorEstimation:
    def test_identical_shapes(self, rng):
        pts = rng.normal(size=(2, 10))
        prior = estimate_prior_for_set(full_shapes([pts, pts.copy(), pts.copy()]))
        centered = pts - pts.mean(axis=1, keepdims=True)
        expected = np.sort(np.linalg.eigvalsh(centered @ centered.T))[::-1]
        np.testing.assert_allclose(prior.lambdas, expected, atol=1e-9)

    def test_two_shapes_known_singular_values(self):
        # two shapes with singular values (2, 1) each: theta* = (2,1)/sqrt(5),
        # s = sqrt(5), so the prior is diag(4, 1)
        v1 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        v2 = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        D = np.diag([2.0, 1.0]) @ np.vstack([v1, v2])
        prior = estimate_prior_for_set(full_shapes([D, D.copy()]))
        np.testing.assert_allclose(prior.lambdas, [4.0, 1.0], atol=1e-12)

    def test_matches_grid_search(self, rng):
        shapes = [rng.normal(size=(2, 9)) for _ in range(5)]
        prior = estimate_prior_for_set(full_shapes(shapes))
        # brute-force maximization of sum (theta^T pi_i)^2 on the unit circle
        cols = []
        norms = []
        for D in shapes:
            Dbar = D - D.mean(axis=1, keepdims=True)
            sv = np.linalg.svd(Dbar, compute_uv=False)
            cols.append(sv / np.linalg.norm(sv))
            norms.append(np.linalg.norm(sv))
        Pi = np.column_stack(cols)
        best_phi, span = np.pi / 4, np.pi / 4
        for _ in range(3):  # progressively refined grid
            phis = np.linspace(best_phi - span, best_phi + span, 20001)
            thetas = np.vstack([np.cos(phis), np.sin(phis)])
            scores = np.sum((thetas.T @ Pi) ** 2, axis=1)
            best_phi = phis[np.argmax(scores)]
            span /= 1000.0
        theta = np.array([np.cos(best_phi), np.sin(best_phi)])
        lam_grid = (np.mean(norms) * np.abs(theta)) ** 2
        np.testing.assert_allclose(prior.lambdas, np.sort(lam_grid)[::-1], atol=1e-4)

    def test_zero_scale(self):
        with pytest.raises(DegenerateInput):
            estimate_prior_for_set(full_shapes([np.ones((2, 5))]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_stacked_svd_matches_per_shape_loop(self, rng, d):
        shapes = [rng.uniform(0.5, 2.0) * rng.normal(size=(d, 11)) for _ in range(6)]
        columns, norms = [], []
        for D in shapes:  # one SVD call per shape
            sv = np.linalg.svd(D - D.mean(axis=1, keepdims=True), compute_uv=False)[:d]
            columns.append(sv / np.linalg.norm(sv))
            norms.append(np.linalg.norm(sv))
        expected = (np.mean(norms) * leftmost_singular_vector(np.column_stack(columns))) ** 2
        np.testing.assert_allclose(estimate_prior_for_set(full_shapes(shapes)).lambdas, expected,
                                   rtol=1e-14, atol=0)
        with pytest.raises(DegenerateInput, match="shape 2 has zero scale"):
            estimate_prior_for_set(full_shapes(shapes[:2] + [np.ones((d, 11))] + shapes[2:]))

    def test_partial_set_routes_through_completion(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="affine"), 0.2)
        prior = estimate_prior_for_set(ss)
        from defgpa import complete_all
        direct = estimate_prior_for_set(full_shapes(complete_all(ss)))
        np.testing.assert_allclose(prior.lambdas, direct.lambdas, atol=1e-12)


class TestAssembleP:
    def test_affine_full_P1_zero(self, rng):
        ss = full_set(rng, 2, 10, 4, kind="affine")
        P = assemble_P(ss, affine_models(ss))
        assert np.max(np.abs(P @ np.ones(10))) < 1e-8

    def test_tps_full_P1_zero(self, rng):
        ss = full_set(rng, 2, 15, 3, kind="smooth")
        P = assemble_P(ss, tps_models(ss, k=3, theta=2.0))
        assert np.max(np.abs(P @ np.ones(15))) < 1e-8

    def test_partial_eigen_bounds(self, rng):
        ss = mask_set(rng, full_set(rng, 3, 16, 5, kind="smooth"), 0.2)
        P = assemble_P(ss, tps_models(ss, k=3, theta=1.0))
        vals = eig_sym(P).values
        n = ss.n
        assert vals[0] >= -1e-8 * n
        assert vals[-1] <= n + 1e-8 * n

    def test_full_shape_reduction_matches_direct_formula(self, rng):
        # with all points visible the assembly equals the unmasked formula
        ss = full_set(rng, 2, 12, 3, kind="smooth")
        models = tps_models(ss, k=3, theta=0.5)
        P = assemble_P(ss, models)
        direct = np.zeros((12, 12))
        for s, model in zip(ss, models):
            B = model.basis(s.points)
            N = B @ B.T + model.smoothing * model.gram_regularizer()
            direct += np.eye(12) - B.T @ np.linalg.solve(N, B)
        np.testing.assert_allclose(P, direct, atol=1e-10)

    def test_singular_normal_matrix_reports_index(self):
        # mu = inf on shape 3 only: its normal matrix is the one non-finite one
        pts = np.array([[0.0, 1.0, 3.0, 4.0]])
        B = np.stack([np.vstack([pts + i, np.ones((1, 4))]) for i in range(4)])
        grams = np.stack([[[2.0, 1.0], [1.0, 2.0]]] * 4)
        mus = np.array([[1.0, 1.0, 1.0, np.inf]])
        _, _, errors = _per_shape_terms(np.ones((4, 4)), (basis_stack(B), grams, (2,) * 4), mus)
        assert list(errors) == [0] and errors[0].shape_index == 3
        assert str(errors[0]) == "normal matrix of shape 3 is non-finite"

    def test_normal_solve_matches_dense_solve(self, rng):
        A = rng.normal(size=(5, 8))
        N = A @ A.T + np.eye(5)
        rhs = rng.normal(size=(5, 3))
        L, failed = _cholesky(N)
        assert not failed
        Linv = np.linalg.inv(L)
        half = Linv @ rhs
        solved = Linv.T @ half
        np.testing.assert_allclose(solved, np.linalg.solve(N, rhs), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(half.T @ half, rhs.T @ solved, rtol=1e-12, atol=1e-12)
        # the same N as the normal matrix A A^T + 1 * I of one shape with basis A
        Linv, factor, errors = _per_shape_terms(np.ones((1, 8)), (basis_stack(A), np.eye(5)[None], (5,)),
                                                np.ones((1, 1)))
        assert errors == {}
        F = factor[0, :5]
        solved = Linv[0, 0].T @ F
        np.testing.assert_allclose(solved, np.linalg.solve(N, A), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(F.T @ F, A.T @ solved, rtol=1e-12, atol=1e-12)

    def test_semidefinite_normal_matrix_is_singular(self):
        # N_0 = 11^T + mu_0 Z and N_1 = I + mu_1 Z: row 0 leaves N_0 semidefinite, row 1 makes N_1
        # indefinite, row 2 N_1 non-finite; row 4 fails both and names the first
        B = np.stack([[[1.0, 0.0], [1.0, 0.0]], np.eye(2)])
        grams = np.stack([[[2.0, 1.0], [1.0, 2.0]]] * 2)
        mus = np.array([[0.0, 1.0], [1.0, -2.0], [1.0, np.inf], [1.0, 1.0], [np.inf, -2.0]])
        _, _, errors = _per_shape_terms(np.ones((2, 2)), (basis_stack(B), grams, (2, 2)), mus)
        assert {t: (type(exc), exc.shape_index, str(exc)) for t, exc in errors.items()} == {
            0: (SingularSystem, 0, "normal matrix of shape 0 is singular"),
            1: (SingularSystem, 1, "normal matrix of shape 1 is singular"),
            2: (SingularSystem, 1, "normal matrix of shape 1 is non-finite"),
            4: (SingularSystem, 0, "normal matrix of shape 0 is non-finite"),
        }

    def test_pivot_left_by_round_off_is_singular(self):
        # N = 2 11^T passes np.linalg.cholesky with a last pivot of about 2e-8: L_jj^2 lies far below
        # 1e-12 N_jj
        bases = (basis_stack(np.ones((1, 2, 2))), np.zeros((1, 2, 2)), (2,))
        _, _, errors = _per_shape_terms(np.ones((1, 2)), bases, np.zeros((1, 1)))
        assert {t: (type(exc), exc.shape_index, str(exc)) for t, exc in errors.items()} == {
            0: (SingularSystem, 0, "normal matrix of shape 0 is singular")}

    def test_cholesky_returns_the_whole_verdict(self):
        # a positive definite N, a non-finite one, an indefinite one and 2 11^T, which passes the
        # factorization by round-off: the last three fail and get identity factors.  The indefinite N
        # makes the stacked call fail, so the matrices are factored one by one; without it, the
        # stacked call passes and only the pivot floor fails 2 11^T
        N = np.stack([[[2.0, 1.0], [1.0, 2.0]], [[1.0, np.nan], [np.nan, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                      2.0 * np.ones((2, 2))])
        for stack, want in ((N, [False, True, True, True]), (N[[0, 3]], [False, True])):
            L, failed = _cholesky(stack)
            np.testing.assert_array_equal(failed, want)
            np.testing.assert_allclose(L[0] @ L[0].T, N[0], rtol=1e-15)
            np.testing.assert_array_equal(L[1:], np.broadcast_to(np.eye(2), (len(stack) - 1, 2, 2)))

    def test_singular_fold_downdates(self, rng):
        # F_i = L_i^-1 Bg_i (l = 2) and one held column u per shape: N_i' = L_i (I - u u^T) L_i^T.  Fold
        # 1 holds out a point of leverage 1 in shape 1, so that chol(I - u u^T) fails; fold 2 one of
        # leverage 1 - 1e-14 in shape 0, which passes it with E_22^2 = 4e-14 (I - u u^T)_22, and shape 1's
        # again; fold 0 is regular.  Fold p holds out column 3 + p of F and keeps columns 0-2
        lever = np.sqrt((1 - 1e-14) / 2)
        U = np.array([[[0.6, 0.0], [0.0, 0.8]], [[0.6, 0.0], [1.0, 0.0]], [[lever, lever], [1.0, 0.0]]])
        F = np.concatenate([rng.normal(size=(1, 2, 2, 3)), U.transpose(1, 2, 0)[None]], axis=-1)
        EU, factor, errors = _downdated_terms(F, np.zeros(3, int), np.arange(3, 6)[:, None],
                                              np.tile(np.arange(3), (3, 1)))
        assert {p: (type(exc), exc.shape_index, str(exc)) for p, exc in errors.items()} == {
            1: (SingularSystem, 1, "normal matrix of shape 1 is singular"),
            2: (SingularSystem, 0, "normal matrix of shape 0 is singular")}
        for i in range(2):  # fold 0: L'^-1 = E^-1 L^-1 with E = chol(I - u u^T)
            Einv = np.linalg.inv(np.linalg.cholesky(np.eye(2) - np.outer(U[0, i], U[0, i])))
            np.testing.assert_allclose(EU[0, i], Einv @ U[0, i, :, None], rtol=1e-14)
            np.testing.assert_allclose(factor[0, 2 * i:2 * i + 2], Einv @ F[0, i, :, :3], rtol=1e-14)


class TestStackedNormalSolves:
    """One factorization call for a T x n stack, with a per-matrix scan on failure."""

    @staticmethod
    def instance():
        # shape 1's two basis rows coincide: its normal matrix is singular at mu = 0
        pts = np.array([[0.0, 1.0, 3.0, 4.0]])
        ss = ShapeSet((Shape(pts, np.ones(4, bool)), Shape(pts + 1.0, np.ones(4, bool))))
        B = np.stack([np.vstack([pts, np.ones((1, 4))]), np.ones((2, 4))])
        return ss, (basis_stack(B), np.stack([np.zeros((2, 2)), np.eye(2)]), (2, 2))

    @staticmethod
    def normal_solves(Linv, factor):
        """N_ti^-1 Bg_i = L_ti^-T (L_ti^-1 Bg_i) from the terms of `_per_shape_terms` (two shapes)."""
        return np.swapaxes(Linv, -1, -2) @ factor[:, :-2].reshape(len(factor), 2, 2, -1)

    def test_scan_only_where_the_factorization_fails(self):
        # row 1 leaves shape 1's semidefinite normal matrix unregularized: only that row fails
        ss, bases = self.instance()
        mus = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 2.0]])
        Linv, F, errors = _per_shape_terms(ss.visibility_matrix(), bases, mus)
        assert {t: (type(exc), exc.shape_index, str(exc)) for t, exc in errors.items()} == {
            1: (SingularSystem, 1, "normal matrix of shape 1 is singular")}
        solved = self.normal_solves(Linv, F)
        cleanLinv, cleanF, _ = _per_shape_terms(ss.visibility_matrix(), bases, mus[[0, 2]])
        clean = self.normal_solves(cleanLinv, cleanF)
        np.testing.assert_array_equal(F[[0, 2]], cleanF)
        np.testing.assert_array_equal(solved[[0, 2]], clean)

    def test_singular_row_fails_alone(self):
        ss, bases = self.instance()
        mus = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0]])  # row 1: indefinite N_1
        Linv, F, errors = _per_shape_terms(ss.visibility_matrix(), bases, mus)
        solved = self.normal_solves(Linv, F)
        assert list(errors) == [1]
        assert isinstance(errors[1], SingularSystem) and errors[1].shape_index == 1
        clean = self.normal_solves(*_per_shape_terms(ss.visibility_matrix(), bases, mus[[0, 2]])[:2])
        np.testing.assert_allclose(solved[[0, 2]], clean, rtol=1e-15, atol=0)

    def test_one_row_in_place_matches_its_row_of_a_stack(self, rng):
        # one row writes F over the bases' own array, three rows write a new one; padded rows from
        # the affine shapes
        ss = mask_set(rng, full_set(rng, 2, 30, 4, kind="smooth", noise=0.05), 0.15, min_joint=2 + 2)
        models = affine_models(ss)[:2] + tps_models(ss, k=3)[2:]
        G = ss.visibility_matrix()
        mus = np.array([[0.0, 0.0, 3.0, 5.0], [0.0, 0.0, 0.3, 0.5], [0.0, 0.0, 0.03, 0.05]])
        bases = gpa_module._bases(ss, models)
        Linv, factor, errors = _per_shape_terms(G, bases, mus)
        assert errors == {} and not np.shares_memory(factor, bases[0])
        for t in range(len(mus)):
            bases = gpa_module._bases(ss, models)
            rowLinv, row, errors = _per_shape_terms(G, bases, mus[t:t + 1])
            assert errors == {} and np.shares_memory(row, bases[0])
            np.testing.assert_array_equal(rowLinv[0], Linv[t])
            np.testing.assert_array_equal(row[0], factor[t])

    def test_mixed_feature_dims_match_direct_formula(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 14, 3, kind="smooth", noise=0.05), 0.15)
        models = affine_models(ss)[:2] + tps_models(ss, k=3, theta=0.5)[2:]
        direct = np.diag(ss.visibility_matrix().sum(axis=0).astype(float))
        for s, model in zip(ss, models):
            B = model.basis(s.filled(0.0))
            Bg = B * s.visibility[None, :]
            direct -= Bg.T @ np.linalg.solve(Bg @ B.T + model.smoothing * model.gram_regularizer(), Bg)
        np.testing.assert_allclose(assemble_P(ss, models), direct, atol=1e-10)
        sol = solve(ss, models)
        assert [W.shape for W in sol.weights] == [(3, 2), (3, 2), (9, 2)]
        S, _ = dense_reference(ss, models, sol.prior)
        assert gauge_residual(sol.reference, S) < 1e-8


class TestSolve:
    @pytest.mark.parametrize("ref", [5, -1])
    def test_reflection_ref_out_of_range(self, rng, monkeypatch, ref):
        ss = full_set(rng, 2, 8, 3, kind="affine", noise=0.05)

        def estimate(*args, **kwargs):
            raise AssertionError("the prior was estimated before the argument check")

        monkeypatch.setattr(gpa_module, "estimate_prior_for_set", estimate)
        with pytest.raises(DimensionError):
            solve(ss, affine_models(ss), reflection_ref=ref)
        with pytest.raises(DimensionError):
            solve_affine_centered(ss, reflection_ref=ref)

    @pytest.mark.parametrize("ref", [1.5, "1"], ids=["float", "str"])
    def test_reflection_ref_must_be_an_integer(self, rng, ref):
        ss = full_set(rng, 2, 8, 3, kind="affine", noise=0.05)
        with pytest.raises(DimensionError, match="is not a shape index for n=3"):
            solve(ss, affine_models(ss), reflection_ref=ref)

    def test_numpy_integer_reflection_ref(self, rng):
        ss = full_set(rng, 2, 8, 3, kind="affine", noise=0.05)
        want = solve(ss, affine_models(ss), reflection_ref=1)
        got = solve(ss, affine_models(ss), reflection_ref=np.int64(1))
        np.testing.assert_array_equal(got.reference, want.reference)

    def test_identical_shapes_zero_residual(self, rng):
        pts = rng.normal(size=(2, 9))
        pts -= pts.mean(axis=1, keepdims=True)
        ss = ShapeSet(tuple(Shape(pts.copy(), np.ones(9, bool)) for _ in range(4)))
        models = affine_models(ss)
        sol = solve(ss, models)
        assert rmse_r(sol, ss, models) < 1e-8
        # reference equals the common shape up to a rigid motion
        R, t = kabsch(pts, sol.reference)
        np.testing.assert_allclose(R @ pts + t[:, None], sol.reference, atol=1e-7)

    def test_known_affine_maps_zero_cost(self, rng):
        ss = full_set(rng, 2, 12, 5, kind="affine")
        sol = solve(ss, affine_models(ss))
        assert sol.cost < 1e-8

    def test_constraints_hold(self, rng):
        ss = mask_set(rng, full_set(rng, 3, 20, 5, kind="smooth", noise=0.05), 0.2)
        models = tps_models(ss, k=3, theta=1.0)
        sol = solve(ss, models)
        lam = sol.prior.lambdas
        S = sol.reference
        assert np.linalg.norm(S @ S.T - np.diag(lam)) <= 1e-8 * lam.sum()
        assert np.linalg.norm(S @ np.ones(20)) <= 1e-6 * np.sqrt(lam.sum())

    def test_weight_step_is_stationary(self, rng):
        ss = full_set(rng, 2, 14, 4, kind="smooth", noise=0.02)
        models = tps_models(ss, k=3, theta=1.0)
        sol = solve(ss, models)
        # re-solving the weight least squares at S* reproduces the same cost
        total = sol.penalty_cost
        for s, model, W in zip(ss, models, sol.weights):
            B = model.basis(s.filled(0.0)) * s.visibility[None, :]
            N = B @ model.basis(s.filled(0.0)).T + model.smoothing * model.gram_regularizer()
            W2 = np.linalg.solve(N, B @ sol.reference.T)
            r = W2.T @ B - sol.reference * s.visibility[None, :]
            total += float(np.sum(r * r))
            total += model.smoothing * float(np.trace(W2.T @ model.gram_regularizer() @ W2))
        assert sol.cost <= total * (1 + 1e-9) + 1e-12

    def test_nu_default_and_validation(self, rng):
        ss = full_set(rng, 2, 10, 3, kind="affine")
        sol = solve(ss, affine_models(ss))
        assert sol.nu == pytest.approx(3 / 10)

    def test_prior_accepts_plain_array(self, rng):
        ss = full_set(rng, 2, 10, 3, kind="affine")
        sol = solve(ss, affine_models(ss), prior=[9.0, 4.0])
        np.testing.assert_allclose(np.linalg.norm(sol.reference, axis=1), [3.0, 2.0],
                                   atol=1e-10)

    def test_bitwise_reproducible(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 15, 4, kind="smooth", noise=0.05), 0.2)
        models = tps_models(ss, k=3, theta=1.0)
        sol1 = solve(ss, models)
        sol2 = solve(ss, models)
        assert np.array_equal(sol1.reference, sol2.reference)
        for W1, W2 in zip(sol1.weights, sol2.weights):
            assert np.array_equal(W1, W2)

    def test_minimum_landmark_count_boundary(self, rng):
        # m = d+1 is the smallest viable instance (the Shape floor also makes
        # the d > m-1 failure unreachable through validated inputs)
        ss = ShapeSet(tuple(
            Shape(rng.normal(size=(2, 3)), np.ones(3, bool)) for _ in range(3)))
        sol = solve(ss, affine_models(ss))
        assert np.all(np.isfinite(sol.reference))

    def test_zero_prior_row(self, rng):
        ss = full_set(rng, 2, 10, 3, kind="affine")
        prior = CovariancePrior(np.array([4.0, 0.0]))
        sol = solve(ss, affine_models(ss), prior=prior)
        assert np.linalg.norm(sol.reference[1]) < 1e-8
        assert np.linalg.norm(sol.reference[0]) == pytest.approx(2.0, abs=1e-8)

    def test_hard_soft_equivalence(self, rng):
        # the constraint S 1 = 0 holds exactly for a basis with no constant direction: S is the
        # optimum of trace(S P S^T) on the complement of 1, and at a small m the enumeration of
        # eigenvector subsets of H P H + (n/m) 11^T (criterion 2) and the alternating minimization
        # confirm it
        for m, trials in ((40, 0), (8, 10)):
            full = full_set(rng, 2, m, 8 if m > 10 else 4, kind="smooth", noise=0.05)
            for ss in (full, mask_set(rng, full, 0.1, min_joint=4)):
                models = [LinearOnlyWarp(2) for _ in ss]
                sol = solve(ss, models, check_conditions=False)
                S, lam = sol.reference, sol.prior.lambdas
                assert np.linalg.norm(S.sum(axis=1)) <= 1e-12 * np.linalg.norm(S)
                P = assemble_P(ss, models)
                N = np.linalg.qr(np.column_stack([np.ones(m), np.eye(m)[:, :m - 1]]))[0][:, 1:]
                optimum = float(lam @ np.linalg.eigvalsh(N.T @ P @ N)[:2])
                achieved = float(np.trace(S @ P @ S.T))
                assert achieved == pytest.approx(optimum, rel=1e-9)
                assert sol.cost == pytest.approx(optimum, rel=1e-9)
                if not trials:
                    continue
                H = np.eye(m) - 1.0 / m
                values = eig_sym(H @ P @ H + ss.n / m).values
                best = min(float(lam @ np.sort(values[list(pair)]))
                           for pair in itertools.combinations(range(m), 2))
                assert achieved <= best + 1e-9 * max(1.0, abs(best))
                if ss.all_full:
                    for _ in range(trials):
                        am_cost = alternating_minimization(ss, models, sol.prior, sol.nu, rng)
                        assert sol.cost <= am_cost + 1e-8 * max(1.0, abs(am_cost))


def test_solve_memory_holds_one_basis_stack(rng, monkeypatch):
    # a full TPS set with k = n l + 2 < m, so that the DPLR eigensolver runs: a solve holds one array
    # of about n l m float64 entries, the bases with F = L^-1 Bg written over them and read by the
    # eigensolver as its m x k factor, and nothing else of that size
    import tracemalloc
    ss = full_set(rng, 2, 1500, 10, kind="smooth", noise=0.05)
    models = tps_models(ss, k=3, theta=0.1)
    prior = estimate_prior_for_set(ss)
    solve(ss, models, prior=prior)
    calls = dense_runs(monkeypatch)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        solve(ss, models, prior=prior)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak - base < 2 * ss.n * models[0].feature_dim * ss.m * 8


def _min_bottom_separation(shape_set, models, nu):
    P = assemble_P(shape_set, models)
    M = P + nu * np.ones((shape_set.m, shape_set.m))
    vals = eig_sym(M).values
    d = shape_set.d
    return float(np.min(np.diff(vals[: d + 1])))


class XOnlyWarp(AffineWarp):
    """Contrived basis [x; 1]: it spans fewer than d directions besides 1."""

    def __init__(self, d):
        super().__init__(d)
        self.feature_dim = 2

    def basis(self, D):
        D = np.asarray(D, dtype=float)
        return np.vstack([D[:1], np.ones((1, D.shape[1]))])

    @property
    def regularizer(self):
        return np.zeros((0, 2))

    def gram_regularizer(self):
        return np.zeros((2, 2))


def dense_reference(shape_set, models, prior):
    """The dense closed form: bottom-d of the assembled H P H + (n/m) 11^T, reflection-corrected."""
    H = np.eye(shape_set.m) - 1.0 / shape_set.m
    M = H @ assemble_P(shape_set, models) @ H + shape_set.n / shape_set.m
    return dense_selection(M, prior.lambdas, _gram_anchor(*_stacked(shape_set)), shape_set[0]), M


class TestFullSetSpanPath:
    """Full sets: the DPLR eigensolver certifies the selection on span([H B_1^T ... H B_n^T, 1]) and
    forms no m x m matrix when its factor has k = sum l_i + 2 < m columns."""

    # (d, model, n, m): sum l_i + 2 is 14, 14, 29 and 26; one m above, one at or below
    CASES = [
        (2, "affine", 4, 30), (2, "affine", 4, 8),
        (3, "affine", 3, 40), (3, "affine", 3, 10),
        (2, "tps", 3, 60), (2, "tps", 3, 16),
        (3, "tps", 3, 60), (3, "tps", 3, 20),
    ]

    @staticmethod
    def instance(rng, d, model, n, m):
        ss = full_set(rng, d, m, n, kind="smooth", noise=0.05)
        models = affine_models(ss) if model == "affine" else tps_models(ss, k=3 if d == 2 else 2)
        return ss, models

    @pytest.mark.parametrize("d, model, n, m", CASES)
    def test_matches_dense_closed_form(self, rng, d, model, n, m):
        ss, models = self.instance(rng, d, model, n, m)
        prior = estimate_prior_for_set(ss)
        sol = solve(ss, models, prior=prior)
        S, M = dense_reference(ss, models, prior)
        assert gauge_residual(sol.reference, S) < 1e-8
        dense_cost = float(np.trace(S @ M @ S.T))
        assert sol.cost == pytest.approx(dense_cost, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("d, model, n, m", CASES)
    def test_no_dense_matrix_is_formed(self, rng, monkeypatch, d, model, n, m):
        # the DPLR core certifies every full set with k = sum l_i + 2 < m columns; at k >= m the
        # dense eigensolver is the rule, and its m x m matrix is no larger than a k x k kernel
        ss, models = self.instance(rng, d, model, n, m)
        k = sum(model.feature_dim for model in models) + 2
        calls = dense_runs(monkeypatch)
        solve(ss, models)
        assert calls == ([] if k < m else [(1, m, k)])

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_residual_cluster_is_anchored(self, rng, d):
        # exact affine copies: the bottom-d eigenvalue is d-fold degenerate,
        # so the anchor rotation picks the basis in both paths
        ss = full_set(rng, d, 15, 4, kind="affine")
        models = affine_models(ss)
        prior = estimate_prior_for_set(ss)
        S, M = dense_reference(ss, models, prior)
        assert np.ptp(eig_sym(M).values[:d]) < 1e-9
        sol = solve(ss, models, prior=prior)
        np.testing.assert_allclose(sol.reference, S, atol=1e-8 * np.max(np.abs(S)))
        assert sol.cost < 1e-8

    def test_centered_affine_matches_dense_top_d(self, rng):
        ss = full_set(rng, 3, 30, 4, kind="smooth", noise=0.05)
        prior = estimate_prior_for_set(ss)
        Q = np.zeros((ss.m, ss.m))
        for s in ss:
            Dbar = s.points - s.points.mean(axis=1, keepdims=True)
            Q += Dbar.T @ np.linalg.solve(Dbar @ Dbar.T, Dbar)
        S = dense_selection(-Q, prior.lambdas, _gram_anchor(*_stacked(ss)), ss[0])
        assert gauge_residual(solve_affine_centered(ss, prior=prior).reference, S) < 1e-8

    def test_falls_back_to_dense_when_the_span_cannot_certify(self, rng, monkeypatch):
        # identical shapes under [x; 1]: the span holds eigenvalue 0 once and
        # n on 1, the value M takes on the complement too
        pts = rng.normal(size=(2, 12))
        ss = ShapeSet(tuple(Shape(pts.copy(), np.ones(12, bool)) for _ in range(3)))
        models = [XOnlyWarp(2) for _ in range(3)]
        calls = dense_runs(monkeypatch)
        prior = CovariancePrior(np.array([4.0, 1.0]))
        sol = solve(ss, models, prior=prior)
        assert calls == [(1, 12, 8)]
        _, M = dense_reference(ss, models, prior)
        optimum = float(prior.lambdas @ eig_sym(M).values[:2])
        assert float(np.trace(sol.reference @ M @ sol.reference.T)) == pytest.approx(optimum, abs=1e-9)
        assert np.linalg.norm(sol.reference @ sol.reference.T - prior.matrix()) < 1e-9


class TestTranslationElimination:
    def test_rejects_partial_shapes(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 10, 3, kind="affine"), 0.2)
        with pytest.raises(DegenerateInput):
            solve_affine_centered(ss)

    def test_affine_as_lbw_q_matrices_agree(self, rng):
        # with mu = 0 and the homogeneous basis, the generic LBW assembly
        # reproduces the dedicated affine projector sum entry-for-entry
        ss = full_set(rng, 2, 10, 3, kind="affine", noise=0.1)
        P = assemble_P(ss, affine_models(ss))
        Q_lbw = ss.n * np.eye(ss.m) - P
        Q_direct = np.zeros((ss.m, ss.m))
        for s in ss:
            Dt = np.vstack([s.points, np.ones(ss.m)])
            Q_direct += Dt.T @ np.linalg.solve(Dt @ Dt.T, Dt)
        np.testing.assert_allclose(Q_lbw, Q_direct, atol=1e-9)

    def test_q_matrix_identity(self, rng):
        ss = full_set(rng, 2, 11, 4, kind="affine", noise=0.05)
        n, m = ss.n, ss.m
        Q_hom = np.zeros((m, m))
        Q_cent = np.zeros((m, m))
        for s in ss:
            Dt = np.vstack([s.points, np.ones(m)])
            Q_hom += Dt.T @ np.linalg.solve(Dt @ Dt.T, Dt)
            Dbar = s.points - s.points.mean(axis=1, keepdims=True)
            Q_cent += Dbar.T @ np.linalg.solve(Dbar @ Dbar.T, Dbar)
        np.testing.assert_allclose(
            Q_hom, (n / m) * np.ones((m, m)) + Q_cent, atol=1e-8)
        assert np.max(np.abs(Q_cent @ np.ones(m))) < 1e-8

    def test_degenerate_centered_shape_raises(self, rng):
        # shape 1 lies on the line y = 0: its centred Dbar_1 Dbar_1^T has a zero row
        arrays = [s.points.copy() for s in full_set(rng, 2, 10, 3, kind="affine")]
        arrays[1][1] = 0.0
        with pytest.raises(SingularSystem, match=r"^centered shape 1 is degenerate$") as exc:
            solve_affine_centered(ShapeSet(tuple(Shape(D, np.ones(10, bool)) for D in arrays)))
        assert exc.value.shape_index == 1

    def test_prior_dimension_mismatch_raises(self, rng):
        ss = full_set(rng, 2, 10, 3, kind="affine")
        with pytest.raises(DimensionError):
            solve_affine_centered(ss, prior=[3.0, 2.0, 1.0])
        with pytest.raises(DimensionError):
            solve_affine_centered(ss, prior=CovariancePrior(np.array([1.0])))

    @pytest.mark.parametrize("d, m, n", [(2, 12, 4), (3, 30, 5)])
    def test_weights_and_costs_match_the_affine_factorization(self, rng, d, m, n):
        # the weights and costs from the centred factors, against those that the homogeneous affine
        # factorization `_terms` gives on the same reference
        ss = full_set(rng, d, m, n, kind="smooth", noise=0.1)
        prior = estimate_prior_for_set(ss)
        sol = solve_affine_centered(ss, prior=prior)
        models = affine_models(ss)
        want = gpa_module._solution(ss, sol.reference, *gpa_module._terms(ss, models)[:2], models, prior)
        for got, ref in zip(sol.weights, want.weights):
            assert got.shape == ref.shape == (d + 1, d)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        for name in ("cost", "data_cost", "reg_cost", "penalty_cost"):
            assert getattr(sol, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
        assert (sol.mus, sol.models, sol.nu) == (want.mus, want.models, want.nu)

    def test_same_reference_as_homogeneous_path(self, rng):
        ss = full_set(rng, 2, 12, 4, kind="affine", noise=0.1)
        prior = estimate_prior_for_set(ss)
        sol_hom = solve(ss, affine_models(ss), prior=prior)
        sol_cent = solve_affine_centered(ss, prior=prior)
        dist = np.linalg.norm(row_space_projector(sol_hom.reference)
                              - row_space_projector(sol_cent.reference))
        assert dist < 1e-8
        # identical up to row signs
        for r1, r2 in zip(sol_hom.reference, sol_cent.reference):
            assert min(np.linalg.norm(r1 - r2), np.linalg.norm(r1 + r2)) < 1e-7


def reflects(S, datum):
    """Whether an orthogonal Procrustes of reference S to the datum Shape reflects, and whether it is
    undetermined: the orientation test of every solve."""
    (R,), _, sv = _procrustes(datum.filled(0.0), S[None], datum.visibility.astype(float),
                              allow_reflection=True)
    return bool(np.linalg.det(R) < 0), bool(_rank_below(sv, len(S))[0])


class TestReflection:
    def test_consistent_unchanged(self, rng):
        ss = full_set(rng, 2, 10, 3, kind="affine")
        sol = solve(ss, affine_models(ss))
        assert reflects(sol.reference, ss[0]) == (False, False)

    def test_mirrored_restored(self, rng):
        ss = full_set(rng, 2, 10, 3, kind="affine")
        sol = solve(ss, affine_models(ss))
        mirrored = sol.reference.copy()
        mirrored[0] *= -1.0
        assert reflects(mirrored, ss[0]) == (True, False)

    def test_idempotent(self, rng):
        # the solve's reference is already oriented, so a second test flips nothing
        ss = full_set(rng, 3, 12, 4, kind="smooth", noise=0.1)
        sol = solve(ss, affine_models(ss))
        assert reflects(sol.reference, ss[0]) == (False, False)
        mirrored = sol.reference.copy()
        mirrored[0] *= -1.0
        assert reflects(mirrored, ss[0]) == (True, False)


class TestTheoremConditions:
    def test_affine_passes(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="affine"), 0.2)
        report = check_theorem_conditions(ss, affine_models(ss))
        assert report.all_pass
        assert report.aggregate_residual < 1e-6

    def test_tps_partial_passes(self, rng):
        ss = mask_set(rng, full_set(rng, 2, 16, 4, kind="smooth"), 0.2)
        report = check_theorem_conditions(ss, tps_models(ss, k=3, theta=3.0))
        assert report.all_pass
        for sc in report.shapes:
            assert sc.witness_found and sc.projector_residual < 1e-6

    def test_singular_normal_matrix_raises(self, rng):
        # shape 1's six points lie on one line, so its affine basis [x; y; 1] has rank 2: the condition
        # check and P's assembly raise the factorization's error, naming shape 1
        ss = full_set(rng, 2, 6, 3, kind="affine")
        x = rng.normal(size=6)
        line = Shape(np.vstack([x, 2.0 * x - 1.0]), np.ones(6, bool))
        ss = ShapeSet((ss[0], line, ss[2]))
        for run in (check_theorem_conditions, assemble_P):
            with pytest.raises(SingularSystem, match="^normal matrix of shape 1 is singular$") as caught:
                run(ss, affine_models(ss))
            assert caught.value.shape_index == 1

    def test_contrived_basis_fails_consistently(self, rng):
        ss = full_set(rng, 2, 12, 4, kind="affine")
        report = check_theorem_conditions(ss, [LinearOnlyWarp(2) for _ in range(4)])
        assert not report.all_pass
        for sc in report.shapes:
            # all statements fail together: no witness and nonzero projector residual
            assert not sc.witness_found
            assert sc.projector_residual > 1e-6
        assert report.aggregate_residual > 1e-6


class TestCoordinateInvariance:
    def test_affine_model(self, rng):
        for attempt in range(5):
            ss = full_set(rng, 2, 12, 4, kind="smooth", noise=0.05)
            models = affine_models(ss)
            if _min_bottom_separation(ss, models, ss.n / ss.m) <= 1e-6:
                continue
            sol1 = solve(ss, models)
            moved = ShapeSet(tuple(
                Shape(random_rotation(rng, 2) @ s.points + rng.normal(size=(2, 1)),
                      s.visibility) for s in ss))
            sol2 = solve(moved, models)
            dist = np.linalg.norm(row_space_projector(sol1.reference)
                                  - row_space_projector(sol2.reference))
            assert dist < 1e-8
            for r1, r2 in zip(sol1.reference, sol2.reference):
                assert min(np.linalg.norm(r1 - r2), np.linalg.norm(r1 + r2)) < 1e-7
            return
        pytest.skip("no instance with sufficient eigengap")

    def test_tps_with_cotransformed_centers(self, rng):
        from defgpa import tps_build
        for attempt in range(5):
            ss = full_set(rng, 2, 14, 4, kind="smooth", noise=0.05)
            models = tps_models(ss, k=3, theta=2.0)
            if _min_bottom_separation(ss, models, ss.n / ss.m) <= 1e-6:
                continue
            prior = estimate_prior_for_set(ss)
            sol1 = solve(ss, models, prior=prior)
            rigids = [(random_rotation(rng, 2), rng.normal(size=(2, 1))) for _ in ss]
            moved = ShapeSet(tuple(
                Shape(R @ s.points + t, s.visibility)
                for s, (R, t) in zip(ss, rigids)))
            moved_models = [
                tps_build(R @ mod.centers + t, mod.internal_smoothing).with_smoothing(mod.smoothing)
                for mod, (R, t) in zip(models, rigids)]
            sol2 = solve(moved, moved_models, prior=prior)
            dist = np.linalg.norm(row_space_projector(sol1.reference)
                                  - row_space_projector(sol2.reference))
            assert dist < 1e-8
            for r1, r2 in zip(sol1.reference, sol2.reference):
                assert min(np.linalg.norm(r1 - r2), np.linalg.norm(r1 + r2)) < 1e-7
            return
        pytest.skip("no instance with sufficient eigengap")


class TestMonotoneSmoothing:
    def test_rmse_r_non_increasing_as_theta_decreases(self, rng):
        ss = full_set(rng, 2, 14, 4, kind="smooth", noise=0.05)
        prior = estimate_prior_for_set(ss)
        thetas = np.logspace(2, -2, 5)  # descending
        values = []
        for theta in thetas:
            models = tps_models(ss, k=3, theta=theta)
            sol = solve(ss, models, prior=prior)
            values.append(rmse_r(sol, ss, models))
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10


class TestMethodOrdering:
    def test_finer_grids_fit_deformable_data_better(self):
        # qualitative structure of the benchmark rows: on smoothly deformed
        # data, rmse_r(TPS k=5) <= rmse_r(TPS k=3) <= rmse_r(affine)
        local = np.random.default_rng(5)
        ss = full_set(local, 2, 60, 6, kind="smooth", noise=0.02, deform=0.2)
        prior = estimate_prior_for_set(ss)
        results = {}
        models = affine_models(ss)
        results["affine"] = rmse_r(solve(ss, models, prior=prior), ss, models)
        for k in (3, 5):
            models = tps_models(ss, k=k, theta=1.0)
            results[k] = rmse_r(solve(ss, models, prior=prior), ss, models)
        assert results[5] <= results[3] <= results["affine"]


def alternating_minimization(shape_set, models, prior, nu, rng, iters=80):
    """Monotone alternation on full shapes: weight LS step and constrained
    reference projection (max trace(S C^T) s.t. S S^T = Lambda, S 1 = 0)."""
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    lam = prior.lambdas
    proj = np.eye(m) - np.ones((m, m)) / m
    X = np.linalg.qr(proj @ rng.normal(size=(m, d)))[0]
    S = np.sqrt(lam)[:, None] * X.T
    bases = [model.basis(s.points) for s, model in zip(shape_set, models)]
    normals = [B @ B.T + model.smoothing * model.gram_regularizer()
               for B, model in zip(bases, models)]
    for _ in range(iters):
        weights = [np.linalg.solve(N, B @ S.T) for N, B in zip(normals, bases)]
        C = np.zeros((d, m))
        for W, B in zip(weights, bases):
            C += W.T @ B
        A = (proj @ C.T) @ np.diag(np.sqrt(lam))
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        S = np.sqrt(lam)[:, None] * (U @ Vt).T
    weights = [np.linalg.solve(N, B @ S.T) for N, B in zip(normals, bases)]
    cost = nu * float(np.sum(S.sum(axis=1) ** 2))
    for W, B, model in zip(weights, bases, models):
        r = W.T @ B - S
        cost += float(np.sum(r * r))
        cost += model.smoothing * float(np.trace(W.T @ model.gram_regularizer() @ W))
    return cost


class TestGlobalOptimality:
    def test_alternating_minimization_never_beats_closed_form(self, rng):
        ss = full_set(rng, 2, 10, 4, kind="smooth", noise=0.1)
        models = tps_models(ss, k=3, theta=1.0)
        prior = estimate_prior_for_set(ss)
        closed = solve(ss, models, prior=prior)
        for _ in range(20):
            am_cost = alternating_minimization(ss, models, prior, closed.nu, rng)
            assert closed.cost <= am_cost + 1e-8 * max(1.0, abs(am_cost))
