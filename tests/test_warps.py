"""Affine and thin-plate-spline warps: construction, invariants, inversion."""

import json

import numpy as np
import pytest

from defgpa import (
    DegenerateCenters,
    LbwModel,
    Shape,
    affine_basis,
    apply_warp,
    bending_energy,
    eig_sym,
    fit_inverse_tps,
    free_translation_witness,
    place_control_points,
    tps_build,
    tps_kernel,
)
from defgpa.warps import AffineWarp, default_internal_smoothing
from conftest import random_rotation


def grid_2d(k=3, lo=0.0, hi=1.0):
    t = np.linspace(lo, hi, k)
    X, Y = np.meshgrid(t, t, indexing="ij")
    return np.vstack([X.ravel(), Y.ravel()])


def grid_3d(k=3, lo=0.0, hi=1.0):
    t = np.linspace(lo, hi, k)
    X, Y, Z = np.meshgrid(t, t, t, indexing="ij")
    return np.vstack([X.ravel(), Y.ravel(), Z.ravel()])


class TestAffineBasis:
    def test_zero_matrix(self):
        out = affine_basis(np.zeros((2, 2)))
        np.testing.assert_allclose(out, [[0, 0], [0, 0], [1, 1]])

    def test_single_point(self):
        out = affine_basis(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out.ravel(), [3, 4, 1])

    def test_last_row_is_ones(self, rng):
        out = affine_basis(rng.normal(size=(3, 11)))
        np.testing.assert_allclose(out[-1], np.ones(11))


class TestKernel:
    def test_2d_values(self):
        assert tps_kernel(1.0, 2) == 0.0
        assert tps_kernel(0.0, 2) == 0.0
        r = 2.0
        assert tps_kernel(r, 2) == pytest.approx(r * r * np.log(r * r))

    def test_3d_values(self):
        assert tps_kernel(2.0, 3) == -2.0
        assert tps_kernel(0.0, 3) == 0.0

    def test_vectorized(self):
        out = tps_kernel(np.array([0.0, 1.0, 2.0]), 3)
        np.testing.assert_allclose(out, [0.0, -1.0, -2.0])


class TestTpsBuild:
    @pytest.mark.parametrize("centers", [grid_2d(3), grid_3d(3)])
    def test_bending_identities(self, centers):
        model = tps_build(centers, 0.0)
        d, l = centers.shape
        K = tps_kernel(
            np.linalg.norm(centers.T[:, None, :] - centers.T[None, :, :], axis=2), d)
        E_bar = model.bending
        np.testing.assert_allclose(E_bar @ K @ E_bar, E_bar, atol=1e-8)
        C = np.vstack([centers, np.ones(l)])
        np.testing.assert_allclose(E_bar @ C.T, np.zeros((l, d + 1)), atol=1e-8)

    def test_recovery_identity(self):
        centers = grid_2d(3)
        model = tps_build(centers, 1e-6)
        C = np.vstack([centers, np.ones(9)])
        target = np.vstack([np.zeros((9, 3)), np.eye(3)])
        np.testing.assert_allclose(model.recovery @ C.T, target, atol=1e-8)

    def test_rank_of_bending(self):
        model = tps_build(grid_2d(3), 1e-6)
        vals = eig_sym(model.bending).values
        assert int(np.sum(vals > 1e-6 * vals.max())) == 9 - 3

    def test_sqrt_bending_is_psd_root(self):
        model = tps_build(grid_2d(4), 1e-8)
        Z = model.sqrt_bending
        np.testing.assert_allclose(Z, Z.T, atol=1e-12)
        np.testing.assert_allclose(Z @ Z, model.bending, atol=1e-10)
        assert np.min(eig_sym(Z).values) > -1e-10

    def test_degenerate_centers(self):
        collinear = np.vstack([np.arange(6.0), np.zeros(6)])
        with pytest.raises(DegenerateCenters):
            tps_build(collinear, 0.0)

    def test_too_few_centers(self):
        with pytest.raises(DegenerateCenters):
            tps_build(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 0.0)

    def test_default_internal_smoothing_positive(self):
        centers = grid_2d(3)
        lam = default_internal_smoothing(centers)
        assert lam > 0
        model = tps_build(centers)
        assert model.internal_smoothing == pytest.approx(lam)

    def test_flat_two_layer_grid_keeps_identities(self, rng):
        # nearly flat 3D data: 2 layers on the thin axis, k x k on the others
        pts = rng.normal(size=(3, 60))
        pts[2] *= 0.05
        centers = place_control_points(pts, 3, flat_axes=1)
        assert centers.shape == (3, 18)
        model = tps_build(centers)
        C = np.vstack([centers, np.ones(18)])
        np.testing.assert_allclose(model.bending @ C.T, np.zeros((18, 4)), atol=1e-8)
        vals = eig_sym(model.bending).values
        assert int(np.sum(vals > 1e-6 * vals.max())) == 18 - 4
        A = rng.normal(size=(3, 3))
        W_affine = (A @ centers + rng.normal(size=(3, 1))).T
        assert bending_energy(model, W_affine) < 1e-8


class TestTpsBasis:
    def test_interpolation_at_centers(self, rng):
        centers = grid_2d(3)
        model = tps_build(centers, 0.0)
        images = centers + 0.1 * rng.normal(size=centers.shape)
        W = images.T
        np.testing.assert_allclose(apply_warp(model, W, centers), images, atol=1e-8)

    def test_free_translation_witness_vector(self, rng):
        centers = grid_2d(3)
        model = tps_build(centers, 1e-8)
        D = rng.uniform(0, 1, size=(2, 12))
        B = model.basis(D)
        # x = C~^T [0; 1] is the all-ones vector in this parameterization
        x = np.ones(9)
        np.testing.assert_allclose(B.T @ x, np.ones(12), atol=1e-8)

    def test_coordinate_invariance(self, rng):
        centers = grid_2d(3)
        D = rng.uniform(0, 1, size=(2, 10))
        R = random_rotation(rng, 2)
        t = rng.normal(size=(2, 1))
        model = tps_build(centers, 1e-8)
        moved = tps_build(R @ centers + t, 1e-8)
        np.testing.assert_allclose(moved.basis(R @ D + t), model.basis(D), atol=1e-8)
        np.testing.assert_allclose(moved.sqrt_bending, model.sqrt_bending, atol=1e-8)

    def test_parameter_constraint(self, rng):
        # nonlinear coefficients of any fitted warp satisfy C~ w = 0
        centers = grid_2d(3)
        model = tps_build(centers, 1e-8)
        W = rng.normal(size=(9, 2))
        w_nonlinear = model.bending @ W  # top block of E_lambda W
        C = np.vstack([centers, np.ones(9)])
        np.testing.assert_allclose(C @ w_nonlinear, np.zeros((3, 2)), atol=1e-8)


class TestPlaceControlPoints:
    def test_2d_counts(self, rng):
        pts = rng.normal(size=(2, 40))
        for k, l in [(3, 9), (5, 25), (7, 49)]:
            assert place_control_points(pts, k).shape == (2, l)

    def test_3d_counts(self, rng):
        pts = rng.normal(size=(3, 50))
        assert place_control_points(pts, 3).shape == (3, 27)

    def test_flat_axis_two_layers(self, rng):
        pts = rng.normal(size=(3, 50))
        pts[2] *= 0.05  # nearly flat
        for k, l in [(3, 18), (5, 50), (7, 98)]:
            assert place_control_points(pts, k, flat_axes=1).shape == (3, l)

    def test_unit_square_corners(self):
        pts = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        centers = place_control_points(pts, 2)
        got = sorted(map(tuple, np.round(centers.T, 12)))
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_accepts_shape_and_matrix(self, rng):
        pts = rng.normal(size=(2, 20))
        vis = np.ones(20, bool)
        vis[[3, 7]] = False
        grid = place_control_points(Shape(pts, vis), 3)
        assert grid.shape == (2, 9)
        np.testing.assert_array_equal(grid, place_control_points(pts[:, vis], 3))

    def test_degenerate_extent(self):
        line = np.vstack([np.arange(10.0), np.zeros(10)])
        with pytest.raises(DegenerateCenters):
            place_control_points(line, 3)

    def test_grid_spans_data_extent(self, rng):
        pts = rng.normal(size=(2, 30))
        centers = place_control_points(pts, 4)
        mu = pts.mean(axis=1, keepdims=True)
        # projections of the grid onto principal axes cover the data's extent
        X = pts - mu
        vals_vecs = eig_sym(X @ X.T)
        axes = vals_vecs.vectors[:, ::-1]
        data_proj = axes.T @ X
        grid_proj = axes.T @ (centers - mu)
        for a in range(2):
            assert np.min(np.abs(grid_proj[a])) <= np.max(np.abs(data_proj[a])) + 1e-9
            assert grid_proj[a].min() == pytest.approx(data_proj[a].min(), abs=1e-9)
            assert grid_proj[a].max() == pytest.approx(data_proj[a].max(), abs=1e-9)


class TestApplyWarp:
    def test_affine_identity(self, rng):
        D = rng.normal(size=(2, 8))
        W = np.vstack([np.eye(2), np.zeros((1, 2))])
        np.testing.assert_allclose(apply_warp(AffineWarp(2), W, D), D, atol=1e-14)

    def test_affine_translation(self, rng):
        D = rng.normal(size=(2, 8))
        t = np.array([2.0, -1.0])
        W = np.vstack([np.eye(2), t[None, :]])
        np.testing.assert_allclose(apply_warp(AffineWarp(2), W, D), D + t[:, None], atol=1e-14)


class TestBendingEnergy:
    def test_zero_weights(self):
        model = tps_build(grid_2d(3), 1e-8)
        assert bending_energy(model, np.zeros((9, 2))) == 0.0

    def test_affine_through_tps_is_zero(self, rng):
        centers = grid_2d(3)
        model = tps_build(centers, 1e-8)
        A = rng.normal(size=(2, 2))
        t = rng.normal(size=(2, 1))
        W = (A @ centers + t).T  # images of centers under an affine map
        assert bending_energy(model, W) < 1e-8

    def test_matches_explicit_loops(self, rng):
        model = tps_build(grid_2d(3), 1e-8)
        W = rng.normal(size=(9, 2))
        acc = 0.0
        for a in range(9):
            for b in range(9):
                for c in range(2):
                    acc += W[a, c] * model.bending[a, b] * W[b, c]
        assert bending_energy(model, W) == pytest.approx(acc, rel=1e-10)

    def test_affine_model_energy_zero(self, rng):
        assert bending_energy(AffineWarp(2), rng.normal(size=(3, 2))) == 0.0


class TestInverseTps:
    def test_identity_round_trip(self):
        centers = grid_2d(3)
        model = tps_build(centers, 0.0)
        W = centers.T.copy()  # identity-interpolating warp
        inverse, W_inv = fit_inverse_tps(model, W, 0.0)
        np.testing.assert_allclose(apply_warp(inverse, W_inv, centers), centers, atol=1e-6)

    def test_translation_round_trip(self):
        centers = grid_2d(3)
        model = tps_build(centers, 0.0)
        t = np.array([[0.3], [-0.2]])
        W = (centers + t).T
        inverse, W_inv = fit_inverse_tps(model, W, 0.0)
        moved = centers + t
        np.testing.assert_allclose(apply_warp(inverse, W_inv, moved), centers, atol=1e-6)

    def test_random_smooth_round_trip(self, rng):
        centers = grid_2d(3)
        model = tps_build(centers, 0.0)
        W = (centers + 0.05 * rng.normal(size=centers.shape)).T
        inverse, W_inv = fit_inverse_tps(model, W, 0.0)
        forward_at_centers = apply_warp(model, W, centers)
        np.testing.assert_allclose(apply_warp(inverse, W_inv, forward_at_centers),
                                   centers, atol=1e-6)


class LinearOnlyWarp(LbwModel):
    """Contrived basis without a constant direction: B(D) = D."""

    def __init__(self, d):
        self.d = d
        self.feature_dim = d
        self.smoothing = 0.0

    def basis(self, D):
        return np.asarray(D, dtype=float)

    @property
    def regularizer(self):
        return np.zeros((0, self.d))

    def gram_regularizer(self):
        return np.zeros((self.d, self.d))

    def describe(self):
        return {"type": "linear-only", "d": self.d}


class TestSerialization:
    def test_round_trip_rebuilds_derived_matrices(self, rng):
        # the descriptor in the solution JSON, plus mu, rebuilds the model
        model = tps_build(grid_2d(3), 1e-7).with_smoothing(4.5)
        doc = json.loads(json.dumps(model.describe()))
        assert set(doc) == {"type", "centers", "internal_smoothing"}
        back = tps_build(np.array(doc["centers"]), doc["internal_smoothing"]).with_smoothing(4.5)
        np.testing.assert_allclose(back.centers, model.centers, atol=0)
        assert back.internal_smoothing == model.internal_smoothing
        assert back.smoothing == model.smoothing
        np.testing.assert_allclose(back.bending, model.bending, atol=1e-12)
        D = rng.uniform(0, 1, size=(2, 7))
        np.testing.assert_allclose(back.basis(D), model.basis(D), atol=1e-12)


class TestWitness:
    def test_affine_witness_is_last_axis(self, rng):
        model = AffineWarp(2)
        D = rng.normal(size=(2, 9))
        x = free_translation_witness(model, D)
        np.testing.assert_allclose(x, [0.0, 0.0, 1.0], atol=1e-8)

    def test_tps_witness(self, rng):
        model = tps_build(grid_2d(3), 1e-8).with_smoothing(3.0)
        D = rng.uniform(0, 1, size=(2, 14))
        x = free_translation_witness(model, D)
        assert x is not None
        B = model.basis(D)
        assert np.max(np.abs(B.T @ x - 1.0)) < 1e-6
        assert np.max(np.abs(model.regularizer @ x)) < 1e-6
        np.testing.assert_allclose(x, np.ones(9), atol=1e-6)

    def test_no_constant_direction(self, rng):
        D = rng.normal(size=(2, 9))
        D -= D.mean(axis=1, keepdims=True)
        assert free_translation_witness(LinearOnlyWarp(2), D) is None
