"""Eigendecomposition utilities and Brockett selection rules."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from defgpa import (
    CovariancePrior,
    DegenerateInput,
    DimensionError,
    InvalidMatrix,
    eig_sym,
    leftmost_singular_vector,
)
from defgpa import gpa
from defgpa.spectral import _scale_selected, _span_pairs
from conftest import dense_selection


def random_symmetric(rng, m, spread=1.0):
    A = spread * rng.normal(size=(m, m))
    return 0.5 * (A + A.T)


class TestEigSym:
    def test_identity(self):
        pairs = eig_sym(np.eye(3))
        np.testing.assert_allclose(pairs.values, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(pairs.vectors.T @ pairs.vectors, np.eye(3), atol=1e-12)

    def test_diagonal_ordering(self):
        pairs = eig_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(pairs.values, [1.0, 2.0, 3.0], atol=1e-12)
        expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(pairs.vectors, expected, atol=1e-12)

    def test_random_against_independent_solver(self, rng):
        A = random_symmetric(rng, 6, spread=3.0)
        pairs = eig_sym(A)
        scale = np.linalg.norm(A, 2)
        for j in range(6):
            residual = A @ pairs.vectors[:, j] - pairs.values[j] * pairs.vectors[:, j]
            assert np.linalg.norm(residual) < 1e-8 * scale
        reference = scipy.linalg.eigh(A, eigvals_only=True, driver="ev")
        np.testing.assert_allclose(pairs.values, reference, atol=1e-10 * max(1, scale))
        np.testing.assert_allclose(pairs.vectors.T @ pairs.vectors, np.eye(6), atol=1e-10)

    def test_sign_convention(self, rng):
        pairs = eig_sym(random_symmetric(rng, 7))
        for j in range(7):
            v = pairs.vectors[:, j]
            assert v[np.argmax(np.abs(v))] > 0

    def test_rejects_asymmetric(self, rng):
        A = rng.normal(size=(4, 4))
        with pytest.raises(InvalidMatrix):
            eig_sym(A)

    def test_rejects_nonfinite(self):
        A = np.eye(3)
        A[0, 1] = A[1, 0] = np.nan
        with pytest.raises(InvalidMatrix):
            eig_sym(A)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            eig_sym(np.ones((2, 3)))

    def test_stack_matches_each_matrix_bitwise(self, rng):
        A = np.stack([random_symmetric(rng, 6, spread=s) for s in (0.5, 1.0, 3.0)])
        pairs = eig_sym(A)
        assert pairs.values.shape == (3, 6) and pairs.vectors.shape == (3, 6, 6)
        for k in range(3):
            single = eig_sym(A[k])
            np.testing.assert_array_equal(pairs.values[k], single.values)
            np.testing.assert_array_equal(pairs.vectors[k], single.vectors)

    @pytest.mark.parametrize("defect", ["asymmetric", "nonfinite"])
    def test_one_bad_matrix_rejects_the_stack(self, rng, defect):
        A = np.stack([random_symmetric(rng, 4) for _ in range(3)])
        if defect == "asymmetric":
            A[1, 0, 3] += 1.0
        else:
            A[1, 2, 2] = np.inf
        eig_sym(A[[0, 2]])
        with pytest.raises(InvalidMatrix):
            eig_sym(A)


class TestBottomScaled:
    def test_diagonal_single(self):
        S = dense_selection(np.diag([0.0, 1.0, 2.0]), np.array([4.0]))
        np.testing.assert_allclose(S, [[2.0, 0.0, 0.0]], atol=1e-12)

    def test_diagonal_degenerate_subspace(self):
        S = dense_selection(np.diag([0.0, 0.0, 5.0]), np.array([9.0, 4.0]))
        # rows span {e1, e2} with norms (3, 2); basis within the span is free
        assert np.allclose(S[:, 2], 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(S, axis=1), [3.0, 2.0], atol=1e-12)

    def test_sst_equals_prior(self, rng):
        P = random_symmetric(rng, 9)
        lam = np.sort(rng.uniform(0.5, 4.0, size=3))[::-1]
        S = dense_selection(P, lam)
        assert np.linalg.norm(S @ S.T - np.diag(lam)) <= 1e-9 * lam.sum()

    def test_subset_optimality_by_enumeration(self, rng):
        for _ in range(5):
            P = random_symmetric(rng, 8)
            lam = np.sort(rng.uniform(0.2, 3.0, size=2))[::-1]
            S = dense_selection(P, lam)
            achieved = np.trace(S @ P @ S.T)
            pairs = eig_sym(P)
            best = np.inf
            for subset in itertools.combinations(range(8), 2):
                alphas = np.sort(pairs.values[list(subset)])
                best = min(best, float(lam @ alphas))
            assert achieved <= best + 1e-9 * max(1.0, abs(best))

    def test_stack_matches_each_matrix(self, rng):
        P = np.stack([random_symmetric(rng, 7) for _ in range(3)])
        lam = np.array([4.0, 1.0])
        anchor = rng.normal(size=(2, 7))
        S = dense_selection(P, lam, anchor=anchor)
        assert S.shape == (3, 2, 7)
        for k in range(3):
            np.testing.assert_array_equal(S[k], dense_selection(P[k], lam, anchor=anchor))

    def test_prior_validation(self):
        with pytest.raises(DegenerateInput):
            CovariancePrior(np.array([1.0, 2.0]))  # ascending
        with pytest.raises(DegenerateInput):
            CovariancePrior(np.array([1.0, -0.5]))


def embedded(C, complement, m):
    """Dense m x m matrix equal to C on the first r coordinates and to complement beyond."""
    r = C.shape[0]
    M = complement * np.eye(m)
    M[:r, :r] = C
    return M


def span_selection(U, C, complement, lam, anchor=None):
    """The span path's selection for each C_t = U^T M_t U of a stack: the lifted bottom d, scaled
    by the prior, where `_span_pairs` certifies it, else None."""
    pairs = eig_sym(C)
    values, vectors = pairs.values[:, :len(lam)], pairs.vectors[:, :, :len(lam)]
    X, certified = _span_pairs(U, values, vectors, complement)
    S = _scale_selected(values, X, lam, anchor)
    return [S[t] if ok else None for t, ok in enumerate(certified)]


class TestBottomScaledOnSpan:
    def test_matches_dense_on_a_rotated_span(self, rng):
        m, r = 9, 4
        Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        U = Q[:, :r]
        C = random_symmetric(rng, r)
        complement = float(np.max(np.linalg.eigvalsh(C))) + 1.0
        M = complement * np.eye(m) + U @ (C - complement * np.eye(r)) @ U.T
        lam = np.array([4.0, 1.0])
        (S,) = span_selection(U, C[None], complement, lam)
        np.testing.assert_allclose(S, dense_selection(M, lam), atol=1e-12)

    @pytest.mark.parametrize("second", [2.0, 2.0 - 1e-12, 3.0])
    def test_falls_back_when_lambda_d_reaches_complement(self, second):
        # the d-th eigenvalue of C ties with (or passes) the complement's,
        # so the bottom-d eigenvectors of M are not certified by C alone
        C = np.diag([0.0, second, 5.0])
        U = np.eye(5)[:, :3]
        assert span_selection(U, C[None], 2.0, np.array([4.0, 1.0])) == [None]

    def test_selects_when_lambda_d_clears_complement(self):
        C = np.diag([0.0, 2.0 - 1e-6, 5.0])
        U = np.eye(5)[:, :3]
        lam = np.array([4.0, 1.0])
        (S,) = span_selection(U, C[None], 2.0, lam)
        np.testing.assert_allclose(S, dense_selection(embedded(C, 2.0, 5), lam), atol=1e-12)

    def test_falls_back_when_span_is_thinner_than_d(self, monkeypatch):
        # each M_t = diag(0, 3, 3, 3) is 3 I outside span(e_1), which cannot hold
        # d = 2 columns, so the solve's span path takes the dense matrices
        calls = []
        dense = gpa._dense
        monkeypatch.setattr(gpa, "_dense", lambda *args: calls.append(args) or dense(*args))
        L = np.eye(4)[None, :1]
        values, X = gpa._bottom_pairs_of_sum(3.0, L, np.stack([3.0 * L, 3.0 * L]), np.zeros(2), 2)
        assert len(calls) == 1
        np.testing.assert_allclose(values, [[0.0, 3.0], [0.0, 3.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(X[:, :, 0]), np.eye(4)[[0, 0]], atol=1e-12)

    def test_full_span_needs_no_guard(self):
        # r = m: there is no complement, so a tie with its value is harmless
        C = np.diag([0.0, 2.0, 5.0])
        lam = np.array([4.0, 1.0])
        (S,) = span_selection(np.eye(3), C[None], 2.0, lam)
        np.testing.assert_allclose(S, dense_selection(C, lam), atol=1e-12)

    def test_anchor_resolves_clusters_like_dense(self, rng):
        C = np.diag([0.0, 0.0, 3.0])
        anchor = rng.normal(size=(4, 6))
        lam = np.array([4.0, 1.0])
        (S,) = span_selection(np.eye(6)[:, :3], C[None], 5.0, lam, anchor=anchor)
        np.testing.assert_allclose(
            S, dense_selection(embedded(C, 5.0, 6), lam, anchor=anchor), atol=1e-12)

    def test_stack_certifies_each_matrix_alone(self):
        # the first restriction clears the complement, the second ties with it
        C = np.stack([np.diag([0.0, 2.0 - 1e-6, 5.0]), np.diag([0.0, 2.0, 5.0])])
        U = np.eye(5)[:, :3]
        lam = np.array([4.0, 1.0])
        first, second = span_selection(U, C, 2.0, lam)
        np.testing.assert_array_equal(first, span_selection(U, C[:1], 2.0, lam)[0])
        assert second is None


class TestLeftmostSingularVector:
    def test_identical_columns(self, rng):
        v = rng.uniform(0.5, 2.0, size=3)
        M = np.tile(v[:, None], (1, 5))
        theta = leftmost_singular_vector(M)
        np.testing.assert_allclose(theta, v / np.linalg.norm(v), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            leftmost_singular_vector(np.diag([3.0, 1.0])), [1.0, 0.0], atol=1e-12)

    def test_matches_power_iteration(self, rng):
        M = rng.uniform(0.0, 1.0, size=(3, 5))
        theta = leftmost_singular_vector(M)
        # power iteration on M M^T, independent of the SVD path
        G = M @ M.T
        v = np.ones(3) / np.sqrt(3)
        for _ in range(500):
            v = G @ v
            v /= np.linalg.norm(v)
        assert np.linalg.norm(theta - v) < 1e-8

    def test_nonnegative_for_nonnegative_input(self, rng):
        M = rng.uniform(0.0, 1.0, size=(4, 6))
        assert np.min(leftmost_singular_vector(M)) >= 0.0

    def test_all_zero(self):
        with pytest.raises(DegenerateInput):
            leftmost_singular_vector(np.zeros((3, 4)))
