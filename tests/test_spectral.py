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
from defgpa.spectral import (_KERNEL_ROWS, _bottom_pairs, _bottom_pairs_dplr, _dplr_matrix, _kernels,
                             _scale_selected)
from conftest import dense_runs, dense_selection


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

    @pytest.mark.parametrize("values, clusters", [
        ([1.0, 2.0, 2.0], [[0], [1, 2]]),
        ([1.0, 1.0, 2.0], [[0, 1], [2]]),
        ([1.0, 1.0, 1.0], [[0, 1, 2]]),
    ], ids=["abb", "aab", "aaa"])
    def test_anchor_rotates_each_cluster_alone(self, rng, values, clusters):
        # each cluster's columns turn to the eigenvectors of (A X_c)^T (A X_c), descending; a
        # separated column stays as it is
        X = np.linalg.qr(rng.normal(size=(7, 3)))[0]
        A = rng.normal(size=(3, 7))
        lam = np.array([4.0, 2.0, 1.0])
        want = X.copy()
        for c in clusters:
            AXc = A @ X[:, c]
            want[:, c] = X[:, c] @ np.linalg.eigh(AXc.T @ AXc)[1][:, ::-1]
        want *= np.sign(want[np.argmax(np.abs(want), axis=0), range(3)])
        np.testing.assert_allclose(_scale_selected(np.array(values), X, lam, A),
                                   np.sqrt(lam)[:, None] * want.T, atol=1e-12)

    def test_prior_validation(self):
        with pytest.raises(DegenerateInput):
            CovariancePrior(np.array([1.0, 2.0]))  # ascending
        with pytest.raises(DegenerateInput):
            CovariancePrior(np.array([1.0, -0.5]))


def dplr_selection(D, F, lam, anchor=None):
    """The DPLR core's selection for each M_t = diag(D_t) - F_t F_t^T of a stack (nu = 0), scaled
    by the prior."""
    W = np.concatenate([F, np.zeros(F.shape[:-1] + (1,))], axis=-1)
    values, vectors = _bottom_pairs_dplr(D, W, len(lam))
    return _scale_selected(values, vectors, lam, anchor)


def tied_at_two(second):
    """D and F of M = diag(0, second, 5, 2, 2): min D = 2, and M's second eigenvalue is `second`."""
    F = np.zeros((5, 2))
    F[0, 0], F[1, 1] = np.sqrt(2.0), np.sqrt(3.0 - second)
    return np.array([2.0, 3.0, 5.0, 2.0, 2.0]), F


class TestBottomScaledOnSpan:
    """The DPLR core (M = diag(D) - F F^T, rank-k update) and where it hands over to the dense
    eigensolver; min D plays the part of the value M takes off the span of F."""

    def test_matches_dense_on_a_rotated_span(self, rng, monkeypatch):
        m, r = 9, 4
        Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        U = Q[:, :r]
        C = random_symmetric(rng, r)
        C -= np.min(np.linalg.eigvalsh(C)) * np.eye(r)  # M is positive semidefinite, as solve matrices are
        complement = float(np.max(np.linalg.eigvalsh(C))) + 1.0
        M = complement * np.eye(m) + U @ (C - complement * np.eye(r)) @ U.T
        F = U @ np.linalg.cholesky(complement * np.eye(r) - C)
        lam = np.array([4.0, 1.0])
        calls = dense_runs(monkeypatch)
        (S,) = dplr_selection(np.full((1, m), complement), F[None], lam)
        assert calls == []
        np.testing.assert_allclose(S, dense_selection(M, lam), atol=1e-12)

    @pytest.mark.parametrize("second", [2.0, 2.0 - 1e-12, 3.0])
    def test_falls_back_when_lambda_d_reaches_complement(self, monkeypatch, second):
        # the d-th eigenvalue ties with (or passes) min D, so no cut below min D certifies the
        # bottom d, and the dense eigensolver runs
        D, F = tied_at_two(second)
        calls = dense_runs(monkeypatch)
        lam = np.array([4.0, 1.0])
        (S,) = dplr_selection(D[None], F[None], lam)
        assert calls == [(1, 5, 3)]
        np.testing.assert_allclose(S, dense_selection(np.diag([0.0, second, 5.0, 2.0, 2.0]), lam),
                                   atol=1e-12)

    def test_selects_when_lambda_d_clears_complement(self, monkeypatch):
        D, F = tied_at_two(2.0 - 1e-6)
        lam = np.array([4.0, 1.0])
        calls = dense_runs(monkeypatch)
        (S,) = dplr_selection(D[None], F[None], lam)
        assert calls == []
        np.testing.assert_allclose(S, dense_selection(np.diag([0.0, 2.0 - 1e-6, 5.0, 2.0, 2.0]), lam),
                                   atol=1e-12)

    def test_falls_back_when_span_is_thinner_than_d(self, monkeypatch):
        # each M_t = diag(0, 3, 3, 3) is 3 I off span(e_1), which cannot hold d = 2 columns
        # below min D = 3, so the stack takes the dense matrices
        calls = dense_runs(monkeypatch)
        W = np.zeros((2, 4, 2))  # F = sqrt(3) e_1 and a zero ones column (nu = 0)
        W[:, 0, 0] = np.sqrt(3.0)
        values, X = _bottom_pairs_dplr(np.full((2, 4), 3.0), W, 2)
        assert calls == [(2, 4, 2)]
        np.testing.assert_allclose(values, [[0.0, 3.0], [0.0, 3.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(X[:, :, 0]), np.eye(4)[[0, 0]], atol=1e-12)

    def test_full_span_needs_no_guard(self, monkeypatch):
        # k >= m: the dense eigensolver runs directly, so a tie of lambda_d with min D is harmless
        C = np.diag([0.0, 2.0, 5.0])
        F = np.zeros((3, 2))
        F[0, 0] = np.sqrt(2.0)
        lam = np.array([4.0, 1.0])
        calls = dense_runs(monkeypatch)
        (S,) = dplr_selection(np.array([[2.0, 2.0, 5.0]]), F[None], lam)
        assert calls == [(1, 3, 3)]
        np.testing.assert_allclose(S, dense_selection(C, lam), atol=1e-12)

    def test_anchor_resolves_clusters_like_dense(self, rng, monkeypatch):
        C = np.diag([0.0, 0.0, 3.0])
        anchor = rng.normal(size=(4, 6))
        lam = np.array([4.0, 1.0])
        F = np.zeros((6, 3))
        F[[0, 1, 2], [0, 1, 2]] = np.sqrt([5.0, 5.0, 2.0])
        calls = dense_runs(monkeypatch)
        (S,) = dplr_selection(np.full((1, 6), 5.0), F[None], lam, anchor=anchor)
        assert calls == []
        M = 5.0 * np.eye(6)
        M[:3, :3] = C
        np.testing.assert_allclose(S, dense_selection(M, lam, anchor=anchor), atol=1e-12)

    def test_stack_certifies_each_matrix_alone(self, monkeypatch):
        # the first clears min D, the second ties with it
        (D, F1), (_, F2) = tied_at_two(2.0 - 1e-6), tied_at_two(2.0)
        lam = np.array([4.0, 1.0])
        calls = dense_runs(monkeypatch)
        first, second = dplr_selection(np.stack([D, D]), np.stack([F1, F2]), lam)
        assert calls == [(1, 5, 3)]
        np.testing.assert_array_equal(first, dplr_selection(D[None], F1[None], lam)[0])
        np.testing.assert_allclose(second, dense_selection(np.diag([0.0, 2.0, 5.0, 2.0, 2.0]), lam),
                                   atol=1e-12)

    def test_kernels_sum_over_row_blocks(self, rng, monkeypatch):
        # m spans two whole row blocks of the k x k kernels and a ragged third; the bottom d of
        # M_t = diag(D_t) - W_t J W_t^T lie within about 0.1 of 0, far below min D >= 2
        T, m, k, d = 2, 1100, 40, 3
        assert m > 2 * _KERNEL_ROWS and m % _KERNEL_ROWS
        Q = np.linalg.qr(rng.normal(size=(T, m, k - 1)))[0]
        W = np.concatenate([Q * np.sqrt(2.5 - 0.05 * np.arange(k - 1)),
                            0.1 * rng.normal(size=(T, m, 1)) / np.sqrt(m)], axis=-1)
        D = 2.0 + rng.uniform(size=(T, m))
        calls = dense_runs(monkeypatch)
        values, X = _bottom_pairs_dplr(D, W, d)
        assert calls == []  # each certificate counted d eigenvalues below its cut
        want_values, want_X = _bottom_pairs(_dplr_matrix(D, W), d)
        np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-10 * D.max())
        signs = np.sign(np.sum(X * want_X, axis=-2, keepdims=True))
        np.testing.assert_allclose(X * signs, want_X, rtol=0, atol=1e-10)

    def test_kernel_build_holds_one_row_block(self, rng):
        # one build of the kernels diag(J) - W^T diag(c) W on the transposed view `gpa._factors` returns
        # holds its k x k stacks and one _KERNEL_ROWS x k block of W diag(c).  np.multiply of that
        # column-major block by the broadcast weights allocates about three blocks
        import tracemalloc
        k, m = 38, 3 * _KERNEL_ROWS + 17
        W = np.swapaxes(rng.normal(size=(1, k, m)), -1, -2)
        J, c = np.append(np.ones(k - 1), -1.0), 1.0 + rng.uniform(size=(1, m))
        want = np.diag(J) - W[0].T @ (W[0] * c[0, :, None])
        _kernels(W, J, [0], c)  # numpy's first-call allocations are not the build's
        tracemalloc.start()
        try:
            K = _kernels(W, J, [0], c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(K[0], want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        assert peak < 8 * (_KERNEL_ROWS * k + 4 * k * k) + 4096


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
