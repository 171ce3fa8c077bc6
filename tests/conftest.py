"""Shared synthetic-instance generators for the test suite."""

import numpy as np
import pytest

from defgpa import (AffineWarp, CveConfig, DefgpaError, DegenerateConfiguration, Shape, ShapeSet, apply_warp,
                    eig_sym, estimate_prior_for_set, place_control_points, solve, spectral, tps_build)
from defgpa.gpa import _centred, _downdated_terms, _factors, _moments, _procrustes, _stacked, _transform_table
from defgpa.metrics import _fold_slices
from defgpa.spectral import _dplr_matrix, _scale_selected


def random_rotation(rng, d):
    """Haar-ish random element of SO(d)."""
    A = rng.normal(size=(d, d))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1.0
    return Q


def base_shape(rng, d, m, scale=1.0):
    """Well-spread random base landmarks, d x m."""
    return scale * rng.normal(size=(d, m))


def full_set(rng, d, m, n, kind="affine", noise=0.0, deform=0.15):
    """n full shapes derived from one base: rigid, affine, or smooth-random."""
    base = base_shape(rng, d, m)
    shapes = []
    for _ in range(n):
        if kind == "rigid":
            D = random_rotation(rng, d) @ base + rng.normal(size=(d, 1))
        elif kind == "affine":
            A = np.eye(d) + deform * rng.normal(size=(d, d))
            D = A @ base + rng.normal(size=(d, 1))
        else:  # loosely deformed: affine plus smooth quadratic bend
            A = np.eye(d) + deform * rng.normal(size=(d, d))
            D = A @ base + rng.normal(size=(d, 1))
            bend = rng.normal(size=(d, d)) * deform * 0.3
            D = D + bend @ (base * base)
        if noise > 0:
            D = D + noise * rng.normal(size=D.shape)
        shapes.append(Shape(D, np.ones(m, bool)))
    return ShapeSet(tuple(shapes))


def full_shapes(arrays):
    """A ShapeSet of full d x m point arrays."""
    return ShapeSet(tuple(Shape(D, np.ones(D.shape[1], bool)) for D in arrays))


def dense_selection(M, lambdas, anchor=None, datum=None, skip=0):
    """The dense closed form: the bottom d of M (or of each in a stack) by `eig_sym`, past its first
    `skip`, scaled by the prior lambdas (d,), first row flipped where an orthogonal Procrustes to the
    datum Shape reflects."""
    d = len(lambdas)
    pairs = eig_sym(M)
    cut = slice(skip, skip + d)
    S = _scale_selected(pairs.values[..., cut], pairs.vectors[..., :, cut], lambdas, anchor)
    if datum is not None:
        R, _, _ = _procrustes(datum.filled(0.0), S, datum.visibility.astype(float), allow_reflection=True)
        S[..., 0, :] *= np.where(np.linalg.det(R) < 0, -1.0, 1.0)[..., None]
    return S


def pairwise_transform_table(shape_set, allow_reflection=False):
    """Similarity Procrustes between every ordered pair of shapes, in the shapes' own frames.

    Entry [i, k] of s (n, n), R (n, n, d, d) and t (n, n, d) maps shape k onto
    shape i over their jointly visible points, s R D_k + t 1^T ~ D_i; the
    diagonal is the identity.  The package's table (`gpa._transform_table`)
    maps centred frames; with centroids c, the translation between the
    shapes' own frames is t + c_i - s R c_k.  The first failing pair in
    row-major order raises, as a loop over the pairs would.
    """
    X, G = _stacked(shape_set)
    c, Y = _centred(X, G)
    s, R, t, failure = _transform_table(*_moments(Y, G), allow_reflection)
    if failure is not None:
        raise failure[1]
    return s, R, t + c[:, None, :] - s[..., None] * (R @ c[None, :, :, None])[..., 0]


def kabsch(A, B):
    """The rotation R in SO(d) and translation t minimizing ||R A + t 1^T - B||_F for d x m point sets,
    coded apart from the package (Kabsch); a cross-covariance of rank below d-1 leaves R undetermined
    and raises the DegenerateConfiguration the CVE reports for it."""
    a, b = A.mean(axis=1, keepdims=True), B.mean(axis=1, keepdims=True)
    U, sv, Vt = np.linalg.svd((B - b) @ (A - a).T)
    if sv[0] == 0 or sv[len(A) - 2] <= 1e-12 * sv[0]:
        raise DegenerateConfiguration("cross-covariance is rank-deficient; rotation undetermined")
    R = U @ np.diag([1.0] * (len(A) - 1) + [np.sign(np.linalg.det(U @ Vt))]) @ Vt
    return R, (b - R @ a).ravel()


def gauge_residual(S, T):
    """max |R S - T| / max |T| over the best orthogonal R."""
    U, _, Vt = np.linalg.svd(T @ S.T)
    return float(np.max(np.abs(U @ Vt @ S - T)) / np.max(np.abs(T)))


def dense_runs(monkeypatch):
    """The factor stacks (T, m, k) from which the DPLR eigensolver's dense fallback assembles its
    T matrices of m x m, recorded as it runs."""
    calls = []
    dense = spectral._dplr_matrix

    def spy(D, W):
        calls.append(W.shape)
        return dense(D, W)

    monkeypatch.setattr(spectral, "_dplr_matrix", spy)
    return calls


def downdated_fold_matrices(F, at, keep, U, counts):
    """`metrics._gram_folds` by the construction it replaced, for the same arguments.

    Each fold downdates its set's factor to F' = E^-1 F[:, keep] (`_downdated_terms`), centres it and
    adds the two count columns (`_factors`), and forms D - W J W^T (`_dplr_matrix`); its held terms
    are F'^T E^-1 U with F' uncentred.  The held columns are those keep leaves out, padded with m to
    U's g, and every fold must pass the downdate's singular check, as the fold blocks hand over only
    folds that passed it.
    """
    (P, n, _, g), m, kept = U.shape, F.shape[-1], keep.shape[1]
    held = np.full((P, g), m)
    for p, columns in enumerate(keep):
        out = np.setdiff1d(np.arange(m), columns)
        held[p, :out.size] = out
    EU, factor, errors = _downdated_terms(F, at, held, keep)
    assert errors == {}
    W, centre = _factors(factor, counts[keep], n)
    M = _dplr_matrix(counts[keep], W)
    Fk = (factor[:, :-2] + centre).reshape(P, n, -1, kept)
    return M, np.moveaxis(np.swapaxes(Fk, -1, -2) @ EU, 1, 2).reshape(P, kept, n * g)


def mask_set(rng, shape_set, frac=0.2, min_joint=None):
    """Hide ~frac of the entries while keeping the set solvable.

    Repairs guarantee: every point visible somewhere, every shape keeps a
    comfortable majority of points, and every shape pair overlaps in at least
    min_joint (default d+1) points.
    """
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    if min_joint is None:
        min_joint = d + 1
    vis = np.ones((n, m), dtype=bool)
    hide = rng.random((n, m)) < frac
    vis &= ~hide
    floor = max(d + 2, int(np.ceil(0.6 * m)))
    for i in range(n):
        short = floor - int(vis[i].sum())
        if short > 0:
            hidden = np.flatnonzero(~vis[i])
            vis[i, rng.choice(hidden, size=short, replace=False)] = True
    for j in range(m):
        if not vis[:, j].any():
            vis[rng.integers(n), j] = True
    for i in range(n):
        for k in range(i + 1, n):
            while int((vis[i] & vis[k]).sum()) < min_joint:
                hidden = np.flatnonzero(~(vis[i] & vis[k]))
                j = rng.choice(hidden)
                vis[i, j] = True
                vis[k, j] = True
    return ShapeSet(tuple(
        Shape(s.points, vis[i], s.label) for i, s in enumerate(shape_set)))


def affine_models(shape_set):
    return [AffineWarp(shape_set.d) for _ in range(shape_set.n)]


def tps_models(shape_set, k=3, theta=1.0, internal=None, flat_axes=0):
    models = []
    for s in shape_set:
        centers = place_control_points(s, k, flat_axes)
        models.append(tps_build(centers, internal).with_smoothing(s.num_visible * theta))
    return models


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
            sol = solve(reduced, models, prior=prior, reflection_ref=reflection_ref, check_conditions=False)
            R, t = kabsch(sol.reference, full.reference[:, keep])
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


def grid_sets(shape_set, thetas, k=3, affine=True):
    """Model sets: TPS splines built once and re-weighted per theta, plus an affine set when `affine`."""
    splines = tps_models(shape_set, k=k)
    model_sets = [[model.with_smoothing(s.num_visible * theta) for model, s in zip(splines, shape_set)]
                  for theta in thetas]
    return model_sets + [affine_models(shape_set)] if affine else model_sets


def cves(outcomes):
    """The CVE outcome of each `cross_validation_errors` entry: (cve, predicted) or the DefgpaError of
    its earliest failing fold, or the DefgpaError of its full solve."""
    return [outcome if isinstance(outcome, DefgpaError) else outcome[1] for outcome in outcomes]


def checked_fits(shape_set, model_sets, outcomes, prior=None, reflection_ref=0, allow_reflection=False):
    """The (models, full solution) pairs of the `cross_validation_errors` outcomes of model sets, each
    full solution checked first against a direct `solve` with the same arguments.

    Reference, weights and costs agree within 1e-12 relative: entrywise
    against the largest entry of the direct reference or of each weight
    matrix, and each cost against itself or, for costs at round-off, against
    the data scale n |S|^2.  A set whose direct solve fails must have failed
    with the same error type and message; its entry is None.
    """
    fits = []
    for models, outcome in zip(model_sets, outcomes):
        try:
            want = solve(shape_set, models, prior=prior, reflection_ref=reflection_ref,
                         allow_reflection=allow_reflection, check_conditions=False)
        except DefgpaError as exc:
            assert type(outcome) is type(exc) and str(outcome) == str(exc), outcome
            fits.append(None)
            continue
        assert not isinstance(outcome, DefgpaError), outcome
        got = outcome[0]
        np.testing.assert_array_equal(got.prior.lambdas, want.prior.lambdas)
        assert (got.mus, got.models, got.nu, got.report) == (want.mus, want.models, want.nu, None)
        assert np.max(np.abs(got.reference - want.reference)) <= 1e-12 * np.max(np.abs(want.reference))
        for W, V in zip(got.weights, want.weights, strict=True):
            assert np.max(np.abs(W - V)) <= 1e-12 * np.max(np.abs(V))
        scale = shape_set.n * float(np.sum(want.reference ** 2))
        for name in ("cost", "data_cost", "reg_cost", "penalty_cost"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-12 * scale)
        fits.append((models, got))
    return fits


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
