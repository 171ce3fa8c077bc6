"""Differential tests of the fast paths against the plain closed form they stand in for.

The DPLR eigensolver is checked against the dense `eigh`.  Each case of a
seeded corpus is solved twice: as the solver runs it, and with the DPLR
iteration given no steps, so that every matrix takes the dense fallback
(`np.linalg.eigh` of the assembled m x m matrix).  Where the solve matrix's
factor has k = sum l_i + 2 < m columns the DPLR core must certify the
selection itself, so the dense fallback must not run there.  The solves of
free-translation models also agree with the first closed form, and those of a
basis with no constant direction with the dense second closed form.

The stacked CVE (downdated fold priors, chunked folds and passes, stacked
eigensolves and tail) is checked against `per_fold_reference`, one plain
`solve` of each restricted set per fold and model set with its own Kabsch
gauge, on a 16-layout corpus and on a seeded breadth corpus.

Permutations: the reference does not depend on the order of the shapes (with
the datum shape following its shape), its columns follow the order of the
landmarks, and so do the leave-one-out CVE and its predictions.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from defgpa import (
    CveConfig,
    DefgpaError,
    FormatError,
    InsufficientOverlap,
    Shape,
    ShapeSet,
    SingularSystem,
    assemble_P,
    check_theorem_conditions,
    cross_validation_error,
    cross_validation_errors,
    eig_sym,
    estimate_prior_for_set,
    gpa,
    metrics,
    solve,
    solve_affine_centered,
    spectral,
)
from defgpa.gpa import _gram_anchor, _stacked
from defgpa.metrics import _fold_slices
from defgpa.spectral import _bottom_pairs_dplr, _scale_selected
from defgpa.warps import _witness_and_residual
from conftest import (affine_models, checked_fits, cves, dense_runs, dense_selection, downdated_fold_matrices,
                      full_set, gauge_residual, grid_sets, mask_set, per_fold_reference, restrict_points,
                      tps_models)
from test_gpa import LinearOnlyWarp


def dense_only(monkeypatch):
    """Every eigensolve takes the dense fallback."""
    monkeypatch.setattr(spectral, "_MAX_STEPS", 0)


# (d, model, partial, nu): k = n l + 2 is 14 (2D affine), 29 (2D TPS), 18 (3D affine) and 26
# (3D TPS), each below m = 40.  These free-translation models have P 1 = 0, so the solve matrix
# H P H + (n/m) 11^T is P + (n/m) 11^T, and the solve agrees with the first closed form at each nu:
# the bottom d of P + nu 11^T (nu None: n/m), or at nu = 0 the d eigenvectors of P past its null
# vector 1.
CORPUS = [(d, model, partial, nu) for d in (2, 3) for model in ("affine", "tps")
          for partial in (False, True) for nu in (0.0, None, 1.0)]


def instance(seed, d, model, partial, m=40):
    rng = np.random.default_rng(seed)
    n = 4 if model == "affine" else 3
    ss = full_set(rng, d, m, n, kind="smooth", noise=0.05)
    if partial:
        ss = mask_set(rng, ss, 0.15, min_joint=d + 2)
    if model == "linear":
        return ss, [LinearOnlyWarp(d) for _ in ss]
    models = affine_models(ss) if model == "affine" else tps_models(ss, k=3 if d == 2 else 2)
    return ss, models


@pytest.mark.parametrize("case", range(len(CORPUS)),
                         ids=[f"{d}d-{model}-{'partial' if partial else 'full'}-nu{nu}"
                              for d, model, partial, nu in CORPUS])
def test_solve_matches_dense(monkeypatch, case):
    d, model, partial, nu = CORPUS[case]
    ss, models = instance(100 + case, d, model, partial)
    prior = estimate_prior_for_set(ss)
    calls = dense_runs(monkeypatch)
    sol = solve(ss, models, prior=prior)
    assert calls == []
    dense_only(monkeypatch)
    want = solve(ss, models, prior=prior)
    assert calls == [(1, ss.m, sum(model.feature_dim for model in models) + 2)]
    assert gauge_residual(sol.reference, want.reference) < 1e-8
    for name in ("cost", "data_cost", "reg_cost", "penalty_cost"):
        assert getattr(sol, name) == pytest.approx(getattr(want, name), rel=1e-8, abs=1e-10)
    P = assemble_P(ss, models)
    if nu == 0:
        np.testing.assert_allclose(np.abs(eig_sym(P).vectors[:, 0]), 1 / np.sqrt(ss.m), atol=1e-10)
    weight = ss.n / ss.m if nu is None else nu
    first = dense_selection(P + weight, prior.lambdas, _gram_anchor(*_stacked(ss)), ss[0], skip=int(nu == 0))
    assert gauge_residual(sol.reference, first) < 1e-8


@pytest.mark.parametrize("d, partial", [(2, False), (2, True), (3, False), (3, True)],
                         ids=["2d-linear-full", "2d-linear-partial", "3d-linear-full", "3d-linear-partial"])
def test_constant_free_solve_matches_dense(monkeypatch, d, partial):
    # a basis with no constant direction: P 1 != 0, so S 1 = 0 rests on H P H + (n/m) 11^T alone;
    # k = n d + 2 is 8 (2D) and 11 (3D), below m = 40.  On a partial set the points that one shape
    # alone sees put eigenvalues next to min D = 1, where the iteration needs more than the
    # default _MAX_STEPS; the step cap bounds the cost, the inertia count certifies the selection
    ss, models = instance(140 + 2 * d + partial, d, "linear", partial)
    prior = estimate_prior_for_set(ss)
    if partial:
        monkeypatch.setattr(spectral, "_MAX_STEPS", 1000)
    calls = dense_runs(monkeypatch)
    sol = solve(ss, models, prior=prior, check_conditions=False)
    assert calls == []
    dense_only(monkeypatch)
    want = solve(ss, models, prior=prior, check_conditions=False)
    assert calls == [(1, ss.m, ss.n * d + 2)]
    H = np.eye(ss.m) - 1 / ss.m
    dense = dense_selection(H @ assemble_P(ss, models) @ H + ss.n / ss.m, prior.lambdas,
                            _gram_anchor(*_stacked(ss)), ss[0])
    for S in (sol.reference, want.reference):
        assert np.linalg.norm(S.sum(axis=1)) <= 1e-12 * np.linalg.norm(S)
        assert gauge_residual(S, dense) < 1e-8
    assert sol.cost == pytest.approx(want.cost, rel=1e-8)


def plain_tail(shape_set, models, S):
    """Weights, data and regularization costs, and projector and witness residuals of reference S,
    each shape's normal solves taken by `np.linalg.solve` on its basis from `model.basis`."""
    weights, projector, witness = [], [], []
    data_cost = reg_cost = 0.0
    for shape, model in zip(shape_set, models):
        B = model.basis(shape.filled(0.0))
        gamma = shape.visibility.astype(float)
        Bg = B * gamma
        N = Bg @ Bg.T + model.smoothing * model.gram_regularizer()
        W = np.linalg.solve(N, Bg @ S.T)
        weights.append(W)
        data_cost += float(np.sum((W.T @ Bg - S * gamma) ** 2))
        reg_cost += model.smoothing * float(np.sum(W * (model.gram_regularizer() @ W)))
        projector.append(gamma - Bg.T @ np.linalg.solve(N, Bg @ gamma))
        witness.append(_witness_and_residual(model, B.T[shape.visibility])[1])
    return weights, data_cost, reg_cost, projector, witness


@pytest.mark.parametrize("kind", ["tps-full", "tps-partial", "mixed-partial"])
def test_tail_matches_plain_normal_solves(kind):
    # the weights, costs and condition residuals read F = L^-1 Bg and L^-1 only; the mixed set pads
    # its affine shapes' three rows to the TPS width.  Residuals are compared on the unit scale of
    # Gamma_i 1
    ss, models = instance(160, 2, "tps", kind != "tps-full")
    if kind == "mixed-partial":
        models = affine_models(ss)[:2] + models[2:]
    sol = solve(ss, models)
    weights, data_cost, reg_cost, projector, witness = plain_tail(ss, models, sol.reference)
    for got, want in zip(sol.weights, weights):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert sol.data_cost == pytest.approx(data_cost, rel=1e-10)
    assert sol.reg_cost == pytest.approx(reg_cost, rel=1e-10)
    for report in (sol.report, check_theorem_conditions(ss, models)):
        for shape, Pi_1, residual in zip(report.shapes, projector, witness):
            assert shape.projector_residual == pytest.approx(np.max(np.abs(Pi_1)), rel=1e-10, abs=1e-10)
            assert shape.witness_residual == pytest.approx(residual, rel=1e-10, abs=1e-10)
        assert report.aggregate_residual == pytest.approx(np.max(np.abs(sum(projector))), rel=1e-10,
                                                          abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_centered_affine_matches_the_dense_top_d(monkeypatch, d):
    # the D = 0 case: the top d of Q = sum_i Dbar_i^T (Dbar_i Dbar_i^T)^-1 Dbar_i
    ss = full_set(np.random.default_rng(7 + d), d, 30, 4, kind="smooth", noise=0.05)
    prior = estimate_prior_for_set(ss)
    Q = sum(Dbar.T @ np.linalg.solve(Dbar @ Dbar.T, Dbar)
            for Dbar in (s.points - s.points.mean(axis=1, keepdims=True) for s in ss))
    calls = dense_runs(monkeypatch)
    sol = solve_affine_centered(ss, prior=prior)
    assert calls == []
    S = dense_selection(-Q, prior.lambdas, _gram_anchor(*_stacked(ss)), ss[0])
    assert gauge_residual(sol.reference, S) < 1e-8


@pytest.mark.parametrize("partial", [False, True])
def test_exact_affine_cluster_gives_the_dense_anchored_answer(monkeypatch, partial):
    # exact affine copies: the bottom d eigenvalues of M form one zero cluster, which the anchor
    # rotation resolves as in the dense closed form
    rng = np.random.default_rng(21)
    ss = full_set(rng, 2, 30, 4, kind="affine")
    if partial:
        ss = mask_set(rng, ss, 0.15, min_joint=4)
    models = affine_models(ss)
    prior = estimate_prior_for_set(ss)
    calls = dense_runs(monkeypatch)
    sol = solve(ss, models, prior=prior)
    assert calls == []
    dense_only(monkeypatch)
    want = solve(ss, models, prior=prior)
    np.testing.assert_allclose(sol.reference, want.reference, atol=1e-8 * np.max(np.abs(want.reference)))
    assert sol.cost < 1e-8


def near_tie(gap):
    """D and F of M = diag(D) - F F^T with spectrum (0.1, 0.5, 0.5 + gap, 2, 3, 4, 5 ...) on a
    rotated basis, min D = 5."""
    rng = np.random.default_rng(3)
    m = 12
    U = np.linalg.qr(rng.normal(size=(m, 5)))[0]
    mu = np.array([0.1, 0.5, 0.5 + gap, 2.0, 3.0])
    return np.full(m, 5.0), U * np.sqrt(5.0 - mu)


@pytest.mark.parametrize("gap, dense", [(1e-12, True), (1e-3, False)])
def test_near_tie_at_the_cut_takes_the_dense_fallback(monkeypatch, gap, dense):
    D, F = near_tie(gap)
    W = np.concatenate([F, np.zeros((len(D), 1))], axis=-1)[None]
    calls = dense_runs(monkeypatch)
    values, V = _bottom_pairs_dplr(D[None], W, 2)
    assert calls == ([W.shape] if dense else [])
    lam = np.array([4.0, 1.0])
    (S,) = _scale_selected(values, V, lam, None)
    M = np.diag(D) - F @ F.T
    assert float(np.trace(S @ M @ S.T)) == pytest.approx(lam @ [0.1, 0.5], abs=1e-10)
    np.testing.assert_allclose(S @ S.T, np.diag(lam), atol=1e-10)


def test_a_start_that_misses_the_bottom_is_not_certified(monkeypatch):
    # M = diag(0, 1, 3, 3, 10, 10): a start inside span(e_3, e_4, e_5), which M keeps, converges to
    # Ritz pairs with small residuals, and only the inertia count shows they are not the bottom 2
    W = np.zeros((1, 6, 5))
    W[0, [0, 1, 2, 3], [0, 1, 2, 3]] = np.sqrt([10.0, 9.0, 7.0, 7.0])
    calls = dense_runs(monkeypatch)
    values, V = _bottom_pairs_dplr(np.full((1, 6), 10.0), W, 2, np.eye(6)[None, :, 2:5])
    assert calls == [(1, 6, 5)]
    np.testing.assert_allclose(values, [[0.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(np.abs(V[0]), np.eye(6)[:, :2], atol=1e-12)


def test_k_at_least_m_takes_the_dense_path(monkeypatch):
    # 2D TPS with 3 x 3 controls on 3 shapes: k = 29 >= m = 20
    ss, models = instance(5, 2, "tps", True, m=20)
    calls = dense_runs(monkeypatch)
    sol = solve(ss, models)
    assert calls == [(1, 20, 29)]
    dense_only(monkeypatch)
    np.testing.assert_array_equal(sol.reference, solve(ss, models).reference)


@pytest.mark.parametrize("d, model, group", [(2, "affine", 1), (2, "affine", 3), (3, "affine", 2),
                                             (2, "tps", 2)])
def test_cve_matches_dense(monkeypatch, d, model, group):
    ss, models = instance(40 + d + group, d, model, True, m=30 if model == "affine" else 50)
    calls = dense_runs(monkeypatch)
    (got,) = cves(cross_validation_errors(ss, [models], config=CveConfig(group)))
    assert calls == []
    dense_only(monkeypatch)
    (want,) = cves(cross_validation_errors(ss, [models], config=CveConfig(group)))
    assert not isinstance(got, DefgpaError) and not isinstance(want, DefgpaError)
    assert got[0] == pytest.approx(want[0], rel=1e-10)
    np.testing.assert_allclose(np.array(got[1]), np.array(want[1]), rtol=0, atol=1e-9)


# The CVE against `per_fold_reference`, one restricted-set `solve` per fold and model set.  Each
# layout has 3 shapes, a 2-point TPS theta grid and an affine set (two basis keys):
# (d, m, hidden fraction, group size, TPS controls per axis, _STACK_ENTRIES or None for the
# default, layout).  m % group > 0 gives a ragged last fold; a small _STACK_ENTRIES splits the folds
# into several chunks, a pass's folds into several eigensolve blocks, or the TPS sets into passes
# of one.  Two layouts make every set fail at some fold: `thin` leaves shapes 0 and 1 exactly d+1
# joint points, and `collinear` shows shape 0 four points, three of them on a line, so that the fold
# holding out the fourth leaves its normal matrix singular (a held point of leverage one).
CVE_CORPUS = [
    (2, 14, 0.0, 1, 3, None, None), (2, 15, 0.15, 2, 2, None, None),
    (2, 17, 0.3, 3, 2, None, None), (2, 18, 0.2, 4, 2, None, None),
    (3, 15, 0.0, 1, 2, None, None), (3, 16, 0.15, 2, 2, None, None),
    (3, 17, 0.3, 3, 2, None, None), (3, 18, 0.2, 4, 2, None, "thin"),
    (2, 20, 0.1, 1, 2, 4000, None), (2, 20, 0.2, 1, 2, 12000, None),
    (2, 19, 0.3, 2, 2, 1500, None), (2, 17, 0.25, 4, 3, 9000, None),
    (3, 17, 0.1, 1, 2, 5000, None), (3, 19, 0.2, 2, 2, 15000, None),
    (3, 20, 0.3, 3, 2, 1500, None), (2, 16, 0.3, 2, 3, 7000, "thin"),
    (2, 12, 0.0, 1, 2, None, "collinear"),
]


def thinned(ss):
    """The set with shape 1 hidden wherever shape 0 is visible, except at d+1 joint points."""
    vis = ss.visibility_matrix()
    joint = np.flatnonzero(vis[0] & vis[1])
    vis[1, joint[ss.d + 1:]] = False
    return ShapeSet(tuple(Shape(s.points, v, s.label) for s, v in zip(ss, vis)))


def collinear(ss):
    """The set with shape 0 visible at points 0-3 only, point 2 moved onto the line through 0 and 1."""
    vis = ss.visibility_matrix()
    vis[0] = np.arange(ss.m) < 4
    points = ss[0].points.copy()
    points[:, 2] = points[:, 0] + 0.4 * (points[:, 1] - points[:, 0])
    return ShapeSet((Shape(points, vis[0], ss[0].label),
                     *(Shape(s.points, v, s.label) for s, v in zip(ss[1:], vis[1:]))))


def cve_instance(case):
    d, m, hidden, group, ctrl, _, layout = CVE_CORPUS[case]
    rng = np.random.default_rng(500 + case)
    ss = full_set(rng, d, m, 3, kind="smooth", noise=0.05)
    if hidden:
        ss = mask_set(rng, ss, hidden, min_joint=d + 2)
    if layout == "thin":
        ss = thinned(ss)
    elif layout == "collinear":
        ss = collinear(ss)
    return ss, grid_sets(ss, [1.0, 0.01], k=ctrl)


def reference_outcome(ss, fit, group):
    try:
        (outcome,) = per_fold_reference(ss, [fit], group=group)
    except DefgpaError as exc:
        return exc
    return outcome


@pytest.mark.parametrize("case", range(len(CVE_CORPUS)),
                         ids=[f"{d}d-m{m}-hidden{hidden}-group{group}-stack{stack}"
                              + (f"-{layout}" if layout else "")
                              for d, m, hidden, group, _, stack, layout in CVE_CORPUS])
def test_cve_matches_the_per_fold_reference(monkeypatch, case):
    ss, model_sets = cve_instance(case)
    _, _, _, group, _, stack, layout = CVE_CORPUS[case]
    if stack is not None:
        monkeypatch.setattr(metrics, "_STACK_ENTRIES", stack)
    outcomes = cross_validation_errors(ss, model_sets, config=CveConfig(group))
    wants = [reference_outcome(ss, fit, group) for fit in checked_fits(ss, model_sets, outcomes)]
    gots = cves(outcomes)
    assert all(isinstance(want, DefgpaError) for want in wants) == (layout is not None)
    for got, want in zip(gots, wants):
        if isinstance(want, FormatError):
            # the plain loop cannot build a restricted set in which a shape keeps fewer than d+1
            # points; the CVE checks every fold's counts before any solve and names the fold
            vis = ss.visibility_matrix()
            fold = next(fold for fold in _fold_slices(ss.m, CveConfig(group))
                        if np.any(vis.sum(axis=1) - vis[:, fold].sum(axis=1) < ss.d + 1))
            assert type(got) is InsufficientOverlap
            assert str(got) == f"fold {fold.tolist()} leaves a shape with fewer than {ss.d + 1} visible points"
        elif isinstance(want, DefgpaError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert not isinstance(got, DefgpaError), got
            assert got[0] == pytest.approx(want[0], rel=1e-10)
            np.testing.assert_allclose(np.array(got[1]), np.array(want[1]), rtol=0, atol=1e-9)


def test_the_cve_corpus_splits_chunks_passes_and_blocks(monkeypatch):
    # over the layouts with a small _STACK_ENTRIES: some run several chunks, some put the TPS sets
    # in passes of one, and some solve one pass of a chunk in several blocks of several folds
    events = []

    def spy(record, core):
        def wrapper(*args):
            events.append(record(*args))
            return core(*args)
        return wrapper

    monkeypatch.setattr(gpa, "_fold_priors", spy(lambda *args: "chunk", gpa._fold_priors))
    monkeypatch.setattr(gpa, "_downdated_terms", spy(lambda F, *_: ("downdate", len(F)),
                                                     gpa._downdated_terms))
    monkeypatch.setattr(metrics, "_bottom_pairs_dplr", spy(lambda D, W, *_: ("pairs", W.shape[2], len(W)),
                                                           metrics._bottom_pairs_dplr))
    split = set()
    for case, (_, _, _, group, _, stack, layout) in enumerate(CVE_CORPUS):
        if stack is None or layout:
            continue
        ss, model_sets = cve_instance(case)
        prior = estimate_prior_for_set(ss)  # given to the full solves: every "chunk" is one of fold priors
        events.clear()
        monkeypatch.setattr(metrics, "_STACK_ENTRIES", stack)
        cross_validation_errors(ss, model_sets, prior, CveConfig(group))
        monkeypatch.setattr(metrics, "_STACK_ENTRIES", 2**16)
        chunks = []  # per chunk, the (k, pairs) of its eigensolve blocks
        for event in events:
            if event == "chunk":
                chunks.append([])
            elif event[0] == "pairs":
                chunks[-1].append(event[1:])
        if len(chunks) > 1:
            split.add("chunks")
        if ("downdate", 2) not in events:  # no pass factors two sets
            split.add("passes")
        sets = Counter(ss.n * models[0].feature_dim + 2 for models in model_sets)  # per factor width k
        for blocks, k in itertools.product(chunks, sets):
            pairs = [T for width, T in blocks if width == k]
            if len(pairs) > 1 and max(pairs) > sets[k]:
                split.add("blocks")
    assert split == {"chunks", "passes", "blocks"}


# The dense fold path (k >= m') against the construction it replaced: every block's fold matrices and
# held terms from the pass's Grams (`metrics._gram_folds`) against conftest's `downdated_fold_matrices`
# (`_downdated_terms`, then `_factors`, then `_dplr_matrix`), and the CVE outcomes of the two, with
# identical failures.  Each layout has 3 shapes and 3 x 3 TPS controls (k = 29) at three thetas:
# (d, m, hidden fraction, group size, layout).  m % group > 0 gives a ragged last fold; `collinear`
# fails a fold with a held point of leverage one.
GRAM_FOLDS = [(2, 14, 0.0, 1, None), (2, 17, 0.0, 3, None), (2, 16, 0.2, 2, None), (3, 15, 0.15, 1, None),
              (2, 12, 0.0, 1, "collinear")]


@pytest.mark.parametrize("case", range(len(GRAM_FOLDS)),
                         ids=[f"{d}d-m{m}-hidden{hidden}-group{group}" + (f"-{layout}" if layout else "")
                              for d, m, hidden, group, layout in GRAM_FOLDS])
def test_gram_folds_match_the_downdated_construction(monkeypatch, case):
    d, m, hidden, group, layout = GRAM_FOLDS[case]
    rng = np.random.default_rng(900 + case)
    ss = full_set(rng, d, m, 3, kind="smooth", noise=0.05)
    if hidden:
        ss = mask_set(rng, ss, hidden, min_joint=d + 2)
    if layout == "collinear":
        ss = collinear(ss)
    model_sets = grid_sets(ss, [1.0, 0.01, 1e-3], affine=False)
    assert ss.n * model_sets[0][0].feature_dim + 2 >= m - 1  # k >= m': every fold is dense
    gram_folds, blocks = metrics._gram_folds, []

    def spy(*args):
        blocks.append((gram_folds(*args), downdated_fold_matrices(*args)))
        return blocks[-1][0]

    monkeypatch.setattr(metrics, "_gram_folds", spy)
    gots = cves(cross_validation_errors(ss, model_sets, config=CveConfig(group)))
    assert blocks
    for got, want in blocks:
        for got_part, want_part in zip(got, want, strict=True):
            assert relative_deviation(got_part, want_part) <= 1e-12
    monkeypatch.setattr(metrics, "_gram_folds", downdated_fold_matrices)
    wants = cves(cross_validation_errors(ss, model_sets, config=CveConfig(group)))
    assert any(isinstance(want, DefgpaError) for want in wants) == (layout is not None)
    for got, want in zip(gots, wants):
        if isinstance(want, DefgpaError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert relative_deviation(np.nan_to_num(got[1]), np.nan_to_num(want[1])) <= 1e-12
            np.testing.assert_array_equal(np.isnan(got[1]), np.isnan(want[1]))


# The fold downdate against refactoring: each fold's F' = E^-1 F[:, keep] and held factor E^-1 U from the
# whole set's `_per_shape_terms` (`gpa._downdated_terms`) against `_per_shape_terms` of the kept points
# (E^-1 U against L'^-1 Bg[:, fold] with the refactored L'^-1), at every fold, for (model, partial, group)
# on d2 m13 sets (folds of 3 leave a ragged last fold) and, for the TPS, at each theta of DOWNDATE_THETAS
# in one stack; the leverage of held points comes within 4e-5 of 1.
# Both sides round, and their largest deviation relative to the largest entry grows with the distance of
# theta from 1.  Measured over F' and E^-1 U at most 5e-15 for the affine sets and for the TPS at theta = 1,
# 3e-14 at 1e-2, 3e-13 at 1e-3, 2e-13 at 1e2, 2e-12 at 1e-5 and 1e3, 2e-11 at 1e4 and 9e-11 at 1e5; each
# tolerance is at least thirty times its measure.
DOWNDATE_THETAS = np.array([1e-5, 1e-3, 1e-2, 1.0, 1e2, 1e3, 1e4, 1e5])
DOWNDATE_TOL = np.array([1e-10, 1e-11, 1e-12, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8])
DOWNDATE = list(itertools.product(("affine", "tps"), (False, True), (1, 3)))


@pytest.mark.parametrize("case", range(len(DOWNDATE)),
                         ids=[f"{model}-{'partial' if partial else 'full'}-group{group}"
                              for model, partial, group in DOWNDATE])
def test_the_fold_downdate_matches_refactoring(case):
    model, partial, group = DOWNDATE[case]
    ss, models = instance(720 + case, 2, model, partial, m=13)
    thetas, tol = (DOWNDATE_THETAS, DOWNDATE_TOL) if model == "tps" else (np.zeros(1), [1e-12])
    mus = thetas[:, None] * np.array([s.num_visible for s in ss])  # affine models are not smoothed
    G = ss.visibility_matrix().astype(float)
    Bg = gpa._bases(ss, models)[0][:-2].reshape(ss.n, -1, ss.m) * G[:, None, :]
    _, terms, errors = gpa._per_shape_terms(G, gpa._bases(ss, models), mus)
    assert errors == {}
    F = terms[:, :-2].reshape(len(mus), ss.n, -1, ss.m)
    for fold in _fold_slices(ss.m, CveConfig(group)):
        keep = np.setdiff1d(np.arange(ss.m), fold)
        EU, got, errors = gpa._downdated_terms(F, np.arange(len(mus)), np.tile(fold, (len(mus), 1)),
                                               np.tile(keep, (len(mus), 1)))
        want_Linv, want, want_errors = gpa._per_shape_terms(
            G[:, keep], gpa._bases(restrict_points(ss, keep), models), mus)
        assert errors == want_errors == {}
        for t in range(len(mus)):
            assert relative_deviation(got[t, :-2], want[t, :-2]) <= tol[t]
            assert relative_deviation(EU[t], want_Linv[t] @ Bg[..., fold]) <= tol[t]


# (d, m, ctrl, partial, failing row) of the grid's stacked full solve against one `solve` per theta:
# 2D TPS on 3 shapes, with 2 x 2 control points at m = 60 (k = 14 < m, so the stack of T > 1 full
# matrices takes the DPLR core), or with 3 x 3 at m = 20 (k = 29 >= m, dense, as in the bench's sweep).
# The failing row's infinite smoothing weight fails its factorization.
GRID = [(2, 60, 2, False, None), (2, 60, 2, True, None), (2, 20, 3, True, None), (2, 60, 2, True, 1),
        (2, 20, 3, True, 2)]
GRID_THETAS = [1e-3, 1e-1, 1e1, 1e3]


@pytest.mark.parametrize("case", range(len(GRID)),
                         ids=[f"m{m}-ctrl{ctrl}-{'partial' if partial else 'full'}"
                              + ("" if row is None else f"-row{row}-fails")
                              for _, m, ctrl, partial, row in GRID])
def test_the_stacked_full_solve_matches_separate_solves(monkeypatch, case):
    d, m, ctrl, partial, failing = GRID[case]
    ss, _ = instance(800 + case, d, "tps", partial, m=m)
    splines = tps_models(ss, k=ctrl)
    model_sets = [[model.with_smoothing(s.num_visible * (np.inf if t == failing else theta))
                   for model, s in zip(splines, ss)] for t, theta in enumerate(GRID_THETAS)]
    prior = estimate_prior_for_set(ss)
    k = ss.n * splines[0].feature_dim + 2
    calls = dense_runs(monkeypatch)
    got = metrics._grid(ss, model_sets, prior, CveConfig(2), check_conditions=True)
    live = len(GRID_THETAS) - (failing is not None)
    assert calls[:1] == ([] if k < m else [(live, m, k)])  # the full matrices come first, in one stack
    for t, (models, outcome) in enumerate(zip(model_sets, got)):
        if t == failing:
            with pytest.raises(SingularSystem) as want:
                solve(ss, models, prior=prior)
            assert type(outcome) is SingularSystem and str(outcome) == str(want.value)
            continue
        sol, cve = outcome
        want = solve(ss, models, prior=prior)
        assert not isinstance(cve, DefgpaError)
        assert gauge_residual(sol.reference, want.reference) <= 1e-12
        for W, V in zip(sol.weights, want.weights):
            assert relative_deviation(W, V) <= 1e-12
        for name in ("cost", "data_cost", "reg_cost"):
            assert getattr(sol, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
        assert sol.penalty_cost == pytest.approx(want.penalty_cost, rel=0.0, abs=1e-12 * want.cost)
        report, want_report = sol.report, want.report
        assert (report.all_pass, report.tolerance) == (want_report.all_pass, want_report.tolerance)
        assert report.aggregate_residual == pytest.approx(want_report.aggregate_residual, abs=1e-12)
        for shape, want_shape in zip(report.shapes, want_report.shapes):
            assert (shape.index, shape.witness_found, shape.passes) == (
                want_shape.index, want_shape.witness_found, want_shape.passes)
            assert shape.projector_residual == pytest.approx(want_shape.projector_residual, abs=1e-12)
            assert shape.witness_residual == pytest.approx(want_shape.witness_residual, abs=1e-12)


# (seed, d, model) of the partial sets the permutation properties run on
PERMUTED = [(600 + k, d, model)
            for k, (d, model) in enumerate(itertools.product((2, 3), ("affine", "tps", "tps")))]
PERMUTED_IDS = [f"{seed}-{d}d-{model}" for seed, d, model in PERMUTED]


def relative_deviation(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("seed, d, model", PERMUTED, ids=PERMUTED_IDS)
def test_the_reference_does_not_depend_on_the_shape_order(seed, d, model):
    ss, models = instance(seed, d, model, True, m=20)
    order = np.random.default_rng(seed).permutation(ss.n)
    while order[0] == 0:  # the datum shape moves
        order = np.roll(order, 1)
    permuted = ShapeSet(tuple(ss[i] for i in order))
    got = solve(permuted, [models[i] for i in order], reflection_ref=int(np.flatnonzero(order == 0)[0]))
    assert relative_deviation(got.reference, solve(ss, models).reference) < 1e-10


@pytest.mark.parametrize("seed, d, model", PERMUTED, ids=PERMUTED_IDS)
def test_the_reference_columns_follow_the_landmark_order(seed, d, model):
    ss, models = instance(seed, d, model, True, m=20)
    perm = np.random.default_rng(seed).permutation(ss.m)
    got = solve(restrict_points(ss, perm), models)
    assert relative_deviation(got.reference, solve(ss, models).reference[:, perm]) < 1e-10


@pytest.mark.parametrize("seed, d, model", PERMUTED, ids=PERMUTED_IDS)
def test_leave_one_out_cve_follows_the_landmark_order(seed, d, model):
    # the folds are the landmarks, so a permutation reorders the folds
    ss, models = instance(seed, d, model, True, m=20)
    perm = np.random.default_rng(seed).permutation(ss.m)
    want, predicted = cross_validation_error(ss, models, config=CveConfig(1))
    got, permuted = cross_validation_error(restrict_points(ss, perm), models, config=CveConfig(1))
    assert got == pytest.approx(want, rel=1e-10)
    np.testing.assert_allclose(np.array(permuted), np.array(predicted)[:, :, perm], rtol=0, atol=1e-9)


# The breadth corpus: BREADTH seeded sets, each CVE against `per_fold_reference`.  The layout runs
# through d 2-3, n 3-4 shapes, folds of 1-4 points and 0-40% hidden; m (10-13), the datum shape and
# the TPS theta are drawn per set.  Every set has a TPS model set and a second one: affine, TPS at
# another theta, or infinitely smoothed TPS, whose non-finite normal matrices fail its own full solve
# as they fail a direct `solve`.  Every fifth set allows reflections, and about a quarter run with a
# small _STACK_ENTRIES.  Hidden points and large folds make some sets fail in the fold priors as well.
BREADTH = 128


def breadth_instance(case):
    d, n, group, hidden = 2 + case % 2, 3 + case // 2 % 2, 1 + case // 4 % 4, 0.1 * (case // 16 % 5)
    rng = np.random.default_rng(900 + case)
    ss = full_set(rng, d, int(rng.integers(10, 14)), n, kind="smooth", noise=0.05)
    if hidden:
        ss = mask_set(rng, ss, hidden, min_joint=d + 2)
    ref, theta, reflect = int(rng.integers(n)), float(10.0 ** rng.uniform(-2, 2)), case % 5 == 4
    stack = int(rng.choice([1500, 4000, 9000])) if rng.random() < 0.25 else None
    splines = tps_models(ss, k=3 if d == 2 else 2, theta=theta)
    second = ("affine", "tps", "inf")[case % 3]
    model_sets = [splines, affine_models(ss) if second == "affine" else
                  [model.with_smoothing(model.smoothing / 100 if second == "tps" else np.inf)
                   for model in splines]]
    return ss, model_sets, dict(group=group, reflection_ref=ref, allow_reflection=reflect), stack


@pytest.mark.parametrize("case", range(BREADTH))
def test_cve_breadth_matches_the_per_fold_reference(monkeypatch, case):
    ss, model_sets, options, stack = breadth_instance(case)
    if stack is not None:
        monkeypatch.setattr(metrics, "_STACK_ENTRIES", stack)
    group = options.pop("group")
    outcomes = cross_validation_errors(ss, model_sets, config=CveConfig(group), **options)
    fits = checked_fits(ss, model_sets, outcomes, **options)
    assert [fit is None for fit in fits] == [False, case % 3 == 2]  # only the infinitely smoothed set fails
    wants = []
    for models, fit in zip(model_sets, fits):
        try:
            if fit is None:  # a failed full solve: the oracle is the direct solve, which fails alike
                solve(ss, models, check_conditions=False, **options)
            (want,) = per_fold_reference(ss, [fit], group=group, **options)
        except DefgpaError as exc:
            want = exc
        wants.append(want)
    gots = cves(outcomes)
    for got, want in zip(gots, wants):
        if isinstance(want, FormatError):
            # a fold that leaves a shape fewer than d+1 points: the plain loop cannot restrict the set
            vis = ss.visibility_matrix()
            fold = next(fold for fold in _fold_slices(ss.m, CveConfig(group))
                        if np.any(vis.sum(axis=1) - vis[:, fold].sum(axis=1) < ss.d + 1))
            want = InsufficientOverlap(f"fold {fold.tolist()} leaves a shape with fewer than {ss.d + 1} "
                                       "visible points")
        if isinstance(want, DefgpaError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert not isinstance(got, DefgpaError), got
            assert got[0] == pytest.approx(want[0], rel=1e-10)
            np.testing.assert_allclose(np.array(got[1]), np.array(want[1]), rtol=0, atol=1e-9)
