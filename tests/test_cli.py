"""Command-line interface: exit codes, outputs, determinism, library parity."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from defgpa import (
    CveConfig,
    DegenerateCenters,
    Shape,
    ShapeSet,
    SingularSystem,
    cross_validation_error,
    estimate_prior_for_set,
    rmse_d,
    load_shapes,
    rmse_r,
    save_shapes,
    solve,
)
from defgpa.cli import _config_from_args, _with_theta, build_models, build_parser, main
from conftest import affine_models, full_set, mask_set

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def write_set(path, shape_set):
    save_shapes(shape_set, path, format="json")
    return str(path)


def count_calls(monkeypatch, *names):
    """The arguments of every call to the named functions of `defgpa.gpa`, recorded as they run."""
    import defgpa.gpa
    calls = {}

    def spy(name, real):
        def call(*args, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)
        return call

    for name in names:
        calls[name] = []
        monkeypatch.setattr(defgpa.gpa, name, spy(name, getattr(defgpa.gpa, name)))
    return calls


@pytest.fixture
def identical_pair(rng, tmp_path):
    pts = rng.normal(size=(2, 8))
    ss = ShapeSet((Shape(pts, np.ones(8, bool)), Shape(pts.copy(), np.ones(8, bool))))
    return ss, write_set(tmp_path / "toy.json", ss)


@pytest.fixture
def rigid_file(rng, tmp_path):
    ss = full_set(rng, 2, 8, 3, kind="rigid")
    return ss, write_set(tmp_path / "rigid.json", ss)


class TestSolveCommand:
    def test_identical_shapes_zero_rmse(self, identical_pair, tmp_path, capsys):
        _, path = identical_pair
        out = str(tmp_path / "sol.json")
        code = main(["solve", "--input", path, "--model", "affine", "--output", out])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["metrics"]["rmse_r"] < 1e-8
        assert os.path.exists(os.path.splitext(out)[0] + ".metrics.json")

    def test_tps_records_nine_control_points(self, rigid_file, tmp_path):
        _, path = rigid_file
        out = str(tmp_path / "sol.json")
        code = main(["solve", "--input", path, "--model", "tps", "--ctrl", "3",
                     "--theta", "10", "--output", out])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        for model in doc["models"]:
            assert model["type"] == "tps"
            assert len(model["centers"][0]) == 9

    def test_malformed_json_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = str(tmp_path / "never.json")
        code = main(["solve", "--input", str(bad), "--output", out])
        assert code == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("doc", [
        {"d": 2, "m": 3, "n": "x", "shapes": [{"points": [[0, 0], [1, 0], [0, 1]]}]},
        {"d": 2, "m": 3, "shapes": [{"points": 5}]},
    ], ids=["non-integer-n", "non-list-points"])
    def test_malformed_document_exits_2(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = str(tmp_path / "never.json")
        assert main(["solve", "--input", str(bad), "--output", out]) == 2
        assert not os.path.exists(out)

    def test_missing_input_exits_runtime(self, tmp_path):
        code = main(["solve", "--input", str(tmp_path / "absent.json")])
        assert code in (1, 2)

    def test_byte_deterministic(self, rigid_file, tmp_path):
        _, path = rigid_file
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["solve", "--input", path, "--model", "tps", "--theta", "3",
                     "--output", out1]) == 0
        assert main(["solve", "--input", path, "--model", "tps", "--theta", "3",
                     "--output", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_condition_flags_serialize_as_booleans(self, rigid_file, tmp_path):
        _, path = rigid_file
        out = str(tmp_path / "sol.json")
        assert main(["solve", "--input", path, "--output", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["conditions"]["all_pass"] is True
        assert doc["conditions"]["shapes"][0]["witness_found"] is True

    @pytest.mark.parametrize("args", [["cve", "--group", "1"], ["solve"]], ids=["cve", "solve"])
    def test_singular_normal_matrix_exits_1(self, rng, tmp_path, capsys, args):
        # shape 2 lies on the line y = 0, so its affine normal matrix has a zero row and column
        arrays = [s.points.copy() for s in full_set(rng, 2, 12, 4, kind="affine")]
        arrays[2][1] = 0.0
        path = write_set(tmp_path / "flat.json", ShapeSet(tuple(Shape(D, np.ones(12, bool)) for D in arrays)))
        out = tmp_path / "out.json"
        assert main([*args, "--input", path, "--output", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "SingularSystem", "message": "normal matrix of shape 2 is singular"}
        assert not out.exists()

    @pytest.mark.parametrize("args", [["prior"], ["solve"], ["solve", "--model", "tps"], ["sweep"],
                                      ["sweep", "--model", "tps"], ["cve", "--group", "1"]],
                             ids=["prior", "solve", "solve-tps", "sweep", "sweep-tps", "cve"])
    def test_shapes_without_coordinates_exit_2(self, tmp_path, capsys, args):
        path = tmp_path / "d0.json"
        path.write_text(json.dumps({"d": 0, "m": 3, "shapes": [{"points": [[], [], []]}]}))
        out = tmp_path / "out.json"
        output = [] if args == ["prior"] else ["--output", str(out)]  # prior writes no file
        assert main([*args, "--input", str(path), *output]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "FormatError", "message": "points need at least one coordinate row, got d=0"}
        assert not out.exists()

    @pytest.mark.parametrize("case", ["rigid-affine", "partial-tps"])
    def test_library_parity(self, rng, tmp_path, case):
        # the noiseless rigid set fits exactly (rmse ~ 1e-16), so only an absolute bound means anything
        # there; the partial TPS set, with hidden points and theta > 0, checks the CLI's rmse_r, read from
        # the solve's data_cost, and its rmse_d against the library's to round-off
        if case == "rigid-affine":
            ss, args, tol = full_set(rng, 2, 8, 3, kind="rigid"), ["--model", "affine"], dict(abs=1e-12)
        else:
            ss = mask_set(rng, full_set(rng, 2, 14, 4, kind="smooth", noise=0.1), 0.2)
            args, tol = ["--model", "tps", "--ctrl", "3", "--theta", "0.5"], dict(rel=1e-12)
        path = write_set(tmp_path / "set.json", ss)
        out = str(tmp_path / "sol.json")
        assert main(["solve", "--input", path, *args, "--output", out]) == 0
        doc = json.loads(Path(out).read_text())
        config = _config_from_args(build_parser().parse_args(["solve", "--input", path, *args]))
        models = _with_theta(build_models(ss, config), ss, config.theta)
        sol = solve(ss, models)
        np.testing.assert_allclose(np.array(doc["reference"]), sol.reference, atol=1e-12)
        assert doc["metrics"]["rmse_r"] == pytest.approx(rmse_r(sol, ss, models), **tol)
        assert doc["metrics"]["rmse_d"] == pytest.approx(rmse_d(sol, ss, models), **tol)


class TestSweepCommand:
    def test_rows_and_monotonicity(self, rng, tmp_path):
        ss = full_set(rng, 2, 10, 3, kind="smooth", noise=0.02)
        path = write_set(tmp_path / "set.json", ss)
        out = str(tmp_path / "grid.csv")
        code = main(["sweep", "--input", path, "--model", "tps", "--ctrl", "3",
                     "--thetas", "100,1,0.01", "--output", out])
        assert code == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "theta,rmse_r,rmse_d,cve"
        rows = [dict(zip(lines[0].split(","), map(float, l.split(",")))) for l in lines[1:]]
        assert len(rows) == 3
        assert rows[1]["rmse_r"] <= rows[0]["rmse_r"] + 1e-10
        assert rows[2]["rmse_r"] <= rows[1]["rmse_r"] + 1e-10

    @pytest.mark.parametrize("flags", [[], ["--allow-reflection"]],
                             ids=["plain", "allow-reflection"])
    def test_matches_individual_commands(self, rng, tmp_path, flags):
        ss = full_set(rng, 2, 9, 3, kind="smooth", noise=0.05)
        path = write_set(tmp_path / "set.json", ss)
        out = str(tmp_path / "grid.csv")
        assert main(["sweep", "--input", path, "--model", "tps", "--thetas", "10,0.1",
                     "--output", out, "--cve-group", "1", *flags]) == 0
        lines = Path(out).read_text().strip().splitlines()
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))

        sol_out = str(tmp_path / "one.json")
        assert main(["solve", "--input", path, "--model", "tps", "--theta", "10",
                     "--output", sol_out, "--cve-group", "1", *flags]) == 0
        doc = json.loads(Path(sol_out).read_text())
        assert doc["metrics"]["rmse_r"] == pytest.approx(row["rmse_r"], abs=1e-10)
        assert doc["metrics"]["rmse_d"] == pytest.approx(row["rmse_d"], abs=1e-10)
        assert doc["metrics"]["cve"] == pytest.approx(row["cve"], abs=1e-10)

    def test_failed_theta_is_isolated(self, rng, tmp_path, monkeypatch, capsys):
        # the injected failure at theta = 0.5 hits either its full solve or only its fold solves
        import defgpa.gpa
        from conftest import mask_set
        ss = mask_set(rng, full_set(rng, 2, 10, 3, kind="smooth", noise=0.05), 0.2,
                      min_joint=2 + 3)
        path = write_set(tmp_path / "set.json", ss)
        bad_theta = 0.5
        real_terms, real_held = defgpa.gpa._per_shape_terms, defgpa.gpa._held_terms
        without = str(tmp_path / "without.csv")
        assert main(["sweep", "--input", path, "--model", "tps",
                     "--thetas", "10,0.1", "--output", without]) == 0
        assert capsys.readouterr().err == ""
        for in_folds in (False, True):
            mus_of_pass = []

            def per_shape_terms(G, bases, mus, in_folds=in_folds):
                # one row of mu_i = nnz_i * theta (of the full set) per theta
                mus_of_pass[:] = mus
                Linv, factor, errors = real_terms(G, bases, mus)
                if not in_folds:
                    for t in np.flatnonzero(mus[:, 0] == ss[0].num_visible * bad_theta):
                        errors[t] = SingularSystem("injected failure", shape_index=0)
                return Linv, factor, errors

            def held_terms(F, rows, held, in_folds=in_folds):
                # each fold's pair takes the row `rows[p]` of the pass's terms
                U, E, errors = real_held(F, rows, held)
                if in_folds:
                    for p in np.flatnonzero(np.array(mus_of_pass)[rows, 0] == ss[0].num_visible * bad_theta):
                        errors[p] = SingularSystem("injected failure", shape_index=0)
                return U, E, errors

            monkeypatch.setattr(defgpa.gpa, "_per_shape_terms", per_shape_terms)
            monkeypatch.setattr(defgpa.gpa, "_held_terms", held_terms)
            with_bad = str(tmp_path / f"with_bad_{in_folds}.csv")
            assert main(["sweep", "--input", path, "--model", "tps",
                         "--thetas", "10,0.5,0.1", "--output", with_bad]) == 0
            errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
            assert errors == [{"theta": 0.5, "error": "SingularSystem",
                               "message": "injected failure"}]
            rows = Path(with_bad).read_text().splitlines()
            assert rows[2] == "0.5,nan,nan,nan"
            assert rows[:2] + rows[3:] == Path(without).read_text().splitlines()

    def test_failed_inverse_fails_its_theta(self, rng, tmp_path, monkeypatch, capsys):
        # the rmse_d of every theta come from one stacked inverse-TPS fit per shape; an inverse that
        # fails at one theta fails that row alone, with one stderr line
        import defgpa.metrics
        ss = mask_set(rng, full_set(rng, 2, 10, 3, kind="smooth", noise=0.05), 0.2, min_joint=2 + 3)
        path = write_set(tmp_path / "set.json", ss)
        without = tmp_path / "without.csv"
        assert main(["sweep", "--input", path, "--model", "tps", "--thetas", "10,0.1",
                     "--output", str(without)]) == 0
        inverse_tps = defgpa.metrics._inverse_tps

        def failing(model, Ws, internal_smoothing):
            images, recovery, errors = inverse_tps(model, Ws, internal_smoothing)
            errors[1] = DegenerateCenters("injected failure")  # the fit of the second theta
            return images, recovery, errors

        monkeypatch.setattr(defgpa.metrics, "_inverse_tps", failing)
        out = tmp_path / "with_bad.csv"
        assert main(["sweep", "--input", path, "--model", "tps", "--thetas", "10,0.5,0.1",
                     "--output", str(out)]) == 0
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"theta": 0.5, "error": "DegenerateCenters", "message": "injected failure"}]
        rows = out.read_text().splitlines()
        assert rows[2] == "0.5,nan,nan,nan"
        assert rows[:2] + rows[3:] == without.read_text().splitlines()

    def test_non_finite_normal_matrix_fails_its_row(self, rng, tmp_path, capsys):
        # mu_i = nnz_i * 1e308 overflows to inf: the normal matrix is non-finite, so its row
        # fails before any factorization and no warning is printed
        from conftest import mask_set
        ss = mask_set(rng, full_set(rng, 2, 10, 3, kind="smooth", noise=0.05), 0.2,
                      min_joint=2 + 3)
        path = write_set(tmp_path / "set.json", ss)
        out = tmp_path / "g.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--input", path, "--model", "tps",
                         "--thetas", "1e308,1", "--output", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert errors == [{"theta": 1e308, "error": "SingularSystem",
                           "message": "normal matrix of shape 0 is non-finite"}]
        rows = out.read_text().splitlines()
        assert rows[1] == "1e+308,nan,nan,nan"
        assert "nan" not in rows[2]

    def test_failed_prior_fails_every_grid_point(self, rng, tmp_path, capsys):
        # shapes 0 and 1 share no visible point, so the prior fails before any solve: the sweep
        # writes a nan row per theta, solve and cve exit 1 with the same message
        ss = full_set(rng, 2, 8, 3, kind="affine", noise=0.05)
        halves = [np.arange(8) < 4, np.arange(8) >= 4, np.ones(8, bool)]
        path = write_set(tmp_path / "apart.json", ShapeSet(tuple(
            Shape(s.points, vis, s.label) for s, vis in zip(ss, halves))))
        error = {"error": "InsufficientOverlap", "message": "need at least 3 jointly visible points, have 0"}
        out = tmp_path / "g.csv"
        assert main(["sweep", "--input", path, "--thetas", "1,10", "--output", str(out)]) == 0
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"theta": 1.0, **error}, {"theta": 10.0, **error}]
        assert out.read_text().splitlines()[1:] == ["1.0,nan,nan,nan", "10.0,nan,nan,nan"]
        for args in (["solve"], ["cve", "--group", "1"]):
            assert main([*args, "--input", path, "--output", str(tmp_path / "out.json")]) == 1
            assert json.loads(capsys.readouterr().err) == error
        assert not (tmp_path / "out.json").exists()

    def test_single_point_grid_rejected(self, rigid_file, tmp_path):
        _, path = rigid_file
        assert main(["sweep", "--input", path, "--model", "tps",
                     "--thetas", "1", "--output", str(tmp_path / "g.csv")]) == 2

    def test_bad_theta_grid_rejected(self, rigid_file, tmp_path):
        # each grid value is checked as `solve --theta` checks it, before any solve
        _, path = rigid_file
        out = tmp_path / "g.csv"
        assert main(["sweep", "--input", path, "--model", "tps",
                     "--thetas", "1,-1,0", "--output", str(out)]) == 2
        assert not out.exists()

    def test_one_full_solve_per_theta(self, rng, tmp_path, monkeypatch):
        # k thetas on m points with folds of 1: one pass of all k model sets computes the bases once,
        # factors them in one call on all m points and solves the k full matrices in one stacked
        # eigensolve; k >= m - 1, so its (fold, model set) pairs judge their held columns and build their
        # matrices from its Grams in one block
        ss = full_set(rng, 2, 9, 3, kind="smooth", noise=0.05)
        path = write_set(tmp_path / "set.json", ss)
        calls = count_calls(monkeypatch, "solve", "_bases", "_per_shape_terms", "_held_terms",
                            "_downdated_terms", "_bottom_pairs_dplr")
        assert main(["sweep", "--input", path, "--model", "tps", "--thetas", "10,1,0.1",
                     "--cve-group", "1", "--output", str(tmp_path / "g.csv")]) == 0
        k = ss.n * 9 + 2  # l = 9 for a 3 x 3 control grid
        assert calls["solve"] == []
        assert len(calls["_bases"]) == 1
        assert [(G.shape[1], len(mus)) for G, _, mus in calls["_per_shape_terms"]] == [(ss.m, 3)]
        # gpa's `_bottom_pairs_dplr` runs the full matrices only; the fold blocks call metrics' own
        assert [W.shape for _, W, _ in calls["_bottom_pairs_dplr"]] == [(3, ss.m, k)]
        assert [held.shape for _, _, held in calls["_held_terms"]] == [(3 * ss.m, 1)]
        assert calls["_downdated_terms"] == []  # no pair writes a downdated factor


class TestCveCommand:
    def test_noiseless_rigid(self, rigid_file, tmp_path, capsys):
        _, path = rigid_file
        out = str(tmp_path / "cve.json")
        code = main(["cve", "--input", path, "--model", "affine", "--group", "1",
                     "--output", out])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["cve"] < 1e-6
        assert doc["predicted"]["n"] == 3

    def test_group_equal_m_rejected(self, rigid_file, tmp_path):
        _, path = rigid_file
        assert main(["cve", "--input", path, "--group", "8"]) == 2

    def test_parity_with_library(self, rng, tmp_path):
        ss = full_set(rng, 2, 8, 3, kind="affine", noise=0.05)
        path = write_set(tmp_path / "set.json", ss)
        out = str(tmp_path / "cve.json")
        assert main(["cve", "--input", path, "--model", "affine", "--group", "2",
                     "--output", out]) == 0
        doc = json.loads(Path(out).read_text())
        models = affine_models(ss)
        sol = solve(ss, models)
        cve, _ = cross_validation_error(ss, models, config=CveConfig(2))
        assert doc["cve"] == pytest.approx(cve, abs=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--allow-reflection"]])
    def test_byte_deterministic(self, rng, tmp_path, flags):
        from conftest import mask_set
        ss = mask_set(rng, full_set(rng, 2, 14, 4, kind="smooth", noise=0.05), 0.15,
                      min_joint=2 + 2)
        path = write_set(tmp_path / "set.json", ss)
        outs = []
        for name in ("first.json", "second.json"):
            out = str(tmp_path / name)
            assert main(["cve", "--input", path, "--model", "tps", "--ctrl", "3", "--theta", "1",
                         "--group", "1", *flags, "--output", out]) == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_one_factorization(self, rng, tmp_path, monkeypatch):
        # the full solve and the folds share one pass: the bases once, one factorization
        from conftest import mask_set
        ss = mask_set(rng, full_set(rng, 2, 10, 3, kind="affine", noise=0.05), 0.2, min_joint=2 + 3)
        path = write_set(tmp_path / "set.json", ss)
        calls = count_calls(monkeypatch, "solve", "_bases", "_per_shape_terms")
        assert main(["cve", "--input", path, "--group", "1", "--output", str(tmp_path / "cve.json")]) == 0
        assert {name: len(args) for name, args in calls.items()} == {
            "solve": 0, "_bases": 1, "_per_shape_terms": 1}

    def test_allow_reflection_reaches_fold_priors(self, rng, tmp_path, monkeypatch):
        import defgpa.gpa
        from conftest import mask_set
        ss = mask_set(rng, full_set(rng, 2, 10, 3, kind="affine", noise=0.05), 0.2,
                      min_joint=2 + 3)
        path = write_set(tmp_path / "set.json", ss)
        real_fold_priors = defgpa.gpa._fold_priors
        calls = []

        def fold_priors(Y, G, moments, held, allow_reflection):
            calls.append((held.shape, allow_reflection))
            return real_fold_priors(Y, G, moments, held, allow_reflection)

        monkeypatch.setattr(defgpa.gpa, "_fold_priors", fold_priors)
        assert main(["cve", "--input", path, "--model", "affine", "--group", "1",
                     "--allow-reflection", "--output", str(tmp_path / "cve.json")]) == 0
        # the full-set prior (no column held out), then one prior per fold, in chunks
        assert calls[0] == ((1, 0), True)
        assert [shape[1] for shape, _ in calls[1:]] == [1] * (len(calls) - 1)
        assert sum(shape[0] for shape, _ in calls[1:]) == ss.m
        assert all(flag for _, flag in calls)

    def test_tps_on_partial_data(self, rng, tmp_path):
        from conftest import mask_set
        ss = mask_set(rng, full_set(rng, 2, 12, 4, kind="smooth", noise=0.05), 0.2,
                      min_joint=2 + 3)
        path = write_set(tmp_path / "set.json", ss)
        out = str(tmp_path / "cve.json")
        assert main(["cve", "--input", path, "--model", "tps", "--ctrl", "3",
                     "--theta", "5", "--group", "1", "--output", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["cve"] >= 0
        # invisible landmarks stay null in the predicted shapes
        for shape_doc, shape in zip(doc["predicted"]["shapes"], ss):
            for j, pt in enumerate(shape_doc["points"]):
                assert (pt is None) == (not shape.visibility[j])
        # every visible point is predicted, so the block is a loadable shape document
        predicted = load_shapes(json.dumps(doc["predicted"]))
        for pred, shape in zip(predicted, ss):
            np.testing.assert_array_equal(pred.visibility, shape.visibility)


class TestPriorCommand:
    def test_identical_shapes(self, identical_pair, capsys):
        ss, path = identical_pair
        assert main(["prior", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        centered = ss[0].points - ss[0].points.mean(axis=1, keepdims=True)
        expected = np.sort(np.linalg.eigvalsh(centered @ centered.T))[::-1]
        np.testing.assert_allclose(out["lambdas"], expected, atol=1e-9)

    def test_parity_with_library(self, rng, tmp_path, capsys):
        from conftest import mask_set
        ss = mask_set(rng, full_set(rng, 2, 10, 3, kind="affine"), 0.2)
        path = write_set(tmp_path / "set.json", ss)
        assert main(["prior", "--input", path]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        np.testing.assert_allclose(out["lambdas"], estimate_prior_for_set(ss).lambdas,
                                   atol=1e-12)

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"d": 2, "m": 3, "shapes": []}))
        assert main(["prior", "--input", str(empty)]) == 2


class TestCsvInput:
    def test_solve_from_csv_manifest(self, rng, tmp_path):
        ss = full_set(rng, 2, 8, 3, kind="affine")
        manifest = tmp_path / "set.csv"
        save_shapes(ss, manifest, format="csv")
        out = str(tmp_path / "sol.json")
        code = main(["solve", "--input", str(manifest), "--input-format", "csv",
                     "--model", "affine", "--output", out])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["metrics"]["rmse_r"] < 1e-8


class TestReflectionRef:
    def test_reflection_ref_by_shape_id(self, rigid_file, tmp_path):
        _, path = rigid_file
        out_idx = str(tmp_path / "ref_idx.json")
        out_id = str(tmp_path / "ref_id.json")
        assert main(["solve", "--input", path, "--reflection-ref", "1",
                     "--output", out_idx]) == 0
        assert main(["solve", "--input", path, "--reflection-ref", "s1",
                     "--output", out_id]) == 0
        a = json.loads(Path(out_idx).read_text())["reference"]
        b = json.loads(Path(out_id).read_text())["reference"]
        np.testing.assert_allclose(np.array(a), np.array(b), atol=0)

    def test_unknown_shape_id_rejected(self, rigid_file):
        _, path = rigid_file
        assert main(["solve", "--input", path, "--reflection-ref", "nope"]) == 2

    def test_sweep_byte_deterministic(self, rng, tmp_path):
        ss = full_set(rng, 2, 9, 3, kind="smooth", noise=0.05)
        path = write_set(tmp_path / "set.json", ss)
        outs = []
        for name in ("first.csv", "second.csv"):
            out = str(tmp_path / name)
            assert main(["sweep", "--input", path, "--model", "tps",
                         "--thetas", "10,1,0.1", "--output", out]) == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


class TestUsage:
    def test_parsed_arguments_are_the_run_config(self):
        # the argparse table is the only place an option and its default are written
        parse = build_parser().parse_args
        config = _config_from_args(parse(["solve", "--input", "x"]))
        assert {name: getattr(config, name) for name in (
            "model", "ctrl", "theta", "lambda_internal", "flat_axes", "reflection_ref",
            "format", "cve_group")} == {
            "model": "affine", "ctrl": 3, "theta": 1.0, "lambda_internal": None,
            "flat_axes": 0, "reflection_ref": "0", "format": "json", "cve_group": None}
        sweep = _config_from_args(parse(["sweep", "--input", "x"]))
        assert (sweep.cve_group, sweep.thetas) == (1, None)

    @pytest.mark.parametrize("args", [["prior", "--output"],
                                      ["cve", "--group", "1", "--format", "csv", "--output"]],
                             ids=["prior-output", "cve-format"])
    def test_options_a_command_does_not_read_exit_2(self, rigid_file, tmp_path, args):
        # prior prints its lambdas and writes no file; only solve writes a metrics report
        _, path = rigid_file
        out = tmp_path / "out"
        assert main([*args, str(out), "--input", path]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [["sweep", "--thetas", "1,2", "--theta", "1", "--input"],
                                      ["solve", "--inp"], ["solve", "--out", "x.json", "--input"]],
                             ids=["sweep-theta", "ambiguous-prefix", "unique-prefix"])
    def test_abbreviations_and_sweep_theta_exit_2(self, rigid_file, tmp_path, monkeypatch, capsys, args):
        # no flag is read as an abbreviation, so `sweep --theta` is no prefix of `--thetas`
        _, path = rigid_file
        monkeypatch.chdir(tmp_path)
        assert main([*args, path]) == 2
        assert "error: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["rigid.json"]  # no output written

    def test_nu_is_no_option(self, rigid_file, tmp_path, monkeypatch, capsys):
        # S 1 = 0 is exact, so there is no translation penalty weight to set
        _, path = rigid_file
        monkeypatch.chdir(tmp_path)
        for command in (["solve"], ["sweep", "--thetas", "1,2"], ["cve", "--group", "1"]):
            assert main([*command, "--input", path, "--nu", "1"]) == 2
            assert "unrecognized arguments: --nu 1" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["rigid.json"]  # no output written

    def test_unknown_model(self, rigid_file):
        _, path = rigid_file
        assert main(["solve", "--input", path, "--model", "rigid"]) == 2

    def test_bad_theta_for_tps(self, rigid_file):
        _, path = rigid_file
        assert main(["solve", "--input", path, "--model", "tps", "--theta", "-1"]) == 2

    @pytest.mark.parametrize("args", [
        ["solve", "--model", "tps", "--theta", "nan"],
        ["solve", "--model", "tps", "--lambda-internal", "inf"],
        ["sweep", "--model", "tps", "--thetas", "1,nan"],
    ], ids=["theta", "lambda-internal", "sweep-grid"])
    def test_non_finite_values_rejected(self, rigid_file, tmp_path, capsys, args):
        _, path = rigid_file
        out = tmp_path / "out"
        assert main(args + ["--input", path, "--output", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    @pytest.mark.parametrize("args", [
        ["--model", "tps", "--lambda-internal", "-1"],
        ["--model", "tps", "--flat-axes", "2"],
        ["--model", "tps", "--flat-axes", "-1"],
    ], ids=["lambda-internal", "flat-axes-d", "flat-axes-negative"])
    def test_out_of_range_values_rejected(self, rigid_file, tmp_path, capsys, args):
        # a usage error in every command (d = 2 here), not a solver failure or a sweep of NaN rows
        _, path = rigid_file
        out = tmp_path / "out"
        for command in (["solve"], ["sweep", "--thetas", "1,2"], ["cve", "--group", "1"]):
            assert main(command + args + ["--input", path, "--output", str(out)]) == 2
            assert not out.exists()
            assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    @pytest.mark.parametrize("group", [0, 8, 10])
    def test_cve_group_checked_before_any_solve(self, rng, tmp_path, capsys, monkeypatch, group):
        # d2 m10: folds must keep d+1 points, so groups lie in [1, 8)
        import defgpa.gpa
        ss = full_set(rng, 2, 10, 3, kind="affine", noise=0.05)
        path = write_set(tmp_path / "set.json", ss)

        def solve(*args, **kwargs):
            raise AssertionError("solved before checking the group size")

        monkeypatch.setattr(defgpa.gpa, "solve", solve)
        monkeypatch.setattr(defgpa.gpa, "_bases", solve)  # every solve, a grid's pass too, starts here
        out = tmp_path / "out"
        messages = []
        for args in (["cve", "--group"], ["solve", "--cve-group"],
                     ["sweep", "--thetas", "1,2", "--cve-group"]):
            assert main(args + [str(group), "--input", path, "--output", str(out)]) == 2
            assert not out.exists()
            messages.append(json.loads(capsys.readouterr().err))
        assert messages[0]["error"] == "FormatError"
        assert messages[1:] == messages[:1] * 2


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
        code = "import sys, defgpa.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
