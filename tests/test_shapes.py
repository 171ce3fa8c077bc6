"""Shape data model and the shape document reader and writer."""

import json

import numpy as np
import pytest

from defgpa import (
    FormatError,
    Shape,
    ShapeSet,
    UnconstrainedPoint,
    load_shapes,
    save_shapes,
)


def simple_json(points_by_shape, d=2):
    m = len(points_by_shape[0])
    return json.dumps({
        "d": d, "m": m, "n": len(points_by_shape),
        "shapes": [{"id": f"s{i}", "points": pts} for i, pts in enumerate(points_by_shape)],
    })


class TestLoading:
    def test_json_full(self):
        doc = simple_json([[[0, 0], [1, 0], [0, 1]], [[1, 1], [2, 1], [1, 2]]])
        ss = load_shapes(doc, format="json")
        assert (ss.d, ss.m, ss.n) == (2, 3, 2)
        assert all(s.is_full for s in ss)
        np.testing.assert_allclose(ss[0].points[:, 1], [1, 0])

    def test_json_null_marks_missing(self):
        doc = simple_json([[[0, 0], [1, 0], None, [0, 1]],
                           [[1, 1], [2, 1], [3, 3], [1, 2]]])
        ss = load_shapes(doc, format="json")
        assert not ss[0].visibility[2]
        assert np.isnan(ss[0].points[0, 2])
        assert ss[1].visibility[2]

    def test_dimension_mismatch(self):
        doc = json.dumps({"d": 2, "m": 3, "shapes": [
            {"id": "a", "points": [[0, 0], [1, 0], [0, 1]]},
            {"id": "b", "points": [[0, 0], [1, 0]]},
        ]})
        with pytest.raises(FormatError):
            load_shapes(doc, format="json")

    @pytest.mark.parametrize("header", [{"d": 2.9, "m": "4", "n": True}, {"d": 2.9}, {"m": "4"}, {"n": True},
                                        {"m": 4.5}, {"d": 2.0}, {"m": None}],
                             ids=["all", "float-d", "string-m", "bool-n", "fraction-m", "integral-float-d",
                                  "null-m"])
    def test_header_fields_must_be_json_integers(self, header):
        # none is a JSON integer, though int() reads all but null as one: 2.9 as 2, "4" as 4, true as 1
        doc = {"d": 2, "m": 4, "n": 1, "shapes": [{"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}], **header}
        with pytest.raises(FormatError, match="needs integer 'd', 'm'"):
            load_shapes(json.dumps(doc), format="json")

    @pytest.mark.parametrize("points, bad", [
        ([["1", "2.5"], [True, False], [0, 3]], 0),
        ([[0, 0], [True, False], [0, 3]], 1),
        ([[0, 0], [1, 0], [0, "3"]], 2),
        ([[0, 0], [float("inf"), 1], [True, 0]], 1),
        ([[0, 0], [1, 0], "03"], 2),
        ([[0, 0], [1, 0], [[0], 3]], 2),
    ], ids=["strings", "booleans", "one-string", "non-finite-first", "string-point", "nested"])
    def test_coordinates_must_be_json_numbers(self, points, bad):
        # np.array(..., dtype=float) reads "2.5" as 2.5 and true as 1.0; the error names the first bad
        # point, whatever is wrong with it
        doc = json.dumps({"d": 2, "m": 3, "shapes": [{"points": points}]})
        with pytest.raises(FormatError, match=rf"^shape 0 point {bad}: expected 2 finite numbers, got "):
            load_shapes(doc, format="json")

    def test_shapes_need_a_coordinate_row(self):
        doc = json.dumps({"d": 0, "m": 3, "shapes": [{"points": [[], [], []]}]})
        with pytest.raises(FormatError, match="at least one coordinate row"):
            load_shapes(doc, format="json")

    def test_malformed_json(self):
        with pytest.raises(FormatError):
            load_shapes("{not json", format="json")

    def test_unknown_format(self):
        with pytest.raises(FormatError):
            load_shapes("{}", format="xml")

    def test_unconstrained_point(self):
        doc = simple_json([[[0, 0], [1, 0], [0, 1], None],
                           [[1, 1], [2, 1], [1, 2], None]])
        with pytest.raises(UnconstrainedPoint):
            load_shapes(doc, format="json")

    def test_csv_round_trip_bit_exact(self, rng, tmp_path):
        pts = rng.normal(size=(2, 6)) * np.pi
        vis = np.ones(6, bool)
        vis[4] = False
        ss = ShapeSet((Shape(pts, vis), Shape(rng.normal(size=(2, 6)), np.ones(6, bool))))
        manifest = tmp_path / "set.csv"
        save_shapes(ss, manifest, format="csv")
        back = load_shapes(str(manifest), format="csv")
        for a, b in zip(ss, back):
            assert np.array_equal(a.visibility, b.visibility)
            assert np.array_equal(a.points[:, a.visibility], b.points[:, b.visibility])

    def test_json_round_trip_bit_exact(self, rng, tmp_path):
        pts = rng.normal(size=(3, 5)) / 3.0
        ss = ShapeSet((Shape(pts, np.ones(5, bool)),))
        path = tmp_path / "set.json"
        save_shapes(ss, path, format="json")
        back = load_shapes(str(path), format="json")
        assert np.array_equal(ss[0].points, back[0].points)

    def test_json_and_csv_load_alike(self, rng, tmp_path):
        pts = rng.normal(size=(2, 7)) * 1e3
        vis = np.ones(7, bool)
        vis[[1, 5]] = False
        ss = ShapeSet((Shape(pts, vis), Shape(rng.normal(size=(2, 7)), np.ones(7, bool))))
        save_shapes(ss, tmp_path / "set.json", format="json")
        save_shapes(ss, tmp_path / "set.csv", format="csv")
        from_json = load_shapes(str(tmp_path / "set.json"), format="json")
        from_csv = load_shapes(str(tmp_path / "set.csv"), format="csv")
        for a, b in zip(from_json, from_csv):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.visibility.tobytes() == b.visibility.tobytes()

    def test_load_from_file_object(self, rng, tmp_path):
        pts = rng.normal(size=(2, 4))
        ss = ShapeSet((Shape(pts, np.ones(4, bool)),))
        path = tmp_path / "set.json"
        save_shapes(ss, path, format="json")
        with open(path, "rb") as fh:
            back = load_shapes(fh, format="json")
        assert np.array_equal(ss[0].points, back[0].points)


class TestShapeValidation:
    def test_invisible_columns_are_nan(self):
        s = Shape(np.arange(8.0).reshape(2, 4), [True, True, True, False])
        assert np.all(np.isnan(s.points[:, 3]))
        np.testing.assert_allclose(s.filled(0.0)[:, 3], 0.0)

    def test_visible_nan_rejected(self):
        pts = np.zeros((2, 4))
        pts[1, 1] = np.nan
        with pytest.raises(FormatError):
            Shape(pts, np.ones(4, bool))

    def test_minimum_visibility(self):
        with pytest.raises(FormatError):
            Shape(np.zeros((2, 4)), [True, True, False, False])

    def test_set_requires_matching_dims(self):
        with pytest.raises(FormatError):
            ShapeSet((Shape(np.zeros((2, 4)), np.ones(4, bool)),
                      Shape(np.zeros((2, 5)), np.ones(5, bool))))


# one malformed visible entry, placed as point 2 of the second shape
MALFORMED = {
    "ragged": [1.0, 2.0, 3.0],
    "non-numeric": [1.0, "x"],
    "nan": [1.0, float("nan")],
    "inf": [float("inf"), 1.0],
    "bare-true": True,
    "dict": {"x": 1.0},
}
GOOD = [[0.0, 0.0], [1.0, 0.0], None, [0.0, 1.0], [1.0, 1.0]]


def csv_row(entry):
    if isinstance(entry, list):
        return ",".join(str(v) for v in entry)
    return json.dumps(entry)


class TestMalformedEntries:
    @pytest.mark.parametrize("entry", MALFORMED.values(), ids=MALFORMED.keys())
    def test_json_names_shape_and_point(self, entry):
        bad = GOOD[:2] + [entry] + GOOD[3:]
        doc = json.dumps({"d": 2, "m": 5, "shapes": [{"points": GOOD}, {"points": bad}]})
        with pytest.raises(FormatError, match="^shape 1 point 2: "):
            load_shapes(doc, format="json")

    @pytest.mark.parametrize("entry", MALFORMED.values(), ids=MALFORMED.keys())
    def test_csv_names_file_and_row(self, entry, tmp_path):
        rows = [csv_row(e) if e is not None else "" for e in GOOD]
        (tmp_path / "a.csv").write_text("\n".join(rows) + "\n")
        rows[2] = csv_row(entry)
        (tmp_path / "b.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "set.csv").write_text("a.csv\nb.csv\n")
        with pytest.raises(FormatError, match="^b.csv row 2: "):
            load_shapes(str(tmp_path / "set.csv"), format="csv")
