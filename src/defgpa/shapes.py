"""Shape data model, validation, and the shape document reader and writer.

A shape is a d x m matrix of landmark columns plus a visibility mask; a shape
set is n of them in point-wise correspondence (column j is the same physical
point in every shape).  Missing points carry NaN in memory so that accidental
reads poison loudly; numeric code is expected to go through `filled`/masking.

Supported serializations:

* JSON: ``{"d": 2, "m": 3, "n": 2, "shapes": [{"id": "s0",
  "points": [[x, y], null, ...]}]}`` with exactly m entries per shape and
  null marking a missing point.
* CSV: one file per shape with m rows of d comma-separated floats, a fully
  empty row marking a missing point, plus a manifest file listing the
  per-shape paths in order (one per line, relative to the manifest).
"""

import csv
import io
import json
import os
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, UnconstrainedPoint


@dataclass(frozen=True)
class Shape:
    """One datum shape: d x m points (columns) with an m-long visibility mask."""

    points: np.ndarray
    visibility: np.ndarray
    label: str | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise FormatError(f"points must be a d x m matrix, got shape {pts.shape}")
        d, m = pts.shape
        vis = np.array(self.visibility, dtype=bool).ravel()
        if vis.shape[0] != m:
            raise FormatError(f"visibility length {vis.shape[0]} does not match m={m}")
        if not np.all(np.isfinite(pts[:, vis])):
            raise FormatError("visible points must be finite")
        pts[:, ~vis] = np.nan
        if int(vis.sum()) < d + 1:
            raise FormatError(f"shape needs at least d+1={d + 1} visible points, has {int(vis.sum())}")
        vis.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "visibility", vis)

    @property
    def d(self):
        return self.points.shape[0]

    @property
    def m(self):
        return self.points.shape[1]

    @property
    def num_visible(self):
        return int(self.visibility.sum())

    @property
    def is_full(self):
        return bool(self.visibility.all())

    def visible_points(self):
        """The d x nnz submatrix of observed landmarks."""
        return self.points[:, self.visibility]

    def filled(self, value=0.0):
        """Points with the NaN sentinel replaced, for mask-protected algebra."""
        out = np.array(self.points, copy=True)
        out[:, ~self.visibility] = value
        return out


@dataclass(frozen=True)
class ShapeSet:
    """n correspondence-wise shapes sharing d and m."""

    shapes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        shapes = tuple(self.shapes)
        if not shapes:
            raise FormatError("shape set must contain at least one shape")
        d, m = shapes[0].d, shapes[0].m
        for i, s in enumerate(shapes):
            if (s.d, s.m) != (d, m):
                raise FormatError(f"shape {i} has dims ({s.d},{s.m}), expected ({d},{m})")
        coverage = np.zeros(m, dtype=int)
        for s in shapes:
            coverage += s.visibility
        if np.any(coverage == 0):
            missing = np.flatnonzero(coverage == 0).tolist()
            raise UnconstrainedPoint(f"points {missing} are visible in no shape")
        object.__setattr__(self, "shapes", shapes)

    def __len__(self):
        return len(self.shapes)

    def __iter__(self):
        return iter(self.shapes)

    def __getitem__(self, i):
        return self.shapes[i]

    @property
    def d(self):
        return self.shapes[0].d

    @property
    def m(self):
        return self.shapes[0].m

    @property
    def n(self):
        return len(self.shapes)

    @property
    def all_full(self):
        return all(s.is_full for s in self.shapes)

    def visibility_matrix(self):
        """n x m boolean matrix of the gamma_{i,j} flags."""
        return np.vstack([s.visibility for s in self.shapes])


# ---------------------------------------------------------------------------
# serialization


def _as_text(source):
    """Accept a path, bytes, str, or file-like object; return (text, base_dir)."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return data, os.getcwd()
    if isinstance(source, bytes):
        return source.decode("utf-8"), os.getcwd()
    if isinstance(source, str) and ("\n" in source or source.lstrip().startswith(("{", "["))):
        return source, os.getcwd()
    # otherwise treat as a filesystem path
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read(), os.path.dirname(os.path.abspath(source))


def _coordinates(entries, d):
    """The k x d array of k point entries, or None unless each holds d finite numbers."""
    try:
        vals = np.array(entries, dtype=float)
    except (TypeError, ValueError):
        return None
    if vals.shape != (len(entries), d) or not np.all(np.isfinite(vals)):
        return None
    return vals


def _parse_rows(entries, d, label, where):
    """The Shape of m per-point entries: None for a missing point, else d numbers.

    The visible entries convert in one array call.  Only when that fails are
    they converted one at a time, so that the error names the first bad entry.
    """
    vis = np.array([entry is not None for entry in entries], dtype=bool)
    visible = [entry for entry in entries if entry is not None]
    vals = _coordinates(visible, d) if visible else np.empty((0, d))
    if vals is None:
        j = next(j for j, entry in enumerate(entries)
                 if entry is not None and _coordinates([entry], d) is None)
        raise FormatError(f"{where} {j}: expected {d} finite numbers, "
                          f"got {reprlib.repr(entries[j])}")
    pts = np.full((d, len(entries)), np.nan)
    pts[:, vis] = vals.T
    return Shape(pts, vis, label)


def _load_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    try:
        d = int(doc["d"])
        m = int(doc["m"])
        entries = doc["shapes"]
        n = int(doc["n"]) if "n" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("JSON document needs integer 'd', 'm' (and 'n', if given) "
                          "and a 'shapes' list") from exc
    if not isinstance(entries, list) or not entries:
        raise FormatError("'shapes' must be a non-empty list")
    if n is not None and n != len(entries):
        raise FormatError(f"'n'={doc['n']} does not match {len(entries)} shapes")
    shapes = []
    for i, entry in enumerate(entries):
        pts_doc = entry.get("points") if isinstance(entry, dict) else None
        if not isinstance(pts_doc, list) or len(pts_doc) != m:
            raise FormatError(f"shape {i}: 'points' must list exactly m={m} entries")
        shapes.append(_parse_rows(pts_doc, d, entry.get("id"), f"shape {i} point"))
    return ShapeSet(tuple(shapes))


def _load_csv_shape(text, label, where):
    rows = [[cell.strip() for cell in row] for row in csv.reader(io.StringIO(text))]
    entries = [row if any(row) else None for row in rows]
    d = next((len(row) for row in entries if row is not None), None)
    if d is None:
        raise FormatError(f"{where}: shape file has no visible points")
    return _parse_rows(entries, d, label, f"{where} row")


def _load_csv(text, base_dir):
    paths = [line.strip() for line in text.splitlines() if line.strip()]
    if not paths:
        raise FormatError("CSV manifest lists no shape files")
    shapes = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(base_dir, p)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                body = fh.read()
        except OSError as exc:
            raise FormatError(f"cannot read shape file {p}: {exc}") from exc
        shapes.append(_load_csv_shape(body, os.path.splitext(os.path.basename(p))[0], p))
    return ShapeSet(tuple(shapes))


def load_shapes(source, format="json"):
    """Load a validated ShapeSet from a JSON document or a CSV manifest.

    ``source`` may be a path, a file-like object, or the document text itself
    (for CSV, the manifest text; shape paths resolve against the manifest's
    directory when a path was given, the working directory otherwise).
    """
    text, base_dir = _as_text(source)
    if format == "json":
        return _load_json(text)
    if format == "csv":
        return _load_csv(text, base_dir)
    raise FormatError(f"unknown format {format!r}; expected 'json' or 'csv'")


def shape_document(points, labels):
    """The documented JSON layout of n d x m point arrays and their labels.

    A column with any non-finite entry is written as null; a label of None
    becomes the id "s{i}".
    """
    shapes = []
    for i, (P, label) in enumerate(zip(points, labels)):
        finite = np.all(np.isfinite(P), axis=0)
        shapes.append({"id": label if label is not None else f"s{i}",
                       "points": [col if ok else None for col, ok in zip(P.T.tolist(), finite)]})
    d, m = np.shape(points[0])
    return {"d": d, "m": m, "n": len(shapes), "shapes": shapes}


def save_shapes(shape_set, path, format="json"):
    """Write a ShapeSet; CSV mode writes a manifest plus one file per shape."""
    if format not in ("json", "csv"):
        raise FormatError(f"unknown format {format!r}; expected 'json' or 'csv'")
    doc = shape_document([s.points for s in shape_set], [s.label for s in shape_set])
    if format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        return
    base = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    names = []
    for i, entry in enumerate(doc["shapes"]):
        name = f"{stem}_{i}.csv"
        with open(os.path.join(base, name), "w", encoding="utf-8") as fh:
            for col in entry["points"]:
                fh.write(("" if col is None else ",".join(map(repr, col))) + "\n")
        names.append(name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(names) + "\n")
