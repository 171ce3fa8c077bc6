"""Shape data model, ingestion, centering, covariance, and validation.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, FormatError, UnconstrainedPoint


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


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

    def restrict_points(self, keep):
        """New ShapeSet over the selected point indices (correspondence kept)."""
        keep = np.asarray(keep)
        return ShapeSet(tuple(
            Shape(s.points[:, keep], s.visibility[keep], s.label) for s in self.shapes
        ))


def centroid(shape, visible_only=True):
    """Mean of the selected columns; (1/m) S 1 for a full shape.

    With visible_only=False the mean runs over all m columns, which is only
    meaningful for full shapes (the NaN sentinel propagates otherwise).
    """
    if visible_only:
        if shape.num_visible == 0:
            raise DegenerateInput("no visible points")
        return shape.visible_points().mean(axis=1)
    return np.asarray(shape.points).mean(axis=1)


def center(shape):
    """Shape translated so the centroid of its visible points is zero."""
    mu = centroid(shape, visible_only=True)
    return Shape(shape.points - mu[:, None], shape.visibility, shape.label)


def covariance(shape):
    """(S - mean 1^T)(S - mean 1^T)^T of a full shape; symmetric PSD, d x d."""
    if not shape.is_full:
        raise DegenerateInput("covariance is defined for full shapes; complete the shape first")
    X = shape.points - shape.points.mean(axis=1, keepdims=True)
    C = X @ X.T
    return 0.5 * (C + C.T)


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


def _parse_point(entry, d, where):
    if entry is None:
        return None
    if not isinstance(entry, (list, tuple)) or len(entry) != d:
        raise FormatError(f"{where}: point must be null or a list of {d} numbers")
    try:
        vals = [float(v) for v in entry]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: non-numeric coordinate") from exc
    if not all(np.isfinite(vals)):
        raise FormatError(f"{where}: non-finite coordinate")
    return vals


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
        pts = np.full((d, m), np.nan)
        vis = np.zeros(m, dtype=bool)
        for j, p in enumerate(pts_doc):
            vals = _parse_point(p, d, f"shape {i} point {j}")
            if vals is not None:
                pts[:, j] = vals
                vis[j] = True
        shapes.append(Shape(pts, vis, entry.get("id")))
    return ShapeSet(tuple(shapes))


def _load_csv_shape(text, label, where):
    rows = list(csv.reader(io.StringIO(text)))
    cols = []
    vis = []
    d = None
    for j, row in enumerate(rows):
        cells = [c.strip() for c in row]
        if all(c == "" for c in cells):
            cols.append(None)
            vis.append(False)
            continue
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise FormatError(f"{where} row {j}: non-numeric cell") from exc
        if d is None:
            d = len(vals)
        elif len(vals) != d:
            raise FormatError(f"{where} row {j}: expected {d} columns, got {len(vals)}")
        cols.append(vals)
        vis.append(True)
    if d is None:
        raise FormatError(f"{where}: shape file has no visible points")
    pts = np.full((d, len(cols)), np.nan)
    for j, vals in enumerate(cols):
        if vals is not None:
            pts[:, j] = vals
    return Shape(pts, np.array(vis, dtype=bool), label)


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


def shape_set_to_json_dict(shape_set):
    """The documented JSON layout, with null marking missing points."""
    shapes = []
    for i, s in enumerate(shape_set):
        pts = []
        for j in range(s.m):
            if s.visibility[j]:
                pts.append([float(v) for v in s.points[:, j]])
            else:
                pts.append(None)
        shapes.append({"id": s.label if s.label is not None else f"s{i}", "points": pts})
    return {"d": shape_set.d, "m": shape_set.m, "n": shape_set.n, "shapes": shapes}


def save_shapes(shape_set, path, format="json"):
    """Write a ShapeSet; CSV mode writes a manifest plus one file per shape."""
    if format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(shape_set_to_json_dict(shape_set), fh, indent=2)
            fh.write("\n")
        return
    if format != "csv":
        raise FormatError(f"unknown format {format!r}; expected 'json' or 'csv'")
    base = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    names = []
    for i, s in enumerate(shape_set):
        name = f"{stem}_{i}.csv"
        with open(os.path.join(base, name), "w", encoding="utf-8") as fh:
            for j in range(s.m):
                if s.visibility[j]:
                    fh.write(",".join(repr(float(v)) for v in s.points[:, j]))
                fh.write("\n")
        names.append(name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(names) + "\n")
