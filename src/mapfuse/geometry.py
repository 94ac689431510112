"""Oriented 3D boxes, yaw-only vehicle poses, and rotated-box IoU.

Shared numeric substrate for every other module.  Boxes are represented by
their center, extents (length along heading, width, height) and a yaw
rotation about z.  Poses are yaw-only rigid transforms, which is all a
ground vehicle needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi

# Footprints with an area below this are treated as degenerate.
_DEGENERATE_AREA = 1e-12


class InputError(ValueError):
    """Malformed input from outside the program: a file, one of its
    records, or a setting that no scenario can meet."""


def wrap_angle(theta: float) -> float:
    """Normalize an angle to the half-open interval [-pi, pi)."""
    out = (theta + math.pi) % _TWO_PI - math.pi
    # Just below -pi the remainder rounds up to 2 pi: pi is -pi there.
    return -math.pi if out == math.pi else out


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle of every element; numpy's % rounds as Python's does."""
    out = (theta + math.pi) % _TWO_PI - math.pi
    out[out == math.pi] = -math.pi
    return out


def angle_diff(a: float, b: float) -> float:
    """Smallest signed difference a - b on the circle, in [-pi, pi)."""
    return wrap_angle(a - b)


@dataclass(frozen=True)
class ObjectState:
    """One mobile object: class id, center (m), extents l/w/h (m), yaw (rad).

    Every field must be finite and extents strictly positive; yaw is
    normalized to [-pi, pi) on construction.
    """

    category: int
    center: tuple[float, float, float]
    extents: tuple[float, float, float]
    yaw: float

    def __post_init__(self):
        center = tuple(map(float, self.center))
        extents = tuple(map(float, self.extents))
        yaw = float(self.yaw)
        if len(center) != 3 or len(extents) != 3:
            raise ValueError("center and extents must have three components")
        if not all(map(math.isfinite, (*center, *extents, yaw))):
            raise ValueError(
                f"box fields must be finite, got {center} {extents} {yaw}"
            )
        if min(extents) <= 0.0:
            raise ValueError(f"extents must be strictly positive, got {extents}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "yaw", wrap_angle(yaw))

    def to_vector(self) -> np.ndarray:
        """Pack as the 8-vector (category, x, y, z, l, w, h, yaw)."""
        return np.array(
            [float(self.category), *self.center, *self.extents, self.yaw]
        )

    @classmethod
    def from_row(cls, row: Sequence[float]) -> "ObjectState":
        """The state of a checked row (category, x, y, z, l, w, h, yaw)
        whose yaw is already wrapped.

        The yaw is kept as it is: a second wrap changes no wrapped yaw.
        """
        cat, x, y, z, l, w, h, yaw = row
        obj = cls(int(cat), (x, y, z), (l, w, h), yaw)
        object.__setattr__(obj, "yaw", float(yaw))
        return obj

    @classmethod
    def from_vector(cls, v) -> "ObjectState":
        v = np.asarray(v, dtype=float)
        if v.shape != (8,):
            raise ValueError(f"expected an 8-vector, got shape {v.shape}")
        return cls(
            category=int(round(v[0])),
            center=(v[1], v[2], v[3]),
            extents=(v[4], v[5], v[6]),
            yaw=v[7],
        )


@dataclass(frozen=True)
class Pose:
    """A vehicle pose: finite position (m) and heading (yaw about z, rad)."""

    position: tuple[float, float, float]
    heading: float

    def __post_init__(self):
        position = tuple(float(c) for c in self.position)
        heading = float(self.heading)
        if len(position) != 3:
            raise ValueError("position must have three components")
        if not all(map(math.isfinite, (*position, heading))):
            raise ValueError(f"pose must be finite, got {position} {heading}")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "heading", heading)


IDENTITY_POSE = Pose(position=(0.0, 0.0, 0.0), heading=0.0)


def _pose_rows(poses: Sequence[Pose], counts: Sequence[int]) -> np.ndarray:
    """Per row: (c, s), (-s, c), the position and the heading, the first
    counts[0] rows under poses[0], the next counts[1] under poses[1], and
    so on.  cos and sin come from math per pose."""
    return np.repeat(np.array([
        (c, s, -s, c, *p.position, p.heading) for p in poses
        for c, s in [(math.cos(p.heading), math.sin(p.heading))]
    ], dtype=float).reshape(-1, 8), counts, axis=0)


def rows_to_global(
    vecs: np.ndarray, poses: Sequence[Pose], counts: Sequence[int]
) -> np.ndarray:
    """Rows (category, x, y, z, l, w, h, yaw, ...) moved from each pose's
    frame into the global frame (rows per pose as in _pose_rows), the yaw
    wrapped and further columns copied.  Each step is elementwise, so a
    row's bits do not depend on the other rows in the call."""
    pose = _pose_rows(poses, counts)
    out = np.array(vecs, dtype=float)
    # x (c, s) + y (-s, c) + (px, py) is (c x - s y + px, s x + c y + py)
    # to the bit: y (-s) is -(s y) exactly, and adding it subtracts s y.
    out[:, 1:3] = (vecs[:, 1:2] * pose[:, 0:2] + vecs[:, 2:3] * pose[:, 2:4]
                   + pose[:, 4:6])
    out[:, 3] += pose[:, 6]
    out[:, 7] = wrap_angles(vecs[:, 7] + pose[:, 7])
    return out


def rows_to_local(
    vecs: np.ndarray, poses: Sequence[Pose], counts: Sequence[int]
) -> np.ndarray:
    """The exact inverse of rows_to_global: rows moved from the global
    frame into each pose's local frame, (c dx + s dy, -s dx + c dy) for
    the offset (dx, dy) from the pose's position."""
    pose = _pose_rows(poses, counts)
    out = np.array(vecs, dtype=float)
    d = vecs[:, 1:3] - pose[:, 4:6]
    # dx (c, -s) + dy (s, c): columns 0 and 2, then 1 and 3.
    out[:, 1:3] = d[:, 0:1] * pose[:, 0:3:2] + d[:, 1:2] * pose[:, 1:4:2]
    out[:, 3] -= pose[:, 6]
    out[:, 7] = wrap_angles(vecs[:, 7] - pose[:, 7])
    return out


def _transform(rows_fn, obj: ObjectState, pose: Pose) -> ObjectState:
    """obj moved by a one-row call of rows_fn, its category as it is; a
    field beyond the finite range raises ObjectState's ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        row = rows_fn(np.array([[0.0, *obj.center, *obj.extents, obj.yaw]]),
                      (pose,), (1,))
    return ObjectState.from_row((obj.category, *row[0, 1:].tolist()))


def transform_to_global(obj: ObjectState, pose: Pose) -> ObjectState:
    """Map an object from the pose's local frame into the global frame."""
    return _transform(rows_to_global, obj, pose)


def transform_to_local(obj: ObjectState, pose: Pose) -> ObjectState:
    """Exact inverse of :func:`transform_to_global`."""
    return _transform(rows_to_local, obj, pose)


def footprint_corners(obj: ObjectState) -> np.ndarray:
    """Corners of the yaw-rotated footprint rectangle, CCW, shape (4, 2)."""
    l, w = obj.extents[0], obj.extents[1]
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    hx, hy = 0.5 * l, 0.5 * w
    local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array(obj.center[:2])


def _polygon_area(pts) -> float:
    """Shoelace area of a CCW polygon given as a list of (x, y)."""
    n = len(pts)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def convex_clip(subject, clip) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a convex polygon against a CCW convex one.

    Both polygons are sequences of (x, y) vertices.  Points on a clip edge
    count as inside, so clipping a polygon against itself is lossless.
    """
    output = list(subject)
    m = len(clip)
    for i in range(m):
        if len(output) < 3:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        inside = [ex * (py - ay) - ey * (px - ax) >= 0.0 for px, py in output]
        clipped = []
        n = len(output)
        for j in range(n):
            k = (j + 1) % n
            if inside[j]:
                clipped.append(output[j])
            if inside[j] != inside[k]:
                px, py = output[j]
                qx, qy = output[k]
                dx, dy = qx - px, qy - py
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    t = (ex * (ay - py) - ey * (ax - px)) / denom
                    clipped.append((px + t * dx, py + t * dy))
        output = clipped
    return output


# Huge boxes overflow to inf and nan; such a pair has IoU 0, not a warning.
@np.errstate(over="ignore", invalid="ignore")
def _footprint_overlap(a: ObjectState, b: ObjectState) -> tuple[float, float, float]:
    """(intersection area, area_a, area_b) of the two footprints."""
    area_a = a.extents[0] * a.extents[1]
    area_b = b.extents[0] * b.extents[1]
    # Cheap reject: footprints cannot touch if centers are farther apart
    # than the sum of the half-diagonals.
    dx = a.center[0] - b.center[0]
    dy = a.center[1] - b.center[1]
    ra = 0.5 * math.hypot(a.extents[0], a.extents[1])
    rb = 0.5 * math.hypot(b.extents[0], b.extents[1])
    if dx * dx + dy * dy > (ra + rb) * (ra + rb):
        return 0.0, area_a, area_b
    # Python floats: a huge footprint overflows to inf and nan silently.
    ca = [tuple(p) for p in footprint_corners(a).tolist()]
    cb = [tuple(p) for p in footprint_corners(b).tolist()]
    inter = _polygon_area(convex_clip(ca, cb))
    return max(inter, 0.0), area_a, area_b


def iou_bev(a: ObjectState, b: ObjectState) -> float:
    """Rotated-rectangle IoU of the two ground-plane footprints.

    Degenerate (near-zero-area) footprints yield 0 by convention.
    """
    inter, area_a, area_b = _footprint_overlap(a, b)
    if area_a < _DEGENERATE_AREA or area_b < _DEGENERATE_AREA:
        return 0.0
    union = area_a + area_b - inter
    if not union > 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


# The array forms below repeat the scalar functions above operation for
# operation: numpy's elementwise + - * / are the same IEEE double
# operations as Python's, so the results are bit-identical.  They take
# boxes as (N, >=8) rows (category, x, y, z, l, w, h, yaw, ...), or as a
# sequence of ObjectStates.


def _rows(boxes) -> np.ndarray:
    """boxes as (N, >=8) rows: an array as it is, a sequence of
    ObjectStates as their to_vector rows."""
    if isinstance(boxes, np.ndarray):
        return boxes
    return np.array([(s.category, *s.center, *s.extents, s.yaw)
                     for s in boxes], dtype=float).reshape(-1, 8)


def stacked_footprint_corners(boxes) -> np.ndarray:
    """footprint_corners of every box, shape (N, 4, 2).

    cos and sin come from math per box, as in footprint_corners (numpy's
    vectorised kernels may round differently), and the rotation is one
    stacked matmul, which rounds as the per-box one does.
    """
    rows = _rows(boxes)
    yaw = rows[:, 7].tolist()
    c = np.array([math.cos(t) for t in yaw], dtype=float)
    s = np.array([math.sin(t) for t in yaw], dtype=float)
    hx = 0.5 * rows[:, 4]
    hy = 0.5 * rows[:, 5]
    center = rows[:, 1:3]
    local = np.stack([hx, hy, -hx, hy, -hx, -hy, hx, -hy], -1)
    rot = np.stack([c, -s, s, c], -1).reshape(-1, 2, 2)
    return (np.matmul(local.reshape(-1, 4, 2), rot.transpose(0, 2, 1))
            + center.reshape(-1, 1, 2))


def clip_areas(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """_polygon_area(convex_clip(subject[m], clip[m])) for M polygon pairs.

    ``subject`` is (M, V, 2) and ``clip`` (M, C, 2), with CCW convex clip
    polygons.  Each pair's polygon lives in a row of a padded array with
    its own vertex count; the row width grows to the largest count a step
    produces.
    """
    poly = np.asarray(subject, dtype=float)
    clip = np.asarray(clip, dtype=float)
    m, width = poly.shape[:2]
    count = np.full(m, width)
    row = np.arange(m)
    pair = row[:, None]
    edges = clip.shape[1]
    for i in range(edges):
        # convex_clip returns no polygon once fewer than 3 vertices remain.
        count[count < 3] = 0
        ax, ay = clip[:, i, 0:1], clip[:, i, 1:2]
        bx, by = clip[:, (i + 1) % edges, 0:1], clip[:, (i + 1) % edges, 1:2]
        ex, ey = bx - ax, by - ay
        j = np.arange(width)
        valid = j < count[:, None]
        k = np.where(j + 1 < count[:, None], j + 1, 0)
        px, py = poly[:, :, 0], poly[:, :, 1]
        inside = (ex * (py - ay) - ey * (px - ax) >= 0.0) & valid
        d = poly[pair, k] - poly
        dx, dy = d[:, :, 0], d[:, :, 1]
        denom = ex * dy - ey * dx
        cross = valid & (inside != inside[pair, k]) & (denom != 0.0)
        t = np.divide(ex * (ay - py) - ey * (ax - px), denom,
                      out=np.zeros_like(denom), where=cross)
        # Emit order per vertex j: vertex j if inside, then the crossing
        # on edge j; each emitted point's slot is a running count.
        emitted = inside.astype(np.intp) + cross
        slot = np.cumsum(emitted, axis=1) - emitted
        count = emitted.sum(axis=1)
        out = np.zeros((m, int(count.max(initial=0)), 2))
        r, c = np.nonzero(inside)
        out[r, slot[r, c]] = poly[r, c]
        r, c = np.nonzero(cross)
        out[r, slot[r, c] + inside[r, c]] = (
            poly[r, c] + t[r, c, None] * d[r, c])
        poly, width = out, out.shape[1]
    # Shoelace vertex by vertex in index order, as _polygon_area sums.
    acc = np.zeros(m)
    x, y = poly[:, :, 0], poly[:, :, 1]
    for i in range(width):
        nxt = np.where(i + 1 < count, i + 1, 0)
        x1, y1 = x[row, nxt], y[row, nxt]
        acc = np.where(i < count, acc + (x[:, i] * y1 - x1 * y[:, i]), acc)
    return np.where(count >= 3, 0.5 * acc, 0.0)


def _plane_fields(boxes) -> np.ndarray:
    """Rows of x, y, l, w and the footprint's half-diagonal (math.hypot
    per box, as in _footprint_overlap), shape (N, 5)."""
    return np.array([(x, y, l, w, 0.5 * math.hypot(l, w)) for x, y, l, w
                     in _rows(boxes)[:, [1, 2, 4, 5]].tolist()],
                    dtype=float).reshape(-1, 5)


@np.errstate(over="ignore", invalid="ignore")
def circle_prefilter(a, b) -> np.ndarray:
    """Whether footprints a[i] and b[j] may overlap, shape (len(a), len(b)).

    True exactly where iou_bev's circle test lets the pair through to the
    clip: centers no farther apart than the sum of the half-diagonals.
    Every other pair has IoU 0.
    """
    fa = _plane_fields(a)
    fb = fa if b is a else _plane_fields(b)
    dx = fa[:, 0, None] - fb[None, :, 0]
    dy = fa[:, 1, None] - fb[None, :, 1]
    reach = fa[:, 4, None] + fb[None, :, 4]
    return ~(dx * dx + dy * dy > reach * reach)


def iou_bev_matrix(a, b) -> np.ndarray:
    """iou_bev(a[i], b[j]) for every pair, shape (len(a), len(b)): the
    circle prefilter over all pairs, then iou_bev_pairs over those that
    pass."""
    a, b = _rows(a), _rows(b)
    ious = np.zeros((len(a), len(b)))
    ia, ib = np.nonzero(circle_prefilter(a, b))
    ious[ia, ib] = iou_bev_pairs(a, b, ia, ib)
    return ious


@np.errstate(over="ignore", invalid="ignore")
def iou_bev_pairs(a, b, ia, ib) -> np.ndarray:
    """iou_bev(a[i], b[j]) for each pair (i, j) of ia and ib that passes
    the circle prefilter, a and b as (N, >=8) rows: corners built once
    per box and one clip over the pairs.  No pair: no corners, no clip."""
    if not len(ia):
        return np.zeros(0)
    inter = clip_areas(stacked_footprint_corners(a)[ia],
                       stacked_footprint_corners(b)[ib])
    inter = np.where(inter < 0.0, 0.0, inter)
    area_a, area_b = (a[:, 4] * a[:, 5])[ia], (b[:, 4] * b[:, 5])[ib]
    union = area_a + area_b - inter
    iou = np.divide(inter, union, out=np.zeros_like(union),
                    where=union > 0.0)
    iou = np.where(iou < 0.0, 0.0, iou)
    iou = np.where(iou > 1.0, 1.0, iou)
    degenerate = (area_a < _DEGENERATE_AREA) | (area_b < _DEGENERATE_AREA)
    return np.where(degenerate, 0.0, iou)
