"""Oriented 3D boxes, yaw-only vehicle poses, and rotated-box IoU.

Shared numeric substrate for every other module.  Boxes are represented by
their center, extents (length along heading, width, height) and a yaw
rotation about z.  Poses are yaw-only rigid transforms, which is all a
ground vehicle needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi

# Footprints with an area below this are treated as degenerate.
_DEGENERATE_AREA = 1e-12


def wrap_angle(theta: float) -> float:
    """Normalize an angle to the half-open interval [-pi, pi)."""
    return (theta + math.pi) % _TWO_PI - math.pi


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


def transform_to_global(obj: ObjectState, pose: Pose) -> ObjectState:
    """Map an object from the pose's local frame into the global frame."""
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    x, y, z = obj.center
    px, py, pz = pose.position
    return ObjectState(
        category=obj.category,
        center=(c * x - s * y + px, s * x + c * y + py, z + pz),
        extents=obj.extents,
        yaw=obj.yaw + pose.heading,
    )


def transform_to_local(obj: ObjectState, pose: Pose) -> ObjectState:
    """Exact inverse of :func:`transform_to_global`."""
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    px, py, pz = pose.position
    x, y, z = obj.center
    dx, dy = x - px, y - py
    return ObjectState(
        category=obj.category,
        center=(c * dx + s * dy, -s * dx + c * dy, z - pz),
        extents=obj.extents,
        yaw=obj.yaw - pose.heading,
    )


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
    if dx * dx + dy * dy > (ra + rb) ** 2:
        return 0.0, area_a, area_b
    ca = [tuple(p) for p in footprint_corners(a)]
    cb = [tuple(p) for p in footprint_corners(b)]
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
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)
