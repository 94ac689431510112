"""Deterministic crossroad scenario generator and sensor simulator.

Replaces the driving simulator: ground-truth trajectories on a four-way
crossing, a range/FoV/occlusion visibility model via 2D ray casting, and
a configurable noisy detector that emits per-vehicle local maps together
with the candidate features the refinement model consumes.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from mapfuse import fedlearn
from mapfuse.fedlearn import FEATURE_DIM, SensorFrame
from mapfuse.fusion import Boxes, LocalMap, RowError
from mapfuse.geometry import (InputError, ObjectState, Pose, wrap_angle,
                               wrap_angles)

OCCLUSION_RAYS = 32

_RIGHT_TURN_RADIUS = 4.0
_LEFT_TURN_RADIUS = 8.0

# Detector score model: a true detection's logit is SCORE_BASE, less
# SCORE_DIST_COEFF per unit of range fraction and SCORE_OCCL_COEFF per
# unit of occlusion, plus N(0, score_sigma); a false positive's logit is
# N(FP_SCORE_MEAN, FP_SCORE_SIGMA).
SCORE_BASE = 4.0
SCORE_DIST_COEFF = 3.0
SCORE_OCCL_COEFF = 2.0
FP_SCORE_MEAN = -1.0
FP_SCORE_SIGMA = 0.5

# Largest accepted mean number of false positives per sensing (the
# benchmark uses 0.1).  Every false positive goes through refinement, the
# codec and the O(N^2) association, so far smaller rates than the ~1e19
# where numpy's Poisson sampler fails would already exhaust memory.
MAX_FALSE_POSITIVE_RATE = 100.0

# Largest accepted arena length (m): span, |lane_offset|, min_separation
# and speed_max * duration.  Squared distances between the points a
# scenario places then stay inside the float range.
MAX_LENGTH = 1e150


@dataclass(frozen=True)
class SensorSpec:
    """Forward-looking sensor: range (m) and FoV wedge (rad)."""

    range: float = 100.0
    fov: float = math.pi / 2

    def __post_init__(self):
        if not 0.0 < self.range < math.inf:
            raise ValueError("range must be positive and finite")
        if not 0.0 < self.fov <= 2 * math.pi:
            raise ValueError("fov must lie in (0, 2*pi]")


@dataclass(frozen=True)
class DetectorNoiseSpec:
    """Error model of the simulated on-board detector.

    miss probability grows linearly with normalized distance and
    occlusion; box noise sigmas scale by (1 + noise_dist_scale * (d/range
    + occlusion)); bias is a constant local-frame offset per vehicle on
    (x, y, z, l, w, h, yaw).  Scores are pre-sigmoid logits from the
    module's fixed score model (SCORE_BASE and the constants after it),
    decreasing in distance and occlusion; false positives draw low scores.
    score_sigma is the noise on a true detection's score.
    """

    miss_prob: float = 0.0
    miss_dist_coeff: float = 0.0
    miss_occl_coeff: float = 0.0
    false_positive_rate: float = 0.0
    center_sigma: float = 0.0
    extent_sigma: float = 0.0
    yaw_sigma: float = 0.0
    noise_dist_scale: float = 0.0
    flip_prob: float = 0.0
    bias: tuple[float, float, float, float, float, float, float] = (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    )
    score_sigma: float = 0.0

    def __post_init__(self):
        # Written as "not (valid)" so that NaN fails every check.
        for p in (self.miss_prob, self.flip_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        for s in (self.center_sigma, self.extent_sigma, self.yaw_sigma,
                  self.score_sigma):
            if not 0.0 <= s < math.inf:
                raise ValueError("noise sigmas must be finite and "
                                 "non-negative")
        if not all(abs(c) < math.inf
                   for c in (self.miss_dist_coeff, self.miss_occl_coeff)):
            raise ValueError("miss coefficients must be finite")
        if not 0.0 <= self.noise_dist_scale < math.inf:
            raise ValueError("noise_dist_scale must be finite and "
                             "non-negative")
        if not 0.0 <= self.false_positive_rate <= MAX_FALSE_POSITIVE_RATE:
            raise ValueError("false positive rate must lie in [0, "
                             f"{MAX_FALSE_POSITIVE_RATE}]")
        if len(self.bias) != 7:
            raise ValueError("bias needs 7 entries (x, y, z, l, w, h, yaw)")
        bias = tuple(float(b) for b in self.bias)
        if not all(abs(b) < math.inf for b in bias):
            raise ValueError("bias entries must be finite")
        object.__setattr__(self, "bias", bias)


@dataclass(frozen=True)
class ScenarioConfig:
    duration: float = 50.5
    frame_rate: float = 20.0
    num_vehicles: int = 5
    num_objects: int = 37
    lane_offset: float = 2.75
    span: float = 220.0
    speed_min: float = 6.0
    speed_max: float = 11.0
    turn_prob: float = 0.2
    min_separation: float = 5.0
    max_attempts: int = 300
    sensor: SensorSpec = field(default_factory=SensorSpec)

    def __post_init__(self):
        # Written as "not (valid)" so that NaN fails every check.
        counts = (self.num_vehicles, self.num_objects, self.max_attempts)
        if not all(isinstance(c, numbers.Integral)
                   and not isinstance(c, bool) and c >= 1 for c in counts):
            raise ValueError("num_vehicles, num_objects and max_attempts "
                             "must be integers >= 1")
        if self.num_vehicles > self.num_objects:
            raise ValueError("num_vehicles cannot exceed num_objects")
        if not 0.0 <= self.speed_min <= self.speed_max < math.inf:
            raise ValueError("speeds must satisfy 0 <= speed_min "
                             "<= speed_max < inf")
        if not 0.0 <= self.turn_prob <= 1.0:
            raise ValueError("turn_prob must lie in [0, 1]")
        if not abs(self.lane_offset) <= MAX_LENGTH:
            raise ValueError(f"|lane_offset| must be at most {MAX_LENGTH}")
        for name in ("span", "min_separation"):
            if not 0.0 < getattr(self, name) <= MAX_LENGTH:
                raise ValueError(f"{name} must lie in (0, {MAX_LENGTH}]")
        for v in (self.duration, self.frame_rate):
            if not 0.0 < v < math.inf:
                raise ValueError("duration and frame_rate must be positive "
                                 "and finite")
        if self.num_frames < 1:
            raise ValueError("duration * frame_rate gives no frame")
        # numpy indexes at most intp's maximum in bytes; the largest array
        # is the (frames, objects, 2) float trajectories.
        if self.num_frames * self.num_objects > np.iinfo(np.intp).max // 16:
            raise ValueError("num_objects objects over duration * frame_rate "
                             "frames exceed what numpy can index")
        if not self.speed_max / self.frame_rate <= self.span:
            raise ValueError("speed_max / frame_rate exceeds span: an object "
                             "would cross the arena within one frame")
        if not self.speed_max * self.duration <= MAX_LENGTH:
            raise ValueError(f"speed_max * duration exceeds {MAX_LENGTH}")

    @property
    def num_frames(self) -> int:
        return int(round(self.duration * self.frame_rate))


class _Path:
    """Piecewise line/arc path, evaluated by arc length.

    Beyond the final segment the path extrapolates along the last line.
    """

    def __init__(self, segments):
        self.segments = segments
        self.cum = np.concatenate([[0.0], np.cumsum([s[-1] for s in segments])])

    def eval(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.asarray(s, dtype=float)
        xy = np.empty(s.shape + (2,))
        yaw = np.empty(s.shape)
        idx = np.clip(
            np.searchsorted(self.cum, s, side="right") - 1,
            0,
            len(self.segments) - 1,
        )
        for i, seg in enumerate(self.segments):
            m = idx == i
            if not m.any():
                continue
            local = s[m] - self.cum[i]
            if seg[0] == "line":
                _, p0, u, _ = seg
                xy[m] = p0 + local[:, None] * u
                yaw[m] = math.atan2(u[1], u[0])
            else:
                _, center, r, a0, sign, _ = seg
                a = a0 + sign * local / r
                xy[m] = center + r * np.stack([np.cos(a), np.sin(a)], axis=-1)
                yaw[m] = a + sign * math.pi / 2
        return xy, yaw


def _rotate_path(segments, phi):
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    out = []
    for seg in segments:
        if seg[0] == "line":
            _, p0, u, length = seg
            out.append(("line", rot @ p0, rot @ u, length))
        else:
            _, center, r, a0, sign, length = seg
            out.append(("arc", rot @ center, r, a0 + phi, sign, length))
    return out


def _template_path(turn: str, d: float, span: float) -> list:
    """Eastbound approach path in canonical orientation."""
    start = np.array([-span, -d])
    east = np.array([1.0, 0.0])
    if turn == "straight":
        return [("line", start, east, 4.0 * span)]
    if turn == "right":
        r = _RIGHT_TURN_RADIUS
        entry_x = -(d + r)
        in_len = entry_x - (-span)
        center = np.array([entry_x, -(d + r)])
        out_start = np.array([-d, -(d + r)])
        return [
            ("line", start, east, in_len),
            ("arc", center, r, math.pi / 2, -1.0, r * math.pi / 2),
            ("line", out_start, np.array([0.0, -1.0]), 4.0 * span),
        ]
    if turn == "left":
        r = _LEFT_TURN_RADIUS
        entry_x = d - r
        in_len = entry_x - (-span)
        center = np.array([entry_x, r - d])
        out_start = np.array([d, r - d])
        return [
            ("line", start, east, in_len),
            ("arc", center, r, -math.pi / 2, 1.0, r * math.pi / 2),
            ("line", out_start, np.array([0.0, 1.0]), 4.0 * span),
        ]
    raise ValueError(f"unknown turn {turn!r}")


class Scenario:
    """Immutable ground-truth timeline plus per-frame vehicle poses.

    The first num_vehicles objects are the intelligent vehicles; their
    trajectories double as sensor poses.  Visibility results are memoized
    per frame, for the whole fleet at once.
    """

    def __init__(self, config: ScenarioConfig, seed: int, xy, yaw, extents,
                 categories):
        self.config = config
        self.seed = seed
        self.xy = xy                      # (T, M, 2)
        self.yaw = yaw                    # (T, M)
        self.extents = extents            # (M, 3)
        self.categories = categories      # (M,)
        self.z = extents[:, 2] / 2.0
        self._vis_cache: dict[int, list] = {}

    @property
    def num_frames(self) -> int:
        return self.xy.shape[0]

    @property
    def num_objects(self) -> int:
        return self.xy.shape[1]

    @property
    def num_vehicles(self) -> int:
        return self.config.num_vehicles

    def frame_time(self, frame: int) -> float:
        return frame / self.config.frame_rate

    def truth_rows(self, frame: int, objects) -> np.ndarray:
        """Ground truth as (n, 8) rows (category, x, y, z, l, w, h, yaw),
        the yaw wrapped, of the given integer object ids at a frame."""
        objects = np.fromiter(map(operator.index, objects), np.intp)
        if not 0 <= frame < self.num_frames or objects.size and not (
                0 <= objects.min() and objects.max() < self.num_objects):
            raise ValueError(f"no such object among {objects.tolist()} at "
                             f"frame {frame}")
        return np.column_stack((
            self.categories[objects], self.xy[frame, objects],
            self.z[objects], self.extents[objects],
            wrap_angles(self.yaw[frame, objects])))

    def object_state(self, frame: int, obj: int) -> ObjectState:
        return ObjectState.from_row(self.truth_rows(frame, (obj,))[0].tolist())

    def _check(self, vehicle: int, frame: int) -> None:
        if not 0 <= vehicle < self.num_vehicles:
            raise ValueError(f"no such vehicle {vehicle}")
        if not 0 <= frame < self.num_frames:
            raise ValueError(f"no such frame {frame}")

    def pose(self, frame: int, vehicle: int) -> Pose:
        self._check(vehicle, frame)
        return Pose(
            position=(self.xy[frame, vehicle, 0], self.xy[frame, vehicle, 1],
                      0.0),
            heading=self.yaw[frame, vehicle],
        )

    def visibility(self, vehicle: int, frame: int):
        self._check(vehicle, frame)
        if frame not in self._vis_cache:
            self._vis_cache[frame] = visible_objects(self, frame)
        return self._vis_cache[frame][vehicle]


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Sample non-conflicting crossroad trajectories, deterministically.

    Objects share a per-approach lane speed (no overtaking); candidate
    trajectories violating the minimum separation against any already
    placed object at any frame are resampled.  Raises when the arena
    cannot host the requested object count.
    """
    rng = np.random.default_rng(seed)
    times = np.arange(config.num_frames) / config.frame_rate
    lane_speeds = rng.uniform(config.speed_min, config.speed_max, 4)
    d = config.lane_offset

    # The intelligent vehicles travel as one platoon, so their sensor
    # wedges overlap for the whole run and most objects get several
    # witnesses; background traffic arrivals are staggered over the full
    # duration, keeping the flow around the platoon stationary, with the
    # platoon's own road weighted more heavily than the crossing one.
    platoon_tail = None

    m = config.num_objects
    xy_all = np.empty((config.num_frames, m, 2))
    yaw_all = np.empty((config.num_frames, m))
    for obj in range(m):
        is_vehicle = obj < config.num_vehicles
        for attempt in range(config.max_attempts):
            if is_vehicle:
                approach = 0
                turn = "straight"
                if platoon_tail is None:
                    s0 = config.span * rng.uniform(0.4, 0.6)
                else:
                    s0 = platoon_tail - rng.uniform(8.0, 20.0)
            else:
                approach = int(
                    rng.choice(4, p=[0.3, 0.2, 0.3, 0.2])
                )
                u = rng.random()
                if u < config.turn_prob / 2:
                    turn = "left"
                elif u < config.turn_prob:
                    turn = "right"
                else:
                    turn = "straight"
            path = _Path(
                _rotate_path(
                    _template_path(turn, d, config.span),
                    approach * math.pi / 2,
                )
            )
            speed = lane_speeds[approach]
            if not is_vehicle:
                s0 = rng.uniform(-speed * config.duration, config.span)
            xy, yaw = path.eval(s0 + speed * times)
            if obj:
                # Per coordinate, so numpy's inner loops run over objects.
                dx = xy_all[:, :obj, 0] - xy[:, 0, None]     # (T, obj)
                dy = xy_all[:, :obj, 1] - xy[:, 1, None]
                if (dx * dx + dy * dy).min() < config.min_separation ** 2:
                    continue
            xy_all[:, obj] = xy
            yaw_all[:, obj] = yaw
            if is_vehicle:
                platoon_tail = s0
            break
        else:
            raise InputError(
                f"could not place platoon vehicle {obj}: min_separation "
                f"{config.min_separation:g} m or span {config.span:g} m "
                "swallows its 8-20 m start gap" if is_vehicle else
                "could not place all objects; the configured arena is too "
                "crowded for the requested object count"
            )

    extents = np.column_stack(
        [
            rng.uniform(4.2, 4.8, m),
            rng.uniform(1.8, 2.1, m),
            rng.uniform(1.4, 1.7, m),
        ]
    )
    categories = np.zeros(m, dtype=int)
    return Scenario(config, seed, xy_all, yaw_all, extents, categories)


def _corners(xy, yaw, extents):
    """Footprint corners for a batch of boxes: (n, 4, 2), CCW."""
    hx = extents[:, 0] / 2.0
    hy = extents[:, 1] / 2.0
    local = np.stack(
        [
            np.stack([hx, hy], axis=-1),
            np.stack([-hx, hy], axis=-1),
            np.stack([-hx, -hy], axis=-1),
            np.stack([hx, -hy], axis=-1),
        ],
        axis=1,
    )  # (n, 4, 2)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.stack(
        [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=1
    )  # (n, 2, 2)
    return np.einsum("nij,nkj->nki", rot, local) + xy[:, None, :]


def _wrap_near(theta):
    """theta wrapped into [-pi, pi] up to rounding: quicker than the
    exact wrap_angles, for the widened pairing test only."""
    return theta - 2 * math.pi * np.rint(theta / (2 * math.pi))


def _ray_hits(origins, dx, dy, starts, edges):
    """Nearest positive ray parameter of each row's rays over its segments.

    origins: (P, 2); ray directions (dx, dy): (P, R) each; segment k of
    row n runs from starts[n, k] to starts[n, k] + edges[n, k], both
    (P, E, 2).  Returns (P, R) with inf where every segment is missed.
    The segments are taken one at a time, so no temporary is larger than
    (P, R).
    """
    p = starts - origins[:, None, :]                      # (P, E, 2)
    best = np.full(dx.shape, np.inf)
    # A denominator near zero is a miss whatever t and s come to, even
    # when dividing by it overflows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(starts.shape[1]):
            px, py = p[:, k, 0, None], p[:, k, 1, None]   # (P, 1)
            ex, ey = edges[:, k, 0, None], edges[:, k, 1, None]
            denom = dx * ey - dy * ex                     # (P, R)
            cpe = px * ey - py * ex
            cpu = px * dy - py * dx
            t = cpe / denom
            s = cpu / denom
            valid = ((np.abs(denom) > 1e-12) & (s >= 0.0) & (s <= 1.0)
                     & (t > 1e-9))
            np.minimum(best, t, out=best, where=valid)
    return best


def visible_objects(
    scenario: Scenario, frame: int
) -> list[list[tuple[int, float, float]]]:
    """Objects inside each vehicle's sensor wedge, with distance and
    occlusion: one list per vehicle, in ascending object id.

    Occlusion is the fraction of rays across the object's angular span
    blocked by a strictly nearer object's footprint; fully occluded
    objects are dropped.
    """
    sensor = scenario.config.sensor
    nv = scenario.num_vehicles
    xy, yaw = scenario.xy[frame], scenario.yaw[frame]
    ego = xy[:nv]
    rel = xy - ego[:, None]                               # (V, M, 2)
    dist = np.hypot(rel[..., 0], rel[..., 1])
    dist[range(nv), range(nv)] = np.inf
    bearing = np.arctan2(rel[..., 1], rel[..., 0])
    ang = wrap_angles(bearing - yaw[:nv, None])
    veh, tgt = np.nonzero(
        (dist <= sensor.range) & (np.abs(ang) <= sensor.fov / 2.0))
    visible = [[] for _ in range(nv)]
    if tgt.size == 0:
        return visible

    corners = _corners(xy, yaw, scenario.extents)         # (M, 4, 2)
    tc = corners[tgt] - ego[veh, None]                    # (T, 4, 2)
    b_t = bearing[veh, tgt, None]
    corner_ang = wrap_angles(np.arctan2(tc[..., 1], tc[..., 0]) - b_t)
    lo, hi = corner_ang.min(axis=1), corner_ang.max(axis=1)
    ray_ang = b_t + np.linspace(lo, hi, OCCLUSION_RAYS, axis=-1)  # (T, R)

    # Pair each target with its own box and with every strictly nearer
    # box whose corner bearings, widened by 1e-6 rad, can meet the
    # target's rays.  The pairs left out would only add misses to the
    # minima below.  Each box's corners span [span_lo, span_hi] about its
    # centre's bearing, per vehicle.  A box around the ego has corners
    # more than pi apart about that bearing, so its window crosses +-pi
    # and the seam clause pairs it.
    oc = corners - ego[:, None, None]                     # (V, M, 4, 2)
    rel_c = _wrap_near(np.arctan2(oc[..., 1], oc[..., 0])
                       - bearing[..., None])
    span_lo, span_hi = rel_c.min(axis=-1), rel_c.max(axis=-1)
    mid = _wrap_near(bearing[veh] - b_t)
    low, high = mid + span_lo[veh] - 1e-6, mid + span_hi[veh] + 1e-6
    pairs = (dist[veh] < dist[veh, tgt, None]) & (
        (low <= hi[:, None]) & (high >= lo[:, None])
        | (low <= -math.pi) | (high >= math.pi))
    pairs[range(tgt.size), tgt] = True
    p_t, p_o = np.nonzero(pairs)                          # target-major
    edges = np.roll(corners, -1, axis=1) - corners
    t = _ray_hits(ego[veh[p_t]], np.cos(ray_ang)[p_t], np.sin(ray_ang)[p_t],
                  corners[p_o], edges[p_o])               # (P, R)

    own = p_o == tgt[p_t]
    t_target = t[own]
    first = np.flatnonzero(np.r_[True, p_t[1:] != p_t[:-1]])
    t_occ = np.minimum.reduceat(np.where(own[:, None], np.inf, t), first)
    hit = np.isfinite(t_target)
    blocked = hit & (t_occ < t_target - 1e-9)
    # A target no ray hits has no blocked ray either: 0 / 1 = 0.
    occl = blocked.sum(axis=1) / np.maximum(hit.sum(axis=1), 1)
    for k, i, o in zip(veh, tgt, occl):
        if o < 1.0 - 1e-12:
            visible[k].append((int(i), float(dist[k, i]), float(o)))
    return visible


def _draw(rows: list, sources: list, scenario: Scenario, vehicle: int,
          frame: int, pose: Pose, visibility, truth, noise, seed) -> None:
    """Append one vehicle's detections at frame to rows and their object
    ids (None for clutter) to sources.

    The vehicle draws from its own generator, per object, in visibility
    order, then its clutter.  truth holds the visible objects' truth
    rows as Python floats; each is moved into the vehicle's frame with
    rows_to_local's expressions per object: a numpy call per vehicle
    costs more than its handful of rows.  A row is (category, x, y, z,
    l, w, h, raw yaw, score, distance / range, occlusion).
    """
    sensor = scenario.config.sensor
    rng = np.random.default_rng([seed, vehicle, frame])
    px, py, pz = pose.position
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    bx, by, bz, bl, bw, bh, byaw = noise.bias
    for (obj_id, dist, occl), (cat, x, y, z, l, w, h, truth_yaw) in zip(
            visibility, truth):
        p_miss = min(
            max(
                noise.miss_prob
                + noise.miss_dist_coeff * dist / sensor.range
                + noise.miss_occl_coeff * occl,
                0.0,
            ),
            1.0,
        )
        if rng.random() < p_miss:
            continue
        dx, dy = x - px, y - py
        scale = 1.0 + noise.noise_dist_scale * (dist / sensor.range + occl)
        nx, ny, nz = rng.normal(0.0, noise.center_sigma * scale, 3).tolist()
        nl, nw, nh = rng.normal(0.0, noise.extent_sigma * scale, 3).tolist()
        yaw = (wrap_angle(truth_yaw - pose.heading)
               + rng.normal(0.0, noise.yaw_sigma * scale))
        flip = rng.random() < noise.flip_prob
        yaw += byaw
        if flip:
            yaw += math.pi
        score = (
            SCORE_BASE
            - SCORE_DIST_COEFF * dist / sensor.range
            - SCORE_OCCL_COEFF * occl
            + rng.normal(0.0, noise.score_sigma)
        )
        # (local + noise) + bias; extents floored at 0.2 before and
        # after the bias.
        rows.append((
            cat,
            (c * dx + s * dy + nx) + bx,
            (-s * dx + c * dy + ny) + by,
            (z - pz + nz) + bz,
            max(max(l + nl, 0.2) + bl, 0.2),
            max(max(w + nw, 0.2) + bw, 0.2),
            max(max(h + nh, 0.2) + bh, 0.2),
            yaw, score, dist / sensor.range, occl,
        ))
        sources.append(obj_id)

    n_fp = int(rng.poisson(noise.false_positive_rate))
    for _ in range(n_fp):
        angle = rng.uniform(-sensor.fov / 2.0, sensor.fov / 2.0)
        radius = sensor.range * math.sqrt(rng.random())
        extents = (
            4.5 + rng.normal(0.0, 0.3),
            2.0 + rng.normal(0.0, 0.15),
            1.5 + rng.normal(0.0, 0.1),
        )
        extents = tuple(max(e, 0.5) for e in extents)
        yaw = rng.uniform(-math.pi, math.pi)
        score = FP_SCORE_MEAN + rng.normal(0.0, FP_SCORE_SIGMA)
        rows.append((0, radius * math.cos(angle), radius * math.sin(angle),
                     extents[2] / 2.0, *extents, yaw, score,
                     radius / sensor.range, 0.0))
        sources.append(None)


def _block(rows: list) -> tuple[Boxes, np.ndarray]:
    """The detection rows as one checked Boxes block and the candidate
    features made from its rows.  Raises RowError at the first bad row."""
    rows = np.array(rows, dtype=float).reshape(-1, 11)
    boxes = Boxes.from_rows(rows[:, :9])
    box = boxes.rows
    yaws = box[:, 7].tolist()
    features = np.empty((len(rows), FEATURE_DIM))
    features[:, fedlearn.F_CATEGORY : fedlearn.F_HEIGHT + 1] = box[:, 0:7]
    features[:, fedlearn.F_COS_YAW] = list(map(math.cos, yaws))
    features[:, fedlearn.F_SIN_YAW] = list(map(math.sin, yaws))
    features[:, fedlearn.F_DISTANCE : fedlearn.F_OCCLUSION + 1] = rows[:, 9:11]
    features[:, fedlearn.F_SCORE] = box[:, 8]
    features[:, fedlearn.F_CONST] = 1.0
    return boxes, features


def sense(
    scenario: Scenario,
    vehicle: int,
    frame: int,
    noise: DetectorNoiseSpec,
    seed: int,
    visibility=None,
) -> tuple[LocalMap, SensorFrame]:
    """Simulate one vehicle's detector output for one frame: sense_fleet's
    draws and block for a fleet of one.

    Deterministic in (scenario, seed, vehicle, frame).  The returned
    candidate features embed exactly the emitted detection boxes.  Raises
    InputError when the noise settings take a detection out of the finite
    range.
    """
    pose = scenario.pose(frame, vehicle)
    vis = scenario.visibility(vehicle, frame) if visibility is None else visibility
    truth = scenario.truth_rows(frame, [o for o, _, _ in vis]).tolist()
    rows, sources = [], []
    _draw(rows, sources, scenario, vehicle, frame, pose, vis, truth, noise,
          seed)
    try:
        boxes, features = _block(rows)
    except RowError as exc:
        raise InputError(
            f"vehicle {vehicle}, frame {frame}: detection {exc.row}: "
            f"{exc.reason}; the detector noise settings (noise.*_sigma, "
            "noise.noise_dist_scale, noise.bias) are too large for finite "
            "boxes") from None
    frame_time = scenario.frame_time(frame)
    return (LocalMap(vehicle, frame_time, boxes, pose),
            SensorFrame(frame_time, features, tuple(sources)))


def sense_fleet(
    scenario: Scenario,
    frame: int,
    noise: DetectorNoiseSpec,
    seed: int,
) -> list[tuple[LocalMap, SensorFrame]]:
    """Every vehicle's sense(scenario, k, frame, noise, seed), bit for bit,
    in vehicle order, made as one block of rows.

    Each vehicle draws from its own generator, so its detections do not
    depend on the others'; one truth gather, one row check and one
    feature array then serve the frame, and each vehicle gets its slices.
    A block that fails its row check is redone vehicle by vehicle through
    sense, which raises the first failing vehicle's InputError.
    """
    vehicles = range(scenario.num_vehicles)
    poses = [scenario.pose(frame, k) for k in vehicles]
    visibility = [scenario.visibility(k, frame) for k in vehicles]
    truth = scenario.truth_rows(
        frame, [o for vis in visibility for o, _, _ in vis]).tolist()
    rows, sources, ends, at = [], [], [0], 0
    for k, pose, vis in zip(vehicles, poses, visibility):
        _draw(rows, sources, scenario, k, frame, pose, vis,
              truth[at:at + len(vis)], noise, seed)
        at += len(vis)
        ends.append(len(rows))
    try:
        boxes, features = _block(rows)
    except RowError:
        return [sense(scenario, k, frame, noise, seed) for k in vehicles]
    frame_time = scenario.frame_time(frame)
    return [
        (LocalMap(k, frame_time, boxes[a:b], pose),
         SensorFrame(frame_time, features[a:b], tuple(sources[a:b])))
        for k, pose, a, b in zip(vehicles, poses, ends, ends[1:])
    ]


# --- serialization -----------------------------------------------------------


def scenario_to_jsonl(scenario: Scenario) -> str:
    """One JSONL record per frame: ground-truth states plus poses."""
    lines = []
    every = range(scenario.num_objects)
    for f in range(scenario.num_frames):
        rows = scenario.truth_rows(f, every).tolist()
        record = {
            "frame": f,
            "time": scenario.frame_time(f),
            "objects": [
                {"id": m, "category": int(r[0]), "center": r[1:4],
                 "extents": r[4:7], "yaw": r[7]}
                for m, r in enumerate(rows)
            ],
            # The vehicles are the first objects; a pose is the truth's
            # ground point and yaw.
            "poses": [
                {"vehicle": k, "position": [r[1], r[2], 0.0], "heading": r[7]}
                for k, r in enumerate(rows[:scenario.num_vehicles])
            ],
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"
