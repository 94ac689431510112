"""Detection quality measurement and benchmark reports.

Predictions are matched to ground truth greedily in score order at a BEV
IoU threshold.  Average precision uses all-point interpolation, reported
overall and sliced by distance, occlusion and scene density.  A report
gathers one AP table per method plus communication byte counts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from mapfuse.fusion import Boxes, _field, _json_object
from mapfuse.geometry import ObjectState, iou_bev_matrix
from mapfuse.simworld import Scenario

IOU_THRESHOLD = 0.7

SLICE_NAMES = ("overall", "SR", "MR", "LR", "NO", "PO", "LO", "LD", "HD")


# Slice boundaries.  Distance: short below SHORT_RANGE, mid below
# MID_RANGE, long beyond.  Occlusion: none below OCCL_NONE, partial below
# OCCL_PARTIAL, large beyond.  A frame is high density when at least one
# object is seen by MIN_WITNESSES vehicles at once.
SHORT_RANGE = 20.0
MID_RANGE = 50.0
OCCL_NONE = 0.1
OCCL_PARTIAL = 0.5
MIN_WITNESSES = 3


def distance_slice(dist: float) -> str:
    if dist < SHORT_RANGE:
        return "SR"
    if dist < MID_RANGE:
        return "MR"
    return "LR"


def occlusion_slice(occl: float) -> str:
    if occl < OCCL_NONE:
        return "NO"
    if occl < OCCL_PARTIAL:
        return "PO"
    return "LO"


@dataclass(frozen=True)
class BenchmarkTag:
    """Slice membership of one ground-truth object in one frame."""

    object_id: int
    distance: float
    occlusion: float
    witnesses: int
    distance_slice: str
    occlusion_slice: str


def tag_objects(
    scenario: Scenario,
    frame: int,
    vehicles: Sequence[int] | None = None,
) -> tuple[list[BenchmarkTag], str]:
    """Tag every object visible to at least one vehicle; label the frame.

    Distance and occlusion are taken from the best-placed of the given
    vehicles that see the object.  The second return value is their
    density slice, "LD" or "HD" (one vehicle alone is never HD), and
    run_experiment scores every method at the whole fleet's.
    """
    if vehicles is None:
        vehicles = range(scenario.num_vehicles)
    best: dict[int, tuple[float, float, int]] = {}
    for k in vehicles:
        for obj, dist, occl in scenario.visibility(k, frame):
            d, o, w = best.get(obj, (math.inf, math.inf, 0))
            best[obj] = (min(d, dist), min(o, occl), w + 1)
    tags = [BenchmarkTag(obj, d, o, w, distance_slice(d), occlusion_slice(o))
            for obj, (d, o, w) in sorted(best.items())]
    density = "HD" if any(t.witnesses >= MIN_WITNESSES for t in tags) else "LD"
    return tags, density


def overlap_rows(
    predictions: Sequence[tuple[ObjectState, float]],
    truths: Sequence[ObjectState] | np.ndarray,
) -> list[list[tuple[int, float]]]:
    """The IoU pass: per prediction, the (truth index, IoU) pairs that
    reach IOU_THRESHOLD, in truth order.  The predictions are a Boxes
    block or (state, score) pairs; the truths are states or their
    (n, 8) rows (Scenario.truth_rows).

    All pairs go through one array pass (geometry.iou_bev_matrix), so a
    caller with several prediction sets passes their concatenation once
    and splits the rows.
    """
    ious = iou_bev_matrix(Boxes(predictions).rows, truths)
    # len, not iteration: iterating a block makes its ObjectStates.
    rows: list[list[tuple[int, float]]] = [[] for _ in range(len(predictions))]
    hit_i, hit_j = np.nonzero(ious >= IOU_THRESHOLD)
    for i, j, v in zip(hit_i.tolist(), hit_j.tolist(),
                       ious[hit_i, hit_j].tolist()):
        rows[i].append((j, v))
    return rows


def greedy_assign(
    scores: Sequence[float],
    rows: Sequence[Sequence[tuple[int, float]]],
    truth_mask: Sequence[int] | None = None,
) -> list[int | None]:
    """Greedy one-to-one assignment on an IoU pass; see match_detections.

    With a mask only truths flagged nonzero (a slice_bits mask) can be
    claimed, which is matching against that subset of the truths.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    assigned: list[int | None] = [None] * len(scores)
    taken = set()
    for i in order:
        free = [(j, v) for j, v in rows[i] if j not in taken
                and (truth_mask is None or truth_mask[j])]
        if free:
            # max keeps the first of equal overlaps: the lowest index.
            assigned[i] = max(free, key=lambda c: c[1])[0]
            taken.add(assigned[i])
    return assigned


def match_detections(
    predictions: Sequence[tuple[ObjectState, float]],
    truths: Sequence[ObjectState],
) -> list[int | None]:
    """Greedy one-to-one matching in descending score order.

    Returns, per prediction, the index of the matched truth or None.
    Equal scores are broken by the lower prediction index; each prediction
    takes the unclaimed truth with the highest overlap at or above
    IOU_THRESHOLD, the lower truth index on ties.  This is one IoU pass
    and one greedy run on it.
    """
    rows = overlap_rows(predictions, truths)
    return greedy_assign([score for _, score in predictions], rows)


def average_precision(
    records: Sequence[tuple[float, bool]], num_truths: int
) -> float | None:
    """All-point interpolated AP from (score, is_true_positive) records.

    Returns None when there is nothing to detect; that is "no statement",
    not a zero.  Equal scores keep record order; the area sums in order.
    """
    if num_truths == 0:
        return None
    if len(records) == 0:
        return 0.0
    rec = np.asarray(records, dtype=float)
    hits = rec[np.argsort(-rec[:, 0], kind="stable"), 1]
    tp = np.cumsum(hits)
    fp = np.cumsum(1.0 - hits)
    recall = tp / num_truths
    precision = tp / (tp + fp)
    # Interpolate: precision at recall r is the max precision at any
    # recall >= r.
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    area = np.diff(recall, prepend=0.0) * precision
    return float(np.add.accumulate(area)[-1])


SLICE_BITS = {name: 1 << n for n, name in enumerate(SLICE_NAMES)}
# A miss counts in every slice but the density the frame is not in.
_MISS_BITS = {"LD": 2 ** len(SLICE_NAMES) - 1 - SLICE_BITS["HD"],
              "HD": 2 ** len(SLICE_NAMES) - 1 - SLICE_BITS["LD"]}


def slice_bits(
    tags: Sequence[BenchmarkTag | None], density: str
) -> list[int]:
    """Each truth's slices as a bitmask over SLICE_BITS: overall, the
    frame's density, its distance and its occlusion slice.  A None tag is
    a truth in no slice, mask 0."""
    frame = SLICE_BITS["overall"] | SLICE_BITS[density]
    return [0 if t is None else frame | SLICE_BITS[t.distance_slice]
            | SLICE_BITS[t.occlusion_slice] for t in tags]


class Accumulator:
    """Streams assigned frames into AP per slice.  One record per
    prediction: its score, whether it matched, and the mask of the slices
    it counts in, its truth's for a match (0, ignored, for a truth in no
    slice) and all but the other density's for a miss.  Truths keep their
    masks for each slice's truth count."""

    def __init__(self):
        self.scores: list[float] = []
        self.matched: list[bool] = []
        self.bits: list[int] = []
        self.truth_bits: list[int] = []

    def add(
        self,
        scores: Sequence[float],
        assigned: Sequence[int | None],
        truth_bits: Sequence[int],
        density: str,
    ) -> None:
        """Add one frame's assignment given its truths' slice masks."""
        if len(scores) != len(assigned):
            raise ValueError("one assignment per score required")
        miss = _MISS_BITS[density]
        self.scores += scores
        self.matched += [j is not None for j in assigned]
        self.bits += [miss if j is None else truth_bits[j] for j in assigned]
        self.truth_bits += truth_bits

    def add_frame(
        self,
        predictions: Sequence[tuple[ObjectState, float]],
        truths: Sequence[ObjectState],
        tags: Sequence[BenchmarkTag],
        density: str,
    ) -> None:
        """Match one frame's predictions to its tagged truths and add it."""
        if len(tags) != len(truths):
            raise ValueError("one tag per ground-truth object required")
        assigned = match_detections(predictions, truths)
        self.add([score for _, score in predictions], assigned,
                 slice_bits(tags, density), density)

    def results(self, slices=SLICE_NAMES) -> dict[str, float | None]:
        """AP of each named slice, every slice by default."""
        records = np.column_stack((self.scores, self.matched))
        bits = np.array(self.bits, dtype=np.int64)
        truth_bits = np.array(self.truth_bits, dtype=np.int64)
        return {
            name: average_precision(
                records[(bits & SLICE_BITS[name]) != 0],
                int(np.count_nonzero(truth_bits & SLICE_BITS[name])),
            )
            for name in slices
        }


@dataclass
class MethodResult:
    """AP per slice plus communication cost for one method."""

    name: str
    ap: dict[str, float | None]
    per_vehicle_ap: dict[int, float | None] = field(default_factory=dict)
    bytes_sent: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ap": self.ap,
            "per_vehicle_ap": {
                str(k): v for k, v in self.per_vehicle_ap.items()
            },
            "bytes_sent": self.bytes_sent,
        }


@dataclass
class EvalReport:
    """All methods' results for one scenario and frame set."""

    scenario_seed: int
    frames: tuple[int, ...]
    methods: dict[str, MethodResult]

    def to_json(self) -> str:
        payload = {
            "scenario_seed": self.scenario_seed,
            "frames": list(self.frames),
            "methods": {k: m.to_dict() for k, m in sorted(self.methods.items())},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """Parse a report that ``to_json`` wrote.

        Every field's type is checked before it is used, so a malformed
        report raises an InputError that names the field.
        """
        payload = _json_object(text, "report")
        seed = _field(payload, "scenario_seed", "an integer")
        frames = _field(payload, "frames", "a list of integers")
        entries = _field(payload, "methods", "an object of objects")
        methods = {}
        for key, m in entries.items():
            where = f"methods.{key}"
            ap = _field(m, "ap", "an object of finite numbers or nulls", where)
            per_vehicle = _field(
                m, "per_vehicle_ap",
                "an object from vehicle ids to finite numbers or nulls", where)
            methods[key] = MethodResult(
                name=_field(m, "name", "a string", where),
                ap=dict(ap),
                per_vehicle_ap={int(k): v for k, v in per_vehicle.items()},
                bytes_sent=_field(m, "bytes_sent", "an integer", where),
            )
        return cls(scenario_seed=seed, frames=tuple(frames), methods=methods)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", *SLICE_NAMES, "bytes_sent"])
        for name in sorted(self.methods):
            m = self.methods[name]
            writer.writerow(
                [
                    name,
                    *(
                        "" if m.ap.get(s) is None else f"{m.ap[s]:.6f}"
                        for s in SLICE_NAMES
                    ),
                    m.bytes_sent,
                ]
            )
        return buf.getvalue()

    def to_radar_csv(self) -> str:
        """Slice-per-row layout convenient for radar/spider plots."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = sorted(self.methods)
        writer.writerow(["slice", *names])
        for s in SLICE_NAMES:
            row = [s]
            for name in names:
                v = self.methods[name].ap.get(s)
                row.append("" if v is None else f"{v:.6f}")
            writer.writerow(row)
        return buf.getvalue()

