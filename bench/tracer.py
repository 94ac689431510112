"""Per-layer tracing of mapfuse from outside the package.

mapfuse modules bind each other's functions with ``from x import y``, so
wrapping ``simworld.sense`` alone would miss the copies held by
``orchestrator`` and ``distill``.  ``Tracer.install`` therefore rebinds
every reference to a traced function that any loaded ``mapfuse`` module
holds: module attributes, values of module-level dicts (such as
``orchestrator._FUSED_FNS``) and default arguments (such as
``run_frame(..., fuse_fn=three_stage_fuse)``).  It then checks that no
reference to an original is left, so a call cannot slip past the trace.

Each span records its call count and self time: its duration minus the
time spent in traced spans it called.  Spans are aggregated per name in
memory; nothing is written to disk.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from types import FunctionType, ModuleType


def short_name(module: ModuleType) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _count_iou(counts, consumer, args, out):
    counts[f"geometry.iou_bev.calls.{consumer}"] += 1
    if out > 0.0:
        counts["geometry.iou_bev.positive"] += 1


def _count_sense(counts, consumer, args, out):
    counts["simworld.detections"] += len(out[0].detections)


def _count_match(counts, consumer, args, out):
    predictions, truths = args[0], args[1]
    counts["evalbench.match_pairs"] += len(predictions) * len(truths)


def _count_labels(counts, consumer, args, out):
    for label_set in out.values():
        counts["distill.labels"] += len(label_set.labels)
        counts["distill.labeled"] += sum(
            lab is not None for lab in label_set.labels
        )


def _count_cluster(counts, consumer, args, out):
    counts["association.points"] += len(args[0])
    counts["association.clusters"] += out[0]


def _count_prune(counts, consumer, args, out):
    counts["fusion.prune.input"] += len(args[0])
    counts["fusion.prune.kept"] += len(out)


def _count_bytes(counts, consumer, args, out):
    msg = args[0]
    counts[f"orchestrator.bytes.{msg.kind.name}"] += len(out)


# (defining module, function, counter hook).  Span names are
# "<module>.<function>" after the module that defines the function.
TRACED = (
    ("geometry", "iou_bev", _count_iou),
    ("simworld", "generate_scenario", None),
    ("simworld", "visible_objects", None),
    ("simworld", "sense", _count_sense),
    ("fedlearn", "predict", None),
    ("fedlearn", "local_train", None),
    ("fedlearn", "loss_gradient", None),
    ("fedlearn", "fedavg", None),
    ("distill", "build_distilled_datasets", None),
    ("distill", "distill_labels", _count_labels),
    ("association", "cluster_detections", _count_cluster),
    ("fusion", "three_stage_fuse", None),
    ("fusion", "baseline_mean_fuse", None),
    ("fusion", "baseline_max_score_fuse", None),
    ("fusion", "prune_overlaps", _count_prune),
    ("evalbench", "match_detections", _count_match),
    ("evalbench", "tag_objects", None),
    ("evalbench", "average_precision", None),
    ("orchestrator", "run_frame", None),
    ("orchestrator", "encode_message", _count_bytes),
    ("orchestrator", "decode_message", None),
)


def _mapfuse_modules() -> list[ModuleType]:
    return [
        m for name, m in sorted(sys.modules.items())
        if isinstance(m, ModuleType)
        and (name == "mapfuse" or name.startswith("mapfuse."))
    ]


def _bindings(targets):
    """Yield (site, set_value, value) for each mapfuse binding to a target.

    Looks at module attributes, values of module-level dicts and the
    default arguments of functions defined in the module (seen through
    any wrapper via ``__wrapped__``).
    """
    ids = {id(f) for f in targets}
    for module in _mapfuse_modules():
        short = short_name(module)
        for name, value in list(vars(module).items()):
            if id(value) in ids:
                yield (f"{short}.{name}",
                       lambda v, m=module, n=name: setattr(m, n, v), value)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in ids:
                        yield (f"{short}.{name}[{key!r}]",
                               lambda v, d=value, k=key: d.__setitem__(k, v),
                               item)
            else:
                fn = getattr(value, "__wrapped__", value)
                if (isinstance(fn, FunctionType)
                        and fn.__module__ == module.__name__):
                    for i, d in enumerate(fn.__defaults__ or ()):
                        if id(d) in ids:
                            yield (f"{short}.{name}.__defaults__[{i}]",
                                   lambda v, f=fn, i=i: setattr(
                                       f, "__defaults__",
                                       f.__defaults__[:i] + (v,)
                                       + f.__defaults__[i + 1:]),
                                   d)


class Rebinder:
    """Rebinds references inside mapfuse modules and undoes it."""

    def __init__(self):
        self._undo: list = []
        # Every site rebound so far, kept after undo for reporting.
        self.sites: list[str] = []

    def replace(self, original, make_wrapper, consumers=None) -> None:
        """Rebind every reference to ``original``.

        ``make_wrapper(consumer)`` builds the replacement for one
        consuming module, named by its short module name.  With
        ``consumers`` given, only those modules' references are rebound.
        """
        wrappers = {}
        for site, set_value, old in list(_bindings([original])):
            consumer = site.split(".", 1)[0]
            if consumers is not None and consumer not in consumers:
                continue
            if consumer not in wrappers:
                wrappers[consumer] = make_wrapper(consumer)
            set_value(wrappers[consumer])
            self._undo.append((set_value, old))
            self.sites.append(site)

    def undo(self) -> None:
        while self._undo:
            set_value, old = self._undo.pop()
            set_value(old)


def references_left(originals) -> list[str]:
    """Sites in mapfuse that still hold one of ``originals``."""
    return [site for site, _, _ in _bindings(originals)]


class Tracer:
    """Aggregated spans and counters for one traced operation."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child = [0.0]
        self._rebinder = Rebinder()

    @property
    def sites(self) -> list[str]:
        return list(self._rebinder.sites)

    def span(self, name: str, fn, hook=None, consumer: str = ""):
        calls, self_s, counts, child = (
            self.calls, self.self_s, self.counts, self._child
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner
            if hook is not None:
                hook(counts, consumer, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        import mapfuse  # noqa: F401  (loads every mapfuse module)

        originals = []
        for module_name, func_name, hook in TRACED:
            module = sys.modules[f"mapfuse.{module_name}"]
            original = getattr(module, func_name)
            originals.append(original)
            span_name = f"{module_name}.{func_name}"
            self._rebinder.replace(
                original,
                lambda consumer, o=original, n=span_name, h=hook:
                    self.span(n, o, h, consumer),
            )
        left = references_left(originals)
        if left:
            self.uninstall()
            raise RuntimeError(f"untraced references remain: {left}")

    def uninstall(self) -> None:
        self._rebinder.undo()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# Layers whose spans must run on each workload (the workloads whose
# end-to-end metrics the layer moves), and layers or spans that must not
# run at all.
MOVES = {
    "experiment": tuple(dict.fromkeys(m for m, _, _ in TRACED)),
    "edge_fusion": ("geometry", "association", "fusion", "orchestrator"),
}
ABSENT = {"edge_fusion": ("evalbench", "fedlearn.local_train")}


def _calls(tracer: Tracer, prefix: str) -> int:
    """Calls of the span ``prefix``, or of every span of layer ``prefix``."""
    return sum(
        tracer.calls[f"{m}.{f}"] for m, f, _ in TRACED
        if prefix in (m, f"{m}.{f}")
    )


def coverage_errors(workload: str, tracer: Tracer) -> list[str]:
    """Layers that should have run but did not, and spans that ran but
    should not have."""
    errors = [f"no {layer} span on {workload}"
              for layer in MOVES.get(workload, ())
              if not _calls(tracer, layer)]
    errors += [f"{name} ran {_calls(tracer, name)} times on {workload}"
               for name in ABSENT.get(workload, ())
               if _calls(tracer, name)]
    return errors


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value: span calls and self seconds, counters and
    the ratios of useful outcomes to attempts."""
    values: dict[str, float] = {}
    for module, func, _ in TRACED:
        span = f"{module}.{func}"
        values[f"{span}.calls"] = tracer.calls[span]
        values[f"{span}.s"] = tracer.self_s[span]
    c = tracer.counts
    for name in ("evalbench.match_pairs", "simworld.detections",
                 "association.points", "association.clusters",
                 "geometry.iou_bev.calls.evalbench",
                 "geometry.iou_bev.calls.fusion",
                 "orchestrator.bytes.LOCAL_MAP_UPLOAD",
                 "orchestrator.bytes.GLOBAL_MAP_BROADCAST"):
        values[name] = c[name]
    values["geometry.iou_bev.overlap_ratio"] = _ratio(
        c["geometry.iou_bev.positive"], tracer.calls["geometry.iou_bev"]
    )
    values["distill.labeled_ratio"] = _ratio(
        c["distill.labeled"], c["distill.labels"]
    )
    values["fusion.prune.kept_ratio"] = _ratio(
        c["fusion.prune.kept"], c["fusion.prune.input"]
    )
    return values
