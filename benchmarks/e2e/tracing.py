"""Traced runs: spans around public calls, and the per-layer metrics.

The program already opens ``worker_step``, ``edge_agg``, ``adapt_gamma``,
``cloud_agg``, ``eval`` and ``oracle.forward/backward`` spans.  The
benchmark adds the rest from its own files by wrapping calls on the
objects of one run (no file of the library changes):

* ``Federation.gradient_all`` and ``Federation.gradient``;
* the lowered program (``Federation._engine``): its ``gradient_all`` and
  every entry of its ``layers`` list, recursing into chain and residual
  children, so a conv inside a block counts as ``nn.Conv2d`` and the
  block's own self time is the residual glue;
* ``PopulationBinder.resample``, ``CheckpointManager.save`` and the
  monitor sink's ``emit``.

The caller adds a root ``run`` span around each ``run()`` and a
``checkpoint.restore`` span around ``restore``.  Self time is computed
from the records' start, duration and depth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

__all__ = [
    "SPANS",
    "FEW_CALL_SPANS",
    "PER_LAYER",
    "Instrumentation",
    "span_table",
    "layer_metrics",
]

SPANS = (
    "run",
    "worker_step",
    "edge_agg",
    "adapt_gamma",
    "cloud_agg",
    "eval",
    "oracle.forward",
    "oracle.backward",
    "federation.gradient_all",
    "federation.gradient",
    "program.gradient_all",
    "nn.Conv2d",
    "nn.Dense",
    "nn.BatchNorm",
    "nn.Pool",
    "nn.Flatten",
    "nn.ReLU",
    "nn.BasicBlock",
    "population.resample",
    "checkpoint.save",
    "checkpoint.restore",
    "monitoring.sink",
)

# Spans that run a handful of times per process: percentiles of fewer
# than ten calls say nothing, so only calls and self time are reported.
FEW_CALL_SPANS = ("run", "checkpoint.save", "checkpoint.restore")

# (name, unit, better) of every extra count and ratio.
_EXTRAS = (
    ("nn.Conv2d.gflops", "GFLOP/s", "higher"),
    ("nn.Dense.gflops", "GFLOP/s", "higher"),
    ("calib.gemm_gflops", "GFLOP/s", "higher"),
    ("comm.worker_edge_bytes", "B", "lower"),
    ("comm.edge_cloud_bytes", "B", "lower"),
    ("federation.batched_share", "fraction", "higher"),
    ("population.carry_entries", "count", "lower"),
    ("population.carry_hit_ratio", "fraction", "higher"),
    ("checkpoint.bytes_per_save", "B", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.fresh_upload_ratio", "fraction", "higher"),
    ("monitoring.events", "count", "lower"),
    ("trace.overhead", "fraction", "lower"),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    metrics = []
    for span in SPANS:
        metrics.append((f"{span}.calls", "count", "lower"))
        metrics.append((f"{span}.self_s", "s", "lower"))
        if span not in FEW_CALL_SPANS:
            metrics.append((f"{span}.p50_ms", "ms", "lower"))
            metrics.append((f"{span}.p_hi_ms", "ms", "lower"))
    return tuple(metrics) + _EXTRAS


# Every per-layer metric as (name, unit, better); BENCHMARK.json lists
# the same set.
PER_LAYER = _per_layer()

_POOLS = ("MaxPool2d", "AvgPool2d", "GlobalAvgPool2d")


def _layer_span(layer) -> str:
    """Span name of one lowered layer, by the layer it was lowered from."""
    kind = type(layer).__name__
    for lowered, name in (
        ("Dense", "nn.Dense"),
        ("Conv2d", "nn.Conv2d"),
        ("BatchNorm", "nn.BatchNorm"),
        ("BasicBlock", "nn.BasicBlock"),
    ):
        if kind.endswith(lowered):
            return name
    inner = type(getattr(layer, "_layer", layer)).__name__
    return "nn.Pool" if inner in _POOLS else f"nn.{inner}"


class _TimedLayer:
    """A lowered layer whose forward and backward each open a span."""

    __slots__ = ("inner", "name", "covered", "_owner")

    def __init__(self, inner, name: str, owner: "Instrumentation"):
        self.inner = inner
        self.name = name
        self.covered = inner.covered
        self._owner = owner

    def bind(self, params, grads) -> None:
        self.inner.bind(params, grads)

    def forward(self, x):
        with self._owner.tracer.span(self.name):
            out = self.inner.forward(x)
        self._owner.count_flops(self.name, self.inner, x, out)
        return out

    def backward(self, grad_output):
        with self._owner.tracer.span(self.name):
            return self.inner.backward(grad_output)


@dataclass
class _Counts:
    batched_rows: int = 0
    single_rows: int = 0
    carried: int = 0
    returned: int = 0
    saves: int = 0
    save_bytes: int = 0
    sink_events: int = 0


class Instrumentation:
    """Wraps one run's objects so their calls open spans on ``tracer``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.flops: Counter = Counter()
        self.counts = _Counts()

    def _timed(self, name: str, fn):
        tracer = self.tracer

        def timed(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return timed

    def attach(self, algorithm, checkpoints=None, sink=None) -> None:
        fed = algorithm.fed
        counts = self.counts
        gradient_all = self._timed("federation.gradient_all", fed.gradient_all)
        gradient = self._timed("federation.gradient", fed.gradient)

        def single(*args, **kwargs):
            counts.single_rows += 1
            return gradient(*args, **kwargs)

        fed.gradient_all = gradient_all
        fed.gradient = single
        program = fed._engine
        if program is not None:
            program_all = self._timed("program.gradient_all", program.gradient_all)

            def batched(params, *args, **kwargs):
                counts.batched_rows += params.shape[0]
                return program_all(params, *args, **kwargs)

            program.gradient_all = batched
            program.layers[:] = [self._wrap(layer) for layer in program.layers]
        binder = algorithm.population
        if binder is not None:
            binder.resample = self._resample(binder)
        if checkpoints is not None:
            save = self._timed("checkpoint.save", checkpoints.save)

            def sized_save(*args, **kwargs):
                path = save(*args, **kwargs)
                counts.saves += 1
                counts.save_bytes += path.stat().st_size
                return path

            checkpoints.save = sized_save
        if sink is not None:
            emit = self._timed("monitoring.sink", sink.emit)

            def counted_emit(event):
                counts.sink_events += 1
                return emit(event)

            sink.emit = counted_emit

    def _wrap(self, layer):
        children = getattr(layer, "layers", None)
        if isinstance(children, list):
            # A lowered nested Sequential: time its children, not itself.
            children[:] = [self._wrap(child) for child in children]
            return layer
        if type(layer).__name__.endswith("BasicBlock"):
            for slot in (
                "conv1", "bn1", "relu1", "conv2", "bn2", "relu2",
                "proj_conv", "proj_bn",
            ):
                child = getattr(layer, slot)
                if child is not None:
                    setattr(layer, slot, self._wrap(child))
        return _TimedLayer(layer, _layer_span(layer), self)

    def _resample(self, binder):
        resample = self._timed("population.resample", binder.resample)
        counts = self.counts

        def tracked(*args, **kwargs):
            before = set(binder.carry)
            cohort = resample(*args, **kwargs)
            after = binder.carry.keys()
            counts.returned += len(before - after)
            counts.carried += len(after - before)
            return cohort

        return tracked

    def count_flops(self, name: str, layer, x, out) -> None:
        """GEMM FLOPs of one forward plus its backward (3x the forward).

        The backward runs two GEMMs of the forward's size: the weight
        gradient and the input gradient.
        """
        if name == "nn.Conv2d":
            rows, batch, channels = x.shape[:3]
            _, _, filters, out_h, out_w = out.shape
            k = layer.kernel_size
            forward = 2 * rows * batch * out_h * out_w * channels * k * k * filters
        elif name == "nn.Dense":
            forward = 2 * x.size * out.shape[-1]
        else:
            return
        self.flops[name] += 3 * forward


def self_times(records) -> dict[str, tuple[int, float, list[float]]]:
    """Per span name: (calls, total self seconds, per-call durations).

    A record's parent is the latest-starting record one level shallower
    that started before it; its self time loses the child's duration.
    """
    ordered = sorted(records, key=lambda r: (r.start, r.depth))
    self_s = [r.duration for r in ordered]
    open_at_depth: dict[int, int] = {}
    for index, record in enumerate(ordered):
        parent = open_at_depth.get(record.depth - 1)
        if record.depth > 0 and parent is not None:
            self_s[parent] -= record.duration
        open_at_depth[record.depth] = index
    table: dict[str, tuple[int, float, list[float]]] = {}
    for record, own in zip(ordered, self_s):
        calls, total, durations = table.get(record.name, (0, 0.0, []))
        durations.append(record.duration)
        table[record.name] = (calls + 1, total + own, durations)
    return table


def _p50(ordered: list[float]) -> float:
    n = len(ordered)
    if not n:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _p_hi(ordered: list[float]) -> float:
    """Highest percentile with at least ten calls beyond it.

    0 below 21 calls, where that percentile would fall under the median.
    """
    return ordered[-11] if len(ordered) >= 21 else 0.0


def span_table(records) -> dict[str, dict]:
    """calls / self_s / p50_ms / p_hi_ms for every span name seen."""
    rows = {}
    for name, (calls, own, durations) in self_times(records).items():
        ordered = sorted(durations)
        rows[name] = {
            "calls": calls,
            "self_s": own,
            "p50_ms": 1e3 * _p50(ordered),
            "p_hi_ms": 1e3 * _p_hi(ordered),
        }
    return rows


def layer_metrics(
    spans: dict[str, dict],
    instrumentation: Instrumentation,
    *,
    comm: dict,
    carry_entries: int,
    engine: dict | None,
    monitoring_events: int,
) -> dict[str, float]:
    """Every per-layer metric of one traced process except the two the
    parent adds (``calib.gemm_gflops`` and ``trace.overhead``)."""
    metrics: dict[str, float] = {}
    for span in SPANS:
        row = spans.get(span, {"calls": 0, "self_s": 0.0, "p50_ms": 0.0, "p_hi_ms": 0.0})
        metrics[f"{span}.calls"] = row["calls"]
        metrics[f"{span}.self_s"] = row["self_s"]
        if span not in FEW_CALL_SPANS:
            metrics[f"{span}.p50_ms"] = row["p50_ms"]
            metrics[f"{span}.p_hi_ms"] = row["p_hi_ms"]
    flops = instrumentation.flops
    for name in ("nn.Conv2d", "nn.Dense"):
        own = spans.get(name, {}).get("self_s", 0.0)
        metrics[f"{name}.gflops"] = flops[name] / own / 1e9 if own > 0 else 0.0
    counts = instrumentation.counts
    rows = counts.batched_rows + counts.single_rows
    metrics["comm.worker_edge_bytes"] = comm["worker_edge_bytes"]
    metrics["comm.edge_cloud_bytes"] = comm["edge_cloud_bytes"]
    metrics["federation.batched_share"] = counts.batched_rows / rows if rows else 0.0
    metrics["population.carry_entries"] = carry_entries
    metrics["population.carry_hit_ratio"] = (
        counts.returned / counts.carried if counts.carried else 0.0
    )
    metrics["checkpoint.bytes_per_save"] = (
        counts.save_bytes / counts.saves if counts.saves else 0.0
    )
    engine = engine or {}
    metrics["engine.events"] = engine.get("events", 0)
    metrics["engine.events_per_s"] = engine.get("events_per_s", 0.0)
    metrics["engine.fresh_upload_ratio"] = engine.get("fresh_upload_ratio", 0.0)
    metrics["monitoring.events"] = monitoring_events
    return metrics
