"""Span tracer that times calls into dbsadam's modules from outside.

`Tracer.install` swaps timing wrappers onto the names the program resolves
at call time (module globals, the OPTIMIZER_STEPS table, a class method);
`Tracer.restore` puts every original object back. Spans are kept in memory
as (name, start, end, parent, unit) and turned into per-layer metrics with
`layer_metrics`. A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import time

from dbsadam import harness, optimizers, resampling

MB = 1e6

# (owner, attribute, span name) for every wrapped module global. Names the
# harness imported are wrapped in harness's namespace, which is where train()
# and compare_optimizers() look them up.
MODULE_TARGETS = (
    (harness, "prepare_split", "data.prepare_split"),
    (harness, "synthetic_benchmark", "data.synthetic_benchmark"),
    (harness, "to_sequences", "data.to_sequences"),
    (harness, "split_indices", "evaluation.split_indices"),
    (harness, "confusion_matrix", "evaluation.confusion_matrix"),
    (harness, "metrics_from_confusion", "evaluation.metrics_from_confusion"),
    (harness, "paired_t_test", "evaluation.paired_t_test"),
    (harness, "aggregate_runs", "evaluation.aggregate_runs"),
    (harness, "network_forward", "models.forward"),
    (harness, "network_backward", "models.backward"),
    (harness, "softmax", "losses.softmax"),
    (harness, "loss_per_sample", "losses.loss_per_sample"),
    (harness, "loss_gradient", "losses.loss_gradient"),
    (harness, "dbs_adam_step", "optimizers.dbs_adam"),
    (harness, "train", "harness.train"),
    (harness, "emit_report", "harness.emit_report"),
    (optimizers, "adam_step", "optimizers.adam_step"),
    (resampling, "smote_enn", "resampling.smote_enn"),
    (resampling, "smote_generate", "resampling.smote_generate"),
    (resampling, "enn_filter", "resampling.enn_filter"),
    (resampling, "adasyn_generate", "resampling.adasyn_generate"),
)

OPTIMIZERS = ("adam", "amsgrad", "adamw", "adabound", "dbs_adam")
LOSS_SPANS = ("losses.softmax", "losses.loss_per_sample", "losses.loss_gradient")
EVALUATION_SPANS = (
    "evaluation.split_indices", "evaluation.confusion_matrix",
    "evaluation.metrics_from_confusion", "evaluation.paired_t_test",
    "evaluation.aggregate_runs",
)
_QUERY = "resampling.NeighborIndex.query"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    unit: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def _forward_flop(net, batch: int, steps: int) -> float:
    """Matmul FLOPs of one forward pass, from the layer shapes."""
    h1, h2 = net.l1f.hidden_size, net.l2f.hidden_size
    dense = net.dense_w.shape[0]
    per_step = 2 * 4 * h1 * (h1 + net.input_size) + 2 * 4 * h2 * (h2 + h1)
    per_sample = steps * per_step + dense * h2 + net.n_classes * dense
    return 2.0 * batch * per_sample


def _distance_block_mb(rows: int, cols: int) -> float:
    """Bytes of the largest float64 distance block for a rows x cols search."""
    return min(getattr(resampling, "_CHUNK", 512), rows) * cols * 8 / MB


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.unit = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._seen_states: set[int] = set()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.unit)
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span_name = name
            if name == "models.forward":
                mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
                span_name = f"models.forward_{mode}"
            result = self.span(span_name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return timed

    def _observers(self) -> dict:
        def forward(args, kwargs, result):
            net, xs = args[0], args[1]
            self.count("models.gflop", _forward_flop(net, xs.shape[0], xs.shape[1]) / 1e9)

        def backward(args, kwargs, result):
            net, cache = args[0], args[1]
            batch, steps = cache["xs_shape"][:2]
            self.count("models.gflop", 2 * _forward_flop(net, batch, steps) / 1e9)

        def optimizer(args, kwargs, result):
            params, state = args[0], args[2]
            if id(state) in self._seen_states:
                return
            self._seen_states.add(id(state))
            buffers = [*state.m.values(), *state.v.values(), *(state.v_max or {}).values()]
            self.peak("optimizers.params", sum(p.size for p in params.values()))
            self.peak("optimizers.state_mb", sum(b.nbytes for b in buffers) / MB)

        def smote_enn(args, kwargs, result):
            self.count("resampling.rows_in", args[0].n_samples)
            self.count("resampling.rows_out", result.n_samples)

        def synthetic(args, kwargs, result):
            members = int((args[0].labels == args[1]).sum())
            self.count("resampling.rows_synthetic", result.shape[0])
            self.peak("resampling.knn_distance_mb", _distance_block_mb(members, members))

        def enn(args, kwargs, result):
            n = args[0].n_samples
            self.count("resampling.enn_rows_in", n)
            self.count("resampling.enn_rows_kept", result[0].n_samples)
            self.peak("resampling.knn_distance_mb", _distance_block_mb(n, n))

        def query(args, kwargs, result):
            # a query subtracts the point from every row: one N x F block
            self.peak("resampling.knn_distance_mb", args[0].features.nbytes / MB)

        def report(args, kwargs, result):
            self.count("harness.report_bytes", sum(os.path.getsize(p) for p in result))

        return {
            "models.forward": forward,
            "models.backward": backward,
            "optimizers.dbs_adam": optimizer,
            "resampling.smote_enn": smote_enn,
            "resampling.smote_generate": synthetic,
            "resampling.adasyn_generate": synthetic,
            "resampling.enn_filter": enn,
            _QUERY: query,
            "harness.emit_report": report,
            "optimizer_table": optimizer,
        }

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        for owner, attr, name in targets():
            original = _current(owner, attr)
            observe = observers["optimizer_table"] if isinstance(owner, dict) else observers.get(name)
            self._saved.append((owner, attr, original))
            wrapped = self._wrapper(name, original, observe)
            if isinstance(owner, dict):
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every wrap target the program has.

    A target the program no longer defines is skipped, so a removed layer
    reports zero calls and zero time instead of stopping the benchmark.
    """
    found = [(owner, attr, name) for owner, attr, name in MODULE_TARGETS if attr in vars(owner)]
    table = optimizers.OPTIMIZER_STEPS
    found += [(table, key, f"optimizers.{key}") for key in table]
    index = getattr(resampling, "NeighborIndex", None)
    if index is not None and "query" in vars(index):
        found.append((index, "query", _QUERY))
    return found


def snapshot() -> list[tuple[object, str, object]]:
    """(owner, attribute, object) for every attribute the tracer wraps."""
    return [(owner, attr, _current(owner, attr)) for owner, attr, _ in targets()]


def is_restored(saved: list[tuple[object, str, object]]) -> bool:
    """True when every (owner, attribute) holds its snapshotted object again."""
    for owner, attr, original in saved:
        if _current(owner, attr) is not original:
            return False
    return True


def _by_name(spans: list[Span], selfs: list[float]):
    """Total self time, call count and call durations of each span name."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for span, own in zip(spans, selfs):
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        durations.setdefault(span.name, []).append(span.end - span.start)
    return self_s, calls, durations


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-unit per-layer metrics from a tracer's spans and counters."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s, calls, durations = _by_name(spans, selfs)
    # adam_step nested in a dbs_adam step is part of that optimizer's step
    nested_adam = sum(
        own for span, own in zip(spans, selfs)
        if span.name == "optimizers.adam_step" and span.parent >= 0
        and spans[span.parent].name == "optimizers.dbs_adam"
    )

    def per_unit(value: float) -> float:
        return value / units

    out: dict[str, float] = {}

    def timed(name: str, percentiles: tuple[int, ...] = (50, 99)) -> None:
        out[f"{name}.calls"] = per_unit(calls.get(name, 0))
        out[f"{name}.self_s"] = per_unit(self_s.get(name, 0.0))
        for q in percentiles:
            out[f"{name}.p{q}_ms"] = _percentile_ms(durations.get(name, []), q)

    timed("data.prepare_split", ())
    out["data.synthetic_benchmark.self_s"] = per_unit(self_s.get("data.synthetic_benchmark", 0.0))
    out["data.to_sequences.self_s"] = per_unit(self_s.get("data.to_sequences", 0.0))

    for name in ("enn_filter", "smote_generate", "adasyn_generate"):
        out[f"resampling.{name}.self_s"] = per_unit(self_s.get(f"resampling.{name}", 0.0))
    timed(_QUERY, (50,))
    out["resampling.smote_enn.calls"] = per_unit(calls.get("resampling.smote_enn", 0))
    counters = tracer.counters
    for key in ("rows_in", "rows_synthetic", "rows_out", "enn_rows_in"):
        out[f"resampling.{key}"] = per_unit(counters.get(f"resampling.{key}", 0.0))
    enn_in = counters.get("resampling.enn_rows_in", 0.0)
    out["resampling.enn_kept_ratio"] = (
        counters.get("resampling.enn_rows_kept", 0.0) / enn_in if enn_in else 0.0
    )
    out["resampling.knn_distance_mb"] = counters.get("resampling.knn_distance_mb", 0.0)

    timed("models.forward_train")
    timed("models.forward_eval", ())
    timed("models.backward")
    out["models.gflop"] = per_unit(counters.get("models.gflop", 0.0))

    out["losses.calls"] = per_unit(sum(calls.get(n, 0) for n in LOSS_SPANS))
    out["losses.self_s"] = per_unit(sum(self_s.get(n, 0.0) for n in LOSS_SPANS))

    for name in OPTIMIZERS:
        timed(f"optimizers.{name}")
    out["optimizers.dbs_adam.overhead_s"] = out["optimizers.dbs_adam.self_s"]
    out["optimizers.dbs_adam.self_s"] += per_unit(nested_adam)
    out["optimizers.params"] = counters.get("optimizers.params", 0.0)
    out["optimizers.state_mb"] = counters.get("optimizers.state_mb", 0.0)

    out["evaluation.calls"] = per_unit(sum(calls.get(n, 0) for n in EVALUATION_SPANS))
    out["evaluation.self_s"] = per_unit(sum(self_s.get(n, 0.0) for n in EVALUATION_SPANS))
    out["evaluation.paired_t_test.calls"] = per_unit(calls.get("evaluation.paired_t_test", 0))

    out["harness.train.calls"] = per_unit(calls.get("harness.train", 0))
    out["harness.train.self_s"] = per_unit(self_s.get("harness.train", 0.0))
    out["harness.emit_report.self_s"] = per_unit(self_s.get("harness.emit_report", 0.0))
    out["harness.report_bytes"] = per_unit(counters.get("harness.report_bytes", 0.0))
    return out


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Self time of each layer, and of the two neighbour-search hot spots,
    over the wall time of the traced units."""
    self_s = _by_name(tracer.spans, self_times(tracer.spans))[0]
    wall = sum(s.end - s.start for s in tracer.spans if s.name == "unit")
    if not wall:
        return {}
    shares: dict[str, float] = {}
    for name, own in self_s.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own
    for name in (_QUERY, "resampling.enn_filter"):
        shares[name] = self_s.get(name, 0.0)
    return {k: v / wall for k, v in sorted(shares.items())}
