"""In-memory span tracing around the public functions of linkrisk's layers.

A `Tracer` replaces each public function of the `corpus`, `lm`, `metric`,
`anonymity` and `evaluation` modules (the names in their `__all__`), the
`DistanceMatrix` build/load/save methods and `cli.dispatch` with a wrapper,
at the module or class attribute that callers look up at call time.  Each
wrapper records one span (id, name, start, end, parent, run id) and, for a
few functions, counts taken from the arguments or the result.  Spans stay in
memory until `write` is called.  Nothing in the library changes; `uninstall`
restores the original attributes.

The `framework` module is left unwrapped on purpose: no benchmark workload
calls it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

WRAPPED_MODULES = ("corpus", "lm", "metric", "anonymity", "evaluation")


def _support(dist) -> int:
    return len(dist.probs if hasattr(dist, "probs") else dist)


def _path_size(name: str):
    def count(counts, bound, result):
        counts[name] += os.path.getsize(bound["path"])

    return count


def _count_ingest(counts, bound, result):
    counts["comments_read"] += len(result.comments)
    counts["lines_skipped"] += len(result.errors)


def _count_aggregate(counts, bound, result):
    counts["tokens_out"] += sum(len(stream.tokens) for stream in result.values())


def _count_build_models(counts, bound, result):
    counts["vocab"] = max(counts["vocab"], len(result[2].counts))


def _count_pairwise(counts, bound, result):
    sizes = [_support(d) for d in bound["dists"]]
    n = len(sizes)
    counts["pairs"] += n * (n - 1) // 2
    counts["support_elems"] += (n - 1) * sum(sizes)


def _count_cross(counts, bound, result):
    sa = [_support(d) for d in bound["dists_a"]]
    sb = [_support(d) for d in bound["dists_b"]]
    counts["pairs"] += len(sa) * len(sb)
    counts["support_elems"] += len(sb) * sum(sa) + len(sa) * sum(sb)


def _count_experiment(counts, bound, result):
    counts["links"] += len(result.links)


def _count_dispatch(counts, bound, result):
    counts["cli_calls"] += 1
    counts["nonzero_exits"] += int(result != 0)


# counts taken at the layer boundary; keyed by span name
COUNTERS = {
    "corpus.ingest_jsonl": _count_ingest,
    "corpus.aggregate_profiles": _count_aggregate,
    "corpus.write_profiles": _path_size("profiles_bytes"),
    "lm.build_models": _count_build_models,
    "lm.save_models": _path_size("store_bytes"),
    "metric.pairwise_distances": _count_pairwise,
    "metric.cross_distances": _count_cross,
    "anonymity.DistanceMatrix.save": _path_size("dmat_bytes"),
    "evaluation.run_experiment": _count_experiment,
    "cli.dispatch": _count_dispatch,
}


class Tracer:
    """Records spans and counts for one traced pass of a workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [id, name, start, end, parent_id]
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_name = f"cli.{args[0][0]}" if name == "cli.dispatch" and args[0] else name
            span = [next(self._ids), span_name, 0.0, 0.0, stack[-1] if stack else None]
            self.spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__))
        else:
            replacement = self._wrap(name, raw)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self, modules) -> None:
        """Wrap the layer functions of `modules`, which has one attribute per layer."""
        for layer in WRAPPED_MODULES:
            module = getattr(modules, layer)
            for attr in module.__all__:
                if inspect.isfunction(getattr(module, attr)):
                    self._patch(module, attr, f"{layer}.{attr}")
        matrix_cls = modules.anonymity.DistanceMatrix
        for attr in ("build", "load", "save"):
            self._patch(matrix_cls, attr, f"anonymity.DistanceMatrix.{attr}")
        self._patch(modules.cli, "dispatch", "cli.dispatch")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        """Append the spans as JSON lines: id, name, start, end, parent, run."""
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                rec = {"id": span_id, "name": name, "start": start, "end": end,
                       "parent": parent, "run": self.run_id}
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def durations(self) -> dict:
        """Total and self seconds per span name.

        A span's self time is its duration minus that of its child spans.
        Wrapped calls nest on one thread's stack, so children never overlap.
        """
        child_time: dict = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            total[name] += end - start
            self_time[name] += end - start - child_time[span_id]
        return {"total": dict(total), "self": dict(self_time)}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass as {name: (value, unit)}.

    A time or rate is left out when its layer made no call in the pass; the
    counts are always present.
    """
    d = tracer.durations()
    total, self_time = d["total"], d["self"]
    counts = tracer.counts
    calls = Counter(span[1] for span in tracer.spans)
    out = {}

    def seconds(metric: str, *names: str, kind=total) -> None:
        if any(name in kind for name in names):
            out[metric] = (sum(kind.get(name, 0.0) for name in names), "s")

    cli_names = sorted(name for name in total if name.startswith("cli."))
    for name in cli_names:
        out[f"{name}_s"] = (total[name], "s")
    seconds("cli.self_s", *cli_names, kind=self_time)
    out["cli.calls"] = (counts["cli_calls"], "count")
    out["cli.nonzero_exits"] = (counts["nonzero_exits"], "count")

    seconds("corpus.ingest_jsonl_s", "corpus.ingest_jsonl")
    seconds("corpus.aggregate_s", "corpus.aggregate_profiles")
    seconds("corpus.normalize_s", "corpus.normalize")
    seconds("corpus.write_profiles_s", "corpus.write_profiles")
    seconds("corpus.load_profiles_s", "corpus.load_profiles")
    read_s = total.get("corpus.ingest_jsonl", 0.0) + total.get("corpus.aggregate_profiles", 0.0)
    if read_s > 0.0:
        out["corpus.comments_per_s"] = (counts["comments_read"] / read_s, "1/s")
    out["corpus.tokens_out"] = (counts["tokens_out"], "count")
    out["corpus.lines_skipped"] = (counts["lines_skipped"], "count")
    out["corpus.profiles_bytes"] = (counts["profiles_bytes"], "bytes")

    seconds("lm.build_models_s", "lm.build_models")
    out["lm.vocab"] = (counts["vocab"], "count")
    seconds("lm.to_distribution_s", "lm.to_distribution")
    out["lm.to_distribution_calls"] = (calls["lm.to_distribution"], "count")
    seconds("lm.save_models_s", "lm.save_models")
    seconds("lm.load_models_s", "lm.load_models")
    out["lm.store_bytes"] = (counts["store_bytes"], "bytes")

    seconds("metric.cross_s", "metric.cross_distances")
    seconds("metric.pairwise_s", "metric.pairwise_distances")
    matrix_s = matrix_seconds(tracer)
    if matrix_s > 0.0:
        out["metric.pairs_per_s"] = (counts["pairs"] / matrix_s, "1/s")
    out["metric.pairs"] = (counts["pairs"], "count")
    out["metric.support_elems"] = (counts["support_elems"], "count")

    seconds("anonymity.build_s", "anonymity.DistanceMatrix.build")
    seconds("anonymity.save_s", "anonymity.DistanceMatrix.save")
    seconds("anonymity.load_s", "anonymity.DistanceMatrix.load")
    out["anonymity.load_calls"] = (calls["anonymity.DistanceMatrix.load"], "count")
    seconds("anonymity.query_s", "anonymity.convergent_subset")
    out["anonymity.dmat_bytes"] = (counts["dmat_bytes"], "bytes")

    seconds("evaluation.run_experiment_s", "evaluation.run_experiment")
    seconds("evaluation.self_s", "evaluation.run_experiment", kind=self_time)
    seconds("evaluation.write_csvs_s", "evaluation.write_experiment_csvs")
    out["evaluation.links"] = (counts["links"], "count")

    for layer in ("corpus", "lm", "metric", "anonymity"):
        names = [name for name in self_time if name.startswith(layer + ".")]
        seconds(f"{layer}.self_s", *names, kind=self_time)
    return out


def matrix_seconds(tracer: Tracer) -> float:
    """Seconds spent in the metric layer's distance-matrix functions."""
    total = tracer.durations()["total"]
    return total.get("metric.cross_distances", 0.0) + total.get("metric.pairwise_distances", 0.0)
