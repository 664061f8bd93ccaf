"""Spans at the moe_prune module boundaries, and the per-layer metrics derived from them.

The tracer replaces, for the duration of a traced run, the names one module
of the package looks up in another (``moe_prune.prune.reconstruction_loss``,
``moe_prune.metrics.forward_subset_batch`` and so on) with wrappers that
record a span: name, start, end, parent and a few arguments. Nothing under
``src/`` is edited. Spans stay in memory until the caller aggregates them.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

# The six prune methods. Pinned here rather than read from moe_prune.prune so
# that the workloads and metric names stay the same from commit to commit.
METHODS = ("random", "frequency", "enum_exhaustive", "enum_greedy", "gvp", "mop")
CLI_COMMANDS = ("gen-model", "gen-calib", "prune", "eval", "report")


def _apply_info(layer, experts, inputs):
    return {"experts": [int(e) for e in experts], "cache": id(inputs),
            "n": int(inputs.shape[0]), "h": layer.hidden_dim, "f": layer.ff_dim}


def _spearman_pairs(perf, sim):
    c = len(sim.s)
    # one rank correlation per pair of candidates, and none with a single domain
    return {"pairs": c * (c - 1) // 2 if perf.errors.shape[1] > 1 else 0}


def _archive_bytes(manifest):
    return {"bytes": sum(entry.length for entry in manifest.arrays)}


# (module, attribute, span name, info from (args, kwargs, result)).
# A span name of None means "prune.<method of the returned plan>".
TARGETS = (
    ("moe_prune.moe_sim", "generate_layer", "moe_sim.generate_layer", None),
    ("moe_prune.moe_sim", "generate_calibration", "moe_sim.generate_calibration", None),
    ("moe_prune.metrics", "forward_subset_batch", "moe_sim.forward_subset_batch",
     lambda a, k, r: _apply_info(a[0], a[1], a[2])),
    ("moe_prune.evaluation", "forward_subset_batch", "moe_sim.forward_subset_batch",
     lambda a, k, r: _apply_info(a[0], a[1], a[2])),
    ("moe_prune.metrics", "forward_single_batch", "moe_sim.forward_single_batch",
     lambda a, k, r: _apply_info(a[0], [a[1]], a[2])),
    ("moe_prune.prune", "reconstruction_loss", "metrics.reconstruction_loss", None),
    ("moe_prune.prune", "performance_matrix", "metrics.performance_matrix", None),
    ("moe_prune.prune", "variability_scores", "metrics.variability_scores", None),
    ("moe_prune.prune", "activation_frequency", "metrics.activation_frequency", None),
    ("moe_prune.prune", "kmeans", "cluster.kmeans", None),
    # k-means restarts are internal to the cluster module; this is the only
    # place their Lloyd iteration counts are visible.
    ("moe_prune.cluster", "_lloyd", "cluster.lloyd",
     lambda a, k, r: {"iterations": int(r.iterations_run)}),
    ("moe_prune.prune", "similarity_matrix", "cluster.similarity_matrix",
     lambda a, k, r: _spearman_pairs(a[0], r)),
    ("moe_prune.prune", "ward_partition", "cluster.ward_partition",
     lambda a, k, r: {"merges": len(r.merge_trace)}),
    ("moe_prune.prune", "prune_with_method", None, None),
    ("moe_prune.evaluation", "evaluate_plan", "evaluation.evaluate_plan", None),
    ("moe_prune.tensor_store", "write_archive", "tensor_store.write_archive",
     lambda a, k, r: _archive_bytes(r)),
    ("moe_prune.tensor_store", "read_archive", "tensor_store.read_archive",
     lambda a, k, r: _archive_bytes(r[0])),
)


class Tracer:
    """Records spans as [name, start, end, parent index, info] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, info in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name == "moe_sim.forward_subset_batch":
                args = (args[0], tuple(args[1])) + args[2:]  # the kept set may be an iterator
            span = [name or "prune.failed", 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name is None:
                span[0] = f"prune.{result.method}"
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one pass from its spans (times in seconds)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start

    def args_of(name):  # recorded arguments of the spans that returned
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    out: dict[str, float] = {}
    for name in ("tensor_store.write_archive", "tensor_store.read_archive"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
        out[f"{name}.bytes"] = sum(arg["bytes"] for arg in args_of(name))
    out["moe_sim.generate_layer.s"] = total["moe_sim.generate_layer"]
    out["moe_sim.generate_calibration.s"] = total["moe_sim.generate_calibration"]
    applies = flops = 0
    distinct = set()
    for name in ("moe_sim.forward_subset_batch", "moe_sim.forward_single_batch"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
        for arg in args_of(name):
            applies += len(arg["experts"])
            # two matmuls per expert: [n, h] x [h, f] and [n, f] x [f, h]
            flops += len(arg["experts"]) * 4 * arg["n"] * arg["h"] * arg["f"]
            distinct.update((e, arg["cache"]) for e in arg["experts"])
    out["moe_sim.expert_applies"] = applies
    out["moe_sim.expert_flops"] = flops
    out["moe_sim.apply_useful_ratio"] = len(distinct) / applies if applies else 0.0

    rl = "metrics.reconstruction_loss"
    out[f"{rl}.calls"] = calls[rl]
    out[f"{rl}.s"] = total[rl]
    out[f"{rl}.self_s"] = sum(
        s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == rl
    )
    for name in ("performance_matrix", "variability_scores", "activation_frequency"):
        out[f"metrics.{name}.s"] = total[f"metrics.{name}"]

    out["cluster.kmeans.s"] = total["cluster.kmeans"]
    out["cluster.kmeans.iterations"] = sum(a["iterations"] for a in args_of("cluster.lloyd"))
    out["cluster.similarity_matrix.s"] = total["cluster.similarity_matrix"]
    out["cluster.similarity_matrix.pairs"] = sum(
        a["pairs"] for a in args_of("cluster.similarity_matrix")
    )
    out["cluster.ward_partition.s"] = total["cluster.ward_partition"]
    out["cluster.ward_partition.merges"] = sum(
        a["merges"] for a in args_of("cluster.ward_partition")
    )

    for method in METHODS:
        out[f"prune.{method}.s"] = total[f"prune.{method}"]
    out["prune.stage1.s"] = sum(
        s[2] - s[1] for i, s in enumerate(spans)
        if s[0] == rl and {"prune.gvp", "prune.mop"} & set(ancestors(i))
    )
    out["prune.self_s"] = sum(
        s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
        if s[0].startswith("prune.")
    )
    out["evaluation.evaluate_plan.calls"] = calls["evaluation.evaluate_plan"]
    out["evaluation.evaluate_plan.s"] = total["evaluation.evaluate_plan"]
    return out


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    """Median of each key over per-pass metric dicts."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
