"""Desk-scale experiment harness.

Scores a pruning plan on held-out tokens: overall and per-source-domain
reconstruction loss (sums over tokens, with token counts reported so
means are recoverable), planted-domain coverage when the layer carries
ground truth, and per-domain activation heatmaps of the deployed
(renormalized) gate weights. compare_methods runs a list of method
configs and tabulates them against the first as baseline.
"""

from __future__ import annotations

import io
import os
import time
from dataclasses import dataclass

import numpy as np

from .metrics import _check_cache_layer, _domain_errors, _domains
from .moe_sim import CalibrationCache, MoELayer, _pruned_forward
from .prune import PruningPlan, prune_with_method


@dataclass
class EvalReport:
    method: str
    params: dict
    kept: list[int]
    overall_loss: float
    per_domain_loss: np.ndarray       # [D] summed squared error per source domain
    worst_domain_loss: float
    domain_token_counts: np.ndarray   # [D]
    n_tokens: int
    coverage: float | None            # needs planted ground truth on the layer
    heatmap: np.ndarray               # [D, |kept|] mean deployed gate weights
    seed: int | None = None

    def mean_domain_loss(self) -> float:
        return float(self.per_domain_loss.mean())


def _coverage(layer: MoELayer, kept: list[int]) -> float | None:
    if layer.specialist_domain is None:
        return None
    domains = layer.specialist_domain
    planted = {d for d in domains.tolist() if d >= 0}
    if not planted:
        return None
    covered = {int(domains[i]) for i in kept if domains[i] >= 0}
    return len(covered) / len(planted)


def evaluate_plan(
    layer: MoELayer, plan: PruningPlan, heldout: CalibrationCache
) -> EvalReport:
    """Score a plan on a held-out cache that carries source_domain labels."""
    _check_cache_layer(heldout, layer)
    n = plan.params.get("n")
    if n is not None and n != layer.n_experts:
        raise ValueError(f"plan was built for n={n} but layer has {layer.n_experts} experts")
    if heldout.source_domain is None:
        raise ValueError("held-out cache lacks source_domain labels for per-domain stats")

    masks, counts = _domains(heldout.source_domain, heldout.n_tokens)
    pred, weights = _pruned_forward(layer, plan.kept, heldout.inputs)
    per_token, per_domain = _domain_errors(pred, heldout.outputs_full, masks)
    weights = weights.astype(np.float64)
    heatmap = np.stack([weights[mask].mean(axis=0) for mask in masks])

    return EvalReport(
        method=plan.method,
        params=dict(plan.params),
        kept=list(plan.kept),
        overall_loss=float(per_token.sum()),
        per_domain_loss=per_domain,
        worst_domain_loss=float(per_domain.max()),
        domain_token_counts=counts,
        n_tokens=heldout.n_tokens,
        coverage=_coverage(layer, plan.kept),
        heatmap=heatmap,
        seed=plan.params.get("seed"),
    )


# ---------------------------------------------------------------------------
# method comparison

COMPARISON_COLUMNS = (
    "method", "r", "m", "seed", "overall_loss", "worst_domain_loss",
    "coverage", "delta_overall", "delta_worst", "wall_time_s",
)


def compare_methods(
    layer: MoELayer,
    calibration: CalibrationCache,
    heldout: CalibrationCache,
    configs: list[dict],
) -> list[dict]:
    """Run each config and tabulate. A config is the keywords of
    `prune_with_method` (method, r and any of m, seed, kmeans_seed, budget);
    an unknown key raises a TypeError that names it.

    Deltas are against the first config; wall_time_s is the only
    non-deterministic column.
    """
    if not configs:
        raise ValueError("configs must be nonempty")
    rows: list[dict] = []
    for config in configs:
        start = time.perf_counter()
        plan = prune_with_method(calibration, layer, **config)
        wall = time.perf_counter() - start
        report = evaluate_plan(layer, plan, heldout)
        rows.append(
            {
                "method": plan.method,
                "r": config["r"],
                "m": config.get("m"),
                "seed": config.get("seed"),
                "overall_loss": report.overall_loss,
                "worst_domain_loss": report.worst_domain_loss,
                "coverage": report.coverage,
                "wall_time_s": wall,
                "report": report,
            }
        )
    base = rows[0]
    for row in rows:
        row["delta_overall"] = row["overall_loss"] - base["overall_loss"]
        row["delta_worst"] = row["worst_domain_loss"] - base["worst_domain_loss"]
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def comparison_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(",".join(COMPARISON_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_format_cell(row.get(col)) for col in COMPARISON_COLUMNS) + "\n")
    return buf.getvalue()


def comparison_to_text(rows: list[dict]) -> str:
    table = [[_format_cell(row.get(col)) for col in COMPARISON_COLUMNS] for row in rows]
    widths = [
        max(len(COMPARISON_COLUMNS[c]), *(len(line[c]) for line in table)) if table
        else len(COMPARISON_COLUMNS[c])
        for c in range(len(COMPARISON_COLUMNS))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(COMPARISON_COLUMNS, widths))]
    for line in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exports


def _heatmap_paths(report: EvalReport, path_prefix: str | os.PathLike) -> list[str]:
    return [f"{os.fspath(path_prefix)}_domain{d}.csv" for d in range(report.heatmap.shape[0])]


def export_heatmap_csv(report: EvalReport, path_prefix: str | os.PathLike) -> list[str]:
    """One CSV per domain: one row (layer 0), columns the retained experts."""
    written = _heatmap_paths(report, path_prefix)
    header = "layer," + ",".join(f"expert_{i}" for i in report.kept)
    for out, row in zip(written, report.heatmap):
        with open(out, "w", encoding="utf-8") as fh:
            cells = ",".join(f"{v:.6f}" for v in row)
            fh.write(f"{header}\n0,{cells}\n")
    return written


def report_to_csv(report: EvalReport) -> str:
    """Single-row summary CSV for one evaluated plan."""
    n_domains = report.per_domain_loss.size
    columns = ["method", "r", "m", "seed", "overall_loss", "worst_domain_loss", "coverage",
               "n_tokens"]
    columns += [f"domain{d}_loss" for d in range(n_domains)]
    columns += [f"domain{d}_tokens" for d in range(n_domains)]
    values = [
        report.method,
        report.params.get("r"),
        report.params.get("m"),
        report.params.get("seed"),
        report.overall_loss,
        report.worst_domain_loss,
        report.coverage,
        report.n_tokens,
    ]
    values += [float(x) for x in report.per_domain_loss]
    values += [int(x) for x in report.domain_token_counts]
    head = ",".join(columns)
    body = ",".join(_format_cell(v) for v in values)
    return head + "\n" + body + "\n"
