"""Desk-scale experiment harness.

Scores a pruning plan on held-out tokens: overall and per-source-domain
reconstruction loss (sums over tokens, with token counts reported so
means are recoverable), planted-domain coverage when the layer carries
ground truth, and per-domain activation heatmaps of the deployed
(renormalized) gate weights. compare_methods runs a list of method
configs and tabulates them against the first as baseline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import _staged
from .metrics import _check_cache_layer, _domain_errors, _domains, _sq_error
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

    domains = _domains(heldout.source_domain, heldout.n_tokens)
    pred, weights = _pruned_forward(layer, plan.kept, heldout.inputs)
    per_token, per_domain = _domain_errors(_sq_error(pred, heldout.outputs_full), domains)
    weights = weights.astype(np.float64)
    heatmap = np.stack([weights[domains.order[span]].mean(axis=0) for span in domains.spans])

    return EvalReport(
        method=plan.method,
        params=dict(plan.params),
        kept=list(plan.kept),
        overall_loss=float(per_token.sum()),
        per_domain_loss=per_domain,
        worst_domain_loss=float(per_domain.max()),
        domain_token_counts=domains.sizes,
        n_tokens=heldout.n_tokens,
        coverage=_coverage(layer, plan.kept),
        heatmap=heatmap,
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


def _comparison_cells(rows: list[dict]) -> list[list[str]]:
    """The comparison table as text: the header line, then one line per row."""
    return [list(COMPARISON_COLUMNS)] + [
        [_format_cell(row.get(col)) for col in COMPARISON_COLUMNS] for row in rows
    ]


def comparison_to_csv(rows: list[dict]) -> str:
    return "".join(",".join(line) + "\n" for line in _comparison_cells(rows))


def comparison_to_text(rows: list[dict]) -> str:
    table = _comparison_cells(rows)
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n" for line in table)


# ---------------------------------------------------------------------------
# exports


def export_heatmap_csv(report: EvalReport, path_prefix: str | os.PathLike) -> list[str]:
    """One CSV per domain: one row (layer 0), columns the retained experts.
    They are committed at once: an export that fails changes no file."""
    directory, name = os.path.split(os.path.abspath(path_prefix))
    header = "layer," + ",".join(f"expert_{i}" for i in report.kept)
    with _staged(directory) as stage:
        for d, row in enumerate(report.heatmap):
            with open(os.path.join(stage, f"{name}_domain{d}.csv"), "w", encoding="utf-8") as fh:
                cells = ",".join(f"{v:.6f}" for v in row)
                fh.write(f"{header}\n0,{cells}\n")
    return [f"{os.fspath(path_prefix)}_domain{d}.csv" for d in range(len(report.heatmap))]


def report_to_csv(report: EvalReport) -> str:
    """Single-row summary CSV for one evaluated plan."""
    cells = [
        ("method", report.method),
        ("r", report.params.get("r")),
        ("m", report.params.get("m")),
        ("seed", report.params.get("seed")),
        ("overall_loss", report.overall_loss),
        ("worst_domain_loss", report.worst_domain_loss),
        ("coverage", report.coverage),
        ("n_tokens", report.n_tokens),
    ]
    cells += [(f"domain{d}_loss", float(x)) for d, x in enumerate(report.per_domain_loss)]
    cells += [(f"domain{d}_tokens", int(x)) for d, x in enumerate(report.domain_token_counts)]
    head = ",".join(column for column, _ in cells)
    body = ",".join(_format_cell(value) for _, value in cells)
    return head + "\n" + body + "\n"
