"""Head-to-head evaluation on held-out tokens, plus the heatmap export.

evaluate_plan scores a plan per source domain; compare_methods tabulates
several methods against the first as baseline. The per-domain activation
heatmaps are the CSV analog of inspecting which experts fire for which
domain after pruning.
"""

import os
import tempfile

from moe_prune import (
    PlantedSpec,
    compare_methods,
    comparison_to_text,
    export_heatmap_csv,
    generate_calibration,
    generate_layer,
)

spec = PlantedSpec(3, 2, 2, duplicate_noise=0.05, domain_separation=20.0, seed=42)
layer = generate_layer(spec, hidden_dim=16, ff_dim=32, top_k=2)
calibration = generate_calibration(layer, spec, tokens_per_domain=100, seed=7)
heldout = generate_calibration(layer, spec, tokens_per_domain=100, seed=8)

rows = compare_methods(
    layer,
    calibration,
    heldout,
    [
        {"method": "enum_exhaustive", "r": 4},
        {"method": "random", "r": 4, "seed": 0},
        {"method": "frequency", "r": 4},
        {"method": "gvp", "r": 4, "m": 1},
        {"method": "mop", "r": 4, "m": 1, "kmeans_seed": 0},
    ],
)
print(comparison_to_text(rows))
print("coverage = fraction of planted domains with a retained specialist;")
print("deltas are against the first row (exhaustive enumeration).")

report = rows[-1]["report"]  # the mop row's held-out evaluation
print(f"\nmop on held-out data: overall={report.overall_loss:.2f}, "
      f"per-domain={[round(float(x), 2) for x in report.per_domain_loss]}, "
      f"coverage={report.coverage:.2f}")

with tempfile.TemporaryDirectory() as tmp:
    written = export_heatmap_csv(report, os.path.join(tmp, "heatmap"))
    print(f"\nwrote {len(written)} per-domain heatmap CSVs; domain 0 contents:")
    with open(written[0]) as fh:
        print(fh.read().rstrip())
print("rows sum to 1: each domain's gate mass lands on its retained specialist.")
