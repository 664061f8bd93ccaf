"""Build a planted MoE layer and look at how routing behaves.

The generator plants known structure: 3 domains x 2 duplicate specialists
plus 2 generalists. Router rows point at the domain centroids, so tokens
from domain d send almost all gate mass to domain-d specialists.
"""

import numpy as np

from moe_prune import PlantedSpec, generate_calibration, generate_layer
from moe_prune.moe_sim import forward_subset_batch

spec = PlantedSpec(
    n_domains=3,
    specialists_per_domain=2,
    n_generalists=2,
    duplicate_noise=0.05,
    domain_separation=20.0,
    seed=42,
)
layer = generate_layer(spec, hidden_dim=16, ff_dim=32, top_k=2)
print(f"layer: {layer.n_experts} experts, hidden_dim={layer.hidden_dim}, "
      f"ff_dim={layer.ff_dim}, top_k={layer.top_k}")
print(f"planted map (expert -> domain, -1 = generalist): {[int(d) for d in layer.specialist_domain]}")

cache = generate_calibration(layer, spec, tokens_per_domain=100, seed=7)
print(f"\ncalibration cache: {cache.n_tokens} tokens, domains interleaved "
      f"{[int(d) for d in cache.source_domain[:6]]}...")

print("\nmean gate probability by token domain (rows: domain, cols: expert):")
for d in range(3):
    row = cache.gate_probs[cache.source_domain == d].mean(axis=0)
    print(f"  domain {d}: {np.round(row, 3)}")

x = cache.inputs[:1]  # a batch of one domain-0 token
print(f"\none domain-0 token: gate = {np.round(cache.gate_probs[0], 4)}")
print("full layer output (top-2 routed) first 4 dims:",
      np.round(forward_subset_batch(layer, range(8), x)[0, :4], 4))
print("expert 0 alone (weight forced to 1) first 4 dims:",
      np.round(layer.experts[0].apply(x)[0, :4], 4))
print("pruned to {0, 6, 7} first 4 dims:              ",
      np.round(forward_subset_batch(layer, [0, 6, 7], x)[0, :4], 4))
print("\nkeeping every expert reproduces the full layer exactly:",
      np.array_equal(forward_subset_batch(layer, range(8), cache.inputs), cache.outputs_full))
