"""Relabelled experts give relabelled plans.

Pruning picks experts by what they do, not by their indices. So permuting a
layer's experts (router rows, expert weights and planted map together) and
caching the same inputs again must give each method the permuted plan. The
check does not depend on any bit of the outputs: the permuted layer adds its
experts in another order, so gate probabilities, variability scores and
losses agree only to rounding, and only the activation counts, which compare
gate values of one token, are compared exactly.
"""

import numpy as np
import pytest

from moe_prune import (
    MoELayer,
    PlantedSpec,
    activation_frequency,
    cache_from_inputs,
    evaluate_plan,
    generate_calibration,
    generate_layer,
    prune_enum,
    prune_gvp,
    prune_mop,
)

RTOL = 1e-6  # measured differences stay below 1e-7 relative


def _planted(seed, top_k):
    """A 4 x 3 + 4 planted layer, its calibration cache and held-out cache."""
    spec = PlantedSpec(
        n_domains=4, specialists_per_domain=3, n_generalists=4,
        duplicate_noise=0.05, domain_separation=20.0, seed=seed,
    )
    layer = generate_layer(spec, hidden_dim=16, ff_dim=32, top_k=top_k)
    calib = generate_calibration(layer, spec, 64, seed=seed + 10_000)
    heldout = generate_calibration(layer, spec, 64, seed=seed + 20_000)
    return layer, calib, heldout


def _relabelled(layer, perm, *caches):
    """The layer whose expert j is `layer`'s expert perm[j], and each cache's
    inputs cached again through it."""
    moved = MoELayer(
        router=layer.router[perm],
        experts=[layer.experts[e] for e in perm],
        top_k=layer.top_k,
        specialist_domain=layer.specialist_domain[perm],
    )
    return moved, *[cache_from_inputs(moved, c.inputs, c.source_domain) for c in caches]


@pytest.fixture(scope="module", params=[(0, 2), (1, 3), (2, 6), (3, 2)],
                ids=lambda p: f"seed{p[0]}-top{p[1]}")
def pair(request):
    """(original, relabelled) as (layer, calib, heldout) triples, and the map
    `new` from an original expert id to its relabelled id."""
    seed, top_k = request.param
    layer, calib, heldout = _planted(seed, top_k)
    perm = np.random.default_rng(seed + 30_000).permutation(layer.n_experts)
    assert not np.array_equal(perm, np.arange(layer.n_experts))
    new = np.argsort(perm)
    return (layer, calib, heldout), _relabelled(layer, perm, calib, heldout), new


def _mapped(new, experts):
    return sorted(int(new[e]) for e in experts)


def test_activation_frequency_maps_exactly(pair):
    (layer, calib, _), (moved, moved_calib, _), new = pair
    counts = activation_frequency(calib, layer.top_k)
    moved_counts = activation_frequency(moved_calib, moved.top_k)
    assert np.array_equal(moved_counts[new], counts)


@pytest.mark.parametrize("prune", [
    lambda cache, layer: prune_enum(cache, layer, 4, mode="exhaustive"),
    lambda cache, layer: prune_enum(cache, layer, 6, mode="greedy"),
    lambda cache, layer: prune_gvp(cache, layer, 6),
], ids=["enum_exhaustive", "enum_greedy", "gvp"])
def test_searches_keep_the_relabelled_set(pair, prune):
    (layer, calib, heldout), (moved, moved_calib, moved_heldout), new = pair
    plan, moved_plan = prune(calib, layer), prune(moved_calib, moved)
    assert moved_plan.kept == _mapped(new, plan.kept)
    assert _mapped(new, plan.diversity_experts()) == moved_plan.diversity_experts()
    for key in ("best_loss", "stage1_loss"):
        if key in plan.diagnostics:
            assert moved_plan.diagnostics[key] == pytest.approx(plan.diagnostics[key], rel=RTOL)
    if "s_var" in plan.diagnostics:
        np.testing.assert_allclose(moved_plan.diagnostics["s_var"][new],
                                   plan.diagnostics["s_var"], rtol=RTOL)
    loss = evaluate_plan(layer, plan, heldout).overall_loss
    assert evaluate_plan(moved, moved_plan, moved_heldout).overall_loss == pytest.approx(
        loss, rel=RTOL
    )


def test_mop_groups_picks_and_coverage_map(pair):
    (layer, calib, heldout), (moved, moved_calib, moved_heldout), new = pair
    plan = prune_mop(calib, layer, 6, kmeans_seed=0)
    moved_plan = prune_mop(moved_calib, moved, 6, kmeans_seed=0)
    diag, moved_diag = plan.diagnostics, moved_plan.diagnostics
    assert moved_plan.kept == _mapped(new, plan.kept)
    assert moved_plan.diversity_experts() == _mapped(new, plan.diversity_experts())
    # k-means sees the same inputs, so it finds the same domains
    assert np.array_equal(moved_diag["labels"], diag["labels"])
    assert sorted(map(sorted, moved_diag["groups"])) == sorted(
        _mapped(new, g) for g in diag["groups"]
    )
    assert moved_diag["candidate_ids"].tolist() == _mapped(new, diag["candidate_ids"])
    rows = np.argsort(new[diag["candidate_ids"]])  # original rows in relabelled order
    np.testing.assert_allclose(moved_diag["perf_errors"], diag["perf_errors"][rows], rtol=RTOL)
    assert moved_diag["stage1_loss"] == pytest.approx(diag["stage1_loss"], rel=RTOL)
    report = evaluate_plan(layer, plan, heldout)
    moved_report = evaluate_plan(moved, moved_plan, moved_heldout)
    assert moved_report.coverage == report.coverage
    assert moved_report.overall_loss == pytest.approx(report.overall_loss, rel=RTOL)
