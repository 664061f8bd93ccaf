"""Every check that names a bad input, tried once with the input it names.

Each case builds one bad value and must raise a ValueError (an
ArchiveError is one) whose message holds the case's text, so a check that
is skipped, or one that fails later with another error, fails here.
"""

import re

import numpy as np
import pytest

from moe_prune import (
    CalibrationCache,
    ExpertTransform,
    MoELayer,
    PerformanceMatrix,
    PlantedSpec,
    generate_calibration,
    generate_layer,
    kmeans,
    performance_matrix,
    prune_enum,
    prune_mop,
    prune_random,
)
from moe_prune.cluster import SimilarityMatrix
from moe_prune.evaluation import _coverage
from moe_prune.tensor_store import ArrayEntry, Manifest

from conftest import make_random_cache, make_random_layer


def expert(hidden, ff=3):
    return ExpertTransform(np.zeros((ff, hidden)), np.zeros((hidden, ff)))


def layer(n=1, hidden=2, **kw):
    return MoELayer(np.zeros((n, hidden)), [expert(hidden) for _ in range(n)], **{"top_k": 1, **kw})


def spec(**kw):
    fields = dict(n_domains=2, specialists_per_domain=1, n_generalists=0,
                  duplicate_noise=0.0, domain_separation=1.0, seed=0)
    return PlantedSpec(**{**fields, **kw})


def cache(n=2, **kw):
    arrays = dict(inputs=np.zeros((n, 2)), outputs_full=np.zeros((n, 2)),
                  gate_probs=np.full((n, 2), 0.5))
    return CalibrationCache(**{**arrays, **kw})


def scoring_pair(n_cache_experts=3):
    """A 16-token cache of an `n_cache_experts`-expert layer, and a 3-expert
    layer to score against it."""
    rng = np.random.default_rng(0)
    scored = make_random_layer(rng, n=3, hidden=4, ff=5)
    source = make_random_layer(rng, n=n_cache_experts, hidden=4, ff=5)
    return make_random_cache(rng, source, n_tokens=16), scored


def perf(candidates=(0,), labels=np.zeros(16, dtype=np.int64), n_cache_experts=3):
    return performance_matrix(*scoring_pair(n_cache_experts), candidates, labels)


# case: (the call that must fail, the text its message must hold)
BAD_INPUTS = {
    # moe_sim
    "f32_array_ndim": (
        lambda: ExpertTransform(np.zeros(4), np.zeros((2, 4))),
        "w_in must be 2-dimensional, got shape (4,)",
    ),
    "expert_inner_dim": (
        lambda: ExpertTransform(np.zeros((4, 2)), np.zeros((2, 3))),
        "w_out inner dim 3 != w_in outer dim 4",
    ),
    "layer_no_experts": (lambda: layer(n=0), "layer needs at least one expert"),
    "layer_router_rows": (
        lambda: MoELayer(np.zeros((2, 2)), [expert(2)], top_k=1), "router has 2 rows for 1 experts",
    ),
    "layer_hidden_zero": (lambda: layer(hidden=0), "hidden_dim must be >= 1"),
    "layer_expert_dims": (
        lambda: MoELayer(np.zeros((1, 2)), [expert(3)], top_k=1),
        "expert 0 dims do not match hidden_dim 2",
    ),
    "layer_top_k": (lambda: layer(top_k=2), "top_k 2 outside [1, 1]"),
    "layer_specialist_domain": (
        lambda: layer(specialist_domain=[0, 1]), "specialist_domain must have one entry per expert",
    ),
    "spec_no_domain": (lambda: spec(n_domains=0), "need at least one domain with one specialist"),
    "spec_negative_generalists": (lambda: spec(n_generalists=-1), "n_generalists must be >= 0"),
    "spec_negative_noise": (lambda: spec(duplicate_noise=-0.1), "duplicate_noise must be >= 0"),
    "spec_zero_separation": (lambda: spec(domain_separation=0.0), "domain_separation must be > 0"),
    "spec_negative_seed": (lambda: spec(seed=-1), "seed must be >= 0, got -1"),
    "cache_no_tokens": (lambda: cache(n=0), "cache must hold at least one token"),
    "cache_gate_rows": (
        lambda: cache(gate_probs=np.full((3, 2), 0.5)), "gate_probs token count does not match inputs",
    ),
    "cache_negative_gate": (
        lambda: cache(gate_probs=np.array([[1.5, -0.5], [0.5, 0.5]])),
        "gate_probs must be nonnegative",
    ),
    "cache_source_domain_shape": (
        lambda: cache(source_domain=[0]), "source_domain must have one entry per token",
    ),
    "calibration_no_tokens": (
        lambda: generate_calibration(generate_layer(spec(), 2, 3, 1), spec(), 0, seed=0),
        "tokens_per_domain must be >= 1",
    ),
    "calibration_negative_seed": (
        lambda: generate_calibration(generate_layer(spec(), 2, 3, 1), spec(), 1, seed=-2),
        "seed must be >= 0, got -2",
    ),
    "calibration_expert_count": (
        lambda: generate_calibration(layer(n=7), spec(n_generalists=6), 1, seed=0),
        "layer has 7 experts but spec implies 8",
    ),
    # metrics
    "perf_errors_ndim": (
        lambda: PerformanceMatrix(np.zeros(3), [1], [0]), "errors must be a 2-D matrix",
    ),
    "perf_domain_sizes_shape": (
        lambda: PerformanceMatrix(np.zeros((1, 2)), [1], [0]),
        "domain_sizes must have one entry per domain column",
    ),
    "perf_candidate_ids_shape": (
        lambda: PerformanceMatrix(np.zeros((1, 2)), [1, 1], [0, 1]),
        "candidate_ids must have one entry per row",
    ),
    "cache_layer_expert_count": (
        lambda: perf(n_cache_experts=2), "cache gate_probs expert count does not match layer",
    ),
    "labels_shape": (
        lambda: perf(labels=np.zeros(15, dtype=np.int64)),
        "labels must have one entry per cached token",
    ),
    "labels_negative": (
        lambda: perf(labels=np.r_[-1, np.zeros(15, dtype=np.int64)]),
        "labels must be nonnegative domain ids",
    ),
    "perf_no_candidates": (lambda: perf(candidates=()), "candidates must be nonempty"),
    # cluster
    "similarity_shape": (
        lambda: SimilarityMatrix(np.eye(2), [0]),
        "similarity matrix shape does not match candidate count",
    ),
    "kmeans_1d_points": (lambda: kmeans(np.zeros(4), k=1, seed=0), "points must be a 2-D matrix"),
    # prune
    "random_negative_seed": (lambda: prune_random(3, 2, seed=-3), "seed must be >= 0, got -3"),
    "mop_negative_kmeans_seed": (
        lambda: prune_mop(*scoring_pair(), 2, kmeans_seed=-3), "kmeans_seed must be >= 0, got -3",
    ),
    "search_mode": (
        lambda: prune_enum(*scoring_pair(), 2, mode="beam"),
        "mode must be 'exhaustive' or 'greedy', got 'beam'",
    ),
    # tensor_store
    "manifest_negative_dimension": (
        lambda: Manifest(arrays=[ArrayEntry("a", (2, -1), "f32", 0, 0)]).validate(0),
        "array 'a': negative dimension in (2, -1)",
    ),
    "manifest_not_json": (lambda: Manifest.from_json("{"), "manifest is not valid JSON"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_fails_by_name(case):
    call, message = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_coverage_is_none_without_a_planted_domain():
    # a layer whose experts are all generalists has no domain to cover
    assert _coverage(layer(n=2, specialist_domain=[-1, -1]), [0]) is None
