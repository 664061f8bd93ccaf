import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_prune import (
    CalibrationCache,
    activation_frequency,
    performance_matrix,
    reconstruction_loss,
    variability_scores,
)
from moe_prune.metrics import (
    _BATCH_LOGITS,
    PerformanceMatrix,
    _domain_errors,
    _domains,
    _perf_row,
)
from moe_prune.moe_sim import forward_subset_batch

from conftest import make_planted, make_random_cache, make_random_layer


def make_gate_cache(gate_probs, hidden=2):
    gate_probs = np.asarray(gate_probs, dtype=np.float32)
    n = gate_probs.shape[0]
    zeros = np.zeros((n, hidden), dtype=np.float32)
    return CalibrationCache(inputs=zeros, outputs_full=zeros, gate_probs=gate_probs)


# ---------------------------------------------------------------------------
# reconstruction loss


def test_loss_zero_for_full_set(rng):
    layer = make_random_layer(rng, n=6, hidden=8, top_k=2)
    cache = make_random_cache(rng, layer, n_tokens=32)
    assert reconstruction_loss(cache, layer, range(6)) == 0.0


def test_loss_matches_scalar_oracle(rng):
    layer = make_random_layer(rng, n=4, hidden=4, ff=6, top_k=2)
    cache = make_random_cache(rng, layer, n_tokens=16)
    kept = [0, 2]
    pred = forward_subset_batch(layer, kept, cache.inputs)
    want = 0.0
    for t in range(16):
        for h in range(4):
            want += (float(pred[t, h]) - float(cache.outputs_full[t, h])) ** 2
    got = reconstruction_loss(cache, layer, kept)
    assert got == pytest.approx(want, rel=1e-10)


def test_loss_minimum_over_subsets(rng):
    layer = make_random_layer(rng, n=8, hidden=6, top_k=2)
    cache = make_random_cache(rng, layer, n_tokens=24)
    losses = {
        subset: reconstruction_loss(cache, layer, subset)
        for subset in itertools.combinations(range(8), 6)
    }
    minimum = min(losses.values())
    assert all(minimum <= v for v in losses.values())
    assert losses[(0, 1, 2, 3, 4, 5)] >= minimum


def test_loss_dimension_mismatch(rng):
    layer = make_random_layer(rng, n=4, hidden=8)
    other = make_random_layer(rng, n=4, hidden=6)
    cache = make_random_cache(rng, layer)
    with pytest.raises(ValueError, match="hidden dim"):
        reconstruction_loss(cache, other, [0, 1])


# ---------------------------------------------------------------------------
# variability scores


def test_constant_column_scores_zero():
    probs = np.full((64, 4), 0.25)
    scores = variability_scores(make_gate_cache(probs)).scores
    assert np.all(scores < 1e-9)


def test_one_hot_column_hits_log2_n():
    n = 1024
    probs = np.zeros((n, 2))
    probs[:, 1] = 1.0
    probs[0] = [1.0, 0.0]  # expert 0 fires exactly once
    probs[0, 1] = 0.0
    scores = variability_scores(make_gate_cache(probs)).scores
    assert scores[0] == pytest.approx(10.0, abs=1e-6)


def test_hand_evaluated_column():
    # column (0.5, 0.25, 0.125, 0.125) with Z = 1 over 4 tokens -> 0.25 bits
    probs = np.array(
        [
            [0.500, 0.500],
            [0.250, 0.750],
            [0.125, 0.875],
            [0.125, 0.875],
        ]
    )
    scores = variability_scores(make_gate_cache(probs)).scores
    assert scores[0] == pytest.approx(0.25, abs=1e-9)


def test_dead_expert_reported():
    probs = np.zeros((8, 3))
    probs[:, 0] = 1.0
    with pytest.raises(ValueError, match="expert 1"):
        variability_scores(make_gate_cache(probs))


def test_score_bounds_and_token_permutation(rng):
    for _ in range(20):
        n_tok = int(rng.integers(4, 64))
        probs = rng.random((n_tok, 5))
        probs /= probs.sum(axis=1, keepdims=True)
        cache = make_gate_cache(probs)
        scores = variability_scores(cache).scores
        assert np.all(scores >= 0.0)
        assert np.all(scores <= math.log2(n_tok) + 1e-9)
        perm = rng.permutation(n_tok)
        shuffled = variability_scores(make_gate_cache(probs[perm])).scores
        assert np.allclose(scores, shuffled, atol=1e-12)


def oracle_variability(gate_probs):
    probs = gate_probs.astype(np.float64)
    q = probs / probs.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * np.log2(q * probs.shape[0]), 0.0)
    return np.maximum(terms.sum(axis=0), 0.0)


@settings(deadline=None, max_examples=200)
@given(st.data(), st.integers(0, 2**32 - 1), st.integers(1, 64),
       st.sampled_from([0.0, 0.3, 0.9]), st.booleans())
def test_variability_matches_direct_formula(data, seed, n_experts, zero_share, point):
    # up to three blocks and one token, with the block edges drawn on purpose
    block = max(1, _BATCH_LOGITS // n_experts)
    n_tokens = data.draw(st.sampled_from([1, block, block + 1]) | st.integers(1, 3 * block + 1))
    rng = np.random.default_rng(seed)
    probs = rng.random((n_tokens, n_experts))
    probs[rng.random(probs.shape) < zero_share] = 0.0
    if point:  # one expert's whole mass on one token
        e = rng.integers(n_experts)
        probs[:, e] = 0.0
        probs[rng.integers(n_tokens), e] = rng.random() + 0.5
    for e in np.flatnonzero(probs.sum(axis=0) == 0.0):
        probs[rng.integers(n_tokens), e] = 1.0
    probs[probs.sum(axis=1) == 0.0, 0] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    cache = make_gate_cache(probs)
    got = variability_scores(cache).scores
    assert got.tobytes() == oracle_variability(cache.gate_probs).tobytes()


def test_variability_lone_expert_keeps_pairwise_sum(rng):
    """numpy sums a lone column pairwise, not in token order: over several
    blocks of tokens a one-expert score still has the whole-column bits."""
    n_tokens = 3 * _BATCH_LOGITS + 1
    probs = 1.0 - 4e-6 * rng.random((n_tokens, 1))  # rows within the sum check
    cache = make_gate_cache(probs)
    got = variability_scores(cache).scores
    assert got.tobytes() == oracle_variability(cache.gate_probs).tobytes()


def test_variability_peak_below_gate_size(rng):
    """The float64 terms are built block by block: scoring a [16384, 64] gate
    holds less than the gate's own 4 MiB of float32 at its peak."""
    probs = rng.random((16384, 64))
    probs /= probs.sum(axis=1, keepdims=True)
    cache = make_gate_cache(probs)
    tracemalloc.start()
    try:
        variability_scores(cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cache.gate_probs.nbytes, f"{peak / 1024:.1f} KiB"


# ---------------------------------------------------------------------------
# activation frequency


def test_frequency_full_topk_counts_everything(rng):
    layer = make_random_layer(rng, n=5)
    cache = make_random_cache(rng, layer, n_tokens=21)
    counts = activation_frequency(cache, top_k=5)
    assert np.all(counts == 21)


def test_frequency_uniform_rows_tie_break():
    probs = np.full((12, 4), 0.25)
    counts = activation_frequency(make_gate_cache(probs), top_k=2)
    assert list(counts) == [12, 12, 0, 0]


def test_frequency_matches_per_token_sort(rng):
    layer = make_random_layer(rng, n=7)
    cache = make_random_cache(rng, layer, n_tokens=40)
    counts = activation_frequency(cache, top_k=3)
    want = np.zeros(7, dtype=int)
    for row in cache.gate_probs:
        top = sorted(range(7), key=lambda i: (-row[i], i))[:3]
        for i in top:
            want[i] += 1
    assert np.array_equal(counts, want)


def test_frequency_topk_validated(rng):
    layer = make_random_layer(rng, n=4)
    cache = make_random_cache(rng, layer)
    with pytest.raises(ValueError, match="top_k"):
        activation_frequency(cache, top_k=5)


# ---------------------------------------------------------------------------
# performance matrix


def test_perf_zero_row_for_degenerate_layer(rng):
    layer = make_random_layer(rng, n=1, hidden=4, top_k=1)
    cache = make_random_cache(rng, layer, n_tokens=12)
    labels = np.array([t % 2 for t in range(12)])
    perf = performance_matrix(cache, layer, [0], labels)
    assert np.allclose(perf.errors, 0.0)
    assert list(perf.domain_sizes) == [6, 6]


def test_perf_single_domain_is_mean_error(rng):
    layer = make_random_layer(rng, n=4, hidden=6, top_k=2)
    cache = make_random_cache(rng, layer, n_tokens=15)
    perf = performance_matrix(cache, layer, [0, 1, 2, 3], np.zeros(15, dtype=int))
    for i in range(4):
        out = layer.experts[i].apply(cache.inputs).astype(np.float64)
        want = (((out - cache.outputs_full.astype(np.float64)) ** 2).sum(axis=1)).mean()
        assert perf.errors[i, 0] == pytest.approx(want, rel=1e-12)


def test_perf_specialist_best_in_own_domain():
    spec, layer, calib, _ = make_planted(seed=13, noise=0.0, tokens_per_domain=40)
    perf = performance_matrix(
        calib, layer, list(range(8)), calib.source_domain.astype(int)
    )
    for e in range(6):
        own = int(layer.specialist_domain[e])
        row = perf.errors[e]
        assert row[own] < min(row[d] for d in range(3) if d != own)


def test_perf_token_order_invariance(rng):
    layer = make_random_layer(rng, n=3, hidden=4)
    cache = make_random_cache(rng, layer, n_tokens=20)
    labels = np.array([t % 2 for t in range(20)])
    base = performance_matrix(cache, layer, [0, 1, 2], labels)
    perm = rng.permutation(20)
    shuffled_cache = CalibrationCache(
        inputs=cache.inputs[perm],
        outputs_full=cache.outputs_full[perm],
        gate_probs=cache.gate_probs[perm],
    )
    shuffled = performance_matrix(shuffled_cache, layer, [0, 1, 2], labels[perm])
    assert np.allclose(base.errors, shuffled.errors, rtol=1e-10)


def test_perf_empty_domain_rejected(rng):
    layer = make_random_layer(rng, n=3)
    cache = make_random_cache(rng, layer, n_tokens=6)
    labels = np.array([0, 0, 0, 2, 2, 2])  # domain 1 missing
    with pytest.raises(ValueError, match="domain 1"):
        performance_matrix(cache, layer, [0, 1], labels)


def test_perf_non_integer_labels_named(rng):
    layer = make_random_layer(rng, n=3)
    cache = make_random_cache(rng, layer, n_tokens=6)
    for labels in (np.zeros(6), np.array([0.0, 1.0, 0.5, 1.0, 0.0, 1.0]), np.zeros(6, dtype=bool)):
        with pytest.raises(ValueError, match="labels must be integer domain ids"):
            performance_matrix(cache, layer, [0, 1], labels)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 9), st.integers(1, 8),
       st.sampled_from([1e-20, 1.0, 1e15]))
def test_perf_row_matches_masked_mean(seed, n_tokens, hidden, n_domains, scale):
    """Bit for bit the direct formula: f64 errors summed per token, then
    `.mean()` of each domain's masked errors."""
    rng = np.random.default_rng(seed)
    out = (rng.standard_normal((n_tokens, hidden)) * scale).astype(np.float32)
    full = (rng.standard_normal((n_tokens, hidden)) * scale).astype(np.float32)
    n_domains = min(n_domains, n_tokens)
    labels = rng.integers(0, n_domains, n_tokens)
    labels[rng.permutation(n_tokens)[:n_domains]] = np.arange(n_domains)  # none empty
    labels = labels.astype(rng.choice([np.int8, np.int32, np.int64]))
    per_token = ((out.astype(np.float64) - full.astype(np.float64)) ** 2).sum(axis=1)
    want = np.array([per_token[labels == k].mean() for k in range(int(labels.max()) + 1)])
    domains = _domains(labels, n_tokens)
    assert _perf_row(out, full, domains).tobytes() == want.tobytes()
    assert list(domains.sizes) == [int((labels == k).sum()) for k in range(want.size)]


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 6), st.integers(1, 12),
       st.sampled_from([1e-20, 1.0, 1e15]), st.booleans())
def test_domain_slices_match_masks(seed, n_tokens, width, n_domains, scale, skip_id):
    """Each domain's slice of the one token order holds the tokens its mask
    selects, in the same order: the per-domain error sums and the heatmap
    rows evaluate_plan takes from it equal the masked formulas bit for bit.
    Labels that skip a domain id fail by naming it."""
    rng = np.random.default_rng(seed)
    pred = (rng.standard_normal((n_tokens, width)) * scale).astype(np.float32)
    target = (rng.standard_normal((n_tokens, width)) * scale).astype(np.float32)
    weights = rng.random((n_tokens, width))
    n_domains = min(n_domains, n_tokens)
    labels = rng.integers(0, n_domains, n_tokens)
    labels[rng.permutation(n_tokens)[:n_domains]] = np.arange(n_domains)  # none empty
    if skip_id:
        missing = int(rng.integers(0, n_domains))
        labels[labels >= missing] += 1
    labels = labels.astype(rng.choice([np.int8, np.uint8, np.int32, np.int64]))
    masks = [labels == k for k in range(int(labels.max()) + 1)]
    if skip_id:
        assert not masks[missing].any()
        with pytest.raises(ValueError, match=f"domain {missing} has no tokens"):
            _domains(labels, n_tokens)
        return
    domains = _domains(labels, n_tokens)
    per_token = ((pred.astype(np.float64) - target.astype(np.float64)) ** 2).sum(axis=1)
    got_per_token, got_sums = _domain_errors(pred, target, domains)
    assert got_per_token.tobytes() == per_token.tobytes()
    assert got_sums.tobytes() == np.array([per_token[m].sum() for m in masks]).tobytes()
    assert domains.sizes.tobytes() == np.array([m.sum() for m in masks]).tobytes()
    heatmap = np.stack([weights[domains.order[span]].mean(axis=0) for span in domains.spans])
    want = np.stack([weights[m].mean(axis=0) for m in masks])
    assert heatmap.tobytes() == want.tobytes()
    for span, mask in zip(domains.spans, masks):
        assert np.array_equal(domains.order[span], np.flatnonzero(mask))


def test_perf_candidate_validation(rng):
    layer = make_random_layer(rng, n=3)
    cache = make_random_cache(rng, layer, n_tokens=6)
    labels = np.zeros(6, dtype=int)
    with pytest.raises(ValueError, match="duplicates"):
        performance_matrix(cache, layer, [0, 0], labels)
    with pytest.raises(ValueError, match="out of range"):
        performance_matrix(cache, layer, [0, 3], labels)


def test_perf_invariants_enforced():
    with pytest.raises(ValueError, match="nonnegative"):
        PerformanceMatrix(
            errors=np.array([[-1.0, 2.0]]), domain_sizes=[3, 3], candidate_ids=[0]
        )
    with pytest.raises(ValueError, match="at least one token"):
        PerformanceMatrix(
            errors=np.array([[1.0, 2.0]]), domain_sizes=[3, 0], candidate_ids=[0]
        )

