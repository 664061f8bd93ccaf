"""Differential tests of the subset-scoring path.

The combine kernel, the per-search loss scorer and the two subset searches
are compared bit for bit with the per-subset formula they replaced, which
applies every kept expert anew for every kept set. That formula lives only
here, as the oracle.
"""

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_prune import ExpertTransform, prune_enum, prune_gvp, reconstruction_loss
from moe_prune.metrics import _LossScorer
from moe_prune.moe_sim import _combine, forward_subset_batch, subset_gate_weights

from conftest import make_random_cache, make_random_layer


def oracle_forward(layer, kept, inputs):
    idx = np.array(sorted(kept))
    logits = inputs @ layer.router[idx].T  # per kept set, never sliced from a larger product
    order = np.argsort(-logits, axis=1, kind="stable")[:, : min(layer.top_k, idx.size)]
    rows = np.arange(inputs.shape[0])[:, None]
    selected = logits[rows, order]
    selected -= selected.max(axis=1, keepdims=True)
    top = np.exp(selected)
    top /= top.sum(axis=1, keepdims=True)
    weights = np.zeros_like(logits)
    weights[rows, order] = top
    out = np.zeros_like(inputs)
    for col, e in enumerate(idx):
        out += weights[:, col : col + 1] * layer.experts[int(e)].apply(inputs)
    return out


def oracle_loss(cache, layer, kept):
    pred = oracle_forward(layer, kept, cache.inputs)
    diff = pred.astype(np.float64) - cache.outputs_full.astype(np.float64)
    return float(np.sum(diff * diff))


def oracle_greedy(cache, layer, size):
    current = list(range(layer.n_experts))
    removed, step_losses = [], []
    while len(current) > size:
        losses = [oracle_loss(cache, layer, [j for j in current if j != i]) for i in current]
        best = int(np.argmin(losses))  # first minimum: ties remove the lower index
        removed.append(current.pop(best))
        step_losses.append(losses[best])
    return current, removed, step_losses, oracle_loss(cache, layer, current)


@st.composite
def layers_and_caches(draw, max_n=8, max_tokens=200):
    n = draw(st.integers(1, max_n))
    top_k = draw(st.integers(1, n))
    hidden = draw(st.integers(1, 8))
    ff = draw(st.integers(1, 12))
    n_tokens = draw(st.integers(1, max_tokens))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = make_random_layer(rng, n=n, hidden=hidden, ff=ff, top_k=top_k)
    return layer, make_random_cache(rng, layer, n_tokens=n_tokens)


def kept_sets(n):
    return st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=10)


@settings(deadline=None, max_examples=60)
@given(layers_and_caches(), st.data())
def test_scorer_matches_per_subset_formula(layer_cache, data):
    layer, cache = layer_cache
    n = layer.n_experts
    drawn = data.draw(kept_sets(n))
    small = [set(s) for size in (1, 2) for s in itertools.combinations(range(n), size)]
    scorer = _LossScorer(cache, layer)
    for kept in drawn + small:
        want = oracle_loss(cache, layer, kept)
        assert scorer.loss(kept) == want
        assert reconstruction_loss(cache, layer, kept) == want
        if data.draw(st.booleans()):
            scorer.release(data.draw(st.integers(0, n - 1)))
    assert scorer.loss(range(n)) == 0.0
    assert reconstruction_loss(cache, layer, range(n)) == 0.0


@settings(deadline=None, max_examples=60)
@given(layers_and_caches(), st.data())
def test_combine_kernel_matches_per_subset_formula(layer_cache, data):
    layer, cache = layer_cache
    n = layer.n_experts
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_rows = data.draw(st.integers(1, 64))
    x = np.random.default_rng(seed).standard_normal((n_rows, layer.hidden_dim)).astype(np.float32)
    outputs = [expert.apply(x) for expert in layer.experts]
    for kept in data.draw(kept_sets(n)) + [{0}, set(range(min(n, 2))), set(range(n))]:
        want = oracle_forward(layer, kept, x)
        assert np.array_equal(forward_subset_batch(layer, kept, x), want)
        weights, idx = subset_gate_weights(layer, kept, x)
        assert np.array_equal(_combine(weights, idx, outputs.__getitem__, layer.hidden_dim), want)
    assert np.array_equal(cache.outputs_full, oracle_forward(layer, range(n), cache.inputs))


@settings(deadline=None, max_examples=40)
@given(layers_and_caches(max_n=7, max_tokens=64), st.data())
def test_exhaustive_search_matches_oracle_loop(layer_cache, data):
    layer, cache = layer_cache
    n = layer.n_experts
    r = data.draw(st.integers(1, n))
    plan = prune_enum(cache, layer, r, mode="exhaustive")
    subsets = list(itertools.combinations(range(n), r))
    losses = [oracle_loss(cache, layer, s) for s in subsets]
    best = int(np.argmin(losses))  # first minimum: the lexicographically first subset
    assert plan.diagnostics["subsets"].tolist() == [list(s) for s in subsets]
    assert plan.diagnostics["losses"].tolist() == losses
    assert plan.diagnostics["best_loss"] == losses[best]
    assert plan.kept == list(subsets[best])


@settings(deadline=None, max_examples=40)
@given(layers_and_caches(max_n=7, max_tokens=64), st.data())
def test_greedy_search_matches_oracle_loop(layer_cache, data):
    layer, cache = layer_cache
    r = data.draw(st.integers(1, layer.n_experts))
    plan = prune_enum(cache, layer, r, mode="greedy")
    kept, removed, step_losses, final_loss = oracle_greedy(cache, layer, r)
    assert plan.kept == kept
    assert plan.diagnostics["removed_order"].tolist() == removed
    assert plan.diagnostics["step_losses"].tolist() == step_losses
    assert plan.diagnostics["best_loss"] == final_loss


def watch_outputs(monkeypatch):
    """From now on, weak references to every expert output computed, and the
    largest number of them alive at once, counted at each apply."""
    refs, peak = [], [0]
    apply = ExpertTransform.apply

    def counting_apply(self, x):
        out = apply(self, x)
        refs.append(weakref.ref(out))
        peak[0] = max(peak[0], sum(ref() is not None for ref in refs))
        return out

    monkeypatch.setattr(ExpertTransform, "apply", counting_apply)
    return refs, peak


@pytest.mark.parametrize("search", [
    lambda cache, layer: prune_enum(cache, layer, 1, mode="exhaustive"),
    lambda cache, layer: prune_gvp(cache, layer, 3, m=1),
], ids=["enum_exhaustive_r1", "gvp_m1"])
def test_single_expert_search_holds_one_output(rng, monkeypatch, search):
    layer = make_random_layer(rng, n=8)
    cache = make_random_cache(rng, layer)
    refs, peak = watch_outputs(monkeypatch)
    search(cache, layer)
    assert len(refs) == 8
    assert peak[0] == 1


@pytest.mark.parametrize("mode, r", [("exhaustive", 3), ("greedy", 2)])
def test_search_applies_each_expert_once(rng, monkeypatch, mode, r):
    layer = make_random_layer(rng, n=6)
    cache = make_random_cache(rng, layer)
    refs, _ = watch_outputs(monkeypatch)
    prune_enum(cache, layer, r, mode=mode)
    assert len(refs) == 6
