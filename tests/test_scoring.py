"""Differential tests of the subset-scoring path.

The batched routing kernel (set by set), the pruned-layer forward, the
per-search loss scorer and the two subset searches (at the default batch
size, one set per batch and unlimited batches) are compared bit for bit
with the per-subset formula they replaced, which routes token-major and
applies every kept expert anew for every kept set, also on layers whose
logits tie exactly. That formula lives only here, as the oracle.
"""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moe_prune import (
    ExpertTransform,
    MoELayer,
    cache_from_inputs,
    load_plan,
    performance_matrix,
    prune_enum,
    prune_gvp,
    prune_mop,
    reconstruction_loss,
    save_plan,
)
from moe_prune import metrics, moe_sim
from moe_prune.metrics import _LossScorer
from moe_prune.prune import _first_min
from moe_prune.moe_sim import _combine, _route_batch, _sorted_kept, forward_subset_batch

from conftest import make_random_cache, make_random_layer


def oracle_weights(layer, kept, inputs):
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
    return weights, idx


def oracle_forward(layer, kept, inputs):
    weights, idx = oracle_weights(layer, kept, inputs)
    out = np.zeros_like(inputs)
    for col, e in enumerate(idx):
        out += weights[:, col : col + 1] * layer.experts[int(e)].apply(inputs)
    return out


def oracle_loss(cache, layer, kept):
    pred = oracle_forward(layer, kept, cache.inputs)
    diff = pred.astype(np.float64) - cache.outputs_full.astype(np.float64)
    return float(np.sum(diff * diff))


def score_one(scorer, kept, n):
    """The scorer's loss of one kept set, scored as a batch of one."""
    return scorer.losses(np.array([_sorted_kept(kept, n)], dtype=np.intp))[0]


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
def layers_and_caches(draw, max_n=8, max_tokens=200, min_n=1):
    n = draw(st.integers(min_n, max_n))
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
        assert score_one(scorer, kept, n) == want
        assert reconstruction_loss(cache, layer, kept) == want
    assert score_one(scorer, range(n), n) == 0.0
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
        idx = _sorted_kept(kept, n)
        weights = _route_batch(layer, np.array([idx]), x)[0]
        assert np.array_equal(_combine(layer, weights, idx, outputs.__getitem__), want)
    assert np.array_equal(cache.outputs_full, oracle_forward(layer, range(n), cache.inputs))


def check_exhaustive_search(cache, layer, r):
    plan = prune_enum(cache, layer, r, mode="exhaustive")
    subsets = list(itertools.combinations(range(layer.n_experts), r))
    losses = [oracle_loss(cache, layer, s) for s in subsets]
    best = int(np.argmin(losses))  # first minimum: the lexicographically first subset
    assert plan.diagnostics["subsets"].tolist() == [list(s) for s in subsets]
    assert plan.diagnostics["losses"].tolist() == losses
    assert plan.diagnostics["best_loss"] == losses[best]
    assert plan.kept == list(subsets[best])


def check_greedy_search(cache, layer, r):
    plan = prune_enum(cache, layer, r, mode="greedy")
    kept, removed, step_losses, final_loss = oracle_greedy(cache, layer, r)
    assert plan.kept == kept
    assert plan.diagnostics["removed_order"].tolist() == removed
    assert plan.diagnostics["step_losses"].tolist() == step_losses
    assert plan.diagnostics["best_loss"] == final_loss
    return plan


@settings(deadline=None, max_examples=40)
@given(layers_and_caches(max_n=7, max_tokens=64), st.data())
def test_exhaustive_search_matches_oracle_loop(layer_cache, data):
    layer, cache = layer_cache
    check_exhaustive_search(cache, layer, data.draw(st.integers(1, layer.n_experts)))


@settings(deadline=None, max_examples=40)
@given(layers_and_caches(max_n=7, max_tokens=64), st.data())
def test_greedy_search_matches_oracle_loop(layer_cache, data):
    layer, cache = layer_cache
    check_greedy_search(cache, layer, data.draw(st.integers(1, layer.n_experts)))


@st.composite
def tied_layers_and_caches(draw, max_unique=4, max_copies=3, max_tokens=64, min_n=1):
    """Layers whose experts come in exact copies (router row and weights),
    placed at random indices, so copies' logits and outputs tie exactly.
    With integer router rows and inputs every logit is an exact integer,
    so distinct experts tie often too. top_k is n half the time, making
    top_k >= |kept| for every kept set."""
    copies = draw(st.lists(st.integers(1, max_copies), min_size=1, max_size=max_unique))
    copies[0] += max(0, min_n - sum(copies))
    n = sum(copies)
    top_k = draw(st.one_of(st.just(n), st.integers(1, n)))
    hidden = draw(st.integers(1, 6))
    n_tokens = draw(st.integers(1, max_tokens))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = make_random_layer(rng, n=len(copies), hidden=hidden, ff=draw(st.integers(1, 8)), top_k=1)
    source = rng.permutation(np.repeat(np.arange(len(copies)), copies))
    router = rng.integers(-2, 3, base.router.shape) if integer else base.router
    layer = MoELayer(
        router=router[source],
        experts=[ExpertTransform(base.experts[u].w_in, base.experts[u].w_out) for u in source],
        top_k=top_k,
    )
    inputs = rng.standard_normal((n_tokens, hidden))
    if integer:
        inputs = rng.integers(-3, 4, inputs.shape)
    return layer, cache_from_inputs(layer, inputs.astype(np.float32))


@settings(deadline=None, max_examples=60)
@given(tied_layers_and_caches(), st.data())
def test_tied_routing_matches_per_subset_formula(layer_cache, data):
    layer, cache = layer_cache
    n = layer.n_experts
    small = [set(s) for size in (1, 2) for s in itertools.combinations(range(n), size)]
    scorer = _LossScorer(cache, layer)
    for kept in data.draw(kept_sets(n)) + small + [set(range(n))]:
        want_weights, want_idx = oracle_weights(layer, kept, cache.inputs)
        idx = _sorted_kept(kept, n)
        weights = _route_batch(layer, np.array([idx]), cache.inputs)[0].T
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(weights, want_weights)
        assert np.array_equal(
            forward_subset_batch(layer, kept, cache.inputs),
            oracle_forward(layer, kept, cache.inputs),
        )
        want = oracle_loss(cache, layer, kept)
        assert score_one(scorer, kept, n) == want
        assert reconstruction_loss(cache, layer, kept) == want
    assert score_one(scorer, range(n), n) == 0.0


@settings(deadline=None, max_examples=40)
@given(tied_layers_and_caches(max_unique=3, max_copies=2, max_tokens=32), st.data())
def test_tied_searches_match_oracle_loop(layer_cache, data):
    layer, cache = layer_cache
    r = data.draw(st.integers(1, layer.n_experts))
    check_exhaustive_search(cache, layer, r)
    check_greedy_search(cache, layer, r)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_route_batch_matches_per_subset_formula_set_by_set(data):
    """Every set of a batch gets the weights the per-subset formula gives it
    alone, through the one-column product (s = 1) and the pairwise sum over
    8 or more selected logits (k >= 8), also on layers whose logits tie."""
    branch = data.draw(st.sampled_from(["one_column", "pairwise", "any"]))
    min_n = 8 if branch == "pairwise" else 1
    if data.draw(st.booleans()):
        layer, cache = data.draw(tied_layers_and_caches(min_n=min_n))
    else:
        layer, cache = data.draw(layers_and_caches(max_n=12, max_tokens=64, min_n=min_n))
    n = layer.n_experts
    if branch == "pairwise":
        top_k, s = data.draw(st.integers(8, n)), data.draw(st.integers(8, n))
    else:
        top_k = data.draw(st.integers(1, n))
        s = 1 if branch == "one_column" else data.draw(st.integers(1, n))
    layer = MoELayer(router=layer.router, experts=layer.experts, top_k=top_k)
    n_sets = data.draw(st.integers(1, 6))
    rows = [sorted(data.draw(st.permutations(range(n)))[:s]) for _ in range(n_sets)]
    dtype = data.draw(st.sampled_from([np.int32, np.intp]))
    weights = _route_batch(layer, np.array(rows, dtype=dtype), cache.inputs)
    assert weights.shape == (n_sets, s, cache.n_tokens)
    for got, kept in zip(weights, rows):
        want, _ = oracle_weights(layer, kept, cache.inputs)
        assert np.array_equal(got, want.T)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_gathered_combine_matches_dense_combine(data):
    """A set of two or more experts is combined from each token's top-k
    store rows, not from all of its `_combine` terms. Its squared errors are
    still bit for bit those of `_combine` on `_route_batch`'s dense weights,
    at top_k 1, 2, 3, 6 and 8 and s from 2 to n (s <= top_k too), on logits
    that tie and on weights that underflow to 0. A batch with a non-finite
    weight (an overflowing router row), or one whose call keeps an output
    with a non-finite value (an overflowing expert), takes `_combine`
    itself, every set of it."""
    top_k = data.draw(st.sampled_from([1, 2, 3, 6, 8]))
    if data.draw(st.booleans()):
        layer, cache = data.draw(tied_layers_and_caches(min_n=max(2, top_k)))
    else:
        layer, cache = data.draw(layers_and_caches(max_n=12, max_tokens=64, min_n=max(2, top_k)))
    n = layer.n_experts
    # a scale of 1e3 spreads the logits so far that many weights underflow to 0
    router = layer.router * data.draw(st.sampled_from([1.0, 1e3]))
    experts = list(layer.experts)
    hazard, bad = data.draw(st.sampled_from(["none", "logits", "output"])), data.draw(
        st.integers(0, n - 1))
    if hazard == "logits" and np.abs(router[bad]).max() > 0:
        router[bad] /= np.abs(router[bad]).max()
        router[bad] *= 3e38
    if hazard == "output" and np.abs(experts[bad].w_out).max() > 0:
        w_out = experts[bad].w_out / np.abs(experts[bad].w_out).max()
        experts[bad] = ExpertTransform(experts[bad].w_in, w_out * np.float32(3e38))
    layer = MoELayer(router=router, experts=experts, top_k=top_k)
    s = data.draw(st.integers(2, n))
    n_sets = data.draw(st.integers(1, 6))
    rows = [sorted(data.draw(st.permutations(range(n)))[:s]) for _ in range(n_sets)]
    batch = np.array(rows, dtype=np.intp)

    errors, combined = [], []
    sq_error, combine = metrics._sq_error, metrics._combine

    def recording_sq_error(pred, target):
        errors.append(sq_error(pred, target))
        return errors[-1]

    def recording_combine(layer, weights, idx, output):
        combined.append(list(idx))
        return combine(layer, weights, idx, output)

    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_sq_error", recording_sq_error)
        patch.setattr(metrics, "_combine", recording_combine)
        losses = _LossScorer(cache, layer).losses(batch)
        assert len(errors) == len(rows)  # one routing batch, one squared error per set
        patch.undo()
        outputs = [expert.apply(cache.inputs) for expert in layer.experts]
        weights = _route_batch(layer, batch, cache.inputs)
        target = cache.outputs_full.astype(np.float64)
        for got, loss, w, idx in zip(errors, losses, weights, rows):
            want = sq_error(combine(layer, w, idx, outputs.__getitem__), target)
            assert got.tobytes() == want.tobytes()
            assert loss.tobytes() == want.sum().tobytes()
    finite = np.isfinite(weights).all() and all(
        np.isfinite(outputs[e]).all() for e in set().union(*rows))
    assert combined == ([] if finite else rows)


@pytest.mark.parametrize("budget", [1, 2**62], ids=["one_set_per_batch", "unlimited"])
@settings(deadline=None, max_examples=25)
@given(
    layer_cache=st.one_of(
        layers_and_caches(max_n=7, max_tokens=64),
        tied_layers_and_caches(max_unique=3, max_copies=2, max_tokens=32),
    ),
    data=st.data(),
)
def test_searches_match_oracle_loops_at_any_batch_size(budget, layer_cache, data):
    layer, cache = layer_cache
    r = data.draw(st.integers(1, layer.n_experts))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_BATCH_LOGITS", budget)
        check_exhaustive_search(cache, layer, r)
        check_greedy_search(cache, layer, r)


@settings(deadline=None, max_examples=40)
@given(
    st.one_of(
        layers_and_caches(max_n=7, max_tokens=64),
        tied_layers_and_caches(max_unique=3, max_copies=2, max_tokens=32),
    ),
    st.data(),
)
def test_greedy_best_loss_is_its_last_step_loss(layer_cache, data):
    """The greedy search takes its final loss from its last step instead of
    scoring the final set again: bit for bit that step's loss, and the loss
    the oracle loop scores afresh. With r = n no step runs, and the full set
    scores 0."""
    layer, cache = layer_cache
    r = data.draw(st.integers(1, layer.n_experts))
    diag = check_greedy_search(cache, layer, r).diagnostics
    if r == layer.n_experts:
        assert diag["step_losses"].size == 0 and diag["best_loss"] == 0.0
    else:
        assert np.float64(diag["best_loss"]).tobytes() == diag["step_losses"][-1].tobytes()


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_one_expert_scoring_matches_route_and_combine(data):
    """A one-expert set skips the routing kernel's sort, gather and scatter
    and the scorer's combine. Its weights and loss are still those of the
    per-subset route-plus-combine formula, for expert copies whose logits
    tie too; and where a router row scaled to the edge of float32 makes
    some of its logits overflow (to +-inf, or NaN where those meet), the
    loss is NaN on both paths."""
    layer, cache = data.draw(st.one_of(layers_and_caches(max_tokens=64), tied_layers_and_caches()))
    n = layer.n_experts
    if data.draw(st.booleans()):
        router = layer.router.copy()
        row = router[data.draw(st.integers(0, n - 1))]
        if np.abs(row).max() > 0:
            row /= np.abs(row).max()
            row *= data.draw(st.sampled_from([1e36, 3e38]))
        layer = MoELayer(router=router, experts=layer.experts, top_k=layer.top_k)
    singles = np.arange(n).reshape(n, 1)
    with np.errstate(all="ignore"):
        weights = _route_batch(layer, singles, cache.inputs)
        losses = _LossScorer(cache, layer).losses(singles)
        for e in range(n):
            want_weights, _ = oracle_weights(layer, [e], cache.inputs)
            assert np.array_equal(weights[e], want_weights.T, equal_nan=True)
            want = oracle_loss(cache, layer, [e])
            overflowed = not np.isfinite(cache.inputs @ layer.router[[e]].T).all()
            for got in (losses[e], reconstruction_loss(cache, layer, [e])):
                assert np.isnan(got) == np.isnan(want) == overflowed
                if not overflowed:
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("prune", [
    lambda cache, layer: prune_mop(cache, layer, 5, m=1, kmeans_seed=3),
    lambda cache, layer: prune_gvp(cache, layer, 3, m=1),
], ids=["mop", "gvp"])
def test_one_expert_stage1_sorts_and_combines_nothing(rng, monkeypatch, prune):
    """Stage 1 at m = 1 routes each expert alone, with no top-k in the
    routing kernel, and scores it without a combine."""
    layer = make_random_layer(rng, n=8)
    cache = make_random_cache(rng, layer)
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # the routing kernel's top-k; the variability rankings call their own import
    monkeypatch.setattr(moe_sim, "_top_k", counting("top_k", moe_sim._top_k))
    monkeypatch.setattr(metrics, "_route_batch", counting("route", metrics._route_batch))
    monkeypatch.setattr(metrics, "_combine", counting("combine", metrics._combine))
    plan = prune(cache, layer)
    assert plan.diagnostics["stage1_mode"] == "exhaustive"
    assert calls == {"route": 8}


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_searches_route_once_per_batch(rng, monkeypatch, mode):
    """A search routes a whole batch of kept sets per routing call
    (`_route_ranked`, or `_route_batch` for one-expert sets and for a batch
    scored densely), never one call per subset."""
    layer = make_random_layer(rng, n=8)
    cache = make_random_cache(rng, layer)
    shapes = []

    def counting(route):
        def wrapper(layer, idx, inputs):
            shapes.append(idx.shape)
            return route(layer, idx, inputs)
        return wrapper

    monkeypatch.setattr(metrics, "_route_ranked", counting(metrics._route_ranked))
    monkeypatch.setattr(metrics, "_route_batch", counting(metrics._route_batch))
    plan = prune_enum(cache, layer, 4, mode=mode)

    def batches(n_sets, s):  # the calls that route n_sets kept sets of size s
        per_batch = metrics._BATCH_LOGITS // (cache.n_tokens * s)
        assert per_batch > 1
        return [(min(per_batch, n_sets - i), s) for i in range(0, n_sets, per_batch)]

    if mode == "exhaustive":  # one block per first element: C(7 - first, 3) subsets
        want = [call for first in range(5) for call in batches(math.comb(7 - first, 3), 4)]
        scored = len(plan.diagnostics["losses"])
    else:  # one step per removal; the last step scored the final set
        want = [call for m in range(8, 4, -1) for call in batches(m, m - 1)]
        scored = 8 + 7 + 6 + 5
    assert shapes == want
    assert len(shapes) < scored / 4


def test_scorer_checks_once_per_search_and_kept_sets_per_call(rng, monkeypatch):
    layer = make_random_layer(rng, n=8)
    cache = make_random_cache(rng, layer)
    calls = collections.Counter()
    for name in ("_as_f32",):
        def counting(*args, _check=getattr(moe_sim, name), _name=name):
            calls[_name] += 1
            return _check(*args)

        monkeypatch.setattr(moe_sim, name, counting)
    plan = prune_enum(cache, layer, 4, mode="exhaustive")
    assert len(plan.diagnostics["losses"]) == 70
    # the search checks nothing per subset with these: cache and layer were checked when made
    assert not calls, calls

    for kept, problem in [
        ([], "nonempty"), ([2, 5, 2], "unique"), ([0, 8], "out of range"), ([-1, 3], "out of range"),
    ]:
        with pytest.raises(ValueError, match=problem):
            reconstruction_loss(cache, layer, kept)
    want = reconstruction_loss(cache, layer, [1, 4, 6])
    assert reconstruction_loss(cache, layer, {6, 1, 4}) == want
    assert reconstruction_loss(cache, layer, [6, 4, 1]) == want
    assert reconstruction_loss(cache, layer, (e for e in (4, 6, 1))) == want


def watch_store(monkeypatch):
    """From now on, every expert applied to a search's inputs, in order, and
    the largest number of outputs the scorer's store held at once: the
    blocks of the store each output is written into, or one for an output
    that becomes the store."""
    applied, peak = [], [0]
    apply = ExpertTransform.apply

    def counting_apply(self, x, out=None):
        applied.append(self)
        peak[0] = max(peak[0], 1 if out is None else out.base.nbytes // out.nbytes)
        return apply(self, x, out)

    monkeypatch.setattr(ExpertTransform, "apply", counting_apply)
    return applied, peak


@pytest.mark.parametrize("search", [
    lambda cache, layer: prune_enum(cache, layer, 1, mode="exhaustive"),
    lambda cache, layer: prune_gvp(cache, layer, 3, m=1),
], ids=["enum_exhaustive_r1", "gvp_m1"])
def test_single_expert_search_holds_one_output(rng, monkeypatch, search):
    layer = make_random_layer(rng, n=8)
    cache = make_random_cache(rng, layer)
    applied, peak = watch_store(monkeypatch)
    search(cache, layer)
    assert len(applied) == 8
    assert peak[0] == 1


def test_two_expert_loss_stores_two_outputs(rng, monkeypatch):
    """`reconstruction_loss` sizes the store by the experts it keeps, not by
    the layer's: two of 64 experts hold two outputs. The traced peak of
    the call stays far below the 64 blocks a store of every output takes."""
    layer = make_random_layer(rng, n=64, hidden=32, ff=16)
    cache = make_random_cache(rng, layer, n_tokens=512)
    block = cache.outputs_full.nbytes
    want = reconstruction_loss(cache, layer, [5, 40])  # warm every cache first
    tracemalloc.start()
    try:
        assert reconstruction_loss(cache, layer, [5, 40]) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * block, f"{peak / block:.1f} output blocks"
    applied, held = watch_store(monkeypatch)
    assert reconstruction_loss(cache, layer, [5, 40]) == want
    assert applied == [layer.experts[5], layer.experts[40]]
    assert held[0] == 2


@pytest.mark.parametrize("mode, r", [("exhaustive", 3), ("greedy", 2)])
def test_search_applies_each_expert_once(rng, monkeypatch, mode, r):
    layer = make_random_layer(rng, n=6)
    cache = make_random_cache(rng, layer)
    applied, _ = watch_store(monkeypatch)
    prune_enum(cache, layer, r, mode=mode)
    assert len(applied) == 6


@pytest.mark.parametrize("m, budget, mode", [
    (0, 100, "none"), (1, 100, "exhaustive"), (2, 100, "exhaustive"), (2, 10, "greedy"),
])
def test_mop_applies_each_expert_once(rng, monkeypatch, m, budget, mode):
    """Stage 1 hands the squared errors of its outputs to the performance
    matrix, which then equals one computed from fresh applies, bit for bit.
    A squared error is computed once per kept set scored and once per
    expert, except that an expert scored alone (m = 1) shares one."""
    layer = make_random_layer(rng, n=8)
    cache = make_random_cache(rng, layer)
    index = {id(expert): e for e, expert in enumerate(layer.experts)}
    applied, squared = [], []
    apply, sq_error = ExpertTransform.apply, metrics._sq_error

    def counting_apply(self, x, out=None):
        if x is cache.inputs:
            applied.append(index[id(self)])
        return apply(self, x, out)

    def counting_sq_error(pred, target):
        squared.append(pred.shape)
        return sq_error(pred, target)

    monkeypatch.setattr(ExpertTransform, "apply", counting_apply)
    monkeypatch.setattr(metrics, "_sq_error", counting_sq_error)
    plan = prune_mop(cache, layer, 5, m=m, kmeans_seed=3, budget=budget)
    monkeypatch.setattr(metrics, "_sq_error", sq_error)
    assert sorted(applied) == list(range(8))
    assert plan.diagnostics["stage1_mode"] == mode
    # one per kept set scored (8 experts alone, C(8, 2) pairs, or greedy steps
    # of 8, 7, ..., 3 sets) and one per expert, unless it was scored alone
    sets = {"none": 0, "exhaustive": 8 if m == 1 else 28, "greedy": 33}[mode]
    assert squared == [cache.outputs_full.shape] * (sets + (0 if m == 1 else 8))
    candidates = plan.diagnostics["candidate_ids"]
    perf = performance_matrix(cache, layer, candidates, plan.diagnostics["labels"])
    assert perf.errors.tobytes() == plan.diagnostics["perf_errors"].tobytes()


def overflowing_router(layer, rows):
    """`layer` with each router row in `rows` scaled to a largest entry of
    3e38, finite in float32: every logit of those experts overflows."""
    router = layer.router.copy()
    router[rows] /= np.abs(router[rows]).max(axis=1, keepdims=True)
    router[rows] *= 3e38
    return MoELayer(router=router, experts=layer.experts, top_k=layer.top_k)


@pytest.mark.parametrize("search", [
    lambda cache, layer: prune_enum(cache, layer, 2, mode="exhaustive"),
    lambda cache, layer: prune_enum(cache, layer, 2, mode="greedy"),
    lambda cache, layer: prune_gvp(cache, layer, 3, m=2),
    lambda cache, layer: prune_gvp(cache, layer, 3, m=2, budget=1),
    lambda cache, layer: prune_mop(cache, layer, 3, m=1),
    lambda cache, layer: prune_mop(cache, layer, 3, m=2, budget=1),
], ids=["exhaustive", "greedy", "gvp-exhaustive", "gvp-greedy", "mop-exhaustive", "mop-greedy"])
def test_all_nan_search_fails_by_name(rng, search):
    layer = make_random_layer(rng, n=4)
    cache = make_random_cache(rng, layer)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="NaN or infinite reconstruction loss"):
            search(cache, overflowing_router(layer, [0, 1, 2, 3]))


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_finite_loss_wins_over_nan(rng, tmp_path, mode):
    """Every subset that keeps expert 2 scores NaN; the best finite subset
    wins, and the plan, NaN losses included, survives its archive."""
    layer = make_random_layer(rng, n=4)
    cache = make_random_cache(rng, layer)
    with np.errstate(over="ignore", invalid="ignore"):
        plan = prune_enum(cache, overflowing_router(layer, [2]), 2, mode=mode)
        want = prune_enum(cache, layer, 2, mode="exhaustive")
    assert 2 not in plan.kept
    assert math.isfinite(plan.diagnostics["best_loss"])
    if mode == "exhaustive":
        losses = plan.diagnostics["losses"]
        assert plan.diagnostics["best_loss"] == np.nanmin(losses)
        assert np.isnan(losses).sum() == 3  # the three pairs that keep expert 2
        kept_2 = (plan.diagnostics["subsets"] == 2).any(axis=1)
        assert np.array_equal(np.isnan(losses), kept_2)
        assert np.array_equal(losses[~kept_2], want.diagnostics["losses"][~kept_2])
    save_plan(plan, tmp_path / "plan")
    loaded = load_plan(tmp_path / "plan")
    assert (loaded.kept, loaded.provenance) == (plan.kept, plan.provenance)
    assert loaded.diagnostics.keys() == plan.diagnostics.keys()
    for key, value in plan.diagnostics.items():
        if isinstance(value, np.ndarray):
            assert loaded.diagnostics[key].tobytes() == value.tobytes(), key
        else:
            assert loaded.diagnostics[key] == value, key


def oracle_first_min(losses):
    """The strict-`<` scan both searches ran before `_first_min`: -1 when no
    loss is below +inf."""
    best_i, best = -1, math.inf
    for i, loss in enumerate(losses.tolist()):
        if loss < best:
            best_i, best = i, loss
    return best_i


@settings(deadline=None, max_examples=300)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, math.nan]), st.floats()),
        min_size=1, max_size=12,
    ),
    st.integers(1, 64),
)
@example([math.nan, math.nan], 3)
@example([math.inf, math.nan, math.inf], 1)
@example([0.0, -0.0, 1.0, -0.0], 2)
def test_first_min_matches_strict_scan(values, size):
    """Exact ties, +-0.0, NaN and +inf: the index the scan kept, or, where it
    kept none, the error the searches raised."""
    losses = np.array(values, dtype=np.float64)
    want = oracle_first_min(losses)
    if want >= 0:
        assert _first_min(losses, size) == want
        return
    with pytest.raises(ValueError) as err:
        _first_min(losses, size)
    assert str(err.value) == (
        f"every candidate {size}-expert subset has a NaN or infinite reconstruction loss: "
        "the router logits or expert outputs overflow float32"
    )
