import collections
import hashlib
import math
import warnings

import numpy as np
import pytest

from moe_prune import (
    CalibrationCache,
    ExpertTransform,
    MoELayer,
    PlantedSpec,
    cache_from_inputs,
    domain_centroids,
    generate_calibration,
    generate_layer,
    kmeans,
    load_cache,
    load_layer,
    save_cache,
    save_layer,
)
from moe_prune import cli, moe_sim
from moe_prune.moe_sim import _gate, _route_batch, _sorted_kept, forward_subset_batch
from moe_prune.tensor_store import ArchiveError, read_archive, write_archive

from conftest import make_planted, make_random_cache, make_random_layer


# ---------------------------------------------------------------------------
# scalar reference implementations (independent oracles)


def oracle_gate(layer, x):
    logits = [sum(float(w) * float(v) for w, v in zip(row, x)) for row in layer.router]
    m = max(logits)
    exps = [math.exp(l - m) for l in logits]
    s = sum(exps)
    return [e / s for e in exps]


def oracle_expert(layer, i, x):
    expert = layer.experts[i]
    hidden = [
        max(0.0, sum(float(w) * float(v) for w, v in zip(row, x)))
        for row in expert.w_in
    ]
    return [sum(float(w) * float(h) for w, h in zip(row, hidden)) for row in expert.w_out]


def oracle_subset(layer, kept, x):
    kept = sorted(kept)
    logits = [
        sum(float(w) * float(v) for w, v in zip(layer.router[i], x)) for i in kept
    ]
    k_sel = min(layer.top_k, len(kept))
    order = sorted(range(len(kept)), key=lambda j: (-logits[j], j))[:k_sel]
    m = max(logits[j] for j in order)
    exps = {j: math.exp(logits[j] - m) for j in order}
    total = sum(exps.values())
    out = [0.0] * layer.hidden_dim
    for j in sorted(order):
        expert_out = oracle_expert(layer, kept[j], x)
        w = exps[j] / total
        out = [o + w * e for o, e in zip(out, expert_out)]
    return out


# ---------------------------------------------------------------------------
# generator


def test_noise_zero_duplicates_exact():
    spec = PlantedSpec(3, 2, 2, duplicate_noise=0.0, domain_separation=10.0, seed=3)
    layer = generate_layer(spec, hidden_dim=8, ff_dim=12, top_k=2)
    assert layer.n_experts == 8
    for d in range(3):
        a, b = layer.experts[2 * d], layer.experts[2 * d + 1]
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.w_out, b.w_out)


def test_generate_layer_deterministic():
    spec = PlantedSpec(3, 2, 2, 0.1, 10.0, seed=11)
    one = generate_layer(spec, hidden_dim=8, ff_dim=12, top_k=2)
    two = generate_layer(spec, hidden_dim=8, ff_dim=12, top_k=2)
    assert np.array_equal(one.router, two.router)
    for a, b in zip(one.experts, two.experts):
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.w_out, b.w_out)


def test_layer_spec_mismatch_rejected():
    spec7 = PlantedSpec(3, 2, 1, 0.1, 10.0, seed=1)  # implies 7 experts
    spec8 = PlantedSpec(3, 2, 2, 0.1, 10.0, seed=1)
    layer8 = generate_layer(spec8, hidden_dim=8, ff_dim=12, top_k=2)
    with pytest.raises(ValueError, match="experts"):
        generate_calibration(layer8, spec7, tokens_per_domain=4, seed=0)


def test_centroid_separation():
    spec = PlantedSpec(4, 1, 0, 0.0, 7.5, seed=1)
    c = domain_centroids(spec, hidden_dim=6)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(c[i] - c[j]) == pytest.approx(7.5, rel=1e-6)
    with pytest.raises(ValueError, match="hidden_dim"):
        domain_centroids(spec, hidden_dim=3)


def test_calibration_shape_and_interleaving():
    spec, layer, calib, _ = make_planted(seed=5, tokens_per_domain=50)
    assert calib.n_tokens == 150
    counts = np.bincount(calib.source_domain, minlength=3)
    assert list(counts) == [50, 50, 50]
    # round-robin ordering
    assert list(calib.source_domain[:6]) == [0, 1, 2, 0, 1, 2]
    sums = calib.gate_probs.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-5)


def test_calibration_kmeans_recovers_domains():
    spec, layer, calib, _ = make_planted(seed=9, sep=20.0, tokens_per_domain=100)
    labeling = kmeans(calib.inputs, 3, seed=4)
    # exhaustive label-matching oracle over all 3! relabelings
    best = 0
    from itertools import permutations

    for perm in permutations(range(3)):
        mapped = np.array([perm[l] for l in labeling.labels])
        best = max(best, float(np.mean(mapped == calib.source_domain)))
    assert best >= 0.99


# ---------------------------------------------------------------------------
# gate


def test_gate_uniform_for_zero_router(rng):
    layer = make_random_layer(rng, n=5)
    layer.router[:] = 0.0
    probs = cache_from_inputs(layer, rng.standard_normal((1, 8))).gate_probs[0]
    assert np.allclose(probs, 0.2, atol=1e-7)


def test_gate_shift_invariance(rng):
    layer = make_random_layer(rng, n=4, hidden=8)
    shifted = MoELayer(
        router=layer.router + rng.standard_normal(8)[None, :],
        experts=layer.experts,
        top_k=layer.top_k,
    )
    # adding one vector to every router row shifts all logits by the same
    # constant for any fixed token
    for _ in range(5):
        X = rng.standard_normal((1, 8))
        gates = [cache_from_inputs(lay, X).gate_probs for lay in (layer, shifted)]
        assert np.allclose(*gates, atol=1e-5)


def test_gate_matches_scalar_oracle(rng):
    layer = make_random_layer(rng, n=6, hidden=8)
    for _ in range(10):
        x = rng.standard_normal(8).astype(np.float32)
        got = cache_from_inputs(layer, x[None, :]).gate_probs[0]
        want = oracle_gate(layer, x)
        assert got.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-7)


def test_gate_rejects_non_finite(rng):
    layer = make_random_layer(rng)
    with pytest.raises(ValueError, match="non-finite"):
        cache_from_inputs(layer, np.array([[np.nan] * 8]))


# ---------------------------------------------------------------------------
# forwards


def test_forward_full_topk_equals_dense_mixture(rng):
    layer = make_random_layer(rng, n=4, hidden=8, top_k=4)
    X = rng.standard_normal((1, 8)).astype(np.float32)
    probs = cache_from_inputs(layer, X).gate_probs[0]
    dense = np.zeros(8, dtype=np.float64)
    for i in range(4):
        dense += probs[i].astype(np.float64) * layer.experts[i].apply(X)[0].astype(np.float64)
    assert np.allclose(forward_subset_batch(layer, range(4), X)[0], dense, rtol=1e-5, atol=1e-6)


def test_forward_full_single_winner_exact(rng):
    # router forces p ~ (0.9, 0.1); with top_k=1 the winner renormalizes to 1
    layer = make_random_layer(rng, n=2, hidden=4, top_k=1)
    layer.router[0] = np.array([2.0, 0.0, 0.0, 0.0])
    layer.router[1] = np.array([-2.0, 0.0, 0.0, 0.0])
    X = np.array([[1.0, 0.5, -0.3, 0.2]], dtype=np.float32)
    assert np.array_equal(forward_subset_batch(layer, range(2), X), layer.experts[0].apply(X))


def test_forward_full_matches_scalar_oracle(rng):
    layer = make_random_layer(rng, n=5, hidden=6, ff=10, top_k=2)
    for _ in range(10):
        x = rng.standard_normal(6).astype(np.float32)
        got = forward_subset_batch(layer, range(5), x[None, :])[0]
        want = oracle_subset(layer, range(5), x)
        assert np.allclose(got, want, rtol=1e-4, atol=1e-5)


def test_forward_single_zero_expert(rng):
    layer = make_random_layer(rng, n=3, hidden=4, ff=6)
    layer.experts[1].w_in[:] = 0.0
    layer.experts[1].w_out[:] = 0.0
    X = rng.standard_normal((1, 4)).astype(np.float32)
    assert np.array_equal(layer.experts[1].apply(X), np.zeros((1, 4)))


def test_forward_single_identity_on_positive_orthant():
    identity = ExpertTransform(w_in=np.eye(4), w_out=np.eye(4))
    X = np.array([[0.5, 1.0, 2.0, 0.25]], dtype=np.float32)
    assert np.array_equal(identity.apply(X), X)


def test_forward_single_degenerate_layer_matches_full(rng):
    layer = make_random_layer(rng, n=1, hidden=5, top_k=1)
    X = rng.standard_normal((1, 5)).astype(np.float32)
    assert np.array_equal(layer.experts[0].apply(X), forward_subset_batch(layer, [0], X))


def test_forward_single_bounds(rng):
    layer = make_random_layer(rng, n=3)
    with pytest.raises(ValueError, match="out of range"):
        forward_subset_batch(layer, [3], np.zeros((1, 8)))


def test_forward_subset_full_set_is_identity(rng):
    layer = make_random_layer(rng, n=6, hidden=8, top_k=2)
    X = rng.standard_normal((32, 8)).astype(np.float32)
    # the kept set's order does not matter; the cache ran the same batch
    cache = cache_from_inputs(layer, X)
    assert np.array_equal(forward_subset_batch(layer, [5, 3, 1, 0, 2, 4], X), cache.outputs_full)


def test_forward_subset_singleton_equals_single(rng):
    layer = make_random_layer(rng, n=5, hidden=8)
    for i in range(5):
        X = rng.standard_normal((1, 8)).astype(np.float32)
        assert np.array_equal(forward_subset_batch(layer, [i], X), layer.experts[i].apply(X))


def test_forward_subset_matches_scalar_oracle(rng):
    layer = make_random_layer(rng, n=8, hidden=6, ff=10, top_k=2)
    for _ in range(10):
        kept = sorted(rng.choice(8, size=4, replace=False).tolist())
        x = rng.standard_normal(6).astype(np.float32)
        got = forward_subset_batch(layer, kept, x[None, :])[0]
        want = oracle_subset(layer, kept, x)
        assert np.allclose(got, want, rtol=1e-4, atol=1e-5)


def test_forward_subset_monotone_consistency(rng):
    # with top_k = |A|, restricting B's gate to A and renormalizing equals
    # running the subset A directly
    layer = make_random_layer(rng, n=6, hidden=8, top_k=2)
    A = [1, 4]
    B = [1, 2, 4, 5]
    X = rng.standard_normal((16, 8)).astype(np.float32)
    logits = X @ layer.router[np.array(B)].T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cols = [B.index(i) for i in A]
    restricted = probs[:, cols]
    restricted /= restricted.sum(axis=1, keepdims=True)
    expert_out = np.stack([layer.experts[i].apply(X) for i in A])
    manual = np.einsum("nk,knh->nh", restricted, expert_out)
    assert np.allclose(manual, forward_subset_batch(layer, A, X), rtol=1e-5, atol=1e-6)


def test_forward_subset_rejects_bad_kept(rng):
    layer = make_random_layer(rng, n=4)
    X = np.zeros((1, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="nonempty"):
        forward_subset_batch(layer, [], X)
    with pytest.raises(ValueError, match="out of range"):
        forward_subset_batch(layer, [0, 4], X)
    with pytest.raises(ValueError, match="unique"):
        forward_subset_batch(layer, [1, 1], X)


def test_subset_weights_rows_sum_to_one(rng):
    layer = make_random_layer(rng, n=6, hidden=8, top_k=2)
    X = rng.standard_normal((20, 8)).astype(np.float32)
    idx = _sorted_kept([0, 2, 3, 5], layer.n_experts)
    weights = _route_batch(layer, np.array([idx]), X)[0].T
    assert list(idx) == [0, 2, 3, 5]
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)
    # exactly top_k entries per row are nonzero
    assert np.all((weights > 0).sum(axis=1) == 2)


def test_tie_break_prefers_lower_index():
    # two identical router rows tie on every token; top-1 must pick index 0
    experts = [
        ExpertTransform(np.ones((2, 2)), np.ones((2, 2))),
        ExpertTransform(2 * np.ones((2, 2)), np.ones((2, 2))),
    ]
    layer = MoELayer(router=np.ones((2, 2)), experts=experts, top_k=1)
    X = np.array([[1.0, 1.0]], dtype=np.float32)
    assert np.array_equal(forward_subset_batch(layer, range(2), X), layer.experts[0].apply(X))


# ---------------------------------------------------------------------------
# cache construction and validation


def test_cache_gate_probs_validated(rng):
    bad = np.full((4, 2), 0.4, dtype=np.float32)  # rows sum to 0.8
    with pytest.raises(ValueError, match="sums to"):
        CalibrationCache(
            inputs=np.zeros((4, 3), dtype=np.float32),
            outputs_full=np.zeros((4, 3), dtype=np.float32),
            gate_probs=bad,
        )


def test_cache_shape_agreement(rng):
    with pytest.raises(ValueError, match="outputs_full"):
        CalibrationCache(
            inputs=np.zeros((4, 3), dtype=np.float32),
            outputs_full=np.zeros((5, 3), dtype=np.float32),
            gate_probs=np.full((4, 2), 0.5, dtype=np.float32),
        )


def test_cache_from_inputs_consistent(rng):
    layer = make_random_layer(rng, n=4, hidden=6)
    cache = make_random_cache(rng, layer, n_tokens=10)
    assert np.array_equal(cache.outputs_full, forward_subset_batch(layer, range(4), cache.inputs))
    assert np.array_equal(cache.gate_probs, _gate(layer, cache.inputs))


def test_cache_from_inputs_scans_inputs_once(rng, monkeypatch):
    layer = make_random_layer(rng, n=4, hidden=6)
    calls = collections.Counter()
    check = moe_sim._as_f32

    def counting(name, value, ndim):
        calls[name] += 1
        return check(name, value, ndim)

    monkeypatch.setattr(moe_sim, "_as_f32", counting)
    cache_from_inputs(layer, rng.standard_normal((10, 6)))
    assert calls == {"inputs": 1, "outputs_full": 1, "gate_probs": 1}
    for bad in (np.nan, np.inf, -np.inf):
        inputs = rng.standard_normal((10, 6))
        inputs[3, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="inputs contains non-finite values"):
                cache_from_inputs(layer, inputs)
    with pytest.raises(ValueError, match="width"):
        cache_from_inputs(layer, np.zeros((10, 5)))
    with pytest.raises(ValueError, match="2-dimensional"):
        cache_from_inputs(layer, np.zeros(6))


# ---------------------------------------------------------------------------
# serialization


def test_layer_archive_round_trip(tmp_path):
    spec, layer, _, _ = make_planted(seed=2, tokens_per_domain=4)
    save_layer(layer, str(tmp_path / "layer"))
    loaded = load_layer(str(tmp_path / "layer"))
    assert loaded.top_k == layer.top_k
    assert np.array_equal(loaded.router, layer.router)
    assert np.array_equal(loaded.specialist_domain, layer.specialist_domain)
    for a, b in zip(loaded.experts, layer.experts):
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.w_out, b.w_out)


def test_cache_archive_round_trip(tmp_path):
    spec, layer, calib, _ = make_planted(seed=2, tokens_per_domain=4)
    save_cache(calib, str(tmp_path / "cache"))
    loaded = load_cache(str(tmp_path / "cache"))
    assert np.array_equal(loaded.inputs, calib.inputs)
    assert np.array_equal(loaded.outputs_full, calib.outputs_full)
    assert np.array_equal(loaded.gate_probs, calib.gate_probs)
    assert np.array_equal(loaded.source_domain, calib.source_domain)


@pytest.mark.parametrize("kind, array", [("layer", "router"), ("cache", "inputs")])
def test_non_finite_archive_fails_on_load(tmp_path, kind, array):
    # the archive stores the NaN as given; the layer or cache built from it refuses it
    spec, layer, calib, _ = make_planted(seed=2, tokens_per_domain=4)
    save, load, obj = {"layer": (save_layer, load_layer, layer),
                       "cache": (save_cache, load_cache, calib)}[kind]
    path = str(tmp_path / kind)
    save(obj, path)
    manifest, arrays = read_archive(path)
    arrays[array][0, 0] = np.nan
    write_archive(path, arrays, manifest.metadata)
    with pytest.raises(ArchiveError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"archive {path}: {array} contains non-finite values"


# sha256 of the default-config layer archive as written with numpy 2.4; any
# change to the layer format (a version bump, a dtype) must change these
GOLDEN_LAYER = {
    ".json": "407da9f746ede5d67196f399854b0872ff6fe022fc0c75ca71f509be22f473bd",
    ".bin": "d1c1748830818950e2f6abf0c55ac0e87c0bc3f2e6191af2454017b7615c8cd6",
}


def test_default_layer_archive_bytes_pinned(tmp_path):
    model = cli.DEFAULT_CONFIG["model"]
    layer = generate_layer(
        cli._planted_spec(model),
        hidden_dim=model["hidden_dim"], ff_dim=model["ff_dim"], top_k=model["top_k"],
    )
    save_layer(layer, str(tmp_path / "layer"))
    got = {
        suffix: hashlib.sha256((tmp_path / ("layer" + suffix)).read_bytes()).hexdigest()
        for suffix in GOLDEN_LAYER
    }
    assert got == GOLDEN_LAYER
