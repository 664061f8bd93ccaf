import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_prune import (
    CalibrationCache,
    compare_methods,
    comparison_to_csv,
    comparison_to_text,
    evaluate_plan,
    export_heatmap_csv,
    load_plan,
    prune_enum,
    prune_gvp,
    prune_mop,
    prune_random,
)
from moe_prune import evaluation
from moe_prune.evaluation import report_to_csv
from moe_prune.moe_sim import _pruned_forward, cache_from_inputs
from moe_prune.prune import PruningPlan

from conftest import (
    make_planted,
    make_random_cache,
    make_random_layer,
    make_single_domain_cache,
)


def full_set_plan(n):
    return prune_random(n, n, seed=0)


def test_full_set_plan_zero_everywhere(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    report = evaluate_plan(layer, full_set_plan(8), heldout)
    assert report.overall_loss == 0.0
    assert np.all(report.per_domain_loss == 0.0)
    assert report.worst_domain_loss == 0.0
    assert report.coverage == 1.0


def test_heatmap_rows_sum_to_one(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    plan = prune_mop(calib, layer, r=4, m=1, kmeans_seed=1)
    report = evaluate_plan(layer, plan, heldout)
    assert report.heatmap.shape == (3, 4)
    sums = report.heatmap.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-5)


def test_eval_routes_once(planted_fixture, monkeypatch):
    spec, layer, calib, heldout = planted_fixture
    plan = prune_random(8, 4, seed=3)
    calls = []
    forward = evaluation._pruned_forward

    def counting_forward(*args):
        calls.append(args[1])
        return forward(*args)

    monkeypatch.setattr(evaluation, "_pruned_forward", counting_forward)
    evaluate_plan(layer, plan, heldout)
    assert calls == [plan.kept]


def test_eval_rejects_plan_keeping_missing_expert(planted_fixture, tmp_path):
    spec, layer, calib, heldout = planted_fixture
    # no "n" param, so the plan itself cannot range-check its kept set
    doc = {"method": "random", "params": {"r": 2}, "kept": [0, layer.n_experts],
           "provenance": ["baseline"] * 2, "diagnostics_archive": None}
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    plan = load_plan(tmp_path / "plan")
    with pytest.raises(ValueError, match="out of range"):
        evaluate_plan(layer, plan, heldout)


def test_worst_domain_is_max(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    plan = prune_enum(calib, layer, r=4, mode="greedy")
    report = evaluate_plan(layer, plan, heldout)
    assert report.worst_domain_loss == report.per_domain_loss.max()
    assert report.overall_loss == pytest.approx(report.per_domain_loss.sum(), rel=1e-12)
    assert list(report.domain_token_counts) == [64, 64, 64]


def old_evaluate(layer, kept, heldout):
    """evaluate_plan's loss and heatmap formulas before it shared the metrics
    kernels: per-token errors of a float64 difference, and per-domain sums,
    counts and heatmap rows from `source == d` masks."""
    pred, weights = _pruned_forward(layer, kept, heldout.inputs)
    diff = pred.astype(np.float64) - heldout.outputs_full.astype(np.float64)
    per_token = (diff * diff).sum(axis=1)
    source = heldout.source_domain
    n_domains = int(source.max()) + 1
    counts = np.bincount(source, minlength=n_domains)
    if np.any(counts == 0):
        raise ValueError("held-out cache has an empty source domain")
    per_domain = np.array(
        [per_token[source == d].sum() for d in range(n_domains)], dtype=np.float64
    )
    weights = weights.astype(np.float64)
    heatmap = np.stack([weights[source == d].mean(axis=0) for d in range(n_domains)])
    return float(per_token.sum()), per_domain, counts, heatmap


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 40), st.integers(1, 5),
       st.sampled_from([1e-3, 1.0, 1e3]), st.booleans())
def test_evaluate_plan_matches_old_formulas(seed, n, n_tokens, n_domains, scale, skip_id):
    rng = np.random.default_rng(seed)
    layer = make_random_layer(rng, n=n, hidden=5, ff=7, top_k=int(rng.integers(1, n + 1)))
    inputs = (rng.standard_normal((n_tokens, 5)) * scale).astype(np.float32)
    n_domains = min(n_domains, n_tokens)
    source = rng.integers(0, n_domains, n_tokens)
    source[rng.permutation(n_tokens)[:n_domains]] = np.arange(n_domains)  # none empty
    if skip_id:
        source[source >= n_domains - 1] += 1  # no token of domain n_domains - 1
    heldout = cache_from_inputs(layer, inputs, source_domain=source)
    r = int(rng.integers(1, n + 1))
    kept = sorted(rng.choice(n, size=r, replace=False).tolist())
    plan = PruningPlan("random", kept, ["baseline"] * r, {"n": n, "r": r})
    if skip_id:
        for evaluate in (lambda: evaluate_plan(layer, plan, heldout),
                         lambda: old_evaluate(layer, kept, heldout)):
            with pytest.raises(ValueError, match="no tokens|empty source domain"):
                evaluate()
        return
    report = evaluate_plan(layer, plan, heldout)
    overall, per_domain, counts, heatmap = old_evaluate(layer, kept, heldout)
    assert np.float64(report.overall_loss).tobytes() == np.float64(overall).tobytes()
    assert report.per_domain_loss.tobytes() == per_domain.tobytes()
    assert report.worst_domain_loss == per_domain.max()
    assert report.domain_token_counts.tobytes() == counts.tobytes()
    assert report.heatmap.tobytes() == heatmap.tobytes()


def test_report_token_order_invariance(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    plan = prune_gvp(calib, layer, r=4, m=1)
    base = evaluate_plan(layer, plan, heldout)
    perm = np.random.default_rng(0).permutation(heldout.n_tokens)
    shuffled = CalibrationCache(
        inputs=heldout.inputs[perm],
        outputs_full=heldout.outputs_full[perm],
        gate_probs=heldout.gate_probs[perm],
        source_domain=heldout.source_domain[perm],
    )
    other = evaluate_plan(layer, plan, shuffled)
    assert other.overall_loss == pytest.approx(base.overall_loss, rel=1e-9)
    assert np.allclose(other.per_domain_loss, base.per_domain_loss, rtol=1e-9)
    assert np.allclose(other.heatmap, base.heatmap, rtol=1e-9)


def test_coverage_none_without_ground_truth(rng):
    layer = make_random_layer(rng, n=4, hidden=6)
    cache = make_random_cache(rng, layer, n_tokens=10)
    cache.source_domain = np.zeros(10, dtype=np.int32)
    report = evaluate_plan(layer, full_set_plan(4), cache)
    assert report.coverage is None


def test_missing_source_domain_rejected(rng):
    layer = make_random_layer(rng, n=4)
    cache = make_random_cache(rng, layer)
    with pytest.raises(ValueError, match="source_domain"):
        evaluate_plan(layer, full_set_plan(4), cache)


def test_plan_layer_mismatch(rng, planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    plan = prune_random(6, 3, seed=1)  # built for a 6-expert layer
    with pytest.raises(ValueError, match="n=6"):
        evaluate_plan(layer, plan, heldout)


# ---------------------------------------------------------------------------
# compare_methods


def test_compare_single_config_zero_deltas(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    rows = compare_methods(layer, calib, heldout, [{"method": "mop", "r": 4, "m": 1}])
    assert len(rows) == 1
    assert rows[0]["delta_overall"] == 0.0
    assert rows[0]["delta_worst"] == 0.0


def test_compare_identical_configs_identical_rows(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    config = {"method": "gvp", "r": 4, "m": 1}
    rows = compare_methods(layer, calib, heldout, [config, dict(config)])
    a, b = rows
    for key in ("method", "overall_loss", "worst_domain_loss", "coverage"):
        assert a[key] == b[key]


def test_compare_configs_are_prune_keywords(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    with pytest.raises(TypeError, match="kmeans_sed"):
        compare_methods(layer, calib, heldout, [{"method": "mop", "r": 4, "kmeans_sed": 1}])
    # C(8, 4) = 70 subsets exceed a budget of 5, so enum runs greedy
    (row,) = compare_methods(layer, calib, heldout, [{"method": "enum", "r": 4, "budget": 5}])
    assert row["method"] == "enum_greedy"


def test_compare_rejects_empty(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    with pytest.raises(ValueError, match="nonempty"):
        compare_methods(layer, calib, heldout, [])


def test_qualitative_worst_domain_ordering():
    """Cluster-then-select beats global ranking beats single-domain enumeration
    on worst-domain loss, on average over seeds."""
    worst = {"mop": [], "gvp": [], "enu_single": []}
    for seed in (60, 61, 62, 63, 64, 65, 66, 67):
        spec, layer, calib, heldout = make_planted(seed=seed, tokens_per_domain=48)
        single = make_single_domain_cache(layer, spec, 144, seed + 1000)
        mop = prune_mop(calib, layer, r=4, m=1, kmeans_seed=seed)
        gvp = prune_gvp(calib, layer, r=4, m=1)
        enu = prune_enum(single, layer, r=4, mode="exhaustive")
        worst["mop"].append(evaluate_plan(layer, mop, heldout).worst_domain_loss)
        worst["gvp"].append(evaluate_plan(layer, gvp, heldout).worst_domain_loss)
        worst["enu_single"].append(evaluate_plan(layer, enu, heldout).worst_domain_loss)
    assert np.mean(worst["mop"]) <= np.mean(worst["gvp"])
    assert np.mean(worst["gvp"]) <= np.mean(worst["enu_single"])


# ---------------------------------------------------------------------------
# exports


def test_heatmap_csv_shape_and_determinism(tmp_path, planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    plan = prune_mop(calib, layer, r=4, m=1, kmeans_seed=1)
    report = evaluate_plan(layer, plan, heldout)
    written = export_heatmap_csv(report, tmp_path / "hm")
    assert len(written) == 3
    lines = (tmp_path / "hm_domain0.csv").read_text().splitlines()
    assert lines[0] == "layer," + ",".join(f"expert_{i}" for i in plan.kept)
    assert len(lines) == 2  # header + one layer row
    values = [float(x) for x in lines[1].split(",")[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert sum(values) == pytest.approx(1.0, abs=5e-6)  # 6-decimal rounding
    contents = [Path(p).read_bytes() for p in written]
    export_heatmap_csv(report, tmp_path / "hm")
    assert [Path(p).read_bytes() for p in written] == contents


def test_heatmap_columns_follow_expert_order(tmp_path):
    # a hand-built plan listing its experts out of order: kept is sorted with its
    # tags, so each heatmap column sits under its own expert's name
    spec, layer, calib, heldout = make_planted(seed=3)
    plan = PruningPlan("random", [6, 0], ["baseline"] * 2, {"n": 8, "r": 2})
    assert plan.kept == [0, 6]
    report = evaluate_plan(layer, plan, heldout)
    export_heatmap_csv(report, tmp_path / "hm")
    header, row = (tmp_path / "hm_domain0.csv").read_text().splitlines()
    assert header == "layer,expert_0,expert_6"
    assert float(row.split(",")[1]) > 0.99  # domain-0 tokens go to specialist 0
    mixed = PruningPlan("gvp", [5, 2], ["diversity", "general"], {"n": 8, "r": 2, "m": 1})
    assert (mixed.kept, mixed.provenance) == ([2, 5], ["general", "diversity"])


def test_report_csv_single_row(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    plan = prune_gvp(calib, layer, r=4, m=1)
    text = report_to_csv(evaluate_plan(layer, plan, heldout))
    lines = text.splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header[:4] == ["method", "r", "m", "seed"]
    assert "domain2_loss" in header


def test_comparison_formats(planted_fixture):
    spec, layer, calib, heldout = planted_fixture
    rows = compare_methods(
        layer, calib, heldout,
        [{"method": "enum_greedy", "r": 4}, {"method": "mop", "r": 4, "m": 1}],
    )
    csv_text = comparison_to_csv(rows)
    assert csv_text.splitlines()[0].startswith("method,r,m,seed,overall_loss")
    assert len(csv_text.splitlines()) == 3
    table = comparison_to_text(rows)
    assert "worst_domain_loss" in table.splitlines()[0]
    assert len(table.splitlines()) == 3
