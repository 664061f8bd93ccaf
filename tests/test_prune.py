import itertools
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moe_prune import (
    METHODS,
    ArchiveError,
    PruningPlan,
    activation_frequency,
    evaluate_plan,
    load_plan,
    prune_enum,
    prune_frequency,
    prune_gvp,
    prune_mop,
    prune_random,
    prune_with_method,
    read_archive,
    reconstruction_loss,
    save_layer,
    save_plan,
    variability_scores,
    write_archive,
)
from moe_prune.cli import METHOD_CHOICES
from moe_prune.evaluation import report_to_csv

from conftest import (
    make_duplicated_specialist_fixture,
    make_planted,
    make_random_cache,
    make_random_layer,
)


# ---------------------------------------------------------------------------
# random baseline


def test_random_r_equals_n():
    plan = prune_random(5, 5, seed=0)
    assert plan.kept == [0, 1, 2, 3, 4]
    assert plan.provenance == ["baseline"] * 5


def test_random_deterministic():
    assert prune_random(8, 4, seed=123).kept == prune_random(8, 4, seed=123).kept


def test_random_uniform_marginals():
    hits = np.zeros(8)
    trials = 10_000
    for seed in range(trials):
        for i in prune_random(8, 4, seed=seed).kept:
            hits[i] += 1
    freq = hits / trials
    assert np.all(np.abs(freq - 0.5) <= 0.02)


def test_random_validates_r():
    with pytest.raises(ValueError, match="r"):
        prune_random(4, 0, seed=0)
    with pytest.raises(ValueError, match="r"):
        prune_random(4, 5, seed=0)


# ---------------------------------------------------------------------------
# frequency baseline


def test_frequency_r_equals_n(rng):
    layer = make_random_layer(rng, n=5)
    cache = make_random_cache(rng, layer)
    assert prune_frequency(cache, layer, 5).kept == list(range(5))


def test_frequency_drops_never_activated(rng):
    layer = make_random_layer(rng, n=4, hidden=6, top_k=1)
    layer.router[3] = layer.router[0]  # ties every token; lower index 0 wins top-1
    cache = make_random_cache(rng, layer, n_tokens=40)
    plan = prune_frequency(cache, layer, 3)
    assert plan.kept == [0, 1, 2]
    assert activation_frequency(cache, 1)[3] == 0


def test_frequency_matches_count_oracle(rng):
    layer = make_random_layer(rng, n=7, top_k=3)
    cache = make_random_cache(rng, layer, n_tokens=50)
    plan = prune_frequency(cache, layer, 4)
    counts = activation_frequency(cache, 3)
    want = sorted(sorted(range(7), key=lambda i: (-counts[i], i))[:4])
    assert plan.kept == want


# ---------------------------------------------------------------------------
# enumeration


def test_enum_r_equals_n_zero_loss(rng):
    layer = make_random_layer(rng, n=5)
    cache = make_random_cache(rng, layer)
    for mode in ("exhaustive", "greedy"):
        plan = prune_enum(cache, layer, 5, mode=mode)
        assert plan.kept == list(range(5))
        assert plan.diagnostics["best_loss"] == 0.0


def test_enum_exhaustive_bounds_greedy():
    spec, layer, calib, _ = make_planted(seed=21, tokens_per_domain=24)
    exh = prune_enum(calib, layer, 6, mode="exhaustive")
    grd = prune_enum(calib, layer, 6, mode="greedy")
    assert exh.diagnostics["best_loss"] <= grd.diagnostics["best_loss"] + 1e-12


def test_enum_exhaustive_matches_brute_force_majority_vs_greedy(rng):
    matches = 0
    mismatches = []
    for trial in range(50):
        layer_rng = np.random.default_rng(4000 + trial)
        layer = make_random_layer(layer_rng, n=6, hidden=8, top_k=2)
        cache = make_random_cache(layer_rng, layer, n_tokens=32)
        exh = prune_enum(cache, layer, 3, mode="exhaustive")
        grd = prune_enum(cache, layer, 3, mode="greedy")
        best_loss = min(
            reconstruction_loss(cache, layer, s) for s in itertools.combinations(range(6), 3)
        )
        assert exh.diagnostics["best_loss"] == best_loss
        if exh.kept == grd.kept:
            matches += 1
        else:
            mismatches.append(
                f"seed {4000 + trial}: exhaustive {exh.kept} "
                f"loss={exh.diagnostics['best_loss']:.6f} vs greedy {grd.kept} "
                f"loss={grd.diagnostics['best_loss']:.6f}"
            )
    for line in mismatches:
        print("greedy mismatch:", line)
    assert matches > 25  # greedy agrees with the optimum in the majority of seeds


def test_enum_budget_error_suggests_greedy(rng):
    layer = make_random_layer(rng, n=8)
    cache = make_random_cache(rng, layer)
    with pytest.raises(ValueError, match="greedy"):
        prune_enum(cache, layer, 4, mode="exhaustive", budget=10)


def test_enum_diagnostics_list_all_subsets(rng):
    layer = make_random_layer(rng, n=6)
    cache = make_random_cache(rng, layer)
    plan = prune_enum(cache, layer, 3, mode="exhaustive")
    assert plan.diagnostics["losses"].shape == (20,)
    assert plan.diagnostics["subsets"].shape == (20, 3)


# ---------------------------------------------------------------------------
# gvp


def test_gvp_m_r_minus_one_takes_top_score(rng):
    spec, layer, calib, _ = make_planted(seed=31)
    plan = prune_gvp(calib, layer, r=3, m=2)
    scores = variability_scores(calib)
    general = [i for i, tag in zip(plan.kept, plan.provenance) if tag == "general"]
    candidates = [i for i in range(8) if i not in general]
    best = min(candidates, key=lambda i: (-scores.scores[i], i))
    assert plan.diversity_experts() == [best]


def test_gvp_m_zero_is_global_score_ranking(rng):
    spec, layer, calib, _ = make_planted(seed=32)
    plan = prune_gvp(calib, layer, r=4, m=0)
    scores = variability_scores(calib)
    want = sorted(sorted(range(8), key=lambda i: (-scores.scores[i], i))[:4])
    assert plan.kept == want
    assert plan.provenance == ["diversity"] * 4


def test_gvp_keeps_duplicate_pair():
    spec, layer, calib = make_duplicated_specialist_fixture(seed=301)
    plan = prune_gvp(calib, layer, r=3, m=0)
    assert {0, 1} <= set(plan.kept)


def test_gvp_validates_m(rng):
    layer = make_random_layer(rng, n=4)
    cache = make_random_cache(rng, layer)
    with pytest.raises(ValueError, match="m"):
        prune_gvp(cache, layer, r=2, m=2)


@pytest.mark.parametrize("prune", [prune_gvp, prune_mop])
@pytest.mark.parametrize(
    "r, m", [pytest.param(r, m, id=str(r)) for r, m in [(1, 0), (2, 1), (4, 2), (5, 3)]]
)
def test_m_defaults_to_default_general_count(prune, r, m):
    # the general core defaults to half the slots, never all of them
    spec, layer, calib, _ = make_planted(seed=43)
    implicit = prune(calib, layer, r=r, m=None)
    explicit = prune(calib, layer, r=r, m=m)
    assert implicit.kept == explicit.kept
    assert implicit.provenance == explicit.provenance
    assert implicit.params == explicit.params
    assert implicit.params["m"] == m
    assert implicit.diagnostics.keys() == explicit.diagnostics.keys()
    for key, value in implicit.diagnostics.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, explicit.diagnostics[key])
        else:
            assert value == explicit.diagnostics[key]


# ---------------------------------------------------------------------------
# mop


def test_mop_two_experts_trivial(rng):
    layer = make_random_layer(rng, n=2, hidden=4, top_k=1)
    cache = make_random_cache(rng, layer, n_tokens=12)
    plan = prune_mop(cache, layer, r=2, m=1, kmeans_seed=0)
    assert plan.kept == [0, 1]
    assert sorted(plan.provenance) == ["diversity", "general"]


def test_mop_diversity_covers_distinct_domains():
    spec, layer, calib, _ = make_planted(seed=41)
    plan = prune_mop(calib, layer, r=4, m=1, kmeans_seed=41)
    diversity = plan.diversity_experts()
    domains = {int(layer.specialist_domain[i]) for i in diversity}
    assert len(diversity) == 3
    assert -1 not in domains and len(domains) == 3


def test_mop_keeps_one_of_duplicate_pair():
    spec, layer, calib = make_duplicated_specialist_fixture(seed=302)
    plan = prune_mop(calib, layer, r=3, m=0, kmeans_seed=302)
    assert len({0, 1} & set(plan.kept)) == 1
    # the pair lands in one Ward group
    pair_groups = [g for g in plan.diagnostics["groups"] if {0, 1} & set(g)]
    assert len(pair_groups) == 1


def test_mop_representatives_are_group_argmax():
    spec, layer, calib, _ = make_planted(seed=43)
    plan = prune_mop(calib, layer, r=4, m=1, kmeans_seed=43)
    scores = plan.diagnostics["s_var"]
    diversity = set(plan.diversity_experts())
    for group in plan.diagnostics["groups"]:
        rep = min(group, key=lambda i: (-scores[i], i))
        assert rep in diversity


def test_mop_shares_stage_one_with_gvp():
    spec, layer, calib, _ = make_planted(seed=44)
    mop = prune_mop(calib, layer, r=5, m=2, kmeans_seed=3)
    gvp = prune_gvp(calib, layer, r=5, m=2)
    mop_general, gvp_general = (
        [i for i, tag in zip(plan.kept, plan.provenance) if tag == "general"] for plan in (mop, gvp)
    )
    assert mop_general == gvp_general


def test_mop_deterministic():
    spec, layer, calib, _ = make_planted(seed=45)
    a = prune_mop(calib, layer, r=4, m=1, kmeans_seed=5)
    b = prune_mop(calib, layer, r=4, m=1, kmeans_seed=5)
    assert a.kept == b.kept
    assert a.provenance == b.provenance


def test_mop_budget_fallback_disabled(rng):
    layer = make_random_layer(rng, n=8)
    cache = make_random_cache(rng, layer)
    # C(8, 4) = 70 subsets exceed the budget, so stage 1 goes greedy
    plan = prune_mop(cache, layer, r=5, m=4, budget=10)
    assert plan.diagnostics["stage1_mode"] == "greedy"


# ---------------------------------------------------------------------------
# plan construction and serialization


def test_plan_validation():
    with pytest.raises(ValueError, match="unique"):
        PruningPlan("random", [1, 1], ["baseline"] * 2, {"n": 4, "r": 2})
    with pytest.raises(ValueError, match="expected r"):
        PruningPlan("random", [1], ["baseline"], {"n": 4, "r": 2})
    with pytest.raises(ValueError, match="out of range"):
        PruningPlan("random", [1, 4], ["baseline"] * 2, {"n": 4, "r": 2})
    with pytest.raises(ValueError, match="tags"):
        PruningPlan("random", [0, 1], ["baseline", "odd"], {"n": 4, "r": 2})
    with pytest.raises(ValueError, match="general"):
        PruningPlan("gvp", [0, 1], ["baseline", "baseline"], {"n": 4, "r": 2, "m": 1})


def test_plan_mop_distinct_groups_checked():
    with pytest.raises(ValueError, match="distinct groups"):
        PruningPlan(
            "mop",
            [0, 1, 2],
            ["general", "diversity", "diversity"],
            {"n": 4, "r": 3, "m": 1},
            diagnostics={"groups": [[1, 2], [3]]},
        )


@st.composite
def valid_plans(draw, methods=METHODS):
    """The arguments of a valid PruningPlan of one of `methods`: kept experts
    in any order, tags to match, and for mop one Ward group per diversity
    expert among groups that may hold experts not kept."""
    method = draw(st.sampled_from(methods))
    n = draw(st.integers(1, 12))
    r = draw(st.integers(2 if method in ("gvp", "mop") else 1, max(n, 2)))
    n = max(n, r)
    kept = draw(st.permutations(range(n)))[:r]
    params = {"n": n, "r": r, "m": None, "K": None, "seed": None}
    diagnostics: dict = {}
    if method in ("gvp", "mop"):
        m = draw(st.integers(0, r - 1))
        params["m"] = m
        provenance = draw(st.permutations(["general"] * m + ["diversity"] * (r - m)))
        diagnostics["general"] = np.array(
            sorted(e for e, tag in zip(kept, provenance) if tag == "general"), dtype=np.int32
        )
        if method == "mop":
            params["K"] = r - m
            groups = [[e] for e, tag in zip(kept, provenance) if tag == "diversity"]
            for e in sorted(set(range(n)) - set(kept)):  # not kept: joins any group or none
                g = draw(st.integers(-1, len(groups) - 1))
                if g >= 0:
                    groups[g] = sorted(groups[g] + [e])
            diagnostics["groups"] = groups
    else:
        provenance = ["baseline"] * r
    return method, list(kept), list(provenance), params, diagnostics


@settings(deadline=None, max_examples=200)
@given(valid_plans())
def test_valid_plans_construct_sorted_and_round_trip(args):
    method, kept, provenance, params, diagnostics = args
    plan = PruningPlan(method, kept, provenance, dict(params), dict(diagnostics))
    assert plan.kept == sorted(kept)
    assert sorted(zip(plan.kept, plan.provenance)) == sorted(zip(kept, provenance))
    with tempfile.TemporaryDirectory() as tmp:
        save_plan(plan, os.path.join(tmp, "plan"))
        loaded = load_plan(os.path.join(tmp, "plan"))
    assert (loaded.method, loaded.kept, loaded.provenance, loaded.params) == (
        plan.method, plan.kept, plan.provenance, plan.params
    )
    assert loaded.diagnostics.keys() == plan.diagnostics.keys()
    if "general" in plan.diagnostics:
        assert loaded.diagnostics["general"].tobytes() == plan.diagnostics["general"].tobytes()
    assert loaded.diagnostics.get("groups") == plan.diagnostics.get("groups")


def break_plan(args, fault):
    """One valid plan's arguments with exactly one invariant broken, or None
    when this plan cannot carry that fault; and the message it must raise."""
    method, kept, provenance, params, diagnostics = args
    kept, provenance, params = list(kept), list(provenance), dict(params)
    diagnostics = {**diagnostics, "groups": [list(g) for g in diagnostics.get("groups", [])]}
    diversity = [e for e, tag in zip(kept, provenance) if tag == "diversity"]
    if fault == "method":
        method, match = "bogus", "unknown method"
    elif fault == "r":
        params["r"] += 1
        match = f"expected r={params['r']}"
    elif fault == "n":
        params["n"] = max(kept)
        match = "out of range"
    elif fault == "negative":
        kept[0] = -1 - kept[0]
        match = "nonnegative"
    elif fault == "duplicate":
        if len(kept) < 2:
            return None
        kept[1] = kept[0]
        match = "unique"
    elif fault == "untagged":
        provenance.pop()
        match = "tag every kept expert"
    elif fault == "tag":
        provenance[-1] = "bogus"
        match = "provenance tags"
    elif fault == "tag_count":
        params["m"] += 1
        match = "general"
    elif fault == "groupless":
        diagnostics["groups"] = [[e for e in g if e != diversity[0]] for g in diagnostics["groups"]]
        diagnostics["groups"] = [g for g in diagnostics["groups"] if g]
        match = f"diversity expert {diversity[0]} not in exactly one group"
    elif fault == "shared_group":
        if len(diversity) < 2:
            return None
        a, b = (g for g in diagnostics["groups"] if set(g) & set(diversity[:2]))
        diagnostics["groups"] = [g for g in diagnostics["groups"] if g not in (a, b)]
        diagnostics["groups"].append(sorted(a + b))
        match = "distinct groups"
    if method != "mop" or not diagnostics["groups"] and fault != "groupless":
        diagnostics.pop("groups")
    return (method, kept, provenance, params, diagnostics), match


# each fault, and the methods whose plans can carry it
FAULTS = {
    "method": METHODS, "r": METHODS, "n": METHODS, "negative": METHODS,
    "duplicate": METHODS, "untagged": METHODS, "tag": METHODS,
    "tag_count": ("gvp", "mop"), "groupless": ("mop",), "shared_group": ("mop",),
}


@pytest.mark.parametrize("fault", FAULTS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_each_plan_invariant_is_named(fault, data):
    broken = break_plan(data.draw(valid_plans(FAULTS[fault])), fault)
    assume(broken is not None)
    (method, kept, provenance, params, diagnostics), match = broken
    with pytest.raises(ValueError, match=re.escape(match)):
        PruningPlan(method, kept, provenance, params, diagnostics)


def test_plan_round_trip(tmp_path):
    spec, layer, calib, _ = make_planted(seed=46)
    plan = prune_mop(calib, layer, r=4, m=1, kmeans_seed=7)
    save_plan(plan, tmp_path / "plan")
    loaded = load_plan(tmp_path / "plan")
    assert loaded.method == plan.method
    assert loaded.kept == plan.kept
    assert loaded.provenance == plan.provenance
    assert loaded.params["r"] == 4
    assert loaded.diagnostics["groups"] == plan.diagnostics["groups"]
    assert np.allclose(loaded.diagnostics["s_var"], plan.diagnostics["s_var"], atol=1e-6)
    # scalar diagnostics keep their type and value
    assert loaded.diagnostics["stage1_mode"] == "exhaustive"
    assert loaded.diagnostics["stage1_loss"] == plan.diagnostics["stage1_loss"]
    assert isinstance(loaded.diagnostics["stage1_loss"], float)


@pytest.mark.parametrize("method", METHOD_CHOICES)
def test_plan_round_trip_is_lossless(tmp_path, method):
    _, layer, calib, _ = make_planted(seed=46)
    plan = prune_with_method(calib, layer, method, r=4, m=1)
    save_plan(plan, tmp_path / "plan")
    loaded = load_plan(tmp_path / "plan")
    assert (loaded.kept, loaded.provenance, loaded.params) == (
        plan.kept, plan.provenance, plan.params
    )
    assert loaded.diagnostics.keys() == plan.diagnostics.keys()
    for key, want in plan.diagnostics.items():
        got = loaded.diagnostics[key]
        assert type(got) is type(want), key
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), key
            assert got.tobytes() == want.tobytes(), key
        else:
            assert repr(got) == repr(want), key


def test_plan_with_ragged_groups_still_loads(tmp_path):
    _, layer, calib, heldout = make_planted(seed=46)
    plan = prune_mop(calib, layer, r=4, m=1, kmeans_seed=7)
    save_plan(plan, tmp_path / "plan")
    # archives written before groups were JSON held them as offsets + members
    manifest, arrays = read_archive(tmp_path / "plan.diag")
    metadata = dict(manifest.metadata)
    groups = json.loads(metadata.pop("groups"))
    arrays["groups_offsets"] = np.cumsum([0] + [len(g) for g in groups]).astype(np.int32)
    arrays["groups_members"] = np.array([e for g in groups for e in g], dtype=np.int32)
    write_archive(tmp_path / "plan.diag", arrays, metadata)
    loaded = load_plan(tmp_path / "plan")
    assert "groups" not in loaded.diagnostics
    assert loaded.diagnostics["groups_members"].tolist() == sum(groups, [])
    assert report_to_csv(evaluate_plan(layer, loaded, heldout)) == report_to_csv(
        evaluate_plan(layer, plan, heldout)
    )


def test_plan_rejects_non_json_diagnostic(tmp_path):
    spec, layer, calib, _ = make_planted(seed=46)
    save_plan(prune_gvp(calib, layer, r=4, m=1), tmp_path / "plan")
    manifest = tmp_path / "plan.diag.json"
    doc = json.loads(manifest.read_text())
    doc["metadata"]["stage1_mode"] = "'exhaustive'"  # a repr, not JSON text
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match=r"plan\.diag\.json: metadata 'stage1_mode' is not JSON"):
        load_plan(tmp_path / "plan")


def test_plan_round_trip_without_diagnostics(tmp_path):
    plan = prune_random(6, 3, seed=5)
    save_plan(plan, tmp_path / "plain")
    loaded = load_plan(tmp_path / "plain")
    assert loaded.kept == plan.kept
    assert not (tmp_path / "plain.diag.json").exists()


def _files(root):
    """Every file under `root`, by relative path, and its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_numpy_integer_params_save_as_ints(tmp_path):
    _, layer, calib, _ = make_planted(seed=46)
    for name, r in [("int", 4), ("numpy", np.int64(4))]:
        plan = prune_mop(calib, layer, r=r, m=1)
        assert type(plan.params["r"]) is type(plan.params["K"]) is int
        (tmp_path / name).mkdir()
        save_plan(plan, tmp_path / name / "plan")
    assert _files(tmp_path / "numpy") == _files(tmp_path / "int")


def test_failed_save_keeps_earlier_plan(tmp_path):
    _, layer, calib, _ = make_planted(seed=46)
    save_plan(prune_mop(calib, layer, r=4, m=1), tmp_path / "plan")
    before = _files(tmp_path)
    plan = prune_mop(calib, layer, r=3, m=1)
    plan.params["note"] = {"a set"}  # not JSON: fails after the new diagnostics are written
    with pytest.raises(TypeError, match="set"):
        save_plan(plan, tmp_path / "plan")
    assert _files(tmp_path) == before
    assert not list(tmp_path.glob(".moe-prune-*"))


def test_plan_diagnostics_archive_kind_checked(tmp_path):
    spec, layer, calib, _ = make_planted(seed=46)
    save_plan(prune_gvp(calib, layer, r=4, m=1), tmp_path / "plan")
    save_layer(layer, str(tmp_path / "layer"))
    doc = json.loads((tmp_path / "plan.json").read_text())
    doc["diagnostics_archive"] = "layer"
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match="layer.*plan_diagnostics"):
        load_plan(tmp_path / "plan")


def test_dispatch_enum_auto_mode(rng):
    layer = make_random_layer(rng, n=6)
    cache = make_random_cache(rng, layer)
    auto = prune_with_method(cache, layer, "enum", r=3)
    assert auto.method == "enum_exhaustive"
    forced = prune_with_method(cache, layer, "enum", r=3, budget=5)
    assert forced.method == "enum_greedy"


def test_search_mode_flips_at_budget_edge(rng):
    layer = make_random_layer(rng, n=6)
    cache = make_random_cache(rng, layer)
    edge = math.comb(6, 3)
    for budget, mode in ((edge, "exhaustive"), (edge - 1, "greedy")):
        assert prune_with_method(cache, layer, "enum", r=3, budget=budget).method == f"enum_{mode}"
        for prune in (prune_gvp, prune_mop):
            plan = prune(cache, layer, r=4, m=3, budget=budget)
            assert plan.diagnostics["stage1_mode"] == mode, (prune.__name__, budget)


def test_dispatch_unknown_method(rng):
    layer = make_random_layer(rng, n=4)
    cache = make_random_cache(rng, layer)
    with pytest.raises(ValueError, match="unknown method"):
        prune_with_method(cache, layer, "magic", r=2)
