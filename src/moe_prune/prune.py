"""The five expert-retention strategies, each producing a PruningPlan.

random and frequency are baselines. enum searches for the subset
minimizing reconstruction loss, exhaustively when the subset count fits
a budget and greedily (peel off the cheapest expert one at a time)
otherwise. gvp keeps a reconstruction-optimal general core and fills
the remaining slots with the globally highest variability scores. mop
shares the general core but replaces the global ranking with
cluster-then-select: k-means domains over the cached inputs, Ward
groups over per-domain performance vectors, one top-variability
representative per group. All ties break toward the lower expert index.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import DEFAULT_SUBSET_BUDGET, METHODS, _staged, tensor_store
from .cluster import kmeans, similarity_matrix, ward_partition
from .metrics import (
    PerformanceMatrix,
    VariabilityScores,
    _check_cache_layer,
    _domains,
    _LossScorer,
    _perf_row,
    activation_frequency,
    variability_scores,
)
from .moe_sim import CalibrationCache, MoELayer, _top_k

PROVENANCE_TAGS = ("general", "diversity", "baseline")  # in the order `prune` prints them
PROVENANCE_GENERAL, PROVENANCE_DIVERSITY, PROVENANCE_BASELINE = PROVENANCE_TAGS


def default_general_count(r: int) -> int:
    """Default size of the general core: half the slots, never all of them."""
    return min(math.ceil(r / 2), r - 1)


def _check_r(r: int, n: int) -> None:
    if not 1 <= r <= n:
        raise ValueError(f"r {r} outside [1, {n}]")


@dataclass
class PruningPlan:
    method: str
    kept: list[int]
    provenance: list[str]
    params: dict
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # numpy integers as Python ones, which JSON can store
        self.kept = [int(i) for i in self.kept]
        self.params = {k: int(v) if isinstance(v, np.integer) else v for k, v in self.params.items()}
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        r = self.params.get("r")
        n = self.params.get("n")
        if r is not None and len(self.kept) != r:
            raise ValueError(f"plan keeps {len(self.kept)} experts, expected r={r}")
        if len(set(self.kept)) != len(self.kept):
            raise ValueError("kept indices must be unique")
        if any(i < 0 for i in self.kept):
            raise ValueError("kept indices must be nonnegative")
        if n is not None and any(i >= n for i in self.kept):
            raise ValueError(f"kept index out of range [0, {n})")
        if len(self.provenance) != len(self.kept):
            raise ValueError("provenance must tag every kept expert")
        if any(tag not in PROVENANCE_TAGS for tag in self.provenance):
            raise ValueError(f"provenance tags must be in {sorted(PROVENANCE_TAGS)}")
        if self.method in ("gvp", "mop"):
            m = self.params.get("m")
            n_general = self.provenance.count(PROVENANCE_GENERAL)
            n_div = self.provenance.count(PROVENANCE_DIVERSITY)
            if m is not None and (n_general != m or n_div != len(self.kept) - m):
                raise ValueError(
                    f"expected {m} general + {len(self.kept) - m} diversity tags, "
                    f"got {n_general} + {n_div}"
                )
        if self.method == "mop" and "groups" in self.diagnostics:
            groups = self.diagnostics["groups"]
            div = [i for i, tag in zip(self.kept, self.provenance) if tag == PROVENANCE_DIVERSITY]
            homes = []
            for expert in div:
                home = [g for g, members in enumerate(groups) if expert in members]
                if len(home) != 1:
                    raise ValueError(f"diversity expert {expert} not in exactly one group")
                homes.append(home[0])
            if len(set(homes)) != len(homes):
                raise ValueError("diversity experts must map to distinct groups")
        # ascending, as the pruned forward orders its weight columns
        pairs = sorted(zip(self.kept, self.provenance))
        self.kept = [i for i, _ in pairs]
        self.provenance = [tag for _, tag in pairs]

    def diversity_experts(self) -> list[int]:
        return [i for i, t in zip(self.kept, self.provenance) if t == PROVENANCE_DIVERSITY]


# ---------------------------------------------------------------------------
# baselines


def prune_random(n: int, r: int, seed: int) -> PruningPlan:
    """Keep a uniformly random r-subset of the n experts."""
    _check_r(r, n)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return PruningPlan(
        method="random",
        kept=rng.choice(n, size=r, replace=False),
        provenance=[PROVENANCE_BASELINE] * r,
        params={"n": n, "r": r, "m": None, "K": None, "seed": seed},
    )


def prune_frequency(cache: CalibrationCache, layer: MoELayer, r: int) -> PruningPlan:
    """Keep the r most frequently top-k-activated experts."""
    n = layer.n_experts
    _check_r(r, n)
    counts = activation_frequency(cache, layer.top_k)
    return PruningPlan(
        method="frequency",
        kept=_top_k(counts, r),
        provenance=[PROVENANCE_BASELINE] * r,
        params={"n": n, "r": r, "m": None, "K": None, "seed": None},
        diagnostics={"activation_counts": counts},
    )


# ---------------------------------------------------------------------------
# reconstruction-loss search


def _first_min(losses: np.ndarray, size: int) -> int:
    """Index of the first smallest `size`-subset loss, NaN counting as +inf
    (so ties go to the earliest candidate); a ValueError if none is finite."""
    j = int(np.argmin(np.where(np.isnan(losses), np.inf, losses)))
    if not losses[j] < math.inf:
        raise ValueError(
            f"every candidate {size}-expert subset has a NaN or infinite reconstruction loss: "
            "the router logits or expert outputs overflow float32"
        )
    return j


def _search_exhaustive(
    scorer: _LossScorer, n: int, size: int, budget: int
) -> tuple[list[int], dict]:
    n_subsets = math.comb(n, size)
    if n_subsets > budget:
        raise ValueError(
            f"C({n}, {size}) = {n_subsets} subsets exceeds the budget of {budget}; "
            "use the greedy mode"
        )
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), size)),
        dtype=np.int32, count=n_subsets * size,
    ).reshape(n_subsets, size)
    # lexicographic order: one block per first element, scored in one call so
    # that no batch spans two blocks
    blocks = np.split(subsets, np.flatnonzero(np.diff(subsets[:, 0])) + 1)
    losses = np.concatenate([scorer.losses(block) for block in blocks])
    best_row = _first_min(losses, size)  # ties keep the lexicographically first subset
    diag = {"subsets": subsets, "losses": losses, "best_loss": float(losses[best_row])}
    return subsets[best_row].tolist(), diag


def _search_greedy(scorer: _LossScorer, n: int, size: int) -> tuple[list[int], dict]:
    current = list(range(n))
    removed: list[int] = []
    step_losses: list[float] = []
    while len(current) > size:
        # row j drops current[j]: all of a step's candidates scored in one call
        m = len(current)
        candidates = np.tile(current, (m, 1))[~np.eye(m, dtype=bool)].reshape(m, m - 1)
        losses = scorer.losses(candidates)
        j = _first_min(losses, m - 1)  # ascending, so loss ties remove the lower index
        removed.append(current.pop(j))
        step_losses.append(float(losses[j]))
    # the last step scored `current`: a set's loss does not depend on its batch
    final_loss = step_losses[-1] if step_losses else scorer.losses(np.array([current]))[0]
    diag = {
        "removed_order": np.asarray(removed, dtype=np.int32),
        "step_losses": np.asarray(step_losses, dtype=np.float64),
        "best_loss": float(final_loss),
    }
    return current, diag


def _search_mode(n: int, size: int, budget: int) -> str:
    """Exhaustive when the C(n, size) subsets fit the budget, greedy otherwise."""
    return "exhaustive" if math.comb(n, size) <= budget else "greedy"


def _search(
    scorer: _LossScorer, n: int, size: int, mode: str, budget: int
) -> tuple[list[int], dict]:
    """The best `size`-subset of the n experts by the scorer's loss, ascending,
    and the search diagnostics, whose "best_loss" is its loss."""
    if mode == "exhaustive":
        return _search_exhaustive(scorer, n, size, budget)
    if mode == "greedy":
        return _search_greedy(scorer, n, size)
    raise ValueError(f"mode must be 'exhaustive' or 'greedy', got {mode!r}")


def prune_enum(
    cache: CalibrationCache,
    layer: MoELayer,
    r: int,
    mode: str = "exhaustive",
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> PruningPlan:
    """Minimize reconstruction loss over r-subsets, exactly or greedily."""
    n = layer.n_experts
    _check_r(r, n)
    kept, diag = _search(_LossScorer(cache, layer), n, r, mode, budget)
    return PruningPlan(
        method=f"enum_{mode}",
        kept=kept,
        provenance=[PROVENANCE_BASELINE] * r,
        params={"n": n, "r": r, "m": None, "K": None, "seed": None},
        diagnostics=diag,
    )


def _general_count(r: int, m: int | None, n: int) -> int:
    """Checks r and m for gvp and mop; returns m (default: default_general_count(r))."""
    _check_r(r, n)
    if m is None:
        m = default_general_count(r)
    if not 0 <= m < r:
        raise ValueError(f"m {m} outside [0, {r})")
    return m


def _select_general(
    cache: CalibrationCache,
    layer: MoELayer,
    m: int,
    budget: int,
    on_output: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[list[int], list[int], dict]:
    """Stage 1 shared by gvp and mop: the enum search for the best m-subset.

    Returns the general core, the remaining candidates ascending and the
    stage diagnostics. `on_output` sees each expert output the search
    computes (see `_LossScorer`); with m = 0 there is no search.
    """
    n = layer.n_experts
    if m == 0:
        return [], list(range(n)), {"stage1_mode": "none"}
    mode = _search_mode(n, m, budget)
    core, diag = _search(_LossScorer(cache, layer, on_output), n, m, mode, budget)
    candidates = sorted(set(range(n)) - set(core))
    return core, candidates, {"stage1_mode": mode, "stage1_loss": diag["best_loss"]}


def _core_plan(
    method: str, general: list[int], diversity: list[int], params: dict,
    scores: VariabilityScores, diag: dict,
) -> PruningPlan:
    """The gvp or mop plan: the general core, then the diversity experts."""
    return PruningPlan(
        method,
        general + diversity,
        [PROVENANCE_GENERAL] * len(general) + [PROVENANCE_DIVERSITY] * len(diversity),
        params,
        {"s_var": scores.scores, "general": np.asarray(general, dtype=np.int32), **diag},
    )


def prune_gvp(
    cache: CalibrationCache,
    layer: MoELayer,
    r: int,
    m: int | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> PruningPlan:
    """General core by reconstruction loss, then a global variability ranking."""
    m = _general_count(r, m, layer.n_experts)
    general, candidates, stage_diag = _select_general(cache, layer, m, budget)
    scores = variability_scores(cache)
    return _core_plan(
        "gvp", general, [candidates[j] for j in _top_k(scores.scores[candidates], r - m)],
        {"n": layer.n_experts, "r": r, "m": m, "K": None, "seed": None}, scores, stage_diag,
    )


def prune_mop(
    cache: CalibrationCache,
    layer: MoELayer,
    r: int,
    m: int | None = None,
    kmeans_seed: int = 0,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> PruningPlan:
    """Cluster-then-select: one top-variability representative per expert group.

    The domains are found first, so that stage 1 hands each expert output it
    computes to the performance matrix: every expert is applied to the
    calibration inputs once.
    """
    m = _general_count(r, m, layer.n_experts)
    n_groups = r - m
    _check_cache_layer(cache, layer)
    if kmeans_seed < 0:
        raise ValueError(f"kmeans_seed must be >= 0, got {kmeans_seed}")

    # restarts guard against two k-means++ seeds landing in one planted domain
    labeling = kmeans(cache.inputs, n_groups, seed=kmeans_seed, max_iters=100, n_init=8)
    domains = _domains(labeling.labels, cache.n_tokens)
    rows: dict[int, np.ndarray] = {}

    def record(e: int, out: np.ndarray) -> None:
        rows[e] = _perf_row(out, cache.outputs_full, domains)

    general, candidates, stage_diag = _select_general(cache, layer, m, budget, record)
    for e in candidates:
        if e not in rows:  # m = 0: no search applied it
            record(e, layer.experts[e].apply(cache.inputs))
    perf = PerformanceMatrix(
        errors=np.array([rows[e] for e in candidates]),
        domain_sizes=domains.sizes,
        candidate_ids=candidates,
    )
    sim = similarity_matrix(perf)
    partition = ward_partition(perf, sim, n_groups)

    scores = variability_scores(cache)
    # Ward groups are ascending, so a tied score goes to the lower id
    representatives = [g[_top_k(scores.scores[g], 1)[0]] for g in partition.groups]
    return _core_plan(
        "mop", general, representatives,
        {"n": layer.n_experts, "r": r, "m": m, "K": n_groups, "seed": kmeans_seed}, scores,
        {
            "labels": labeling.labels,
            "centroids": labeling.centroids,
            "groups": [list(g) for g in partition.groups],
            "similarity": sim.s,
            "perf_errors": perf.errors,
            "candidate_ids": perf.candidate_ids,
            **stage_diag,
        },
    )


# ---------------------------------------------------------------------------
# dispatch and serialization


def prune_with_method(
    cache: CalibrationCache,
    layer: MoELayer,
    method: str,
    r: int,
    m: int | None = None,
    seed: int | None = None,
    kmeans_seed: int | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> PruningPlan:
    """Run one strategy by name; 'enum' infers the mode from the budget."""
    if method == "random":
        return prune_random(layer.n_experts, r, seed if seed is not None else 0)
    if method == "frequency":
        return prune_frequency(cache, layer, r)
    if method == "enum":
        mode = _search_mode(layer.n_experts, r, budget)
        return prune_enum(cache, layer, r, mode=mode, budget=budget)
    if method == "enum_exhaustive":
        return prune_enum(cache, layer, r, mode="exhaustive", budget=budget)
    if method == "enum_greedy":
        return prune_enum(cache, layer, r, mode="greedy", budget=budget)
    if method == "gvp":
        return prune_gvp(cache, layer, r, m=m, budget=budget)
    if method == "mop":
        return prune_mop(
            cache, layer, r, m=m,
            kmeans_seed=kmeans_seed if kmeans_seed is not None else 0,
            budget=budget,
        )
    raise ValueError(f"unknown method {method!r}")


def save_plan(plan: PruningPlan, path: str | os.PathLike) -> None:
    """Write ``<path>.json`` plus a ``<path>.diag`` archive when diagnostics exist.

    Array diagnostics become archive arrays; every other one is stored as
    JSON text in the archive metadata. A save that fails changes no file.
    """
    directory, name = os.path.split(os.path.abspath(path))
    diag_name = name + ".diag" if plan.diagnostics else None
    with _staged(directory) as stage:
        if diag_name:
            arrays: list[tuple[str, np.ndarray]] = []
            metadata: dict[str, str] = {"kind": "plan_diagnostics"}
            for key, value in plan.diagnostics.items():
                if isinstance(value, np.ndarray):
                    arrays.append((key, value))
                else:
                    metadata[key] = json.dumps(value)
            tensor_store.write_archive(os.path.join(stage, diag_name), arrays, metadata)
        doc = {
            "method": plan.method,
            "params": plan.params,
            "kept": plan.kept,
            "provenance": plan.provenance,
            "diagnostics_archive": diag_name,
        }
        with open(os.path.join(stage, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_plan(path: str | os.PathLike) -> PruningPlan:
    """The plan `save_plan` wrote; a malformed one is an ArchiveError that
    names the plan file and the field."""
    path = os.fspath(path)
    with open(path + ".json", "r", encoding="utf-8") as fh:
        text = fh.read()
    with tensor_store._naming(f"plan {path}.json"):
        doc = tensor_store._typed(json.loads(text), dict, "plan root")
        params = tensor_store._field(doc, "params", dict)
        for key in ("n", "r", "m", "K", "seed"):
            tensor_store._field(params, key, int, "params", optional=True)
        diagnostics: dict = {}
        diag_name = tensor_store._field(doc, "diagnostics_archive", str, optional=True)
        if diag_name:
            if os.path.basename(diag_name) != diag_name:
                raise ValueError(f"diagnostics_archive {diag_name!r} is not a bare file name")
            diag_path = os.path.join(os.path.dirname(path), diag_name)
            try:
                manifest, arrays = tensor_store.read_archive(diag_path, "plan_diagnostics")
            except FileNotFoundError as exc:
                raise ValueError(f"diagnostics_archive {diag_name!r}: {exc}") from exc
            diagnostics.update(arrays)
            for key, value in manifest.metadata.items():
                if key != "kind" and key not in diagnostics:
                    with tensor_store._naming(f"{diag_path}.json: metadata {key!r} is not JSON"):
                        diagnostics[key] = json.loads(value)
        return PruningPlan(
            method=tensor_store._field(doc, "method", str),
            kept=tensor_store._field(doc, "kept", list, items=int),
            provenance=tensor_store._field(doc, "provenance", list, items=str),
            params=params,
            diagnostics=diagnostics,
        )
