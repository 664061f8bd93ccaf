"""Scoring primitives all pruning strategies share.

Reconstruction loss is the summed squared distance between pruned-layer
outputs and the cached full-layer outputs (a sum over tokens, not a
mean; token counts live in the cache so means are recoverable). The
variability score of an expert is the KL divergence, in bits, between
its normalized per-token activation distribution and the uniform
distribution; flat profiles score near 0, a point mass scores
log2(n_tokens).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .moe_sim import CalibrationCache, MoELayer, _combine, _route_batch, _sorted_kept, _top_k


@dataclass
class VariabilityScores:
    scores: np.ndarray  # [n_experts], bits, >= 0


@dataclass
class PerformanceMatrix:
    """Per-expert mean single-expert reconstruction error in each domain."""

    errors: np.ndarray        # [n_candidates, K]
    domain_sizes: np.ndarray  # [K]
    candidate_ids: np.ndarray  # [n_candidates], expert indices the rows describe

    def __post_init__(self) -> None:
        self.errors = np.asarray(self.errors, dtype=np.float64)
        self.domain_sizes = np.asarray(self.domain_sizes, dtype=np.int64)
        self.candidate_ids = np.asarray(self.candidate_ids, dtype=np.int64)
        if self.errors.ndim != 2:
            raise ValueError("errors must be a 2-D matrix")
        if not np.all(np.isfinite(self.errors)) or np.any(self.errors < 0):
            raise ValueError("errors must be finite and nonnegative")
        if self.domain_sizes.shape != (self.errors.shape[1],):
            raise ValueError("domain_sizes must have one entry per domain column")
        if np.any(self.domain_sizes < 1):
            raise ValueError("every domain must contain at least one token")
        if self.candidate_ids.shape != (self.errors.shape[0],):
            raise ValueError("candidate_ids must have one entry per row")


def _check_cache_layer(cache: CalibrationCache, layer: MoELayer) -> None:
    if cache.inputs.shape[1] != layer.hidden_dim:
        raise ValueError("cache hidden dim does not match layer")
    if cache.n_experts != layer.n_experts:
        raise ValueError("cache gate_probs expert count does not match layer")


def _sq_error(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The squared error of `pred` against `target`, elementwise in float64:
    every loss in the package is a sum of these."""
    diff = pred.astype(np.float64)
    diff -= target
    diff *= diff
    return diff


# logits routed per `_route_batch` call of a search, B*N*s, and gate entries
# per block of `variability_scores`: large enough that the per-call cost of
# the numpy calls fades, small enough that their temporaries add little to
# peak memory
_BATCH_LOGITS = 1 << 13


class _LossScorer:
    """Reconstruction losses of many kept sets over one cache.

    The cache and the layer are checked once, when the scorer is made. A
    search hands `losses` one block of kept sets at a time (the subsets
    that share a first element, or one greedy step's candidates), which
    are routed in batches of at most `_BATCH_LOGITS` logits by one
    `_route_batch` call each, so no batch spans two blocks. A set's
    logits come from the same BLAS call whatever else is in its batch, so
    its weights, and so its loss, keep their bits. An expert's output does
    not depend on the set, so each one is computed on first use and kept
    until a call none of whose sets keeps the expert: that call drops it
    before computing anything. No search comes back to a dropped expert,
    so each output is computed once.

    `on_error(e, error)`, if given, sees the squared error of each output
    against the full layer as the output is computed. When that output is
    a one-expert set's whole prediction, the set is scored with the same
    array, so its squared error is computed once; the scorer keeps no
    squared error after the set is scored.
    """

    def __init__(
        self,
        cache: CalibrationCache,
        layer: MoELayer,
        on_error: Callable[[int, np.ndarray], None] | None = None,
    ) -> None:
        _check_cache_layer(cache, layer)
        self._cache = cache
        self._layer = layer
        self._target = cache.outputs_full.astype(np.float64)
        self._outputs: dict[int, np.ndarray] = {}
        self._on_error = on_error

    def _output(self, e: int) -> np.ndarray:
        out = self._outputs.get(e)
        if out is None:
            out = self._outputs[e] = self._layer.experts[e].apply(self._cache.inputs)
            if self._on_error is not None:
                self._on_error(e, _sq_error(out, self._target))
        return out

    def losses(self, subsets: np.ndarray) -> np.ndarray:
        """The loss of each kept set `subsets` [M, s] holds, in row order.

        Each row must be ascending, unique and in range; nothing is checked.
        """
        kept = np.zeros(self._layer.n_experts, dtype=bool)
        kept[subsets] = True
        self._outputs = {e: out for e, out in self._outputs.items() if kept[e]}
        per_batch = max(1, _BATCH_LOGITS // (self._cache.n_tokens * subsets.shape[1]))
        out = np.empty(len(subsets), dtype=np.float64)
        for start in range(0, len(subsets), per_batch):
            batch = subsets[start : start + per_batch]
            out[start : start + len(batch)] = self._batch_losses(batch)
        return out

    def _batch_losses(self, batch: np.ndarray) -> list[float]:
        # one routing call; then each set's output is added up, scored and
        # dropped before the next one's, and the weights die on return
        weights = _route_batch(self._layer, batch, self._cache.inputs)
        return [self._error(w, idx).sum() for w, idx in zip(weights, batch.tolist())]

    def _error(self, weights: np.ndarray, idx: list[int]) -> np.ndarray:
        """The squared error of one kept set's prediction."""
        if len(idx) > 1 or not (weights == 1).all():
            return _sq_error(_combine(self._layer, weights, idx, self._output), self._target)
        # one expert weighted exactly 1 everywhere: combining would add its output
        # to zeros, turning at most a -0.0 into +0.0, a sign the square removes
        e = idx[0]
        if e in self._outputs or self._on_error is None:
            return _sq_error(self._output(e), self._target)
        out = self._outputs[e] = self._layer.experts[e].apply(self._cache.inputs)
        error = _sq_error(out, self._target)
        self._on_error(e, error)
        return error


def reconstruction_loss(
    cache: CalibrationCache, layer: MoELayer, kept: Iterable[int]
) -> float:
    """Sum over cached tokens of ||pruned_output - cached_full_output||^2."""
    scorer = _LossScorer(cache, layer)
    idx = _sorted_kept(kept, layer.n_experts)
    return float(scorer.losses(np.array([idx], dtype=np.intp))[0])


def variability_scores(cache: CalibrationCache) -> VariabilityScores:
    """Per-expert KL(normalized activation profile || uniform), in bits.

    Each token's term is q log2(q N), 0 where q = 0, for q = p / Z and Z an
    expert's total gate mass. The float64 terms are built one block of
    `_BATCH_LOGITS // n` tokens at a time, never for all N at once. numpy
    sums an [N, n] array's columns row after row, and each block's first row
    carries the total of the blocks before it, so each score, like Z, is one
    sum of its terms in token order, with the same bits. numpy sums a lone
    column pairwise instead, so a one-expert gate is one block.
    """
    gate = cache.gate_probs
    n_tokens, n = gate.shape
    if n > 1:
        z, rows = gate.sum(axis=0, dtype=np.float64), max(1, _BATCH_LOGITS // n)
    else:
        z, rows = gate.astype(np.float64).sum(axis=0), n_tokens
    dead = np.flatnonzero(z == 0.0)
    if dead.size:
        raise ValueError(
            f"expert {int(dead[0])} never receives probability mass (Z == 0)"
        )
    total = np.zeros(n)
    for start in range(0, n_tokens, rows):
        q = gate[start : start + rows].astype(np.float64)
        q /= z
        terms = np.multiply(q, n_tokens)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log2(terms, out=terms)
            terms *= q
        terms[q == 0.0] = 0.0
        terms[0] += total
        total = terms.sum(axis=0)
    return VariabilityScores(scores=np.maximum(total, 0.0))


def activation_frequency(cache: CalibrationCache, top_k: int) -> np.ndarray:
    """How many tokens place each expert inside the top_k gate probabilities."""
    n = cache.n_experts
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k {top_k} outside [1, {n}]")
    return np.bincount(_top_k(cache.gate_probs, top_k).ravel(), minlength=n).astype(np.int64)


class _Domains(NamedTuple):
    """The tokens of each domain: domain j's token indices, ascending, are
    `order[spans[j]]`, and there are `sizes[j]` of them."""

    order: np.ndarray   # [N] a stable argsort of the per-token domain ids
    spans: list[slice]  # [K] each domain's slice of `order`
    sizes: np.ndarray   # [K] token counts


def _domains(labels: np.ndarray, n_tokens: int) -> _Domains:
    """One token order for every per-domain sum, for per-token domain ids.

    A domain's slice of `order` holds the tokens `labels == j` selects, in
    the same order, so a sum over it keeps the masked sum's bits.
    """
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integer domain ids, got dtype {labels.dtype}")
    if labels.shape != (n_tokens,):
        raise ValueError("labels must have one entry per cached token")
    if np.any(labels < 0):
        raise ValueError("labels must be nonnegative domain ids")
    sizes = np.bincount(labels)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(f"domain {int(empty[0])} has no tokens")
    # at the narrowest integer width numpy's stable sort is a radix sort
    order = np.argsort(labels.astype(np.min_scalar_type(sizes.size)), kind="stable")
    ends = np.cumsum(sizes).tolist()
    return _Domains(order, [slice(a, b) for a, b in zip([0] + ends, ends)], sizes)


def _domain_errors(error: np.ndarray, domains: _Domains) -> tuple[np.ndarray, np.ndarray]:
    """Each token's sum of the elementwise squared `error`, and their sum
    over each domain's tokens, added in token order."""
    per_token = error.sum(axis=1)
    grouped = per_token[domains.order]
    return per_token, np.array([np.add.reduce(grouped[span]) for span in domains.spans])


def _perf_row(out: np.ndarray, outputs_full: np.ndarray, domains: _Domains) -> np.ndarray:
    """One expert's mean squared error against the full layer per domain, from
    its output `out` on the cached inputs, as `.mean()` of the masked errors."""
    return _domain_errors(_sq_error(out, outputs_full), domains)[1] / domains.sizes


def performance_matrix(
    cache: CalibrationCache,
    layer: MoELayer,
    candidates: Sequence[int],
    labels: np.ndarray,
) -> PerformanceMatrix:
    """Mean single-expert squared reconstruction error per discovered domain."""
    _check_cache_layer(cache, layer)
    ids = np.asarray(list(candidates), dtype=np.int64)
    if ids.size == 0:
        raise ValueError("candidates must be nonempty")
    if len(set(ids.tolist())) != ids.size:
        raise ValueError("candidate list contains duplicates")
    if np.any(ids < 0) or np.any(ids >= layer.n_experts):
        raise ValueError("candidate index out of range")
    domains = _domains(labels, cache.n_tokens)
    errors = [
        _perf_row(layer.experts[int(e)].apply(cache.inputs), cache.outputs_full, domains)
        for e in ids
    ]
    return PerformanceMatrix(errors=np.array(errors), domain_sizes=domains.sizes, candidate_ids=ids)
