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
from typing import Iterable, Sequence

import numpy as np

from .moe_sim import CalibrationCache, MoELayer, _pruned_forward


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


class _LossScorer:
    """Reconstruction losses of many kept sets over one cache.

    The cache and the layer are checked once, when the scorer is made; each
    kept set is checked per call (nonempty, unique, in range) in plain
    Python by the pruned-layer forward, which checks nothing else. Router
    logits are still taken per kept set, but an expert's output does not
    depend on the set, so each one is computed on first use and reused until
    release(e). A search releases an expert once no later subset keeps it,
    which bounds how many outputs stay alive.
    """

    def __init__(self, cache: CalibrationCache, layer: MoELayer) -> None:
        _check_cache_layer(cache, layer)
        self._cache = cache
        self._layer = layer
        self._target = cache.outputs_full.astype(np.float64)
        self._outputs: dict[int, np.ndarray] = {}

    def _output(self, e: int) -> np.ndarray:
        out = self._outputs.get(e)
        if out is None:
            out = self._outputs[e] = self._layer.experts[e].apply(self._cache.inputs)
        return out

    def loss(self, kept: Iterable[int]) -> float:
        pred, _ = _pruned_forward(self._layer, kept, self._cache.inputs, self._output)
        diff = pred.astype(np.float64)
        diff -= self._target
        diff *= diff
        return float(diff.sum())

    def release(self, e: int) -> None:
        self._outputs.pop(e, None)


def reconstruction_loss(
    cache: CalibrationCache, layer: MoELayer, kept: Iterable[int]
) -> float:
    """Sum over cached tokens of ||pruned_output - cached_full_output||^2."""
    return _LossScorer(cache, layer).loss(kept)


def variability_scores(cache: CalibrationCache) -> VariabilityScores:
    """Per-expert KL(normalized activation profile || uniform), in bits."""
    probs = cache.gate_probs.astype(np.float64)
    n_total = cache.n_tokens
    z = probs.sum(axis=0)
    dead = np.flatnonzero(z == 0.0)
    if dead.size:
        raise ValueError(
            f"expert {int(dead[0])} never receives probability mass (Z == 0)"
        )
    q = probs / z
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * np.log2(q * n_total), 0.0)
    scores = np.maximum(terms.sum(axis=0), 0.0)
    return VariabilityScores(scores=scores)


def activation_frequency(cache: CalibrationCache, top_k: int) -> np.ndarray:
    """How many tokens place each expert inside the top_k gate probabilities."""
    n = cache.n_experts
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k {top_k} outside [1, {n}]")
    order = np.argsort(-cache.gate_probs, axis=1, kind="stable")[:, :top_k]
    return np.bincount(order.ravel(), minlength=n).astype(np.int64)


def performance_matrix(
    cache: CalibrationCache,
    layer: MoELayer,
    candidates: Sequence[int],
    labels: np.ndarray,
) -> PerformanceMatrix:
    """Mean single-expert squared reconstruction error per discovered domain."""
    _check_cache_layer(cache, layer)
    labels = np.asarray(labels)
    if labels.shape != (cache.n_tokens,):
        raise ValueError("labels must have one entry per cached token")
    ids = np.asarray(list(candidates), dtype=np.int64)
    if ids.size == 0:
        raise ValueError("candidates must be nonempty")
    if np.unique(ids).size != ids.size:
        raise ValueError("candidate list contains duplicates")
    if np.any(ids < 0) or np.any(ids >= layer.n_experts):
        raise ValueError("candidate index out of range")

    n_domains = int(labels.max()) + 1 if labels.size else 0
    if np.any(labels < 0):
        raise ValueError("labels must be nonnegative domain ids")
    sizes = np.bincount(labels, minlength=n_domains)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(f"domain {int(empty[0])} has no tokens")

    target = cache.outputs_full.astype(np.float64)
    errors = np.empty((ids.size, n_domains), dtype=np.float64)
    for row, expert in enumerate(ids):
        out = layer.experts[int(expert)].apply(cache.inputs).astype(np.float64)
        per_token = ((out - target) ** 2).sum(axis=1)
        for k in range(n_domains):
            errors[row, k] = per_token[labels == k].mean()
    return PerformanceMatrix(errors=errors, domain_sizes=sizes, candidate_ids=ids)

