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
from typing import Callable, Iterable, Sequence

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


def _sq_error(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The squared error of `pred` against `target`, elementwise in float64:
    every loss in the package is a sum of these."""
    diff = pred.astype(np.float64)
    diff -= target
    diff *= diff
    return diff


class _LossScorer:
    """Reconstruction losses of many kept sets over one cache.

    The cache and the layer are checked once, when the scorer is made; each
    kept set is checked per call (nonempty, unique, in range) in plain
    Python by the pruned-layer forward, which checks nothing else. Router
    logits are still taken per kept set, but an expert's output does not
    depend on the set, so each one is computed on first use and reused until
    release(e). A search releases an expert once no later subset keeps it,
    which bounds how many outputs stay alive. `on_output(e, output)`, if
    given, sees each output as it is computed.
    """

    def __init__(
        self,
        cache: CalibrationCache,
        layer: MoELayer,
        on_output: Callable[[int, np.ndarray], None] | None = None,
    ) -> None:
        _check_cache_layer(cache, layer)
        self._cache = cache
        self._layer = layer
        self._target = cache.outputs_full.astype(np.float64)
        self._outputs: dict[int, np.ndarray] = {}
        self._on_output = on_output

    def _output(self, e: int) -> np.ndarray:
        out = self._outputs.get(e)
        if out is None:
            out = self._outputs[e] = self._layer.experts[e].apply(self._cache.inputs)
            if self._on_output is not None:
                self._on_output(e, out)
        return out

    def loss(self, kept: Iterable[int]) -> float:
        pred, _ = _pruned_forward(self._layer, kept, self._cache.inputs, self._output)
        return float(_sq_error(pred, self._target).sum())

    def release(self, e: int) -> None:
        self._outputs.pop(e, None)


def reconstruction_loss(
    cache: CalibrationCache, layer: MoELayer, kept: Iterable[int]
) -> float:
    """Sum over cached tokens of ||pruned_output - cached_full_output||^2."""
    return _LossScorer(cache, layer).loss(kept)


def variability_scores(cache: CalibrationCache) -> VariabilityScores:
    """Per-expert KL(normalized activation profile || uniform), in bits.

    Each token's term is q log2(q N), 0 where q = 0, computed in place so
    that at most two [N, n] float64 arrays are alive at once.
    """
    q = cache.gate_probs.astype(np.float64)
    z = q.sum(axis=0)
    dead = np.flatnonzero(z == 0.0)
    if dead.size:
        raise ValueError(
            f"expert {int(dead[0])} never receives probability mass (Z == 0)"
        )
    q /= z
    terms = np.multiply(q, cache.n_tokens)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log2(terms, out=terms)
        terms *= q
    terms[q == 0.0] = 0.0
    scores = np.maximum(terms.sum(axis=0), 0.0)
    return VariabilityScores(scores=scores)


def activation_frequency(cache: CalibrationCache, top_k: int) -> np.ndarray:
    """How many tokens place each expert inside the top_k gate probabilities."""
    n = cache.n_experts
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k {top_k} outside [1, {n}]")
    order = np.argsort(-cache.gate_probs, axis=1, kind="stable")[:, :top_k]
    return np.bincount(order.ravel(), minlength=n).astype(np.int64)


def _domains(labels: np.ndarray, n_tokens: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Each domain's token mask and token count, for per-token domain ids."""
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
    return [labels == k for k in range(sizes.size)], sizes


def _domain_errors(
    pred: np.ndarray, target: np.ndarray, masks: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Each token's squared error of `pred` against `target`, and their sum
    over each domain's tokens, added in token order."""
    per_token = _sq_error(pred, target).sum(axis=1)
    return per_token, np.array([np.add.reduce(per_token[mask]) for mask in masks])


def _perf_row(
    out: np.ndarray, outputs_full: np.ndarray, masks: list[np.ndarray], sizes: np.ndarray
) -> np.ndarray:
    """One expert's mean squared error against the full layer per domain, from
    its output `out` on the cached inputs, as `.mean()` of the masked errors."""
    return _domain_errors(out, outputs_full, masks)[1] / sizes


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
    masks, sizes = _domains(labels, cache.n_tokens)
    errors = [
        _perf_row(layer.experts[int(e)].apply(cache.inputs), cache.outputs_full, masks, sizes)
        for e in ids
    ]
    return PerformanceMatrix(errors=np.array(errors), domain_sizes=sizes, candidate_ids=ids)
