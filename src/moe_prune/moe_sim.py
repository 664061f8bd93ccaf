"""Simulated mixture-of-experts layer with planted functional structure.

The layer is a softmax router over ``n`` two-matrix feed-forward experts
with top-k token routing. The generator plants known structure: each
domain gets a target transform duplicated (plus noise) across its
specialist experts, generalists average the domain targets, and router
rows point at the domain centroids so domain-d inputs favor domain-d
specialists. That ground truth is what the evaluation module scores
pruning methods against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import tensor_store

GATE_ROW_SUM_TOL = 1e-5


def _as_f32(name: str, value: np.ndarray, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(value, dtype=np.float32)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass
class ExpertTransform:
    """One expert: x -> w_out @ relu(w_in @ x)."""

    w_in: np.ndarray   # [ff_dim, hidden_dim]
    w_out: np.ndarray  # [hidden_dim, ff_dim]

    def __post_init__(self) -> None:
        self.w_in = _as_f32("w_in", self.w_in, 2)
        self.w_out = _as_f32("w_out", self.w_out, 2)
        if self.w_out.shape[1] != self.w_in.shape[0]:
            raise ValueError(
                f"w_out inner dim {self.w_out.shape[1]} != w_in outer dim {self.w_in.shape[0]}"
            )

    @property
    def hidden_dim(self) -> int:
        return self.w_in.shape[1]

    @property
    def ff_dim(self) -> int:
        return self.w_in.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Expert output for a batch of rows, shape [N, hidden_dim]."""
        hidden = x @ self.w_in.T
        np.maximum(hidden, np.float32(0.0), out=hidden)
        return hidden @ self.w_out.T


@dataclass
class MoELayer:
    router: np.ndarray  # [n_experts, hidden_dim] logit weights
    experts: list[ExpertTransform]
    top_k: int
    specialist_domain: np.ndarray | None = None  # planted map, -1 for generalists

    def __post_init__(self) -> None:
        self.router = _as_f32("router", self.router, 2)
        if not self.experts:
            raise ValueError("layer needs at least one expert")
        if len(self.experts) != self.router.shape[0]:
            raise ValueError(
                f"router has {self.router.shape[0]} rows for {len(self.experts)} experts"
            )
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        for i, expert in enumerate(self.experts):
            if expert.hidden_dim != self.hidden_dim or expert.w_out.shape[0] != self.hidden_dim:
                raise ValueError(f"expert {i} dims do not match hidden_dim {self.hidden_dim}")
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"top_k {self.top_k} outside [1, {self.n_experts}]")
        if self.specialist_domain is not None:
            dom = np.ascontiguousarray(self.specialist_domain, dtype=np.int32)
            if dom.shape != (self.n_experts,):
                raise ValueError("specialist_domain must have one entry per expert")
            self.specialist_domain = dom

    @property
    def n_experts(self) -> int:
        return self.router.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.router.shape[1]

    @property
    def ff_dim(self) -> int:
        return self.experts[0].ff_dim


@dataclass(frozen=True)
class PlantedSpec:
    """Blueprint for a layer with known specialist/generalist structure."""

    n_domains: int
    specialists_per_domain: int
    n_generalists: int
    duplicate_noise: float
    domain_separation: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_domains < 1 or self.specialists_per_domain < 1:
            raise ValueError("need at least one domain with one specialist")
        if self.n_generalists < 0:
            raise ValueError("n_generalists must be >= 0")
        if self.duplicate_noise < 0:
            raise ValueError("duplicate_noise must be >= 0")
        if self.domain_separation <= 0:
            raise ValueError("domain_separation must be > 0")

    @property
    def n_experts(self) -> int:
        return self.n_domains * self.specialists_per_domain + self.n_generalists

    @property
    def planted_domains(self) -> list[int]:
        """Each expert's planted domain, in layer order; -1 for a generalist."""
        specialists = [d for d in range(self.n_domains) for _ in range(self.specialists_per_domain)]
        return specialists + [-1] * self.n_generalists


@dataclass
class CalibrationCache:
    """Cached token inputs, original layer outputs, and full gate probabilities."""

    inputs: np.ndarray        # [N, hidden_dim]
    outputs_full: np.ndarray  # [N, hidden_dim]
    gate_probs: np.ndarray    # [N, n_experts], full softmax (not top-k masked)
    source_domain: np.ndarray | None = None  # generator ground truth

    def __post_init__(self) -> None:
        self.inputs = _as_f32("inputs", self.inputs, 2)
        self.outputs_full = _as_f32("outputs_full", self.outputs_full, 2)
        self.gate_probs = _as_f32("gate_probs", self.gate_probs, 2)
        n = self.inputs.shape[0]
        if n < 1:
            raise ValueError("cache must hold at least one token")
        if self.outputs_full.shape != self.inputs.shape:
            raise ValueError("outputs_full shape does not match inputs")
        if self.gate_probs.shape[0] != n:
            raise ValueError("gate_probs token count does not match inputs")
        if np.any(self.gate_probs < 0):
            raise ValueError("gate_probs must be nonnegative")
        row_sums = self.gate_probs.sum(axis=1, dtype=np.float64)
        if np.any(np.abs(row_sums - 1.0) > GATE_ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                f"gate_probs row {worst} sums to {row_sums[worst]:.8f}, expected 1"
            )
        if self.source_domain is not None:
            self.source_domain = np.ascontiguousarray(self.source_domain, dtype=np.int32)
            if self.source_domain.shape != (n,):
                raise ValueError("source_domain must have one entry per token")
            if np.any(self.source_domain < 0):
                raise ValueError("source_domain must be nonnegative")

    @property
    def n_tokens(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_experts(self) -> int:
        return self.gate_probs.shape[1]


# ---------------------------------------------------------------------------
# generation


def domain_centroids(spec: PlantedSpec, hidden_dim: int) -> np.ndarray:
    """Input-space centroids, pairwise separated by exactly domain_separation.

    Scaled axis vectors form a regular simplex, so hidden_dim must be at
    least n_domains. Shared by generate_layer (router targets) and
    generate_calibration (cluster centers).
    """
    if hidden_dim < spec.n_domains:
        raise ValueError(
            f"hidden_dim {hidden_dim} < n_domains {spec.n_domains}; centroids need one axis each"
        )
    scale = spec.domain_separation / math.sqrt(2.0)
    centroids = np.zeros((spec.n_domains, hidden_dim), dtype=np.float32)
    for d in range(spec.n_domains):
        centroids[d, d] = scale
    return centroids


def generate_layer(
    spec: PlantedSpec, hidden_dim: int, ff_dim: int, top_k: int
) -> MoELayer:
    """Build a layer with planted structure, deterministic given spec.seed."""
    centroids = domain_centroids(spec, hidden_dim)
    rng = np.random.default_rng(spec.seed)

    def gaussian(shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
        return scale * rng.standard_normal(shape) / math.sqrt(shape[-1])

    targets_in = [gaussian((ff_dim, hidden_dim)) for _ in range(spec.n_domains)]
    targets_out = [gaussian((hidden_dim, ff_dim)) for _ in range(spec.n_domains)]
    # (base w_in, base w_out, planted domain) of each expert: the domain's
    # target for a specialist, the targets' mean for a generalist (-1)
    means = (np.mean(targets_in, axis=0), np.mean(targets_out, axis=0), -1)
    bases = [
        (targets_in[d], targets_out[d], d) if d >= 0 else means for d in spec.planted_domains
    ]

    noise = spec.duplicate_noise
    experts = [
        ExpertTransform(w_in + gaussian(w_in.shape, noise), w_out + gaussian(w_out.shape, noise))
        for w_in, w_out, _ in bases
    ]
    directions = centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
    router = np.array([
        (directions[d] if d >= 0 else 0.0) + gaussian((hidden_dim,), noise)
        for _, _, d in bases
    ])
    return MoELayer(
        router=router,
        experts=experts,
        top_k=top_k,
        specialist_domain=np.array(spec.planted_domains, dtype=np.int32),
    )


def generate_calibration(
    layer: MoELayer, spec: PlantedSpec, tokens_per_domain: int, seed: int
) -> CalibrationCache:
    """Draw per-domain Gaussian token clusters and run the full layer over them.

    Domains are interleaved round-robin in token order; cluster std is 1.
    """
    if tokens_per_domain < 1:
        raise ValueError("tokens_per_domain must be >= 1")
    planted = None if layer.specialist_domain is None else layer.specialist_domain.tolist()
    if planted is not None and planted != spec.planted_domains:
        raise ValueError(
            f"layer plants its experts in domains {planted} but spec implies {spec.planted_domains}"
        )
    if layer.n_experts != spec.n_experts:
        raise ValueError(
            f"layer has {layer.n_experts} experts but spec implies {spec.n_experts}"
        )

    rng = np.random.default_rng(seed)
    centroids = domain_centroids(spec, layer.hidden_dim)
    n_total = spec.n_domains * tokens_per_domain
    inputs = np.empty((n_total, layer.hidden_dim), dtype=np.float32)
    source = np.empty(n_total, dtype=np.int32)
    for d in range(spec.n_domains):
        draws = centroids[d] + rng.standard_normal((tokens_per_domain, layer.hidden_dim))
        inputs[d :: spec.n_domains] = draws.astype(np.float32)
        source[d :: spec.n_domains] = d
    return cache_from_inputs(layer, inputs, source_domain=source)


def cache_from_inputs(
    layer: MoELayer, inputs: np.ndarray, source_domain: np.ndarray | None = None
) -> CalibrationCache:
    """Cache arbitrary inputs: full-layer outputs plus full gate distribution.

    The inputs are scanned for non-finite values once, by the cache, after
    the layer has run on them (with floating-point warnings off, since it
    may run on the values the cache then rejects).
    """
    inputs = np.ascontiguousarray(inputs, dtype=np.float32)
    if inputs.ndim != 2:
        raise ValueError(f"inputs must be 2-dimensional, got shape {inputs.shape}")
    if inputs.shape[1] != layer.hidden_dim:
        raise ValueError("inputs width does not match layer hidden_dim")
    with np.errstate(all="ignore"):
        outputs_full = _pruned_forward(layer, range(layer.n_experts), inputs)[0]
        gate_probs = _gate(layer, inputs)
    return CalibrationCache(
        inputs=inputs,
        outputs_full=outputs_full,
        gate_probs=gate_probs,
        source_domain=source_domain,
    )


# ---------------------------------------------------------------------------
# forward passes


def _gate(layer: MoELayer, inputs: np.ndarray) -> np.ndarray:
    """Full softmax over all experts, shape [N, n], for each row of `inputs`,
    a checked f32 [N, hidden_dim] array; nothing is checked here."""
    logits = inputs @ layer.router.T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _sorted_kept(kept: Iterable[int], n_experts: int) -> list[int]:
    """`kept` as an ascending list, checked: nonempty, in range, unique.

    Plain Python: a search checks every kept set it scores, and for a few
    indices this costs a small fraction of numpy's sort and unique.
    """
    idx = sorted(int(i) for i in kept)
    if not idx:
        raise ValueError("kept set must be nonempty")
    if idx[0] < 0 or idx[-1] >= n_experts:
        raise ValueError(f"kept indices out of range [0, {n_experts})")
    if any(a == b for a, b in zip(idx, idx[1:])):
        raise ValueError("kept indices must be unique")
    return idx


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values along the last axis, largest first and
    ties to the lower index: the one ranking rule of the package."""
    return np.argsort(-values, axis=-1, kind="stable")[..., :k]


def _route_batch(layer: MoELayer, idx: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Routing weights [B, s, N] of B kept sets `idx` [B, s] for `inputs`.

    Each row of `idx` must be ascending, unique and in range, and `inputs` a
    checked f32 [N, hidden_dim] array; nothing is checked here. Set b's
    logits are the product of the inputs with its kept router rows, taken
    for all B sets by one `np.matmul`: the gufunc makes, for each set, the
    BLAS call the 2-D product makes (same shape, same transpose flags, all
    N rows), so every set's logits keep their bits whatever B is. The top-k
    order is `_top_k` of each token's logits, as in the token-major
    formula. Everything after the top-k runs rank-major on [k, B*N]
    arrays gathered and scattered through flat indices: reductions over a
    long axis are far cheaper in numpy than over a length-k one, and give
    the same values. Every step is per token, so a set's weights do not
    depend on the other sets in the batch. With one kept expert (s = 1) the
    weight is just exp(l - l) / exp(l - l): exactly 1 for a finite logit l,
    NaN otherwise; there is nothing to sort, gather or scatter.
    """
    logits = np.matmul(inputs, layer.router[idx].transpose(0, 2, 1))  # [B, N, s]
    n_sets, n_rows, s = logits.shape
    if s == 1:
        weights = np.exp(logits - logits)
        return np.divide(weights, weights, out=weights).reshape(n_sets, 1, n_rows)
    k_sel = min(layer.top_k, s)
    # the restricted softmax ranks as the logits do; column order is expert order
    order = _top_k(logits.reshape(-1, s), k_sel).T.copy()  # [k, B*N]
    tokens = np.arange(n_sets * n_rows)  # token u = b*N + t is token t of set b
    # renormalized top-k probabilities == softmax over just the selected
    # logits; computing it that way keeps the weights independent of the
    # non-selected experts down to the last bit
    top = np.take(logits, order + tokens * s)
    del logits
    top -= top.max(axis=0)
    np.exp(top, out=top)
    # each token's sum must add its k values as a sum along a contiguous axis
    # does: numpy adds fewer than 8 in order, as this sum over ranks does, and
    # 8 or more pairwise, which only a token-major copy repeats
    if k_sel < 8:
        top /= top.sum(axis=0)
    else:
        top /= np.ascontiguousarray(top.T).sum(axis=1)
    # column c of token u goes to weights[b, c, t], flat c*N + u + b*(s-1)*N;
    # the last term is 0 for a single set
    if n_sets > 1:
        tokens += (tokens // n_rows) * ((s - 1) * n_rows)
    weights = np.zeros(n_sets * s * n_rows, dtype=np.float32)
    weights[order * n_rows + tokens] = top
    return weights.reshape(n_sets, s, n_rows)


def _combine(
    layer: MoELayer, weights: np.ndarray, idx: Sequence[int], output: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Outputs [N, hidden_dim] of one kept set: the sum of each weight row of
    `weights` [|kept|, N] times `output(e)`, expert e's output on the rows,
    added over the kept experts `idx` in ascending order, which makes every
    caller's result bit-identical."""
    out = np.zeros((weights.shape[1], layer.hidden_dim), dtype=np.float32)
    for row, e in zip(weights, idx):
        out += row[:, None] * output(e)
    return out


def _pruned_forward(
    layer: MoELayer, kept: Iterable[int], inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs [N, hidden_dim] and routing weights [N, |kept|] of the layer pruned to `kept`.

    Checks `kept`; `inputs` must be a checked f32 [N, hidden_dim] array. Each
    expert is applied when its turn comes in `_combine`, so only one output
    is alive at a time.
    """
    idx = _sorted_kept(kept, layer.n_experts)
    weights = _route_batch(layer, np.array([idx], dtype=np.intp), inputs)[0]
    out = _combine(layer, weights, idx, lambda e: layer.experts[e].apply(inputs))
    return out, weights.T  # a view of [|kept|, N] storage: the heatmap's bits depend on it


def forward_subset_batch(
    layer: MoELayer, kept: Iterable[int], inputs: np.ndarray
) -> np.ndarray:
    """Pruned-layer outputs for a batch; kept = all reproduces the full layer."""
    return _pruned_forward(layer, kept, _as_f32("inputs", inputs, 2))[0]


# ---------------------------------------------------------------------------
# serialization (array names are part of the on-disk contract)


def save_layer(layer: MoELayer, path: str, extra_metadata: dict[str, str] | None = None):
    arrays: list[tuple[str, np.ndarray]] = [("router", layer.router)]
    for i, expert in enumerate(layer.experts):
        arrays.append((f"expert_{i}_w_in", expert.w_in))
        arrays.append((f"expert_{i}_w_out", expert.w_out))
    if layer.specialist_domain is not None:
        arrays.append(("specialist_domain", layer.specialist_domain))
    metadata = {
        "kind": "moe_layer",
        "n_experts": str(layer.n_experts),
        "hidden_dim": str(layer.hidden_dim),
        "ff_dim": str(layer.ff_dim),
        "top_k": str(layer.top_k),
    }
    metadata.update(extra_metadata or {})
    return tensor_store.write_archive(path, arrays, metadata)


def _check_dtypes(manifest: tensor_store.Manifest, domain_map: str) -> None:
    """Every array is f32 but the archive kind's domain map, which is i32."""
    for entry in manifest.arrays:
        want = "i32" if entry.name == domain_map else "f32"
        if entry.dtype != want:
            raise ValueError(f"array {entry.name!r} is {entry.dtype}, expected {want}")


def _get(found: Mapping[str, object], name: str, what: str = "array"):
    if name not in found:
        raise ValueError(f"no {name!r} {what}")
    return found[name]


def load_layer(path: str) -> MoELayer:
    """The layer `save_layer` wrote. Its expert count is the router's row
    count, which the `n_experts` metadata must equal; every error names the
    archive."""
    manifest, arrays = tensor_store.read_archive(path, "moe_layer")
    with tensor_store._naming(f"archive {path}"):
        _check_dtypes(manifest, "specialist_domain")
        router = _as_f32("router", _get(arrays, "router"), 2)
        n = router.shape[0]
        n_meta = _get(manifest.metadata, "n_experts", "metadata key")
        if n_meta != str(n):
            raise ValueError(f"metadata 'n_experts' is {n_meta!r}, but the router has {n} rows")
        experts = [
            ExpertTransform(_get(arrays, f"expert_{i}_w_in"), _get(arrays, f"expert_{i}_w_out"))
            for i in range(n)
        ]
        return MoELayer(
            router=router,
            experts=experts,
            top_k=int(_get(manifest.metadata, "top_k", "metadata key")),
            specialist_domain=arrays.get("specialist_domain"),
        )


def save_cache(cache: CalibrationCache, path: str, extra_metadata: dict[str, str] | None = None):
    arrays: list[tuple[str, np.ndarray]] = [
        ("inputs", cache.inputs),
        ("outputs_full", cache.outputs_full),
        ("gate_probs", cache.gate_probs),
    ]
    if cache.source_domain is not None:
        arrays.append(("source_domain", cache.source_domain))
    metadata = {"kind": "calibration_cache", "n_tokens": str(cache.n_tokens)}
    metadata.update(extra_metadata or {})
    return tensor_store.write_archive(path, arrays, metadata)


def load_cache(path: str) -> CalibrationCache:
    manifest, arrays = tensor_store.read_archive(path, "calibration_cache")
    with tensor_store._naming(f"archive {path}"):
        _check_dtypes(manifest, "source_domain")
        return CalibrationCache(
            inputs=_get(arrays, "inputs"),
            outputs_full=_get(arrays, "outputs_full"),
            gate_probs=_get(arrays, "gate_probs"),
            source_domain=arrays.get("source_domain"),
        )
