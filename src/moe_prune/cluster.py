"""Domain discovery and expert grouping.

Three pieces: seeded Lloyd k-means with k-means++ initialization over
token hidden states, Spearman rank correlation (fractional ranks for
ties) turned into a [0, 1] performance-similarity matrix, and bottom-up
agglomerative clustering of performance vectors under the minimum
increase in total error sum of squares. Every tie anywhere resolves
toward the lowest index so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import PerformanceMatrix


@dataclass
class DomainLabeling:
    """One k-means run; `wcss` is computed once, from the returned labels and centroids."""

    labels: np.ndarray      # [N] in [0, k)
    centroids: np.ndarray   # [k, d]
    wcss: float
    iterations_run: int


@dataclass
class SimilarityMatrix:
    s: np.ndarray              # [c, c], symmetric, unit diagonal, entries in [0, 1]
    candidate_ids: np.ndarray  # [c] expert indices

    def __post_init__(self) -> None:
        self.s = np.asarray(self.s, dtype=np.float64)
        self.candidate_ids = np.asarray(self.candidate_ids, dtype=np.int64)
        c = self.candidate_ids.size
        if self.s.shape != (c, c):
            raise ValueError("similarity matrix shape does not match candidate count")


@dataclass
class ExpertPartition:
    """`ward_partition`'s disjoint, nonempty groups of candidate experts, plus the merge record."""

    groups: list[list[int]]
    merge_trace: list[tuple[tuple[int, ...], tuple[int, ...], float]]


# ---------------------------------------------------------------------------
# k-means
#
# Each `kmeans` call builds one working set, which all its restarts share: the
# float64 points, their squared norms and norms, the k-means++ `slack`, and one
# scratch array of the points' shape for the direct-form kernels (k-means++'s
# close calls, the repair, the centroid sums, the WCSS). Every index taken is in
# range, so `np.take(..., mode="clip")` writes there directly ("raise" buffers).


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _sq_dists_to(points: np.ndarray, centroid: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """`((points - centroid) ** 2).sum(axis=1)` bit for bit, computed in `scratch`.

    `centroid` is one row, or one row per point (it may be `scratch`). Each
    row's d squares are added as `_sq_dists` adds them.
    """
    np.subtract(points, centroid, out=scratch)
    scratch *= scratch
    return scratch.sum(axis=1)


def _draw(d2: np.ndarray, total: float, u: float, margin: float = 0.0) -> int:
    """`Generator.choice(d2.size, p=d2 / total)` given the one double `u` it draws,
    or -1 unless `u` lies in its slot shrunk by `margin` at both ends."""
    cdf = np.cumsum(d2 / total)
    cdf /= cdf[-1]
    pick = int(cdf.searchsorted(u, side="right"))
    low = cdf[pick - 1] if pick else 0.0
    return pick if low + margin <= u < cdf[pick] - margin else -1


def _kmeanspp_init(
    points: np.ndarray, sq_norms: np.ndarray, slack: float, k: int,
    rng: np.random.Generator, scratch: np.ndarray,
) -> np.ndarray:
    """k-means++ centres: each pick is `Generator.choice(n, p=d2 / d2.sum())`'s
    from the same draw, d2 being `_sq_dists_to` from each point to its nearest
    centre so far. d2 is kept in the product form, clamped at 0, within b/2 of
    that per row (`_assign`'s b, summed in `slack`), so the two forms'
    normalised cumulative sums differ by at most slack / (2 total) plus their
    rounding. A pick stands if slack < total < 2^1022 (so the direct total is
    positive and finite) and `u` lies in its slot shrunk by slack / total +
    (n + 4) 2^-51. Otherwise the direct form decides, with `u` if drawn.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    pick = int(rng.integers(n))
    centroids[0] = points[pick]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test below
            row = np.dot(points, -2.0 * centroids[j - 1])
            row += sq_norms
            row += sq_norms[pick]
            np.minimum(d2, np.maximum(row, 0.0, out=row), out=d2)
            total = d2.sum()
        u = rng.random() if slack < total < 2.0**1022 else None
        pick = -1 if u is None else _draw(d2, total, u, slack / total + (n + 4) * 2.0**-51)
        if pick < 0:  # the direct form decides, computed in `scratch`
            exact = _sq_dists_to(points, centroids[0], scratch)
            for centroid in centroids[1:j]:
                np.minimum(exact, _sq_dists_to(points, centroid, scratch), out=exact)
            total = exact.sum()
            if not np.isfinite(total):  # only where no `u` was drawn
                raise ValueError("k-means++: squared distances between the points overflow float64")
            u = rng.random() if u is None and total > 0 else u
            pick = int(rng.integers(n)) if u is None else _draw(exact, total, u)  # u None: total 0
        centroids[j] = points[pick]
    return centroids


_Bounds = tuple[np.ndarray, np.ndarray, np.ndarray]  # labels, upper and lower bounds


def _bound(norms: np.ndarray, reach: float, d: int) -> tuple[float, np.ndarray]:
    """4 g_(d+4), and per row `_assign`'s b for centroids no longer than `reach`."""
    widen = 4.0 * (d + 4) * 2.0**-53 / (1.0 - (d + 4) * 2.0**-53)  # 4 g_(d+4)
    return widen, widen * (norms + reach) * (norms + reach) + (d + 4) * 2.0**-1070


def _assign(
    points: np.ndarray,
    sq_norms: np.ndarray,
    norms: np.ndarray,
    centroids: np.ndarray,
    scratch: np.ndarray,
    moved: tuple[np.ndarray, _Bounds] | None = None,
) -> _Bounds:
    """Each point's nearest centroid, ties to the lowest index: exactly
    `_sq_dists(points, centroids).argmin(axis=1)`, certified row by row; with,
    per row, an upper bound u on the true distance to that centroid and a
    lower bound l on the true distance to every other one.

    In any summation order, with or without fused multiply-adds, `_sq_dists`
    and the product form |x|^2 - 2 x.c + |c|^2 (`sq_norms` holds |x|^2,
    `norms` |x|) both compute |x - c|^2 within g_(d+2) (|x| + |c|)^2 of the
    true value, g_m = m u / (1 - m u) for unit roundoff u. With b = 4 g_(d+4)
    (|x| + max |c|)^2 plus an absolute term for underflow (g_(d+4) covers
    b's own rounding), each is within b/4 of the true distance. So a row with
    (l - u)(l + u) > b, which cannot round up past twice the margin b/2 this
    needs, has its label as the unique argmin of `_sq_dists`. Every bound is
    widened by a factor 1 +- 4 g_(d+4), which outweighs its few roundings.
    The squared centroid norms and each row's b are computed once per call.

    `moved`, if given, is the previous centroids and this function's result
    at them. When each centroid moves by at most delta_j (widened likewise,
    and by an absolute term for underflow), a point's distance to its
    centroid grows by at most delta_(label) and its distance to any other
    shrinks by at most max delta (Hamerly, "Making k-means even faster",
    2010). Rows whose moved bounds pass the test keep their label. Every
    other row, gathered into `scratch`, goes to `_assign_fresh` with its own
    b; so does every row when `moved` is not given.
    """
    d = points.shape[1]
    c2 = (centroids * centroids).sum(axis=1)
    widen, bound = _bound(norms, np.sqrt(c2.max()), d)
    hi, lo = 1.0 + widen, 1.0 - widen
    if moved is None:
        return _assign_fresh(points, sq_norms, centroids, c2, bound, hi, lo)
    previous, (labels, upper, lower) = moved
    moves = np.sqrt((((centroids - previous) ** 2).sum(axis=1) + d * 2.0**-1074) * hi) * hi
    upper = (upper + moves[labels]) * hi
    lower = np.maximum(lower - moves.max(), 0.0) * lo
    labels = labels.copy()
    redo = np.flatnonzero(~((lower - upper) * (lower + upper) > bound))
    if redo.size:
        rows = np.take(points, redo, axis=0, out=scratch[: redo.size], mode="clip")
        labels[redo], upper[redo], lower[redo] = _assign_fresh(
            rows, sq_norms[redo], centroids, c2, bound[redo], hi, lo
        )
    return labels, upper, lower


def _assign_fresh(
    points: np.ndarray,
    sq_norms: np.ndarray,
    centroids: np.ndarray,
    c2: np.ndarray,
    bound: np.ndarray,
    hi: float,
    lo: float,
) -> _Bounds:
    """`_assign` with no bounds to start from, given the squared centroid
    norms `c2`, each row's b in `bound` and the widening factors `hi` and `lo`.

    Every row takes the product form and gets the bounds u = sqrt(best +
    b/4) and l = sqrt(second - b/4) from its two smallest distances there.
    It keeps the product form's label if it passes `_assign`'s test with a
    finite second - best (not so on overflow, or k = 1); otherwise
    `_sq_dists`, whose bits for a row do not depend on the other rows,
    decides it, with the bounds inf and 0.
    """
    n = points.shape[0]
    # [k, n]: numpy reduces over the short centroid axis fastest this way. One
    # matrix-vector product per centroid, because a first float64 matrix
    # product makes OpenBLAS touch another 256 KB of its packing buffer.
    dist = np.empty((centroids.shape[0], n))
    for row, centroid in zip(dist, centroids):
        np.dot(points, centroid, out=row)
    dist *= -2.0
    dist += c2[:, None]
    dist += sq_norms
    # the first minimum, as `argmin` finds it, without the [n, k] copy that
    # numpy's `argmin` over axis 0 makes
    best = dist.min(axis=0)
    labels = (dist == best).argmax(axis=0)
    dist[labels, np.arange(n)] = np.inf
    second = dist.min(axis=0)
    upper = np.sqrt(np.maximum(best + 0.25 * bound, 0.0) * hi) * hi
    lower = np.sqrt(np.maximum(second - 0.25 * bound, 0.0) * lo) * lo
    sure = np.isfinite(second - best) & ((lower - upper) * (lower + upper) > bound)
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        labels[unsure] = _sq_dists(points[unsure], centroids).argmin(axis=1)
        upper[unsure] = np.inf
        lower[unsure] = 0.0
    return labels, upper, lower


def _assign_with_repair(
    points: np.ndarray,
    sq_norms: np.ndarray,
    norms: np.ndarray,
    centroids: np.ndarray,
    scratch: np.ndarray,
    moved: tuple[np.ndarray, _Bounds] | None = None,
) -> tuple[_Bounds, np.ndarray]:
    """Assign points (ties to the lowest centroid index); reseed empty clusters
    at the point farthest from its assigned centroid until none are empty.

    Returns `_assign`'s labels and bounds at the final centroids, and a [k]
    mask of the clusters whose centroid row was reseeded in place; `moved`
    goes to the first `_assign` call.
    """
    k = centroids.shape[0]
    reseeded = np.zeros(k, dtype=bool)
    for _ in range(k + 1):
        nearest = _assign(points, sq_norms, norms, centroids, scratch, moved)
        moved = None
        labels = nearest[0]
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return nearest, reseeded
        reseeded[empties] = True
        np.take(centroids, labels, axis=0, out=scratch, mode="clip")  # each point's own centroid
        own = _sq_dists_to(points, scratch, scratch)
        for j in empties:
            far = int(own.argmax())
            centroids[j] = points[far]
            own[far] = -1.0  # a second empty cluster must grab a different point
    raise ValueError("could not repair empty clusters; k exceeds distinct points")


def _group_means(
    points: np.ndarray,
    labels: np.ndarray,
    scratch: np.ndarray,
    previous: np.ndarray,
    changed: np.ndarray,
) -> np.ndarray:
    """Each cluster's mean, bit for bit `points[labels == j].mean(axis=0)`,
    given the previous centroids and a [k] mask of the clusters to recompute.

    The mask must hold every cluster whose member set changed since
    `previous`, and every one whose row is not its mean (reseeded, or the
    first update). Only their rows are gathered and reduced; every other
    cluster has the same rows in the same order, so it keeps its previous
    mean, which has the same bits. `previous` is read, not written.

    A stable sort by label puts each cluster's rows, in index order, in one
    contiguous slice of `scratch`; `np.add.reduce` adds them in the order
    `mean` does, and the sum is divided by the count, as `mean` divides it.
    The labels are sorted at the narrowest integer width, where numpy's stable
    sort is a radix sort.
    """
    k = changed.size
    centroids = previous.copy()
    rows = np.flatnonzero(changed[labels])
    order = rows[np.argsort(labels[rows].astype(np.min_scalar_type(k)), kind="stable")]
    np.take(points, order, axis=0, out=scratch[: order.size], mode="clip")
    redo = np.flatnonzero(changed)
    counts = np.bincount(labels, minlength=k)[redo]
    start = 0
    for j, count in zip(redo.tolist(), counts.tolist()):
        np.add.reduce(scratch[start : start + count], axis=0, out=centroids[j])
        start += count
    centroids[redo] /= counts[:, None]
    return centroids


def _wcss(
    points: np.ndarray, labels: np.ndarray, centroids: np.ndarray, scratch: np.ndarray
) -> float:
    """`((points - centroids[labels]) ** 2).sum()` bit for bit, computed in `scratch`."""
    np.take(centroids, labels, axis=0, out=scratch, mode="clip")
    np.subtract(points, scratch, out=scratch)
    scratch *= scratch
    return float(scratch.sum())


def _lloyd(
    pts: np.ndarray,
    sq_norms: np.ndarray,
    norms: np.ndarray,
    slack: float,
    scratch: np.ndarray,
    k: int,
    max_iters: int,
    rng: np.random.Generator,
) -> DomainLabeling:
    centroids = _kmeanspp_init(pts, sq_norms, slack, k, rng, scratch)
    nearest, _ = _assign_with_repair(pts, sq_norms, norms, centroids, scratch)
    labels = nearest[0]
    changed = np.ones(k, dtype=bool)  # the k-means++ centroids are no cluster's mean
    for iterations_run in range(1, max_iters + 1):
        previous, centroids = centroids, _group_means(pts, labels, scratch, centroids, changed)
        nearest, changed = _assign_with_repair(
            pts, sq_norms, norms, centroids, scratch, (previous, nearest)
        )
        new_labels = nearest[0]
        relabeled = np.flatnonzero(new_labels != labels)
        if relabeled.size == 0:
            break
        # the next update recomputes the reseeded clusters and those a row left or joined
        changed[labels[relabeled]] = True
        changed[new_labels[relabeled]] = True
        labels = new_labels
    return DomainLabeling(
        labels=labels.astype(np.int32),
        centroids=centroids,
        wcss=_wcss(pts, labels, centroids, scratch),  # the labels and centroids of the last update
        iterations_run=iterations_run,
    )


def kmeans(
    points: np.ndarray, k: int, seed: int, max_iters: int = 100, n_init: int = 1
) -> DomainLabeling:
    """Seeded Lloyd iterations from a k-means++ start.

    Stops when labels are unchanged or after max_iters centroid updates;
    the within-cluster sum of squares is that of the returned labels and
    centroids. With n_init > 1 the whole procedure reruns from fresh draws
    of the same generator and the lowest-WCSS labeling wins (k-means++ can
    seed two centers inside one true cluster, which Lloyd cannot undo).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k {k} outside [1, {n}]")
    if max_iters < 1 or n_init < 1:
        raise ValueError("max_iters and n_init must be >= 1")

    sq_norms = (pts * pts).sum(axis=1)
    norms = np.sqrt(sq_norms)
    slack = float(_bound(norms, norms.max(), pts.shape[1])[1].sum())
    scratch = np.empty_like(pts)
    rng = np.random.default_rng(seed)
    best: DomainLabeling | None = None
    for _ in range(n_init):
        candidate = _lloyd(pts, sq_norms, norms, slack, scratch, k, max_iters, rng)
        if best is None or candidate.wcss < best.wcss:
            best = candidate
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# rank correlation


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks starting at 1; tied values share their average rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    start = 0
    while start < v.size:
        stop = start
        while stop + 1 < v.size and v[order[stop + 1]] == v[order[start]]:
            stop += 1
        ranks[order[start : stop + 1]] = 0.5 * (start + stop) + 1.0
        start = stop + 1
    return ranks


def _rho_matrix(values: np.ndarray) -> np.ndarray:
    """Every pair's Spearman rho over the rows of `values` (K columns):
    the Pearson correlation of fractional ranks, 0 where either row is
    constant.

    Each row is ranked once. A fractional rank is a multiple of 1/2 and their
    mean is exactly (K + 1)/2, so twice a centered rank is an integer below K
    in magnitude. One int64 matrix product of those integers gives four
    times every pair's dot product and every row's sum of squares, integers
    below K^3 < 2^53 for K < 2^17, so exact in float64. A per-pair float64
    dot product of the centered ranks is exact too, in any summation order
    and with or without fused multiply-adds, since every partial sum is a
    multiple of 1/4 below 2^51: the two agree bit for bit.
    """
    n_cols = values.shape[1]
    doubled = np.array([2.0 * fractional_ranks(row) for row in values]) - (n_cols + 1)
    doubled = doubled.astype(np.int64)
    dots = (doubled @ doubled.T).astype(np.float64) / 4.0
    ss = dots.diagonal().copy()
    ss[ss == 0.0] = 1.0  # a constant row's dots are all 0, so its rho is 0
    rho = dots / np.sqrt(np.multiply.outer(ss, ss))
    return np.clip(rho, -1.0, 1.0, out=rho)


def spearman_rho(u: np.ndarray, v: np.ndarray) -> float:
    """Rank correlation of two equal-length vectors (K >= 2).

    Pearson correlation of fractional ranks; a constant vector has zero
    rank variance and maps to 0 by convention.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("inputs must be 1-D vectors of equal length")
    if u.size < 2:
        raise ValueError("rank correlation needs at least 2 entries")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("inputs contain non-finite values")
    return float(_rho_matrix(np.stack([u, v]))[0, 1])


def similarity_matrix(perf: PerformanceMatrix) -> SimilarityMatrix:
    """Pairwise (1 + rho)/2 over performance-vector rows; diagonal forced to 1.

    Every pair's rho is the one spearman_rho gives, bit for bit. With a
    single domain column every row is constant, so every rho is 0 and every
    off-diagonal similarity 0.5.
    """
    s = 0.5 * (1.0 + _rho_matrix(perf.errors))
    np.clip(s, 0.0, 1.0, out=s)
    np.fill_diagonal(s, 1.0)
    return SimilarityMatrix(s=s, candidate_ids=perf.candidate_ids.copy())


# ---------------------------------------------------------------------------
# agglomerative grouping


def ward_partition(
    perf: PerformanceMatrix, sim: SimilarityMatrix, target_groups: int
) -> ExpertPartition:
    """Merge candidate experts bottom-up until target_groups remain.

    Every expert starts as a singleton whose feature vector is its
    performance-matrix row. Each step merges the pair with the smallest
    increase in total error sum of squares,
    |a||b|/(|a|+|b|) * ||mean_a - mean_b||^2, ties resolved by the
    lexicographically smallest (min member of a, min member of b); costs
    that overflow to +inf tie with each other. A merged centroid that
    overflows float64 can make a cost NaN, which raises ValueError. The
    similarity matrix only has to describe the same candidates.
    """
    ids = [int(i) for i in sim.candidate_ids]
    if list(perf.candidate_ids) != ids:
        raise ValueError("performance matrix and similarity matrix disagree on candidates")
    if len(set(ids)) != len(ids):
        raise ValueError("candidate ids must be unique")
    c = len(ids)
    if not 1 <= target_groups <= c:
        raise ValueError(f"target_groups {target_groups} outside [1, {c}]")

    # Clusters are numbered by position in ascending id order, and a cluster
    # keeps the number of its smallest member. Pair costs live in a [c, c]
    # matrix: live pairs (a < b) in the upper triangle, +inf everywhere else,
    # so argmin's first minimum in row-major order is the smallest
    # (cost, min member of a, min member of b). A pair's cost depends only on
    # its two clusters, so after a merge only the merged cluster's row and
    # column are costed again, with the same formula and bits.
    order = sorted(range(c), key=ids.__getitem__)
    members = {p: [ids[i]] for p, i in enumerate(order)}
    centroids = perf.errors[order]  # row p: cluster p's mean performance vector
    sizes = np.ones(c, dtype=np.int64)

    def pair_costs(a, b) -> np.ndarray:
        # the pairs (a[i], b[i]), broadcast; a stacked vector-vector `np.matmul`
        # runs numpy's dot kernel, `np.dot`'s, for each pair
        delta = centroids[a] - centroids[b]
        sq = np.matmul(delta[:, None, :], delta[:, :, None]).ravel()
        return sizes[a] * sizes[b] / (sizes[a] + sizes[b]) * sq

    costs = np.full((c, c), np.inf)
    first, second = np.triu_indices(c, 1)
    costs[first, second] = pair_costs(first, second)
    trace: list[tuple[tuple[int, ...], tuple[int, ...], float]] = []
    while len(members) > target_groups:
        a, b = divmod(int(costs.argmin()), c)
        cost = float(costs[a, b])
        if np.isnan(cost):  # argmin finds a NaN before any number
            raise ValueError("Ward merge cost is NaN: a merged centroid overflows float64")
        if cost == np.inf:  # every live pair overflowed: the first live pair
            a, b = sorted(members)[:2]
        na, nb = len(members[a]), len(members[b])
        trace.append((tuple(members[a]), tuple(members[b]), cost))
        members[a] = sorted(members[a] + members.pop(b))
        centroids[a] = (na * centroids[a] + nb * centroids[b]) / (na + nb)
        sizes[a] = na + nb
        costs[b, :] = costs[:, b] = np.inf
        others = np.array([e for e in members if e != a], dtype=np.intp)
        costs[np.minimum(others, a), np.maximum(others, a)] = pair_costs(a, others)

    groups = [members[p] for p in sorted(members)]
    return ExpertPartition(groups=groups, merge_trace=trace)

