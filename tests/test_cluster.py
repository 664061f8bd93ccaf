import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_prune import cluster
from moe_prune.cluster import (
    ExpertPartition,
    fractional_ranks,
    kmeans,
    similarity_matrix,
    spearman_rho,
    ward_partition,
)
from moe_prune.metrics import PerformanceMatrix
from moe_prune.prune import prune_mop

from conftest import make_planted


# ---------------------------------------------------------------------------
# k-means


def brute_force_two_cluster_wcss(points):
    """Minimum WCSS over every assignment into two nonempty clusters."""
    n = len(points)
    best = np.inf
    best_assign = None
    for bits in range(1, 2**n - 1):
        labels = np.array([(bits >> i) & 1 for i in range(n)])
        wcss = 0.0
        for c in (0, 1):
            member = points[labels == c]
            wcss += ((member - member.mean(axis=0)) ** 2).sum()
        if wcss < best:
            best = wcss
            best_assign = labels
    return best, best_assign


def test_kmeans_1d_fixture_matches_brute_force():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    labeling = kmeans(points, 2, seed=3)
    best_wcss, best_assign = brute_force_two_cluster_wcss(points)
    assert labeling.wcss == pytest.approx(best_wcss, rel=1e-12)
    assert labeling.wcss == pytest.approx(1.0, rel=1e-12)
    same = np.array_equal(labeling.labels, best_assign)
    flipped = np.array_equal(1 - labeling.labels, best_assign)
    assert same or flipped


def test_kmeans_k_equals_n(rng):
    points = rng.standard_normal((6, 3))
    labeling = kmeans(points, 6, seed=0)
    assert sorted(labeling.labels) == list(range(6))
    assert labeling.wcss == pytest.approx(0.0, abs=1e-24)


def test_kmeans_duplicated_dataset_same_centroids():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    doubled = np.repeat(points, 2, axis=0)
    one = kmeans(points, 2, seed=5)
    two = kmeans(doubled, 2, seed=5)
    assert np.allclose(
        sorted(one.centroids.ravel()), sorted(two.centroids.ravel()), atol=1e-12
    )


def test_kmeans_point_order_invariance(rng):
    points = np.array([[0.0], [1.0], [10.0], [11.0], [0.5], [10.5]])
    a = kmeans(points, 2, seed=9)
    b = kmeans(points[::-1].copy(), 2, seed=9)
    assert np.allclose(sorted(a.centroids.ravel()), sorted(b.centroids.ravel()))
    assert a.wcss == pytest.approx(b.wcss, rel=1e-12)


def test_kmeans_wcss_non_increasing_and_consistent(rng):
    points = rng.standard_normal((60, 4))
    labeling = kmeans(points, 4, seed=2)
    # the same restart stopped after i = 1..T centroid updates
    hist = [kmeans(points, 4, seed=2, max_iters=i).wcss for i in range(1, labeling.iterations_run + 1)]
    assert len(hist) >= 2 and hist[-1] == labeling.wcss
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    recomputed = ((points - labeling.centroids[labeling.labels]) ** 2).sum()
    assert labeling.wcss == pytest.approx(recomputed, rel=1e-4)
    counts = np.bincount(labeling.labels, minlength=4)
    assert np.all(counts >= 1)


def test_kmeans_deterministic(rng):
    points = rng.standard_normal((30, 3))
    a = kmeans(points, 3, seed=11)
    b = kmeans(points, 3, seed=11)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_restarts_pick_lower_wcss(rng):
    # three tight, far-apart clusters; single inits sometimes split one
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
    points = np.concatenate(
        [c + rng.standard_normal((30, 2)) for c in centers]
    )
    single = [kmeans(points, 3, seed=s).wcss for s in range(30)]
    multi = kmeans(points, 3, seed=0, n_init=10).wcss
    assert multi <= min(single) + 1e-9


def test_kmeans_validation(rng):
    points = rng.standard_normal((4, 2))
    with pytest.raises(ValueError, match="k"):
        kmeans(points, 5, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        kmeans(np.array([[np.nan, 0.0]]), 1, seed=0)
    with pytest.raises(ValueError, match="max_iters"):
        kmeans(points, 2, seed=0, max_iters=0)
    # finite points whose squared distances sum past float64's range
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="squared distances .* overflow"):
        kmeans([[1e160], [-1e160], [0.0]], 2, seed=0)


# ---------------------------------------------------------------------------
# spearman


def test_spearman_fixtures():
    assert spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman_rho([1, 2, 3], [30, 20, 10]) == -1.0
    assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)


def test_spearman_constant_vector_is_zero():
    assert spearman_rho([5, 5, 5], [1, 2, 3]) == 0.0
    assert spearman_rho([1, 2, 3], [7, 7, 7]) == 0.0


def test_spearman_symmetric_and_bounded(rng):
    for _ in range(50):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        rho = spearman_rho(u, v)
        assert -1.0 <= rho <= 1.0
        assert rho == pytest.approx(spearman_rho(v, u), abs=1e-15)


def test_spearman_rank_invariance(rng):
    # any strictly increasing transform of either argument leaves rho unchanged
    u = rng.standard_normal(10)
    v = rng.standard_normal(10)
    base = spearman_rho(u, v)
    assert spearman_rho(np.exp(u), v) == pytest.approx(base, abs=1e-12)
    assert spearman_rho(u, 3.0 * v + 7.0) == pytest.approx(base, abs=1e-12)


def test_spearman_ties_match_scipy(rng):
    for _ in range(30):
        u = rng.integers(0, 4, size=9).astype(float)  # heavy ties
        v = rng.integers(0, 4, size=9).astype(float)
        want = scipy.stats.spearmanr(u, v).statistic
        got = spearman_rho(u, v)
        if np.isnan(want):  # scipy yields nan for constant vectors
            assert got == 0.0
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_fractional_ranks_average_ties():
    assert list(fractional_ranks(np.array([10.0, 20.0, 20.0, 30.0]))) == [1.0, 2.5, 2.5, 4.0]
    assert list(fractional_ranks(np.array([3.0, 3.0, 3.0]))) == [2.0, 2.0, 2.0]


def test_spearman_validation():
    with pytest.raises(ValueError, match="at least 2"):
        spearman_rho([1.0], [2.0])
    with pytest.raises(ValueError, match="non-finite"):
        spearman_rho([1.0, np.inf], [1.0, 2.0])
    with pytest.raises(ValueError, match="equal length"):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# similarity matrix


def make_perf(rows, ids=None):
    rows = np.asarray(rows, dtype=float)
    ids = list(range(rows.shape[0])) if ids is None else ids
    return PerformanceMatrix(
        errors=rows, domain_sizes=[1] * rows.shape[1], candidate_ids=ids
    )


def test_similarity_fixtures():
    perf = make_perf([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0], [30.0, 20.0, 10.0]])
    sim = similarity_matrix(perf)
    assert sim.s[0, 1] == 1.0
    assert sim.s[0, 2] == 0.0
    perf2 = make_perf([[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]])
    assert similarity_matrix(perf2).s[0, 1] == pytest.approx(0.8, abs=1e-12)


def test_similarity_matrix_invariants(rng):
    perf = make_perf(rng.random((6, 4)))
    sim = similarity_matrix(perf)
    assert np.array_equal(sim.s, sim.s.T)
    assert np.all(np.diag(sim.s) == 1.0)
    assert np.all((sim.s >= 0.0) & (sim.s <= 1.0))


def test_similarity_single_domain_neutral():
    perf = make_perf([[1.0], [2.0], [3.0]])
    sim = similarity_matrix(perf)
    off = sim.s[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.5)
    assert np.all(np.diag(sim.s) == 1.0)


# ---------------------------------------------------------------------------
# ward


def set_partitions(items, k):
    if len(items) == k:
        yield [[x] for x in items]
        return
    if k == 1:
        yield [list(items)]
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
    for part in set_partitions(rest, k - 1):
        yield [[first]] + part


def total_ess(vectors, part):
    total = 0.0
    for group in part:
        member = vectors[group]
        mu = member.mean(axis=0)
        total += ((member - mu) ** 2).sum()
    return total


def test_ward_singleton_merge_cost():
    perf = make_perf([[0.0, 0.0], [2.0, 0.0]])
    sim = similarity_matrix(perf)
    part = ward_partition(perf, sim, 1)
    assert len(part.merge_trace) == 1
    a, b, cost = part.merge_trace[0]
    assert (a, b) == ((0,), (1,))
    assert cost == pytest.approx(2.0, abs=1e-12)  # (1*1/2) * ||(2,0)||^2


def test_ward_all_singletons_no_merges(rng):
    perf = make_perf(rng.random((5, 3)))
    part = ward_partition(perf, similarity_matrix(perf), 5)
    assert part.groups == [[0], [1], [2], [3], [4]]
    assert part.merge_trace == []


def test_ward_recovers_planted_pairs(rng):
    for trial in range(20):
        pair_rng = np.random.default_rng(800 + trial)
        bases = pair_rng.normal(0.0, 5.0, size=(3, 4))
        vectors = np.abs(np.repeat(bases, 2, axis=0) + pair_rng.normal(0, 0.05, (6, 4)))
        perf = make_perf(vectors)
        part = ward_partition(perf, similarity_matrix(perf), 3)
        got = sorted(tuple(g) for g in part.groups)
        best = min(set_partitions(list(range(6)), 3), key=lambda p: total_ess(perf.errors, p))
        assert got == sorted(tuple(sorted(g)) for g in best)


def test_ward_cost_additivity(rng):
    perf = make_perf(rng.random((7, 3)))
    part = ward_partition(perf, similarity_matrix(perf), 2)
    merged_ess = total_ess(perf.errors, part.groups)
    trace_sum = sum(cost for _, _, cost in part.merge_trace)
    assert merged_ess == pytest.approx(trace_sum, rel=1e-4)
    assert all(cost >= 0.0 for _, _, cost in part.merge_trace)


def test_ward_partitions_candidate_set(rng):
    ids = [1, 3, 4, 6, 7]
    perf = make_perf(rng.random((5, 3)), ids=ids)
    part = ward_partition(perf, similarity_matrix(perf), 2)
    assert {i for group in part.groups for i in group} == set(ids)


def test_ward_validation(rng):
    perf = make_perf(rng.random((4, 3)))
    sim = similarity_matrix(perf)
    with pytest.raises(ValueError, match="target_groups"):
        ward_partition(perf, sim, 0)
    with pytest.raises(ValueError, match="target_groups"):
        ward_partition(perf, sim, 5)
    other = make_perf(rng.random((4, 3)), ids=[9, 10, 11, 12])
    with pytest.raises(ValueError, match="disagree"):
        ward_partition(other, sim, 2)
    twice = make_perf(rng.random((4, 3)), ids=[9, 10, 9, 12])
    with pytest.raises(ValueError, match="unique"):
        ward_partition(twice, similarity_matrix(twice), 2)


def test_partition_invariants():
    with pytest.raises(ValueError, match="empty group"):
        ExpertPartition(groups=[[0], []], merge_trace=[])
    with pytest.raises(ValueError, match="overlap"):
        ExpertPartition(groups=[[0, 1], [1, 2]], merge_trace=[])
    with pytest.raises(ValueError, match="nonnegative"):
        ExpertPartition(groups=[[0]], merge_trace=[((0,), (1,), -1.0)])


# ---------------------------------------------------------------------------
# differential tests: the cluster kernels against the direct formulas, bit for bit


def oracle_assign_with_repair(points, centroids, reseeded=None):
    """Every distance by the broadcast formula; repairs `centroids` in place
    and adds each cluster it reseeds to the set `reseeded`, if given."""
    k = centroids.shape[0]
    for _ in range(k + 1):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return labels
        own = d2[np.arange(points.shape[0]), labels].copy()
        for j in empties:
            far = int(own.argmax())
            centroids[j] = points[far]
            own[far] = -1.0
            if reseeded is not None:
                reseeded.add(int(j))
    raise ValueError("could not repair empty clusters; k exceeds distinct points")


def oracle_kmeanspp(points, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise ValueError("k-means++: squared distances between the points overflow float64")
        pick = rng.choice(n, p=d2 / total) if total > 0 else int(rng.integers(n))
        centroids[j] = points[pick]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def oracle_group_means(points, labels, k):
    return np.array([points[labels == j].mean(axis=0) for j in range(k)])


def oracle_wcss(points, labels, centroids):
    return float(((points - centroids[labels]) ** 2).sum())


def oracle_kmeans(points, k, seed, max_iters, n_init, init=oracle_kmeanspp):
    """Seeded Lloyd restarts with the broadcast assignment and the direct
    formulas throughout, every point reassigned on every iteration: (labels,
    centroids, wcss, iterations_run) of the lowest-WCSS restart."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centroids = init(points, k, rng)
        labels = oracle_assign_with_repair(points, centroids)
        iterations = 0
        for _ in range(max_iters):
            iterations += 1
            centroids = oracle_group_means(points, labels, k)
            new_labels = oracle_assign_with_repair(points, centroids)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        wcss = oracle_wcss(points, labels, centroids)
        if best is None or wcss < best[2]:
            best = (labels, centroids, wcss, iterations)
    return best


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except ValueError as exc:
            return f"ValueError: {exc}"


@st.composite
def tie_prone_points(draw, max_n=40, max_d=5, max_k=6):
    """Points and centroids on a half-integer grid, so many points sit exactly
    at or (jittered) near ties, with duplicate centroids, scaled from the
    underflow range to the overflow range and offset where the product form
    cancels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    k = draw(st.integers(1, max_k))
    spread = draw(st.integers(1, 4))
    points = rng.integers(-spread, spread + 1, (n, d)) / 2.0
    centroids = rng.integers(-spread, spread + 1, (k, d)) / 2.0
    if k > 1 and draw(st.booleans()):
        centroids[rng.integers(k)] = centroids[rng.integers(k)]
    if draw(st.booleans()):
        centroids[rng.integers(k)] += 1e3  # far away: its cluster may be empty
    if draw(st.booleans()):
        points += rng.standard_normal((n, d)) * draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-160, 1e-150, 1e150, 1e153, 1e154, 1e160]))
    offset = draw(st.sampled_from([0.0, 0.0, 1e6, -1e6, 3e8]))
    return points * scale + offset, centroids * scale + offset


def check_assignment(points, centroids, shift=None):
    """`_assign_with_repair` against the oracle; with `shift`, starting from
    the labels and bounds `_assign` gave at the centroids moved by `shift`."""
    got_centroids, want_centroids = centroids.copy(), centroids.copy()
    with np.errstate(all="ignore"):
        sq_norms = (points * points).sum(axis=1)
        norms, scratch = np.sqrt(sq_norms), np.empty_like(points)
        moved = None
        if shift is not None:
            previous = centroids + shift
            moved = (previous, cluster._assign(points, sq_norms, norms, previous, scratch))
    got = outcome(
        cluster._assign_with_repair, points, sq_norms, norms, got_centroids, scratch, moved
    )
    reseeded = set()
    want = outcome(oracle_assign_with_repair, points, want_centroids, reseeded)
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0][0].dtype == want.dtype and np.array_equal(got[0][0], want)
        assert np.flatnonzero(got[1]).tolist() == sorted(reseeded)
    assert got_centroids.tobytes() == want_centroids.tobytes()


@settings(deadline=None, max_examples=400)
@given(tie_prone_points(), st.sampled_from([None, 0.0, 1e-9, 0.5, 1e3]))
def test_assignment_matches_broadcast_formula(points_centroids, shift):
    check_assignment(*points_centroids, shift)


@pytest.mark.parametrize(
    "points, centroids",
    [
        # exact ties between duplicate centroids and at midpoints, offset so
        # the product form rounds them apart
        ([[1e6 + 1], [1e6 - 1], [1e6]], [[1e6 + 0.5], [1e6 + 0.5], [1e6 - 0.5]]),
        # |x|^2 overflows, so every product-form distance is NaN or inf; the
        # broadcast form still puts each point at distance 0 from its copy
        ([[3e154], [-3e154]], [[2.9e154], [3e154], [-3e154]]),
        # the squares underflow: both distances round to the smallest
        # subnormal, while the product form puts centroid 1 nearer
        ([[3e-162], [1e-170]], [[5e-162], [1e-162]]),
        # k = 1
        ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0]]),
        # the far centroid gets no point and is reseeded
        ([[0.0], [1.0], [2.0], [10.0]], [[1.0], [1e9], [9.0]]),
    ],
)
def test_assignment_fixed_cases(points, centroids):
    check_assignment(np.array(points), np.array(centroids))


def check_bounds_exactly(points, centroids, bounds):
    """Every finite bound of `_assign` against the exact distances: for each
    row, upper^2 >= |x - c_label|^2 and lower^2 <= |x - c_j|^2 for every other
    j, with every float64 taken as the exact rational it is."""
    labels, upper, lower = bounds
    exact_c = [[Fraction(v) for v in row] for row in centroids.tolist()]
    for x, label, u, l in zip(points.tolist(), labels.tolist(), upper.tolist(), lower.tolist()):
        assert u >= 0 and l >= 0
        x = [Fraction(v) for v in x]
        dist = [sum((a - b) ** 2 for a, b in zip(x, c)) for c in exact_c]
        if u != np.inf:
            assert Fraction(u) ** 2 >= dist[label]
        lower_sq = Fraction(l) ** 2
        assert all(lower_sq <= dist[j] for j in range(len(dist)) if j != label)


@st.composite
def far_points_small_gaps(draw):
    """A cloud far from the origin around one centroid a small gap from it,
    and other centroids far enough off that many rows are certified: the
    product form loses most of the gap to cancellation there."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    offset = draw(st.sampled_from([1e3, 1e5, 1e6, 3e8])) * rng.choice([-1.0, 1.0], d)
    gap = draw(st.sampled_from([1e-6, 1e-3, 1.0]))
    n, k = draw(st.integers(1, 30)), draw(st.integers(2, 5))
    points = offset + rng.standard_normal((n, d)) * gap
    centroids = offset + rng.standard_normal((k, d)) * gap
    centroids[1:] += rng.standard_normal((k - 1, d)) * draw(st.sampled_from([1e2, 1e4, 1e6]))
    return points, centroids


@settings(deadline=None, max_examples=300)
@given(st.one_of(tie_prone_points(), far_points_small_gaps()),
       st.sampled_from([None, 0.0, 1e-9, 0.5, 1e3]))
def test_assignment_bounds_hold_in_exact_arithmetic(points_centroids, shift):
    """The bounds `_assign` certifies its labels with, fresh and after the
    centroids moved, hold for the true distances, not only for the rounded
    ones, also where the product form cancels."""
    points, centroids = points_centroids
    with np.errstate(all="ignore"):
        sq_norms = (points * points).sum(axis=1)
        norms, scratch = np.sqrt(sq_norms), np.empty_like(points)
        if shift is None:
            fresh = cluster._assign(points, sq_norms, norms, centroids, scratch)
            check_bounds_exactly(points, centroids, fresh)
            return
        previous = centroids + shift
        at_previous = cluster._assign(points, sq_norms, norms, previous, scratch)
        check_bounds_exactly(points, previous, at_previous)
        moved = cluster._assign(points, sq_norms, norms, centroids, scratch,
                                (previous, at_previous))
    check_bounds_exactly(points, centroids, moved)


def recursive_moved_assign(points, sq_norms, norms, centroids, previous, bounds):
    """`_assign`'s moved path with its redo rows assigned by a fresh `_assign`
    of those rows alone, which computes their c2 and b anew."""
    d = points.shape[1]
    c2 = (centroids * centroids).sum(axis=1)
    widen, bound = cluster._bound(norms, np.sqrt(c2.max()), d)
    hi, lo = 1.0 + widen, 1.0 - widen
    labels, upper, lower = bounds
    moves = np.sqrt((((centroids - previous) ** 2).sum(axis=1) + d * 2.0**-1074) * hi) * hi
    upper = (upper + moves[labels]) * hi
    lower = np.maximum(lower - moves.max(), 0.0) * lo
    labels = labels.copy()
    redo = np.flatnonzero(~((lower - upper) * (lower + upper) > bound))
    if redo.size:
        rows = points[redo]
        labels[redo], upper[redo], lower[redo] = cluster._assign(
            rows, sq_norms[redo], norms[redo], centroids, np.empty_like(rows))
    return labels, upper, lower


@settings(deadline=None, max_examples=300)
@given(st.one_of(tie_prone_points(), far_points_small_gaps()), st.data())
def test_fresh_rows_take_the_steps_norms_and_bounds(points_centroids, data):
    """`_assign_fresh`, given the step's squared centroid norms and any rows'
    slice of the step's b, labels those rows with `_sq_dists`' first minima,
    exact ties included, with the bits of a fresh `_assign` of those rows
    alone; and a moved assignment, whose redo rows it serves, keeps the bits
    of one that assigns them by a fresh `_assign`."""
    points, centroids = points_centroids
    n, d = points.shape
    redo = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    shift = data.draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.5, 1e3]))
    with np.errstate(all="ignore"):
        sq_norms = (points * points).sum(axis=1)
        norms = np.sqrt(sq_norms)
        c2 = (centroids * centroids).sum(axis=1)
        widen, bound = cluster._bound(norms, np.sqrt(c2.max()), d)
        rows = points[redo]
        got = cluster._assign_fresh(rows, sq_norms[redo], centroids, c2, bound[redo],
                                    1.0 + widen, 1.0 - widen)
        alone = cluster._assign(rows, sq_norms[redo], norms[redo], centroids,
                                np.empty_like(rows))
        want = cluster._sq_dists(rows, centroids).argmin(axis=1)
    assert np.array_equal(got[0], want)
    for a, b in zip(got, alone):
        assert a.tobytes() == b.tobytes()
    check_moved(points, centroids, centroids + shift * np.arange(1, len(centroids) + 1)[:, None])


def check_moved(points, centroids, previous):
    with np.errstate(all="ignore"):
        sq_norms = (points * points).sum(axis=1)
        norms, scratch = np.sqrt(sq_norms), np.empty_like(points)
        at_previous = cluster._assign(points, sq_norms, norms, previous, scratch)
        moved = cluster._assign(points, sq_norms, norms, centroids, scratch,
                                (previous, at_previous))
        want = recursive_moved_assign(points, sq_norms, norms, centroids, previous, at_previous)
    for a, b in zip(moved, want):
        assert a.tobytes() == b.tobytes()


def test_moved_redo_row_takes_its_own_bound():
    """Only the second row is redone (centroid 1 moved past it), and its b,
    larger than the first row's, shows in its fresh bounds' bits."""
    check_moved(np.array([[0.1], [5.05]]), np.array([[0.0], [10.0]]),
                np.array([[0.0], [10.2]]))


@pytest.mark.parametrize(
    "x, previous, centroids, upper, lower",
    [
        # the exact new distance 1 + 2^-54 rounds to 1.0 unless the upper bound is widened
        (1.0, [2.0**-60, 10.0], [-(2.0**-54), 10.0], 1.0, 9.0),
        # the exact new distance 8 - 2^-54 rounds to 8.0 unless the lower bound is widened
        (8.0, [7.0, 0.0], [7.0, 2.0**-54], 1.0, 8.0),
        # a move of 2^-570 squares to 0 in float64, and the distance doubles
        (0.0, [-(2.0**-570), 1.0], [-(2.0**-569), 1.0], 2.0**-570, 1.0),
    ],
    ids=["upper-widening", "lower-widening", "move-underflow"],
)
def test_moved_bounds_hold_in_exact_arithmetic(x, previous, centroids, upper, lower):
    """Bounds tight at the previous centroids still hold for the true
    distances after a move smaller than half an ulp of the bound, or one
    whose square underflows."""
    points = np.array([[x]])
    previous, centroids = np.array(previous)[:, None], np.array(centroids)[:, None]
    bounds = (np.array([0]), np.array([upper]), np.array([lower]))
    check_bounds_exactly(points, previous, bounds)
    sq_norms = (points * points).sum(axis=1)
    scratch = np.empty_like(points)
    moved = cluster._assign(points, sq_norms, np.sqrt(sq_norms), centroids, scratch,
                            (previous, bounds))
    check_bounds_exactly(points, centroids, moved)


def check_kmeans(points, k, seed, max_iters, n_init, start=None):
    """kmeans against oracle_kmeans, bit for bit; with `start`, both begin
    every restart at those centroids instead of k-means++."""
    args = (points, k, seed, max_iters, n_init)
    if start is None:
        want = outcome(oracle_kmeans, *args)
        got = outcome(kmeans, *args)
    else:
        want = outcome(oracle_kmeans, *args, lambda p, k, rng: start.copy())
        with mock.patch.object(cluster, "_kmeanspp_init", lambda *_: start.copy()):
            got = outcome(kmeans, *args)
    if isinstance(want, str):
        assert got == want
        return
    labels, centroids, wcss, iterations = want
    assert got.labels.tobytes() == labels.astype(np.int32).tobytes()
    assert got.centroids.tobytes() == centroids.tobytes()
    assert got.iterations_run == iterations
    assert np.float64(got.wcss).tobytes() == np.float64(wcss).tobytes()


@settings(deadline=None, max_examples=150)
@given(tie_prone_points(max_n=30, max_d=3, max_k=5), st.data())
def test_kmeans_matches_broadcast_lloyd(points_centroids, data):
    points = points_centroids[0]
    k = data.draw(st.integers(1, points.shape[0]))
    check_kmeans(points, k, data.draw(st.integers(0, 2**16)), data.draw(st.integers(1, 12)),
                 data.draw(st.integers(1, 3)))


@settings(deadline=None, max_examples=200)
@given(tie_prone_points(max_n=30, max_d=3, max_k=5), st.data())
def test_lloyd_from_any_start_matches_broadcast_lloyd(points_centroids, data):
    """Starts off the data, with duplicate and far-away centroids, so that
    clusters empty out at the start or mid-run and the bounds of reseeded
    centroids are rebuilt."""
    points, start = points_centroids
    if start.shape[0] > points.shape[0]:
        start = start[: points.shape[0]]
    check_kmeans(points, start.shape[0], 0, data.draw(st.integers(1, 12)), 1, start)


def test_cluster_emptied_mid_run_is_reseeded():
    # 1 and 9 start in the middle cluster, whose mean 5 then loses both to
    # the outer clusters' means 0 and 10
    points = np.array([[0.0], [1.0], [9.0], [10.0]])
    start = np.array([[-3.5], [5.0], [13.5]])
    centroids = start.copy()
    first = oracle_assign_with_repair(points, centroids)
    assert list(first) == [0, 1, 1, 2]
    means = oracle_group_means(points, first, 3)
    assert 1 not in ((points[:, None, :] - means[None]) ** 2).sum(axis=2).argmin(axis=1)
    for offset in (0.0, 1e6, 3e8):
        check_kmeans(points + offset, 3, 0, 10, 1, start + offset)


def test_repair_computes_its_distances_in_scratch():
    """An empty-cluster repair gathers each point's own centroid into the
    scratch array: its traced memory stays below one copy of the points, which
    a gathered `centroids[labels]` would take by itself."""
    rng = np.random.default_rng(3)
    points = rng.standard_normal((4096, 64))
    centroids = np.vstack([points[:2], np.full((1, 64), 1e3)])  # the third is far from every point
    want_centroids = centroids.copy()
    want = oracle_assign_with_repair(points, want_centroids)
    sq_norms = (points * points).sum(axis=1)
    norms, scratch = np.sqrt(sq_norms), np.empty_like(points)
    tracemalloc.start()
    try:
        (labels, _, _), reseeded = cluster._assign_with_repair(
            points, sq_norms, norms, centroids, scratch
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reseeded.tolist() == [False, False, True]
    assert np.array_equal(labels, want)
    assert centroids.tobytes() == want_centroids.tobytes()
    assert peak < points.nbytes, f"{peak} bytes"


@st.composite
def blobs(draw):
    """Gaussian blobs, large enough that most points skip reassignment once
    the centroids settle, at any scale and offset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_blobs = draw(st.integers(1, 6))
    d = draw(st.integers(1, 8))
    n = draw(st.integers(n_blobs, 400))
    centers = rng.standard_normal((n_blobs, d)) * draw(st.sampled_from([1.0, 3.0, 10.0]))
    points = centers[rng.integers(n_blobs, size=n)] + rng.standard_normal((n, d))
    if draw(st.booleans()):
        points[rng.integers(n, size=n // 4)] = points[rng.integers(n, size=n // 4)]  # duplicates
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-100, 1e100, 1e150]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 3e8]))
    return points * scale + offset


@settings(deadline=None, max_examples=60)
@given(blobs(), st.data())
def test_bounded_lloyd_matches_broadcast_lloyd_on_blobs(points, data):
    k = data.draw(st.integers(1, min(points.shape[0], 12)))
    check_kmeans(points, k, data.draw(st.integers(0, 2**16)), 100, data.draw(st.integers(1, 3)))


@st.composite
def labeled_points(draw):
    """Points at any scale and offset, with labels that leave no cluster empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    labels = rng.integers(0, k, n)
    labels[rng.permutation(n)[:k]] = np.arange(k)
    scale = draw(st.sampled_from([1.0, 1e-160, 1e150, 1e160]))
    # 1e4 + N(0, 1) to 3e6 + N(0, 1) certify k-means++ totals but leave close
    # calls to the direct form; at 3e8 no total is certified
    offset = draw(st.sampled_from([0.0, 1e4, 1e6, 3e6, 3e8]))
    points = rng.standard_normal((n, d)) * scale + offset
    if draw(st.booleans()):
        points = np.round(points)  # ties and duplicates
    return points, labels, k


def kmeanspp_working_set(points):
    """The points, squared norms and slack that `kmeans` hands k-means++."""
    sq_norms = (points * points).sum(axis=1)
    norms = np.sqrt(sq_norms)
    return points, sq_norms, float(cluster._bound(norms, norms.max(), points.shape[1])[1].sum())


def fresh_group_means(points, labels, k, scratch):
    """Every cluster's mean, from previous centroids that are all NaN and
    every cluster marked changed, as a restart's first update computes it."""
    previous = np.full((k, points.shape[1]), np.nan)
    return cluster._group_means(points, labels, scratch, previous, np.ones(k, dtype=bool))


@settings(deadline=None, max_examples=200)
@given(labeled_points(), st.integers(0, 2**16))
def test_cluster_kernels_match_direct_formulas(points_labels, seed):
    points, labels, k = points_labels
    scratch = np.empty_like(points)
    means = fresh_group_means(points, labels, k, scratch)
    assert means.tobytes() == oracle_group_means(points, labels, k).tobytes()
    with np.errstate(over="ignore"):
        want = oracle_wcss(points, labels, means)
        assert np.float64(cluster._wcss(points, labels, means, scratch)).tobytes() == (
            np.float64(want).tobytes())
        centroid = points[seed % points.shape[0]]
        assert cluster._sq_dists_to(points, centroid, scratch).tobytes() == (
            ((points - centroid) ** 2).sum(axis=1).tobytes())
        got = outcome(cluster._kmeanspp_init, *kmeanspp_working_set(points), k,
                      np.random.default_rng(seed), scratch)
        want = outcome(oracle_kmeanspp, points, k, np.random.default_rng(seed))
    if isinstance(want, str):
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()


@st.composite
def sampling_weights(draw):
    """Nonnegative weights with zeros, ties and a wide range, as k-means++ draws over."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    weights = rng.random(n) ** draw(st.sampled_from([1, 4, 40])) * draw(
        st.sampled_from([1e-300, 1.0, 1e300]))
    if draw(st.booleans()):
        weights = np.round(weights * 4.0) / 4.0  # zeros and ties
    weights[rng.integers(n)] += draw(st.sampled_from([1e-300, 1.0, 1e300]))  # total > 0
    return weights


@settings(deadline=None, max_examples=300)
@given(sampling_weights(), st.integers(0, 2**32 - 1))
def test_choice_is_one_draw_searched_in_the_cumulative_sum(weights, seed):
    """On the installed numpy, `Generator.choice(n, p=p)` takes one double u
    from the generator and returns `searchsorted(cumsum(p) / cdf[-1], u,
    "right")`: `_draw` without a margin, which k-means++'s close calls rely on."""
    total = weights.sum()
    by_choice, by_draw = np.random.default_rng(seed), np.random.default_rng(seed)
    pick = by_choice.choice(weights.size, p=weights / total)
    assert cluster._draw(weights, total, by_draw.random()) == pick
    assert by_choice.bit_generator.state == by_draw.bit_generator.state


@pytest.mark.parametrize("end", ["low", "high"])
def test_draw_keeps_only_picks_clear_of_the_margin(end):
    """The slots of d2 = [1, 1, 2] are [0, 1/4), [1/4, 1/2) and [1/2, 1); with
    margin m, u = 1/4 + m and the double below 1/2 - m stand for slot 1, the
    double below 1/4 + m and u = 1/2 - m do not."""
    d2, margin = np.array([1.0, 1.0, 2.0]), 2.0**-10
    inside = 0.25 + margin if end == "low" else np.nextafter(0.5 - margin, 0.0)
    outside = np.nextafter(0.25 + margin, 0.0) if end == "low" else 0.5 - margin
    assert cluster._draw(d2, 4.0, inside) == cluster._draw(d2, 4.0, outside) == 1
    assert cluster._draw(d2, 4.0, inside, margin) == 1
    assert cluster._draw(d2, 4.0, outside, margin) == -1


class FixedDraws:
    """A generator that draws `first` from `integers` and `u` from `random`;
    its `choice` is the rule `test_choice_is_one_draw_searched_in_the_cumulative_sum`
    pins."""

    def __init__(self, first, u):
        self.first, self.u = first, u

    def integers(self, n):
        return self.first

    def random(self):
        return self.u

    def choice(self, n, p):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf.searchsorted(self.random(), side="right")


def test_kmeanspp_close_call_takes_the_direct_form():
    """At 1e6 + N(0, 1) the product-form distances are off by about 1e-4, so
    the two forms' cumulative sums part at some slot boundary while the total
    is still certified. A u between them picks different points in the two
    forms; k-means++ must pick the direct form's."""
    points, sq_norms, slack = kmeanspp_working_set(
        1e6 + np.random.default_rng(0).standard_normal((64, 1)))
    direct = ((points - points[0]) ** 2).sum(axis=1)
    product = np.maximum(sq_norms - 2.0 * (points @ points[0]) + sq_norms[0], 0.0)
    assert slack < product.sum()
    cdfs = [np.cumsum(d2 / d2.sum()) for d2 in (direct, product)]
    cdfs = [cdf / cdf[-1] for cdf in cdfs]
    u = np.minimum(*cdfs)[np.flatnonzero(cdfs[0] != cdfs[1])[0]]
    picks = [cdf.searchsorted(u, side="right") for cdf in cdfs]
    assert picks[0] != picks[1]
    want = oracle_kmeanspp(points, 2, FixedDraws(0, u))
    got = cluster._kmeanspp_init(points, sq_norms, slack, 2, FixedDraws(0, u),
                                 np.empty_like(points))
    assert got.tobytes() == want.tobytes() == points[[0, picks[0]]].tobytes()


@settings(deadline=None, max_examples=200)
@given(labeled_points(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.02, 0.3]))
def test_group_means_from_stale_means_match_direct_formula(points_labels, seed, move_share):
    """An update from the previous centroids recomputes the clusters it is
    told to and keeps the rest, bit for bit the direct formula. The repair
    overwrites a reseeded cluster's row in place, so a reseeded cluster is
    recomputed even when it ends with its old member set again."""
    points, labels, k = points_labels
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    scratch = np.empty_like(points)
    previous = fresh_group_means(points, labels, k, scratch)
    new_labels = labels.copy()
    moved = rng.random(n) < move_share
    new_labels[moved] = rng.integers(0, k, int(moved.sum()))
    if np.bincount(new_labels, minlength=k).min() == 0:
        new_labels[rng.permutation(n)[:k]] = np.arange(k)
    reseeded = rng.random(k) < 0.3
    previous[reseeded] = points[rng.integers(0, n, int(reseeded.sum()))]  # seed points
    changed = reseeded.copy()
    relabeled = new_labels != labels
    changed[labels[relabeled]] = True
    changed[new_labels[relabeled]] = True
    kept = previous.copy()
    got = cluster._group_means(points, new_labels, scratch, previous, changed)
    assert got.tobytes() == oracle_group_means(points, new_labels, k).tobytes()
    assert previous.tobytes() == kept.tobytes()  # the previous centroids are read, not written


def test_late_lloyd_updates_reduce_only_touched_clusters(monkeypatch):
    """After a restart's first centroid update, an update sums only the
    clusters that a row left or joined since the last one. On these blobs
    some late updates sum only one or two of the k clusters."""
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((8, 4)) * 3.0
    points = centers[rng.integers(0, 8, 600)] + rng.standard_normal((600, 4))
    restarts = []  # per restart: [labels an update reads, np.add.reduce calls it made]

    class CountingAdd:
        def __getattr__(self, name):
            return getattr(np.add, name)

        def reduce(self, *args, **kwargs):
            restarts[-1][-1][1] += 1
            return np.add.reduce(*args, **kwargs)

    class CountingNumpy:  # numpy as cluster sees it
        add = CountingAdd()

        def __getattr__(self, name):
            return getattr(np, name)

    lloyd, group_means = cluster._lloyd, cluster._group_means

    def recording_lloyd(*args):
        restarts.append([])
        return lloyd(*args)

    def recording_group_means(points, labels, *rest):
        restarts[-1].append([labels.copy(), 0])
        return group_means(points, labels, *rest)

    monkeypatch.setattr(cluster, "np", CountingNumpy())
    monkeypatch.setattr(cluster, "_lloyd", recording_lloyd)
    monkeypatch.setattr(cluster, "_group_means", recording_group_means)
    kmeans(points, 8, seed=0, max_iters=100, n_init=4)
    late = []
    for updates in restarts:
        assert updates[0][1] == 8
        for (before, _), (labels, reduced) in zip(updates, updates[1:]):
            relabeled = before != labels
            touched = set(before[relabeled].tolist()) | set(labels[relabeled].tolist())
            assert reduced == len(touched)
            late.append(reduced)
    assert len(late) >= 8
    assert min(late) <= 2 and sum(late) < 0.75 * 8 * len(late)


def oracle_rho(u, v):
    ru, rv = fractional_ranks(u), fractional_ranks(v)
    cu, cv = ru - ru.mean(), rv - rv.mean()
    ss_u, ss_v = float(np.dot(cu, cu)), float(np.dot(cv, cv))
    if ss_u == 0.0 or ss_v == 0.0:
        return 0.0
    rho = float(np.dot(cu, cv)) / np.sqrt(ss_u * ss_v)
    return float(min(1.0, max(-1.0, rho)))


def oracle_similarity(errors):
    c, n_domains = errors.shape
    s = np.full((c, c), 0.5)
    if n_domains >= 2:
        for i in range(c):
            for j in range(i + 1, c):
                rho = oracle_rho(errors[i], errors[j])
                s[i, j] = s[j, i] = min(1.0, max(0.0, 0.5 * (1.0 + rho)))
    np.fill_diagonal(s, 1.0)
    return s


@st.composite
def performance_rows(draw, max_c=12, max_domains=6, domains=None):
    """Performance matrices with tied, constant and duplicated rows, one
    domain column or several (drawn from `domains` if given), over distinct
    candidate ids in any order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, max_c))
    n_domains = draw(domains if domains is not None else st.integers(1, max_domains))
    if draw(st.booleans()):
        errors = rng.integers(0, draw(st.integers(1, 4)) + 1, (c, n_domains)).astype(float)
    else:
        errors = rng.random((c, n_domains)) * draw(st.sampled_from([1e-3, 1.0, 1e6]))
    if draw(st.booleans()):
        errors[rng.integers(c)] = errors[rng.integers(c)]
    if draw(st.booleans()):
        errors[rng.integers(c)] = 2.5  # a constant row
    ids = rng.permutation(max_c * 4)[:c]
    return make_perf(errors, ids=list(ids))


@settings(deadline=None, max_examples=200)
@given(performance_rows(max_c=16, domains=st.sampled_from([1, 2]) | st.integers(3, 48)))
def test_similarity_matches_pairwise_spearman(perf):
    # from 16 columns on, the oracle's np.dot adds in its BLAS kernel's own
    # order; the rank products are exact, so the order cannot show
    assert similarity_matrix(perf).s.tobytes() == oracle_similarity(perf.errors).tobytes()
    first, last = perf.errors[0], perf.errors[-1]
    if first.size >= 2:
        want = oracle_rho(first, last)
        assert np.float64(spearman_rho(first, last)).tobytes() == np.float64(want).tobytes()


def oracle_ward(perf, target_groups):
    """Every pair costed on every merge, in (min member, min member) order;
    None if a live pair's cost is NaN."""
    ids = [int(i) for i in perf.candidate_ids]
    c = len(ids)
    members = [[ids[i]] for i in range(c)]
    centroids = [perf.errors[i].astype(np.float64) for i in range(c)]
    order = sorted(range(c), key=lambda i: members[i][0])
    members = [members[i] for i in order]
    centroids = [centroids[i] for i in order]
    trace = []
    while len(members) > target_groups:
        best = None
        best_pair = (-1, -1)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                na, nb = len(members[a]), len(members[b])
                delta = centroids[a] - centroids[b]
                cost = (na * nb / (na + nb)) * float(np.dot(delta, delta))
                if np.isnan(cost):
                    return None
                key = (cost, members[a][0], members[b][0])
                if best is None or key < best:
                    best = key
                    best_pair = (a, b)
        a, b = best_pair
        na, nb = len(members[a]), len(members[b])
        merged = sorted(members[a] + members[b])
        centroid = (na * centroids[a] + nb * centroids[b]) / (na + nb)
        trace.append((tuple(members[a]), tuple(members[b]), best[0]))
        keep = [i for i in range(len(members)) if i not in (a, b)]
        members = [members[i] for i in keep] + [merged]
        centroids = [centroids[i] for i in keep] + [centroid]
        order = sorted(range(len(members)), key=lambda i: members[i][0])
        members = [members[i] for i in order]
        centroids = [centroids[i] for i in order]
    return members, trace


@st.composite
def overflowing_rows(draw, max_c=10):
    """Performance rows on a few levels: exact cost ties, squared distances
    that overflow to +inf, and merged centroids that overflow to +inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, max_c))
    levels = np.array([0.0, 1.0, 2.0, 1e154, 1e200, 1.7e308, 1.7e308, 1.7e308])
    errors = levels[rng.integers(0, levels.size, (c, draw(st.integers(1, 2))))]
    return make_perf(errors, ids=list(rng.permutation(max_c * 4)[:c]))


@settings(deadline=None, max_examples=400)
@given(performance_rows(max_c=14) | overflowing_rows(), st.data())
def test_ward_matches_full_rescan(perf, data):
    c = perf.errors.shape[0]
    target = data.draw(st.sampled_from([1, c]) | st.integers(1, c))
    sim = similarity_matrix(perf)
    with np.errstate(over="ignore", invalid="ignore"):
        want = oracle_ward(perf, target)
        if want is None:
            with pytest.raises(ValueError, match="merged centroid overflows float64"):
                ward_partition(perf, sim, target)
            return
        got = ward_partition(perf, sim, target)
    groups, trace = want
    assert got.groups == groups
    assert [(a, b, cost.hex()) for a, b, cost in got.merge_trace] == [
        (a, b, cost.hex()) for a, b, cost in trace
    ]


def test_ward_nan_cost_names_overflow():
    perf = make_perf([[1.7e308]] * 4, ids=[4, 2, 9, 7])
    sim = similarity_matrix(perf)
    with np.errstate(over="ignore", invalid="ignore"):
        # (2, 4) and (7, 9) merge at cost 0 into centroids at +inf
        part = ward_partition(perf, sim, 2)
        assert part.groups == [[2, 4], [7, 9]]
        with pytest.raises(ValueError, match="NaN: a merged centroid overflows float64"):
            ward_partition(perf, sim, 1)


def per_pair_ward(perf, target_groups):
    """Ward merging with one Python `np.dot` per pair cost, as `ward_partition`
    costed pairs before its stacked product: (groups, merge trace), or the
    message of the ValueError it raised."""
    ids = [int(i) for i in perf.candidate_ids]
    c = len(ids)
    order = sorted(range(c), key=ids.__getitem__)
    members = {p: [ids[i]] for p, i in enumerate(order)}
    centroids = {p: perf.errors[i].astype(np.float64) for p, i in enumerate(order)}

    def pair_cost(a, b):
        na, nb = len(members[a]), len(members[b])
        delta = centroids[a] - centroids[b]
        return (na * nb / (na + nb)) * float(np.dot(delta, delta))

    costs = np.full((c, c), np.inf)
    for a, b in itertools.combinations(range(c), 2):
        costs[a, b] = pair_cost(a, b)
    trace = []
    while len(members) > target_groups:
        a, b = divmod(int(costs.argmin()), c)
        cost = float(costs[a, b])
        if np.isnan(cost):
            return "ValueError: Ward merge cost is NaN: a merged centroid overflows float64"
        if cost == np.inf:
            a, b = sorted(members)[:2]
        na, nb = len(members[a]), len(members[b])
        trace.append((tuple(members[a]), tuple(members[b]), cost))
        members[a] = sorted(members[a] + members.pop(b))
        centroids[a] = (na * centroids[a] + nb * centroids.pop(b)) / (na + nb)
        costs[b, :] = costs[:, b] = np.inf
        for e in members:
            if e != a:
                pair = (min(a, e), max(a, e))
                costs[pair] = pair_cost(*pair)
    return [members[p] for p in sorted(members)], trace


@settings(deadline=None, max_examples=300)
@given(
    performance_rows(max_c=20, domains=st.integers(1, 6) | st.integers(7, 48)) | overflowing_rows(),
    st.data(),
)
def test_stacked_ward_costs_match_per_pair_dots(perf, data):
    """Groups, merge-trace members and cost bits as the per-pair loop gives
    them, with more than 16 domain columns too (where the dot kernel adds in
    its own blocked order), exact and overflowed (+inf) cost ties included,
    and the same error where a cost is NaN."""
    c = perf.errors.shape[0]
    target = data.draw(st.sampled_from([1, c]) | st.integers(1, c))
    want = outcome(per_pair_ward, perf, target)
    got = outcome(ward_partition, perf, similarity_matrix(perf), target)
    if isinstance(want, str):
        assert got == want
        return
    groups, trace = want
    assert got.groups == groups
    assert [(a, b, cost.hex()) for a, b, cost in got.merge_trace] == [
        (a, b, cost.hex()) for a, b, cost in trace
    ]


# sha256 of a small mop plan's cluster-stage diagnostics as the direct
# formulas gave them, with numpy 2.4 and OpenBLAS 0.3 (perf_errors come from
# the layer's matrix products, so another BLAS build may round them apart)
GOLDEN_MOP = {
    "labels": "0c648e4ecc9341d02262c01e3f15169b18584b9dd0481fed562cc09abcd79ce3",
    "centroids": "658acafa1ea99d8a27bb2251821bf0e71b60f209de8bffc9e8beed8f1dcd721c",
    "similarity": "41d2d2b12561e3d7bc39d36ab9e20a522c291d53c5f37406b6ab9b0157231b9a",
    "perf_errors": "77c0349c1209ae7eadb9db4003567d238af225a94056b4c10a17cb9bbe513d7b",
    "groups": "b2b8d901873614852fc390a244f908a54578473ca9fe67fac3c005955244cc2e",
}


def test_mop_cluster_stage_bytes_pinned():
    _, layer, calib, _ = make_planted(seed=7)
    diag = prune_mop(calib, layer, r=5, m=1, kmeans_seed=3).diagnostics
    got = {
        key: hashlib.sha256(np.ascontiguousarray(diag[key]).tobytes()).hexdigest()
        for key in ("labels", "centroids", "similarity", "perf_errors")
    }
    got["groups"] = hashlib.sha256(json.dumps(diag["groups"]).encode()).hexdigest()
    assert got == GOLDEN_MOP
