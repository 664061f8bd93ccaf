import numpy as np
import pytest
import scipy.stats

from moe_prune.cluster import (
    ExpertPartition,
    fractional_ranks,
    kmeans,
    similarity_matrix,
    spearman_rho,
    ward_partition,
)
from moe_prune.metrics import PerformanceMatrix


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
    hist = labeling.wcss_history
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


def test_partition_invariants():
    with pytest.raises(ValueError, match="empty group"):
        ExpertPartition(groups=[[0], []], merge_trace=[])
    with pytest.raises(ValueError, match="overlap"):
        ExpertPartition(groups=[[0, 1], [1, 2]], merge_trace=[])
    with pytest.raises(ValueError, match="nonnegative"):
        ExpertPartition(groups=[[0]], merge_trace=[((0,), (1,), -1.0)])

