"""The benchmark's own inputs, read through perfbench/workloads.py (never edited here).

One `search` pass and one `cluster` pass at seed 0 must give every operation
digest recorded in perfbench/digests.json, so a change that moves a plan or a
loss fails here, not only in a benchmark run. The digests cover matrix
products, so they hold for the numpy and OpenBLAS builds they were recorded
with (numpy 2.4, OpenBLAS 0.3).
"""

import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from moe_prune import cluster

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cluster_inputs():
    return workloads.build_inputs("cluster", 0)


def recorded(workload, seed):
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload][str(seed)]


def test_search_pass_matches_recorded_digests():
    result = workloads.inprocess_pass("search", 0, workloads.build_inputs("search", 0))
    assert dict(result["ops"]) == recorded("search", 0)


def test_cluster_pass_matches_recorded_digests(cluster_inputs):
    result = workloads.inprocess_pass("cluster", 0, cluster_inputs)
    assert dict(result["ops"]) == recorded("cluster", 0)


# Traced-memory ceilings of one warm pass at seed 7, in KiB. Over hash seeds
# 0-3 a pass peaked at 1,471-1,472 KiB (`search`) and 1,589-1,591 KiB
# (`cluster`); each ceiling leaves about 2% of slack above the highest. An
# empty-cluster repair that gathers each point's centroid into a new [N, d]
# array, not into k-means' scratch array, adds 512 KiB to `cluster`; float64
# variability terms over the whole gate, not block by block, add about 150.
PEAK_CEILING_KIB = {"search": 1506, "cluster": 1622}


@pytest.mark.parametrize("workload", sorted(PEAK_CEILING_KIB))
def test_pass_peak_memory_stays_under_ceiling(workload):
    """The tracemalloc peak of a pass, after one untraced pass has warmed every
    cache: a change that makes a pass hold more memory (a larger routing
    batch, a kept copy of the expert outputs) fails here."""
    inputs = workloads.build_inputs(workload, 7)
    workloads.inprocess_pass(workload, 7, inputs)
    tracemalloc.start()
    try:
        workloads.inprocess_pass(workload, 7, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1024 <= PEAK_CEILING_KIB[workload], f"{peak / 1024:.1f} KiB"


def test_bounds_skip_most_points_once_centroids_settle(cluster_inputs, monkeypatch):
    """k-means as the `cluster` workload's mop runs it (k = 11 over 2,048
    tokens): from the third Lloyd iteration of each restart on, most points
    keep their label on the strength of their bounds alone. A row reaches the
    product form through an `_assign` call without `moved`."""
    _, calibration, _ = cluster_inputs
    iteration, recomputed = [0], []
    lloyd, assign = cluster._lloyd, cluster._assign

    def counting_lloyd(*args):
        iteration[0] = 0
        recomputed.append([0, 0])  # the restart's first, full assignment
        return lloyd(*args)

    def counting_assign(points, sq_norms, norms, centroids, scratch, moved=None):
        if moved is None:
            recomputed[-1][1] += points.shape[0]
        else:  # one call per Lloyd iteration
            iteration[0] += 1
            recomputed.append([iteration[0], 0])
        return assign(points, sq_norms, norms, centroids, scratch, moved)

    monkeypatch.setattr(cluster, "_lloyd", counting_lloyd)
    monkeypatch.setattr(cluster, "_assign", counting_assign)
    cluster.kmeans(calibration.inputs, 11, seed=0, max_iters=100, n_init=8)
    late = np.array([rows for it, rows in recomputed if it > 2])
    assert late.size >= 8
    assert late.sum() < 0.5 * calibration.n_tokens * late.size
