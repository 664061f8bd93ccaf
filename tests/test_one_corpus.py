"""The paper's claim as it states it: pruning criteria taken from one corpus
degrade on the other domains, while MoP keeps experts that cover them.

Every case is the (b) shape of the ROADMAP (4 planted domains x 3
specialists + 4 generalists, hidden 32 / ff 64, top-2 routing), calibrated
on tokens of a single planted domain only: unit noise around that domain's
centroid, through `cache_from_inputs`. A plan covers the held-out domains
when it keeps a specialist of every planted domain; that is the coverage
`evaluate_plan` reports, and it needs only the layer's ground truth. Like
tests/test_relabel.py, nothing here depends on bits: a change that moves
these counts moved the method, not its rounding.
"""

import numpy as np
import pytest

from moe_prune import PlantedSpec, generate_layer, prune_enum, prune_mop

from conftest import make_single_domain_cache

N_DOMAINS = 4
MODEL_SEEDS = (20, 21, 22)
CALIBRATION_TOKENS = 256
CASES = [(seed, domain) for seed in MODEL_SEEDS for domain in range(N_DOMAINS)]


def b_shape(seed):
    spec = PlantedSpec(n_domains=N_DOMAINS, specialists_per_domain=3, n_generalists=4,
                       duplicate_noise=0.05, domain_separation=20.0, seed=seed)
    return spec, generate_layer(spec, hidden_dim=32, ff_dim=64, top_k=2)


def covers_every_domain(layer, kept):
    domains = layer.specialist_domain[kept]
    return set(domains[domains >= 0].tolist()) == set(range(N_DOMAINS))


def full_coverage_count(prune):
    """In how many of CASES the plan `prune(cache, layer)` covers every domain."""
    count = 0
    for seed, domain in CASES:
        spec, layer = b_shape(seed)
        cache = make_single_domain_cache(layer, spec, CALIBRATION_TOKENS,
                                         seed=1000 * seed + domain, domain=domain)
        count += covers_every_domain(layer, prune(cache, layer).kept)
    return count


@pytest.fixture(scope="module")
def mop_r8():
    return full_coverage_count(lambda cache, layer: prune_mop(cache, layer, 8, kmeans_seed=0))


def test_mop_covers_every_domain_from_one_corpus(mop_r8):
    """r = 8 at the default m = 4 (so 4 Ward groups). mop covers all 12
    cases; with each group's lowest-variability member as representative it
    covers 10, and with constant performance rows none."""
    assert mop_r8 >= 11, f"{mop_r8} of {len(CASES)}"


def test_enum_greedy_never_covers_every_domain_from_one_corpus(mop_r8):
    greedy = full_coverage_count(lambda cache, layer: prune_enum(cache, layer, 8, mode="greedy"))
    assert greedy == 0 < mop_r8


@pytest.mark.xfail(strict=True, reason="a known limit: at r = 6, m = 2 one-corpus mop covers "
                   "every domain in 3 of the 12 cases")
def test_mop_covers_every_domain_from_one_corpus_at_r6_m2():
    count = full_coverage_count(
        lambda cache, layer: prune_mop(cache, layer, 6, m=2, kmeans_seed=0))
    assert count >= 11, f"{count} of {len(CASES)}"
