"""Expert-pruning sandbox for simulated mixture-of-experts layers.

Generates MoE layers with planted specialist/generalist structure,
caches calibration data, and runs five expert-retention strategies
(random, frequency, enumeration exhaustive/greedy, global-variability,
and cluster-then-select) against brute-force oracles and held-out
per-domain evaluations.

Submodules load lazily, so ``import moe_prune``, the command-line parser
and ``moe-prune report`` start without importing numpy.
"""

import contextlib
import os
from importlib import import_module

__version__ = "0.1.0"

# Pruning strategies by name. Defined here, not in prune, so the command-line
# parser can list them without importing numpy.
METHODS = ("random", "frequency", "enum_exhaustive", "enum_greedy", "gvp", "mop")

# Most subsets an exhaustive search may score before greedy takes over. Here
# for the same reason as METHODS, and not exported.
DEFAULT_SUBSET_BUDGET = 100_000


@contextlib.contextmanager
def _staged(directory):
    """A fresh private directory in `directory` (which must exist) to write into.

    When the block succeeds, its files are renamed into `directory` in name
    order: ``X.bin`` before ``X.json``, ``plan.diag.*`` before ``plan.json``.
    If a rename fails, the files already renamed are removed. The stage is
    always removed. Here for the same reason as METHODS: `report` uses it.
    """
    stage = os.path.join(directory, f".moe-prune-{os.getpid()}-{os.urandom(6).hex()}")
    os.mkdir(stage, 0o700)
    renamed = []  # files committed so far, removed again if the commit fails
    try:
        yield stage
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(directory, name))
            renamed.append(os.path.join(directory, name))
        renamed = []  # committed in full
    finally:
        for path in renamed + [os.path.join(stage, name) for name in os.listdir(stage)]:
            with contextlib.suppress(OSError):
                os.remove(path)
        os.rmdir(stage)


_EXPORTS = {
    "tensor_store": [
        "ArchiveError",
        "read_archive",
        "write_archive",
    ],
    "moe_sim": [
        "CalibrationCache",
        "ExpertTransform",
        "MoELayer",
        "PlantedSpec",
        "cache_from_inputs",
        "domain_centroids",
        "generate_calibration",
        "generate_layer",
        "load_cache",
        "load_layer",
        "save_cache",
        "save_layer",
    ],
    "metrics": [
        "PerformanceMatrix",
        "activation_frequency",
        "performance_matrix",
        "reconstruction_loss",
        "variability_scores",
    ],
    "cluster": [
        "kmeans",
        "similarity_matrix",
        "spearman_rho",
        "ward_partition",
    ],
    "prune": [
        "PruningPlan",
        "load_plan",
        "prune_enum",
        "prune_frequency",
        "prune_gvp",
        "prune_mop",
        "prune_random",
        "prune_with_method",
        "save_plan",
    ],
    "evaluation": [
        "compare_methods",
        "comparison_to_csv",
        "comparison_to_text",
        "evaluate_plan",
        "export_heatmap_csv",
    ],
}

_NAME_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted([*_NAME_TO_MODULE, "METHODS", "__version__"])  # as dir() sorts


def __getattr__(name):
    module = _NAME_TO_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # cache so the import runs once
    return value


def __dir__():
    return __all__
