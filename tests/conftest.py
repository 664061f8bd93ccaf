"""Shared fixture builders for the test suite, and a report hook for
floating-point warnings raised inside the package."""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
import pytest

import moe_prune
from moe_prune import (
    CalibrationCache,
    ExpertTransform,
    MoELayer,
    PlantedSpec,
    cache_from_inputs,
    domain_centroids,
    generate_calibration,
    generate_layer,
)

pytest_plugins = ["pytester"]  # tests/test_reproducible.py runs the report hook


def make_random_layer(rng, n=6, hidden=8, ff=16, top_k=2) -> MoELayer:
    experts = [
        ExpertTransform(
            rng.standard_normal((ff, hidden)) / np.sqrt(hidden),
            rng.standard_normal((hidden, ff)) / np.sqrt(ff),
        )
        for _ in range(n)
    ]
    return MoELayer(router=rng.standard_normal((n, hidden)), experts=experts, top_k=top_k)


def make_random_cache(rng, layer: MoELayer, n_tokens=64) -> CalibrationCache:
    inputs = rng.standard_normal((n_tokens, layer.hidden_dim)).astype(np.float32)
    return cache_from_inputs(layer, inputs)


PLANTED_KW = dict(hidden_dim=16, ff_dim=32, top_k=2)


def make_planted(seed, noise=0.05, sep=20.0, tokens_per_domain=64):
    """The n=8 planted fixture: 3 domains x 2 specialists + 2 generalists."""
    spec = PlantedSpec(
        n_domains=3,
        specialists_per_domain=2,
        n_generalists=2,
        duplicate_noise=noise,
        domain_separation=sep,
        seed=seed,
    )
    layer = generate_layer(spec, **PLANTED_KW)
    calib = generate_calibration(layer, spec, tokens_per_domain, seed=seed + 10_000)
    heldout = generate_calibration(layer, spec, tokens_per_domain, seed=seed + 20_000)
    return spec, layer, calib, heldout


def make_single_domain_cache(layer, spec, n_tokens, seed, domain=0) -> CalibrationCache:
    """Calibration tokens drawn from a single planted domain."""
    rng = np.random.default_rng(seed)
    centers = domain_centroids(spec, layer.hidden_dim)
    inputs = (centers[domain] + rng.standard_normal((n_tokens, layer.hidden_dim))).astype(
        np.float32
    )
    return cache_from_inputs(
        layer, inputs, source_domain=np.full(n_tokens, domain, dtype=np.int32)
    )


def make_duplicated_specialist_fixture(seed, sep=6.0, other_gain=1.5, noise=0.05,
                                       tokens_per_domain=64):
    """Planted layer where domain-0's duplicate pair ranks top on variability.

    Boosting the other domains' specialist router rows crushes the pair's
    off-domain gate mass, so experts 0 and 1 score decisively highest.
    """
    spec = PlantedSpec(
        n_domains=3,
        specialists_per_domain=2,
        n_generalists=2,
        duplicate_noise=noise,
        domain_separation=sep,
        seed=seed,
    )
    layer = generate_layer(spec, **PLANTED_KW)
    for e in range(layer.n_experts):
        if int(layer.specialist_domain[e]) > 0:
            layer.router[e] *= other_gain
    calib = generate_calibration(layer, spec, tokens_per_domain, seed=seed + 50_000)
    return spec, layer, calib


@pytest.fixture(scope="session")
def planted_fixture():
    return make_planted(seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# RuntimeWarnings raised inside the package
#
# `filterwarnings = ["error"]` turns a numpy floating-point warning into a
# failure whose traceback says only where it was raised. The hook below adds
# what the next such failure needs to be explained: the warning, numpy's error
# state, the BLAS thread count, and the layout of every array the raising
# frame holds. It adds a report section and nothing else.

PACKAGE_DIR = os.path.dirname(os.path.abspath(moe_prune.__file__))


def blas_threads() -> str:
    """The thread count of numpy's bundled OpenBLAS, as the library reports it."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                       "*openblas*")):
        lib = ctypes.CDLL(path)  # the copy numpy already loaded
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return str(getattr(lib, name)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def _package_entry(exc: BaseException):
    """The innermost traceback entry of `exc` in a frame of the package, or None."""
    entry, tb = None, exc.__traceback__
    while tb is not None:
        if os.path.abspath(tb.tb_frame.f_code.co_filename).startswith(PACKAGE_DIR + os.sep):
            entry = tb
        tb = tb.tb_next
    return entry


def runtime_warning_section(exc: BaseException) -> str | None:
    """The report text for a RuntimeWarning raised in a frame of the package
    (also inside an exception group, or as the cause or context of `exc`)."""
    pending, seen = [exc], set()
    while pending:
        err = pending.pop()
        if err is None or id(err) in seen:
            continue
        seen.add(id(err))
        entry = _package_entry(err) if isinstance(err, RuntimeWarning) else None
        if entry is not None:
            break
        pending += [err.__cause__, err.__context__, *getattr(err, "exceptions", ())]
    else:
        return None
    frame = entry.tb_frame
    lines = [
        f"warning: {err!r}",
        f"raised at {frame.f_code.co_filename}:{entry.tb_lineno} in {frame.f_code.co_name}",
        f"np.geterr() after the test: {np.geterr()}",
        f"BLAS threads: {blas_threads()}",
        "arrays in that frame (name, shape, dtype, strides, aligned, data address mod 64):",
    ]
    for name, value in frame.f_locals.items():
        if isinstance(value, np.ndarray):
            lines.append(f"  {name}: {value.shape} {value.dtype} {value.strides} "
                         f"{value.flags.aligned} {value.ctypes.data % 64}")
    return "\n".join(lines)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.failed and call.excinfo is not None:
        section = runtime_warning_section(call.excinfo.value)
        if section is not None:
            report.sections.append(("RuntimeWarning in moe_prune", section))
