"""Runs that must not depend on how they are run: the default CLI pipeline
under one and two BLAS threads, byte for byte, and the report a failing
test gains when a floating-point warning is raised inside the package."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from moe_prune import cluster

from conftest import runtime_warning_section

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

PIPELINE = """
import json, sys
from conftest import blas_threads
from test_golden_pipeline import run_pipeline
manifest = run_pipeline(sys.argv[1])
print(json.dumps({"blas_threads": blas_threads(), "manifest": manifest}))
"""


def test_pipeline_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Every file of the default pipeline (test_golden_pipeline.py's) has the
    same bytes under OPENBLAS_NUM_THREADS 1 and 2, each set before numpy loads."""
    procs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, TESTS]))
        root = tmp_path / f"threads-{threads}"
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", PIPELINE, str(root)], env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    runs = {}
    for threads, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err[-2000:]
        runs[threads] = json.loads(out.strip().splitlines()[-1])
    if (os.cpu_count() or 1) >= 2:
        assert [runs[t]["blas_threads"] for t in ("1", "2")] == ["1", "2"]
    one, two = runs["1"]["manifest"], runs["2"]["manifest"]
    assert len(one) > 0
    moved = sorted(path for path in one.keys() | two.keys() if one.get(path) != two.get(path))
    assert not moved, "files whose bytes depend on the BLAS thread count:\n" + "\n".join(moved)


def test_runtime_warning_report_describes_the_raising_frame():
    points, centroids = np.array([[1e200, 0.0]]), np.array([[-1e200, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning) as excinfo:
            cluster._sq_dists(points, centroids)
    section = runtime_warning_section(excinfo.value)
    assert "overflow" in section
    assert "cluster.py:" in section and " in _sq_dists" in section
    assert f"np.geterr() after the test: {np.geterr()}" in section
    assert "BLAS threads: " in section
    address = points.ctypes.data % 64
    assert f"  points: (1, 2) float64 (16, 8) True {address}" in section
    assert "  centroids: (2, 2) float64 (16, 8) True" in section


def test_runtime_warning_outside_the_package_adds_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning) as excinfo:
            np.float64(1e308) * 10.0
    assert runtime_warning_section(excinfo.value) is None
    assert runtime_warning_section(ValueError("not a warning")) is None


def test_failing_report_gains_the_section(pytester):
    """The hook, run by pytest: a test failing on a RuntimeWarning raised in
    the package gets the section; its failure still fails."""
    with open(os.path.join(TESTS, "conftest.py"), encoding="utf-8") as fh:
        pytester.makeconftest(fh.read())
    pytester.makepyfile(test_overflow="""
        import numpy as np, warnings
        from moe_prune import cluster

        def test_overflow():
            warnings.simplefilter("error")
            cluster._sq_dists(np.array([[1e200]]), np.array([[-1e200]]))
    """)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines([
        "*RuntimeWarning in moe_prune*",
        "warning: RuntimeWarning('overflow encountered in square')",
        "np.geterr() after the test: *",
        "BLAS threads: *",
        "  points: (1, 1) float64 (8, 8) True *",
    ])
