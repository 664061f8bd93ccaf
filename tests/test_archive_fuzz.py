"""Mutation fuzz over every artifact kind the pipeline reads back.

One field of a layer manifest, a calibration-cache manifest or a plan
document is changed (or deleted), or one `.bin` blob is truncated. Loading
the result must either raise an ArchiveError that names the file, or give
back exactly what the file says: the original arrays of a layer or cache,
since no manifest field can change an array without breaking an invariant,
and for a plan, which is an editable document, the plan its fields describe.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moe_prune import METHODS
from moe_prune.moe_sim import load_cache, load_layer, save_cache, save_layer
from moe_prune.prune import load_plan, prune_mop, save_plan
from moe_prune.tensor_store import ArchiveError

from conftest import make_planted

DELETE = object()  # a mutation that removes the field

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.lists(st.integers(-1, 40), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
)

METADATA_VALUES = st.sampled_from(
    [str(i) for i in range(-1, 11)]
    + [" 2", "2.0", "abc", "", "1000000", "moe_layer", "calibration_cache", "plan_diagnostics"]
)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Small layer, held-out cache and mop plan archives in one directory."""
    base = tmp_path_factory.mktemp("originals")
    spec, layer, calib, heldout = make_planted(seed=5, tokens_per_domain=8)
    save_layer(layer, str(base / "layer"))
    save_cache(heldout, str(base / "cache"))
    save_plan(prune_mop(calib, layer, r=4, m=1), base / "plan")
    loaded = {
        "layer": load_layer(str(base / "layer")),
        "cache": load_cache(str(base / "cache")),
        "plan": load_plan(base / "plan"),
    }
    return base, loaded


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _set(doc, key, value):
    if value is DELETE:
        doc.pop(key, None)
    else:
        doc[key] = value


def _near(values, *extra):
    return st.sampled_from([v for v in values if v is not None] + list(extra))


def _edit_manifest(data, doc):
    """One field of an archive manifest, changed to a value near the others."""
    entries = doc["arrays"]
    where = data.draw(st.sampled_from(["entry", "entry", "entry", "metadata", "root"]))
    if where == "entry":
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        key = data.draw(st.sampled_from(["name", "shape", "dtype", "offset", "length"]))
        own, others = entry[key], [e[key] for e in entries]
        if key == "name":
            near = _near(others, "source_domain", "specialist_domain", "expert_99_w_in", "")
        elif key == "shape":
            near = _near(others, own[::-1], [int(np.prod(own))], own + [1], [1] + own)
        elif key == "dtype":
            near = _near(["f32", "f64", "i32", "i64", "u8"])
        else:  # offset or length
            near = _near(others, own + 4, own - 4, 0)
        _set(entry, key, data.draw(near | JSON_VALUES | st.just(DELETE)))
    elif where == "metadata":
        key = data.draw(st.sampled_from(sorted(doc["metadata"]) + ["n_experts", "top_k"]))
        _set(doc["metadata"], key, data.draw(METADATA_VALUES | JSON_VALUES | st.just(DELETE)))
    else:
        key = data.draw(st.sampled_from(["format_version", "arrays", "metadata"]))
        _set(doc, key, data.draw(st.sampled_from([0, 2, "1"]) | JSON_VALUES | st.just(DELETE)))


def _edit_plan(data, doc, work):
    """One field of plan.json, or of its params, changed to a nearby value."""
    kept, tags = doc["kept"], doc["provenance"]
    key = data.draw(st.sampled_from(
        ["method", "params", "kept", "provenance", "diagnostics_archive", "n", "r", "m", "K",
         "seed"]
    ))
    near = {
        "method": _near(METHODS, "enum"),
        "params": _near([{}, {**doc["params"], "r": 3}, {"r": len(kept)}]),
        "kept": _near([kept[::-1], kept[:-1], kept + kept[:1], [k + 1 for k in kept],
                       [-1] + kept[1:]]),
        "provenance": _near([tags[::-1], ["general"] * len(tags), ["baseline"] * len(tags),
                             ["x"] * len(tags)]),
        "diagnostics_archive": _near(
            ["", "plan.diag", "plan", "layer", "missing", "../plan.diag",
             os.path.join(work, "plan.diag")]
        ),
    }.get(key, _near(range(-1, 11)))
    value = data.draw(near | JSON_VALUES | st.just(DELETE))
    _set(doc["params"] if key in ("n", "r", "m", "K", "seed") else doc, key, value)


def _same_arrays(a, b):
    return a is None and b is None or (
        a is not None and b is not None and a.dtype == b.dtype and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


def _check_loaded(kind, loaded, original, doc):
    if kind == "layer":  # top_k is the one layer value kept as metadata, and editable
        assert loaded.top_k == (original.top_k if doc is None else int(doc["metadata"]["top_k"]))
        assert _same_arrays(loaded.router, original.router)
        assert _same_arrays(loaded.specialist_domain, original.specialist_domain)
        assert len(loaded.experts) == len(original.experts)
        for a, b in zip(loaded.experts, original.experts):
            assert _same_arrays(a.w_in, b.w_in) and _same_arrays(a.w_out, b.w_out)
    elif kind == "cache":
        for name in ("inputs", "outputs_full", "gate_probs", "source_domain"):
            assert _same_arrays(getattr(loaded, name), getattr(original, name)), name
    elif doc is None:  # a truncated diagnostics blob never loads
        raise AssertionError("truncated plan diagnostics loaded")
    else:
        assert loaded.method == doc["method"] and loaded.params == doc["params"]
        assert list(zip(loaded.kept, loaded.provenance)) == sorted(
            zip(doc["kept"], doc["provenance"])
        )
        if doc.get("diagnostics_archive"):
            assert set(loaded.diagnostics) == set(original.diagnostics)
        else:
            assert loaded.diagnostics == {}


LOADERS = {"layer": load_layer, "cache": load_cache, "plan": load_plan}


# the files each kind needs: a plan's diagnostics, and archives of other kinds
# for its diagnostics_archive to point at
FILES = {
    "layer": ["layer.json", "layer.bin"],
    "cache": ["cache.json", "cache.bin"],
    "plan": ["plan.json", "plan.diag.json", "plan.diag.bin", "layer.json", "layer.bin"],
}


@settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_artifact_fails_by_name_or_loads_as_written(originals, data):
    base, loaded = originals
    kind = data.draw(st.sampled_from(["layer", "cache", "plan"]))
    truncate = data.draw(st.booleans())
    with tempfile.TemporaryDirectory(dir=base) as work:
        for name in FILES[kind]:
            shutil.copy(base / name, work)
        doc = None
        if truncate:
            blob = os.path.join(work, "plan.diag.bin" if kind == "plan" else kind + ".bin")
            os.truncate(blob, data.draw(st.integers(0, os.path.getsize(blob) - 1)))
        else:
            path = os.path.join(work, kind + ".json")
            doc = _read_json(path)
            if kind == "plan":
                _edit_plan(data, doc, work)
            else:
                _edit_manifest(data, doc)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        prefix = os.path.join(work, kind)
        try:
            result = LOADERS[kind](prefix)
        except ArchiveError as exc:
            assert prefix in str(exc), str(exc)
        except FileNotFoundError as exc:
            # a plan that points at a diagnostics archive which is not there
            assert kind == "plan" and doc is not None, str(exc)
            assert work in str(exc) and not os.path.exists(str(exc).rsplit(": ", 1)[1])
        else:
            _check_loaded(kind, result, loaded[kind], doc)
