import errno
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from moe_prune import tensor_store
from moe_prune.tensor_store import (
    ArchiveError,
    ArrayEntry,
    Manifest,
    read_archive,
    write_archive,
)


def test_single_array_layout(tmp_path):
    path = tmp_path / "a"
    manifest = write_archive(path, {"x": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)})
    (entry,) = manifest.arrays
    assert entry.name == "x"
    assert entry.shape == (2, 2)
    assert entry.dtype == "f32"
    assert entry.offset == 0
    assert entry.length == 16  # 4 x f32
    assert (tmp_path / "a.bin").stat().st_size == 16


def test_empty_archive(tmp_path):
    path = tmp_path / "empty"
    manifest = write_archive(path, {})
    assert manifest.arrays == []
    assert (tmp_path / "empty.bin").stat().st_size == 0
    loaded, arrays = read_archive(path)
    assert arrays == {}
    assert loaded.format_version == 1


def test_round_trip_bit_exact(tmp_path, rng):
    arrays = {
        "f": rng.standard_normal((5, 3, 2)).astype(np.float32),
        "neg": np.array([-0.0, 0.0, -1.5], dtype=np.float32),
        "ints": rng.integers(-(2**31), 2**31 - 1, size=17, dtype=np.int64).astype(np.int32),
    }
    write_archive(tmp_path / "rt", arrays)
    _, loaded = read_archive(tmp_path / "rt")
    for name, original in arrays.items():
        assert loaded[name].dtype == original.dtype
        assert loaded[name].tobytes() == original.tobytes()
    # negative zero survives with its sign bit
    assert np.signbit(loaded["neg"][0])


@st.composite
def storable_arrays(draw):
    """An array of a storable kind and width, in either byte order, of any
    shape; a float array may hold NaN and infinities."""
    code = draw(st.sampled_from(["f4", "f8", "i4", "i8"]))
    dtype = np.dtype(draw(st.sampled_from(["<", ">"])) + code)
    elements = None
    if dtype.kind == "f":
        elements = st.floats(width=8 * dtype.itemsize)
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    return draw(arrays(dtype, shape, elements=elements))


@settings(deadline=None, max_examples=100)
@given(st.lists(storable_arrays(), max_size=4))
@example([np.array(2.5, dtype=np.float32), np.zeros((3, 0), dtype=np.int64)])
@example([np.array([-0.0, 1e300], dtype=">f8"), np.array(-(2**62), dtype=">i8")])
@example([np.array([np.nan, -np.inf], dtype=">f4"), np.array([np.inf, -np.nan], dtype="<f8")])
def test_round_trip_every_dtype_and_shape(originals):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a"
        manifest = write_archive(path, {f"a{i}": a for i, a in enumerate(originals)})
        _, loaded = read_archive(path)
    for entry, original in zip(manifest.arrays, originals):
        got = loaded[entry.name]
        assert entry.shape == got.shape == original.shape
        assert got.dtype == original.dtype.newbyteorder("<")
        assert got.tobytes() == original.astype(got.dtype).tobytes()


def test_round_trip_random_batches(tmp_path, rng):
    for trial in range(10):
        arrays = {
            f"arr{i}": rng.standard_normal(rng.integers(1, 40)).astype(np.float32)
            for i in range(rng.integers(1, 5))
        }
        write_archive(tmp_path / f"t{trial}", arrays)
        _, loaded = read_archive(tmp_path / f"t{trial}")
        for name, original in arrays.items():
            assert np.array_equal(loaded[name], original)


def test_deterministic_bytes(tmp_path, rng):
    arrays = {"a": rng.standard_normal(9).astype(np.float32), "b": np.arange(4)}
    meta = {"seed": "7", "note": "fixture"}
    write_archive(tmp_path / "one", arrays, meta)
    write_archive(tmp_path / "two", arrays, meta)
    assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_name_collision(tmp_path):
    pairs = [("x", np.zeros(2)), ("x", np.ones(2))]
    with pytest.raises(ArchiveError, match="collision"):
        write_archive(tmp_path / "c", pairs)


def test_non_finite_round_trips_bit_for_bit(tmp_path):
    special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 1.0]
    arrays = {
        "f32": np.array(special, dtype=np.float32),
        "f64": np.array(special, dtype=np.float64),
        # a NaN with a payload other than the default one
        "payload": np.array([0x7FC00001, 0xFFC0ABCD], dtype=np.uint32).view(np.float32),
    }
    write_archive(tmp_path / "special", arrays)
    _, loaded = read_archive(tmp_path / "special")
    for name, original in arrays.items():
        assert loaded[name].dtype == original.dtype
        assert loaded[name].tobytes() == original.tobytes(), name
    # f64 values beyond the f32 range are stored as they are
    write_archive(tmp_path / "big", {"x": np.array([1e40])})
    assert read_archive(tmp_path / "big")[1]["x"].tolist() == [1e40]


def test_unsupported_dtype(tmp_path):
    with pytest.raises(ArchiveError, match="unsupported dtype"):
        write_archive(tmp_path / "s", {"x": np.array(["a", "b"])})


def test_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_archive(tmp_path / "nowhere")
    write_archive(tmp_path / "half", {"x": np.zeros(3)})
    (tmp_path / "half.bin").unlink()
    with pytest.raises(FileNotFoundError):
        read_archive(tmp_path / "half")


def test_truncated_blob_names_array(tmp_path):
    write_archive(tmp_path / "t", {"first": np.zeros(2), "second": np.arange(6.0)})
    blob = (tmp_path / "t.bin").read_bytes()
    (tmp_path / "t.bin").write_bytes(blob[:-8])
    with pytest.raises(ArchiveError, match="second"):
        read_archive(tmp_path / "t")


def test_length_mismatch_names_array(tmp_path):
    write_archive(tmp_path / "m", {"good": np.zeros(4, dtype=np.float32)})
    text = (tmp_path / "m.json").read_text().replace('"length": 16', '"length": 12')
    (tmp_path / "m.json").write_text(text)
    with pytest.raises(ArchiveError, match="good"):
        read_archive(tmp_path / "m")


def test_unknown_format_version(tmp_path):
    write_archive(tmp_path / "v", {"x": np.zeros(1)})
    text = (tmp_path / "v.json").read_text().replace('"format_version": 1', '"format_version": 9')
    (tmp_path / "v.json").write_text(text)
    with pytest.raises(ArchiveError, match="format_version"):
        read_archive(tmp_path / "v")


def test_overlap_detected():
    manifest = Manifest(
        arrays=[
            ArrayEntry("a", (4,), "f32", 0, 16),
            ArrayEntry("b", (4,), "f32", 8, 16),
        ]
    )
    with pytest.raises(ArchiveError, match="overlaps"):
        manifest.validate(blob_size=24)


def test_region_past_blob_end():
    manifest = Manifest(arrays=[ArrayEntry("a", (4,), "f32", 0, 16)])
    with pytest.raises(ArchiveError, match="a"):
        manifest.validate(blob_size=8)


def test_metadata_round_trip(tmp_path):
    meta = {"seed": "42", "config_hash": "deadbeef"}
    write_archive(tmp_path / "meta", {"x": np.zeros(1)}, meta)
    manifest, _ = read_archive(tmp_path / "meta")
    assert manifest.metadata == meta


class _FullDisk:
    """A binary file whose every write fails as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("exists", [False, True])
def test_failed_blob_write_leaves_no_pair_and_no_temp_file(tmp_path, monkeypatch, exists):
    old = {"x": np.arange(3.0)}
    if exists:
        write_archive(tmp_path / "a", old)
    before = sorted(p.name for p in tmp_path.iterdir())

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "b" in mode else fh

    monkeypatch.setattr(tensor_store, "open", full_disk_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write_archive(tmp_path / "a", {"x": np.zeros(5)})
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if exists:
        _, arrays = read_archive(tmp_path / "a")
        assert np.array_equal(arrays["x"], old["x"])
