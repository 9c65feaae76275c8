"""Feature handling tests: decimation map, .vfm files, manifest, store."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidcap.features import (MAGIC, FeatureStore, decimation_indices,
                             load_manifest, read_feature_file,
                             write_feature_file)
from vidcap.util import InputError


# ---------------------------------------------------------------------------
# Decimation
# ---------------------------------------------------------------------------

def test_decimation_anchors_and_midpoint():
    idx = decimation_indices(123, 80)
    assert idx[0] == 0
    assert idx[79] == 122
    assert idx[40] == 62


def test_decimation_identity_when_counts_match():
    assert np.array_equal(decimation_indices(80, 80), np.arange(80))


def test_decimation_repeats_short_videos():
    assert np.array_equal(decimation_indices(1, 80), np.zeros(80, dtype=np.int64))
    idx = decimation_indices(3, 5)
    assert np.array_equal(idx, [0, 1, 1, 2, 2])  # 0.5 and 1.5 round half-up


def test_decimation_single_target_takes_first_frame():
    assert np.array_equal(decimation_indices(123, 1), [0])


def test_decimation_rejects_empty_inputs():
    with pytest.raises(InputError):
        decimation_indices(0, 80)
    with pytest.raises(InputError):
        decimation_indices(10, 0)


@settings(deadline=None, max_examples=200)
@given(fc=st.integers(min_value=1, max_value=10000),
       target=st.integers(min_value=1, max_value=200))
def test_decimation_monotone_and_in_range(fc, target):
    idx = decimation_indices(fc, target)
    assert idx.shape == (target,)
    assert np.all(np.diff(idx) >= 0)
    assert idx[0] == 0
    if target > 1:
        assert idx[-1] == fc - 1
    assert np.all((0 <= idx) & (idx < fc))


# ---------------------------------------------------------------------------
# .vfm file format
# ---------------------------------------------------------------------------

def test_written_bytes_are_exactly_header_plus_payload(tmp_path):
    path = tmp_path / "z.vfm"
    write_feature_file(str(path), np.zeros((3, 2), dtype=np.float32))
    blob = path.read_bytes()
    assert blob == MAGIC + struct.pack("<II", 3, 2) + b"\x00" * 24
    assert len(blob) == 36


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 5)).astype(np.float32)
    m[0, 0] = np.float32(1e-45)   # subnormal
    m[0, 1] = np.float32(-0.0)
    m[1, 0] = np.finfo(np.float32).max
    path = str(tmp_path / "m.vfm")
    write_feature_file(path, m)
    back = read_feature_file(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, m)
    assert np.signbit(back[0, 1])
    assert back.tobytes() == m.tobytes()


def test_write_accepts_float64_input_by_casting(tmp_path):
    path = str(tmp_path / "m.vfm")
    write_feature_file(path, np.array([[0.1, 0.2]]))
    back = read_feature_file(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, np.array([[0.1, 0.2]], dtype=np.float32))


def test_write_rejects_bad_shapes_and_values(tmp_path):
    path = str(tmp_path / "m.vfm")
    with pytest.raises(InputError):
        write_feature_file(path, np.zeros(4, dtype=np.float32))
    with pytest.raises(InputError):
        write_feature_file(path, np.zeros((2, 2, 2), dtype=np.float32))
    bad = np.zeros((2, 2), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(InputError):
        write_feature_file(path, bad)
    bad[0, 0] = np.inf
    with pytest.raises(InputError):
        write_feature_file(path, bad)


def write_blob(tmp_path, blob):
    path = tmp_path / "bad.vfm"
    path.write_bytes(blob)
    return str(path)


def test_read_rejects_bad_magic(tmp_path):
    blob = b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4
    with pytest.raises(InputError, match="magic"):
        read_feature_file(write_blob(tmp_path, blob))


def test_read_rejects_truncated_files(tmp_path):
    with pytest.raises(InputError, match="truncated"):
        read_feature_file(write_blob(tmp_path, MAGIC + b"\x00\x00"))
    short = MAGIC + struct.pack("<II", 2, 2) + b"\x00" * 8  # needs 16
    with pytest.raises(InputError, match="expected"):
        read_feature_file(write_blob(tmp_path, short))
    long = MAGIC + struct.pack("<II", 1, 1) + b"\x00" * 8
    with pytest.raises(InputError, match="expected"):
        read_feature_file(write_blob(tmp_path, long))
    # the size is checked before the 64 EiB matrix would be allocated
    huge = MAGIC + struct.pack("<II", 2 ** 32 - 1, 2 ** 32 - 1)
    with pytest.raises(InputError, match="expected"):
        read_feature_file(write_blob(tmp_path, huge))


def test_read_rejects_non_finite_payload(tmp_path):
    payload = struct.pack("<f", float("nan"))
    blob = MAGIC + struct.pack("<II", 1, 1) + payload
    with pytest.raises(InputError, match="non-finite"):
        read_feature_file(write_blob(tmp_path, blob))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 17, 34])
def test_read_rejects_each_non_finite_value_anywhere(tmp_path, bad, at):
    m = np.ones(35, dtype="<f4")
    m[at] = bad
    blob = MAGIC + struct.pack("<II", 5, 7) + m.tobytes()
    with pytest.raises(InputError, match="non-finite"):
        read_feature_file(write_blob(tmp_path, blob))


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
def test_empty_matrix_round_trips(tmp_path, shape):
    # an empty matrix has no min or max to check
    path = str(tmp_path / "e.vfm")
    write_feature_file(path, np.zeros(shape, dtype=np.float32))
    back = read_feature_file(path)
    assert back.shape == shape and back.dtype == np.float32


def test_read_returns_every_finite_bit_pattern_unchanged(tmp_path):
    # random bit patterns with NaN/inf exponents cleared: signed zeros,
    # subnormals and the extremes come back bit for bit
    bits = np.random.default_rng(3).integers(0, 2 ** 32, size=(64, 33), dtype=np.uint32)
    bits[(bits & 0x7F800000) == 0x7F800000] &= 0x807FFFFF
    bits[0, :4] = [0x80000000, 0x00000001, 0x7F7FFFFF, 0xFF7FFFFF]
    blob = MAGIC + struct.pack("<II", *bits.shape) + bits.astype("<u4").tobytes()
    back = read_feature_file(write_blob(tmp_path, blob))
    assert back.dtype == np.float32 and back.shape == bits.shape
    assert back.tobytes() == blob[12:]


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def make_corpus_dir(tmp_path, ids=("a", "b")):
    feat_dir = tmp_path / "feat"
    feat_dir.mkdir(exist_ok=True)
    lines = []
    for i, vid in enumerate(ids):
        m = np.full((2, 3), float(i), dtype=np.float32)
        write_feature_file(str(feat_dir / f"{vid}.vfm"), m)
        lines.append(f"{vid}\tfeat/{vid}.vfm\n")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(lines), encoding="utf-8")
    return str(manifest)


def test_manifest_resolves_relative_to_its_directory(tmp_path):
    manifest = make_corpus_dir(tmp_path)
    entries = load_manifest(manifest)
    assert sorted(entries) == ["a", "b"]
    assert np.array_equal(read_feature_file(entries["a"]),
                          np.zeros((2, 3), dtype=np.float32))


def test_manifest_skips_comments_and_blanks(tmp_path):
    manifest = make_corpus_dir(tmp_path)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("\n# a comment\n")
    assert sorted(load_manifest(manifest)) == ["a", "b"]


def test_manifest_rejects_duplicates_missing_files_and_bad_rows(tmp_path):
    manifest = make_corpus_dir(tmp_path)
    with open(manifest, encoding="utf-8") as fh:
        base = fh.read()
    for extra in ("a\tfeat/a.vfm\n", "c\tfeat/nope.vfm\n", "no-tab-here\n"):
        bad = tmp_path / "bad.tsv"
        bad.write_text(base + extra, encoding="utf-8")
        with pytest.raises(InputError):
            load_manifest(str(bad))


# ---------------------------------------------------------------------------
# FeatureStore
# ---------------------------------------------------------------------------

def test_store_without_cache_rereads(tmp_path):
    store = FeatureStore(make_corpus_dir(tmp_path))
    first = store.get("a")
    second = store.get("a")
    assert first is not second
    assert np.array_equal(first, second)


def test_store_membership_and_ids(tmp_path):
    store = FeatureStore(make_corpus_dir(tmp_path))
    assert "a" in store and "zz" not in store
    assert sorted(store.ids()) == ["a", "b"]


def test_store_rejects_unknown_ids_and_bad_shapes(tmp_path):
    manifest = make_corpus_dir(tmp_path)
    with pytest.raises(InputError):
        FeatureStore(manifest).get("zz")
    strict = FeatureStore(manifest, expected_shape=(4, 4))
    with pytest.raises(InputError, match="shape"):
        strict.get("a")
