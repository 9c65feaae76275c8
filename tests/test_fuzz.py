"""Byte-level fuzzers for the binary artifacts (.sq2s checkpoints, .vfm
feature files) and the text ones (tokenizer, config, descriptions,
manifest, split keys): every mutation of a valid file either loads or
raises InputError, never any other exception."""

import functools
import struct
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from vidcap.cli import _coerce, build_parser, read_config_file
from vidcap.corpus import build_corpus, load_split_keys, parse_descriptions
from vidcap.features import load_manifest, read_feature_file, write_feature_file
from vidcap.model import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from vidcap.tokenizer import Tokenizer
from vidcap.util import InputError

TOY = ModelConfig(frames=2, feature_dim=3, latent=2, max_words=2, vocab=3)


@functools.cache
def valid_bytes(suffix):
    """The bytes of a valid toy .sq2s or .vfm file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, f"toy.{suffix}")
        if suffix == "sq2s":
            save_checkpoint(path, TOY, ModelParams.init(TOY, seed=1))
        else:
            write_feature_file(path, np.random.default_rng(1).standard_normal((3, 4)))
        return path.read_bytes()


def _record(name, dims):
    return (struct.pack("<H", len(name)) + name.encode()
            + struct.pack(f"<B{len(dims)}I", len(dims), *dims))


def _header(*dims):
    return b"SQ2S" + struct.pack("<6I", 1, *dims)


# the quick-start header (8/16/32/10/40), then one encoder.W record whose
# dims once escaped numpy as ValueError: rank 65 with 65 zero dims, and
# 0 x (2**32 - 1)**3 elements
RANK_65 = _header(8, 16, 32, 10, 40) + _record("encoder.W", [0] * 65)
HUGE_DIMS = _header(8, 16, 32, 10, 40) + _record("encoder.W", [0] + [2**32 - 1] * 3)


def mutants(valid, chunks=st.binary(min_size=1, max_size=8)):
    """Truncations, single-bit flips and overwrites with chunks in the
    first 120 bytes."""
    n = len(valid)

    def flip(bit):
        out = bytearray(valid)
        out[bit // 8] ^= 1 << bit % 8
        return bytes(out)

    return st.one_of(
        st.integers(0, n - 1).map(lambda k: valid[:k]),
        st.integers(0, 8 * n - 1).map(flip),
        st.tuples(st.integers(0, min(n, 120) - 1), chunks)
        .map(lambda a: valid[:a[0]] + a[1] + valid[a[0] + len(a[1]):]))


# checkpoint header dims: small, and near the 2**30, 2**31 and 2**32 limits
_near_limit = st.one_of(st.integers(0, 5), *(st.integers(2**k - 2, min(2**k + 1, 2**32 - 1))
                                            for k in (30, 31, 32)))

checkpoint_mutants = st.deferred(lambda: mutants(valid_bytes("sq2s")) | st.lists(
    _near_limit, min_size=5, max_size=5).map(
        lambda dims: _header(*dims) + valid_bytes("sq2s")[28:]))


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _loads_or_raises_input_error(path, blob, load):
    path.write_bytes(blob)
    try:
        load(path)
    except InputError:
        pass


@settings(deadline=None, max_examples=300)
@given(blob=checkpoint_mutants)
@example(blob=RANK_65)
@example(blob=HUGE_DIMS)
@example(blob=_header(1, 2**32 - 1, 2**31 - 1, 1, 1))
@example(blob=_header(1, 2**32 - 1, 2**30 - 1, 1, 1)
         + _record("encoder.W", [2**32 - 1, 2**32 - 4]))
def test_checkpoint_bytes_load_or_raise_input_error(mutant_dir, blob):
    _loads_or_raises_input_error(mutant_dir / "mutant.sq2s", blob, load_checkpoint)


@settings(deadline=None, max_examples=200)
@given(blob=st.deferred(lambda: mutants(valid_bytes("vfm"))),
       start=st.integers(0, 4), stop=st.integers(0, 4))
def test_feature_file_bytes_load_or_raise_input_error(mutant_dir, blob, start, stop):
    # a full read, then a read of frames start:stop, which the full read
    # rejects whenever it rejects them, and whose rows are the file's
    path = mutant_dir / "mutant.vfm"
    path.write_bytes(blob)
    try:
        full = read_feature_file(path)
    except InputError:
        full = None
    try:
        rows = read_feature_file(path, slice(start, stop))
    except InputError:
        assert full is None
        return
    if full is None:  # a non-finite value outside the rows read
        full = np.frombuffer(blob, "<f4", offset=12).reshape(struct.unpack_from("<II", blob, 4))
    assert rows.tobytes() == full[start:stop].tobytes()


# Text artifacts, each well under 120 bytes so every byte can be
# overwritten.  Chunks mix raw bytes with the characters the formats
# give meaning to.
TEXT_FILES = {
    "tokenizer.txt": "V=8\n1\tbos\n2\teos\n3\ta\n4\tdog\n5\truns\n",
    "train.cfg": "# train\nepochs = 3\nlr = 0.001\nbatch-size = 6\nout = run\n",
    "descriptions.txt": "vid0 A dog runs, fast!\nvid1\tthe cat sleeps\n# note\nvid1 a cat\n",
    "manifest.tsv": "vid0\ta.vfm\nvid1\tb.vfm\n",
    "train.keys": "vid0\nvid1\nvid2\n",
}
text_chunks = st.binary(min_size=1, max_size=8) | st.text(
    "\t\n\r =#-_.:/0189aeVvé\x00", min_size=1, max_size=8).map(str.encode)
TRAIN_TYPES = {dest: kind for _, dest, kind, *_ in build_parser().parse_args(["train"])._options}


def load_config(path):
    values = read_config_file(path)
    return {k: _coerce(v, TRAIN_TYPES[k], k) for k, v in values.items() if k in TRAIN_TYPES}


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    """A directory holding the two feature files the manifest names."""
    d = tmp_path_factory.mktemp("fuzz_text")
    for name in ("a.vfm", "b.vfm"):
        (d / name).write_bytes(valid_bytes("vfm"))
    return d


@pytest.mark.parametrize("name, load", [
    ("tokenizer.txt", Tokenizer.load),
    ("train.cfg", load_config),
    ("descriptions.txt", lambda path: build_corpus(parse_descriptions(path))),
    ("manifest.tsv", load_manifest),
    ("train.keys", lambda path: load_split_keys(path.parent, "train")),
])
def test_text_file_bytes_load_or_raise_input_error(text_dir, name, load):
    valid = TEXT_FILES[name].encode()
    (text_dir / name).write_bytes(valid)
    load(text_dir / name)  # the unmutated file loads

    @settings(deadline=None, max_examples=150)
    @given(blob=mutants(valid, text_chunks))
    def fuzz(blob):
        _loads_or_raises_input_error(text_dir / name, blob, load)

    fuzz()
