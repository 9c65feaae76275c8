"""Feature-matrix storage: binary file format, decimation map, id lookup.

A feature file (.vfm) holds one 2-D float32 matrix: magic `VFM1`, row
and column counts as unsigned 32-bit little-endian, then the row-major
IEEE-754 binary32 payload.  A manifest maps video ids to feature files.
"""

import os
import struct

import numpy as np

from .util import InputError, open_text

MAGIC = b"VFM1"
_HEADER_BYTES = 12


def decimation_indices(frame_count, target=80):
    """Linearly spaced frame indices mapping frame_count frames to target.

    idx_i = round(i * (frame_count - 1) / (target - 1)) with halves
    rounded away from zero, so the first and last frames always anchor
    the endpoints.  Videos shorter than target repeat frames.  With
    target = 1 only the first frame is selected.
    """
    if frame_count < 1:
        raise InputError(f"frame_count must be >= 1, got {frame_count}")
    if target < 1:
        raise InputError(f"target must be >= 1, got {target}")
    if target == 1:
        return np.zeros(1, dtype=np.int64)
    num = frame_count - 1
    den = target - 1
    i = np.arange(target, dtype=np.int64)
    # exact integer round-half-up of i*num/den (non-negative operands)
    return (2 * i * num + den) // (2 * den)


def write_feature_file(path, matrix):
    """Write a 2-D matrix of finite values as float32 in .vfm format."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise InputError(f"feature matrix must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("feature matrix contains non-finite entries")
    rows, cols = m.shape
    if rows >= 2 ** 32 or cols >= 2 ** 32:
        raise InputError(f"dimensions {rows}x{cols} overflow the 32-bit header")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(np.ascontiguousarray(m, dtype="<f4").tobytes())


def read_feature_file(path):
    """Read a .vfm file back into a float32 matrix, bit-exactly.

    The file size is checked against the header before the matrix is
    allocated, and the payload is read straight into it.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER_BYTES)
        if len(head) < _HEADER_BYTES:
            raise InputError(f"{path}: truncated header ({len(head)} bytes)")
        if head[:4] != MAGIC:
            raise InputError(f"{path}: bad magic {head[:4]!r}, expected {MAGIC!r}")
        rows, cols = struct.unpack_from("<II", head, 4)
        expected = _HEADER_BYTES + 4 * rows * cols
        if size != expected:
            raise InputError(f"{path}: payload is {size} bytes, expected {expected}")
        m = np.empty((rows, cols), dtype="<f4")
        if fh.readinto(m.reshape(-1).view(np.uint8)) != m.nbytes:
            raise InputError(f"{path}: payload is shorter than its header says")
    # min and max, unlike isfinite, build no matrix-sized temporary; an
    # empty matrix has neither, and nothing to check
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
        raise InputError(f"{path}: non-finite feature entries")
    return m


def load_manifest(path):
    """Parse `<video_id><TAB><relative-path>` lines into an id->path map.

    Paths resolve relative to the manifest's directory and must exist;
    duplicate ids are rejected.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = {}
    with open_text(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise InputError(f"{path}:{ln}: expected '<video_id>\\t<path>'")
            vid, rel = line.split("\t", 1)
            if vid in entries:
                raise InputError(f"{path}:{ln}: duplicate video id '{vid}'")
            full = os.path.join(base, rel)
            if not os.path.isfile(full):
                raise InputError(f"feature file for '{vid}' not found: {full}")
            entries[vid] = full
    return entries


class FeatureStore:
    """Serves feature matrices by video id, reading the file on every get.

    Nothing is kept between calls, so memory does not grow with the
    number of videos served and each caller owns the array it gets.
    """

    def __init__(self, manifest_path, expected_shape=None):
        self.entries = load_manifest(manifest_path)
        self.expected_shape = expected_shape

    def __contains__(self, video_id):
        return video_id in self.entries

    def ids(self):
        return list(self.entries)

    def get(self, video_id):
        if video_id not in self.entries:
            raise InputError(f"unknown video id '{video_id}'")
        m = read_feature_file(self.entries[video_id])
        if self.expected_shape is not None and m.shape != self.expected_shape:
            raise InputError(f"features for '{video_id}' have shape {m.shape}, "
                             f"expected {self.expected_shape}")
        return m
