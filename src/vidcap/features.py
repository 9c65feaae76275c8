"""Feature-matrix storage: binary file format, decimation map, id lookup.

A feature file (.vfm) holds one 2-D float32 matrix: magic `VFM1`, row
and column counts as unsigned 32-bit little-endian, then the row-major
IEEE-754 binary32 payload.  A manifest maps video ids to feature files.
"""

from dataclasses import dataclass
import os
import struct

import numpy as np

from .util import InputError, all_finite, read_header, read_lines, write_atomic

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
    num = frame_count - 1
    den = max(target - 1, 1)  # target 1 gives [0]
    i = np.arange(target, dtype=np.int64)
    # exact integer round-half-up of i*num/den (non-negative operands)
    return (2 * i * num + den) // (2 * den)


def write_feature_file(path, matrix):
    """Write a 2-D matrix as float32 in .vfm format.

    Every value must be finite once cast to float32 (1e39 is not); a
    rejected matrix opens no file.  The payload is the cast array's own
    buffer, with no bytes copy.  The file is written whole or not at all
    (util.write_atomic).
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise InputError(f"feature matrix must be 2-D, got shape {m.shape}")
    rows, cols = m.shape
    if rows >= 2 ** 32 or cols >= 2 ** 32:
        raise InputError(f"dimensions {rows}x{cols} overflow the 32-bit header")
    with np.errstate(over="ignore"):  # an overflow is caught as inf below
        data = np.ascontiguousarray(m, dtype="<f4")
    if not all_finite(data):
        raise InputError("feature matrix contains entries that are not finite "
                         "as float32")
    with write_atomic(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(data)


def read_feature_file(path, rows=slice(None), expected_shape=None, name=None):
    """Read rows of a .vfm file (by default all) into a new float32
    matrix, bit-exactly.

    The magic and the file size are checked against the header, and the
    header's (rows, cols) against expected_shape when given (the error
    calls the matrix name, by default path), before anything is
    allocated.  rows is a step-1 slice of the file's rows, as numpy
    clips it; the matrix is returned once every value read is known to
    be finite.
    """
    with open(path, "rb") as fh:
        head, size = read_header(fh, path, _HEADER_BYTES, MAGIC)
        shape = struct.unpack_from("<II", head, 4)
        expected = _HEADER_BYTES + 4 * shape[0] * shape[1]
        if size != expected:
            raise InputError(f"{path}: payload is {size} bytes, expected {expected}")
        if expected_shape is not None and shape != expected_shape:
            raise InputError(f"features for '{path if name is None else name}' have "
                             f"shape {shape}, expected {expected_shape}")
        start, stop, step = rows.indices(shape[0])
        if step != 1:
            raise ValueError(f"rows {rows} must be a step-1 slice")
        matrix = np.empty((max(stop - start, 0), shape[1]), dtype="<f4")
        fh.seek(4 * start * shape[1], os.SEEK_CUR)
        if fh.readinto(matrix.reshape(-1).view(np.uint8)) != matrix.nbytes:
            raise InputError(f"{path}: payload is shorter than its header says")
    if not all_finite(matrix):
        raise InputError(f"{path}: non-finite feature entries")
    return matrix


def load_manifest(path):
    """Parse `<video_id><TAB><relative-path>` lines (util.read_lines)
    into an id->path map.

    Paths resolve relative to the manifest's directory and must exist;
    duplicate ids are rejected.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = {}
    for ln, line in read_lines(path):
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

    def get(self, video_id, rows=slice(None)):
        """A video's matrix, or its frames rows, as read_feature_file
        reads them; the header's shape must be the store's expected
        shape, when it has one."""
        if video_id not in self.entries:
            raise InputError(f"unknown video id '{video_id}'")
        return read_feature_file(self.entries[video_id], rows,
                                 self.expected_shape, video_id)


@dataclass(frozen=True)
class VideoFrames:
    """One video of a store as a lazy source, sliced like its array:
    shape is the store's expected shape, and video[rows] reads those
    frames through FeatureStore.get into a new array.  Nothing is read
    until it is sliced; a store without an expected shape raises
    ValueError, since nothing would give the video's shape."""

    store: FeatureStore
    video_id: str
    dtype = np.dtype("<f4")

    def __post_init__(self):
        if self.store.expected_shape is None:
            raise ValueError(f"video '{self.video_id}': its store has no expected shape")

    @property
    def shape(self):
        return self.store.expected_shape

    def __getitem__(self, rows):
        return self.store.get(self.video_id, rows)
