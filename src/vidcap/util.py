"""Small helpers shared across modules."""

import contextlib
import io
import os

import numpy as np


class InputError(ValueError):
    """Bad user input or artifact contents; maps to CLI exit code 2."""


def open_text(path):
    """A UTF-8 text file as a stream with open()'s newline handling,
    without a leading byte-order mark; bytes that are not valid UTF-8
    raise InputError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # utf-8-sig's text, with an error's offset counted in the file
        return io.StringIO(data.decode("utf-8").removeprefix("\ufeff"), newline=None)
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not valid UTF-8 (byte {e.start})") from None


def read_lines(path):
    """The (line number, text) pairs of a line file read through
    open_text, each line stripped; blank lines and lines that start
    with `#` are left out.  The file is read whole before this returns,
    so an OSError reaches the caller here."""
    with open_text(path) as fh:
        return [(ln, text) for ln, line in enumerate(fh, 1)
                if (text := line.strip()) and not text.startswith("#")]


def read_header(fh, path, length, magic):
    """(first length bytes, file size) of the open binary file fh;
    InputError naming path if the file is shorter than length or does
    not start with magic."""
    head = fh.read(length)
    if len(head) < length:
        raise InputError(f"{path}: truncated header ({len(head)} bytes)")
    if not head.startswith(magic):
        raise InputError(f"{path}: bad magic {head[:len(magic)]!r}, expected {magic!r}")
    return head, os.fstat(fh.fileno()).st_size


@contextlib.contextmanager
def write_atomic(path, mode="w"):
    """Write path whole or not at all: yields the open file ("w" is UTF-8
    text, "wb" bytes) of <path>.tmp in the same directory, which replaces
    path only once the file is closed.  On any error the temporary file
    is removed and path keeps its previous bytes (or stays absent).  A
    killed process can leave <path>.tmp behind; the next write to path
    overwrites it.  There is no fsync, so a power loss can still lose
    the write.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_lines(path, lines):
    """Write each string of lines followed by one "\\n", as UTF-8, whole
    or not at all (write_atomic): the write twin of read_lines.  A line
    break inside a string is written as it is."""
    with write_atomic(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def all_finite(arr):
    """Whether every value of arr is finite (an empty array is); the one
    finiteness test on arrays in vidcap.  A C-contiguous arr is read
    once, as the sum of its squares (vdot, one BLAS call): a NaN or an
    inf makes that sum non-finite, so a finite sum settles it (8.4 M
    float32 values, one Xeon CPU: 1.4 ms, against 2.6 ms for a min and
    a max).  A non-finite sum, which finite values whose squares
    overflow also give, and any other layout fall back to a min and a
    max.  Neither path builds an array-sized temporary."""
    with np.errstate(all="ignore"):  # an overflowing sum falls back to min and max
        if arr.flags.c_contiguous and np.isfinite(np.vdot(arr, arr)):
            return True
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def fisher_yates(items, rng):
    """In-place Fisher-Yates shuffle driven by a numpy Generator."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def fmt6(x):
    """Format a float with 6 significant digits for CSV and log output."""
    return format(float(x), ".6g")
