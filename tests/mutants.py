"""Mutation check: does the test suite catch a wrong kernel?

    python tests/mutants.py [--only PATTERN]

Each MUTANTS entry is (file under src/vidcap, exact snippet,
replacement, test files under tests/).  For each one the harness copies
src/ to a temporary directory, replaces the snippet there (the working
tree is never written) and runs `pytest -x -q` on the entry's test
files against that copy.  The mutant is killed when a test fails.  An
entry whose snippet does not occur exactly once, or whose test file is
missing, is stale: refactors must keep the list honest.  The named test
files are first run once on an unmutated copy, which must pass.  Exits
non-zero on any survivor, stale entry or run that is neither a pass nor
a test failure.  With --only PATTERN it runs only the entries whose
file name or snippet contains PATTERN, and their test files alone as
the unmutated run; no match is an error.  pytest does not collect this
file (it is not test_*.py).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src")

MUTANTS = (
    # BLEU-2's clipped count takes each gram's larger count, not its smaller
    ("evaluation.py", "(cand & best).total()", "(cand | best).total()",
     ("test_evaluation.py",)),
    # the best-reference count sums the references instead of taking the max
    ("evaluation.py", "best |= _ngrams(ref, n)", "best += _ngrams(ref, n)",
     ("test_evaluation.py",)),
    # the vocabulary ranked alphabetically, not by count
    ("tokenizer.py", "counts.most_common(self.cap)", "sorted(counts.items())[:self.cap]",
     ("test_tokenizer.py",)),
    # each encoder slice starts from zeros instead of the previous slice's (h, c)
    ("model.py", "nn.lstm_forward(params.encoder, xw, h, c)",
     "nn.lstm_forward(params.encoder, xw)", ("test_model.py",)),
    # recurrent_panels' row panels overlap by one row
    ("nn.py", "slice(s, min(s + height, hidden))", "slice(s, min(s + height + 1, hidden))",
     ("test_nn.py",)),
    # lstm_forward without the bias
    ("nn.py", "    XW += p.b\n", "    XW += 0 * p.b\n", ("test_nn.py",)),
    # lstm_backward's forget-gate derivative f (1 - f) written as f
    ("nn.py", "    dZ *= np.subtract(1.0, G)\n",
     "    dZ *= np.subtract(1.0, G)\n    dz_f /= np.subtract(1.0, f)\n", ("test_nn.py",)),
    # Adam's bias corrections swapped
    ("nn.py", "b1c = 1.0 - b1 ** state.t\n    b2c = 1.0 - b2 ** state.t",
     "b2c = 1.0 - b1 ** state.t\n    b1c = 1.0 - b2 ** state.t", ("test_nn.py",)),
    # Adam's eps inside the square root
    ("nn.py", "np.sqrt(a, out=a)\n        np.add(a, eps, out=a)",
     "np.add(a, eps, out=a)\n        np.sqrt(a, out=a)", ("test_nn.py",)),
    # adam_step's naming walk starts at the second tensor
    ("nn.py", "start = 0\n        for name, size in state.layout:",
     "start = state.layout[0][1]\n        for name, size in state.layout[1:]:",
     ("test_nn.py",)),
    # cross_entropy's gradient divided by B only, not by B n
    ("nn.py", "d_logits /= (B * n).astype(P.dtype)[:, None]",
     "d_logits /= (B + 0 * n).astype(P.dtype)[:, None]", ("test_nn.py",)),
    # cross_entropy scores padding rows
    ("nn.py", "scored = seq > 0", "scored = seq >= 0", ("test_nn.py",)),
    # read_batch's row map points each sample at the next video's row
    ("training.py", "return feats, np.searchsorted(distinct, video)",
     "return feats, (np.searchsorted(distinct, video) + 1) % len(distinct)",
     ("test_training.py",)),
    # read_batch writes every video after the first into column 0
    ("training.py", "feats[:, i] = _checked(", "feats[:, 0] = _checked(",
     ("test_training.py",)),
    # make_batches seeded by the epoch alone
    ("training.py", "np.random.default_rng([seed, epoch])", "np.random.default_rng([epoch])",
     ("test_training.py",)),
    # the decoder.W scatter skips step 0
    ("model.py", "zip((steps[words] - 1).tolist(), dXW_d[words])",
     "zip((steps[1:][words[1:]] - 1).tolist(), dXW_d[1:][words[1:]])",
     ("test_model.py",)),
    # _decode's padding steps read decoder.W's last row instead of zeros
    ("model.py", "XW[steps == 0] = 0", "pass", ("test_model.py",)),
    # load_checkpoint skips the last tensor's finiteness check
    ("model.py", "if not all_finite(arr):",
     "if name != TENSOR_ORDER[-1] and not all_finite(arr):", ("test_model.py",)),
    # greedy_decode drops the last partial chunk
    ("model.py", "while chunk := list(itertools.islice(videos, DECODE_CHUNK)):",
     "while len(chunk := list(itertools.islice(videos, DECODE_CHUNK))) == DECODE_CHUNK:",
     ("test_model.py",)),
    # _encode_chunk drops the ragged last slice of frames
    ("model.py", "for t in range(0, frames, S):", "for t in range(0, frames - S + 1, S):",
     ("test_model.py",)),
    # every video of a slice written to the first video's column
    ("model.py", "x[:, j] = video[t:t + s]", "x[:, 0] = video[t:t + s]", ("test_model.py",)),
    # read_feature_file seeks to the row before a range's first
    ("features.py", "fh.seek(4 * start * shape[1], os.SEEK_CUR)",
     "fh.seek(4 * max(start - 1, 0) * shape[1], os.SEEK_CUR)", ("test_features.py",)),
    # a lazy video's slice read one frame late
    ("features.py", "return self.store.get(self.video_id, rows)",
     "return self.store.get(self.video_id, slice(rows.start + 1, rows.stop + 1))",
     ("test_model.py",)),
    # lstm_forward's g gate shifted like the sigmoid gates
    ("nn.py", "shift = 1.0 - scale", "shift = scale", ("test_nn.py",)),
    # the blocked triangular inverse's off-diagonal block without its minus sign
    ("nn.py", "out[h:, :h] = -C @ L[h:, :h] @ A", "out[h:, :h] = C @ L[h:, :h] @ A",
     ("test_nn.py",)),
    # orthogonal's triangle-aware product stops one column block short
    ("nn.py", "np.matmul(inv[r0:r1, :r1], a[:, :r1].T, out=qt[r0:r1])",
     "np.matmul(inv[r0:r1, :r0], a[:, :r0].T, out=qt[r0:r1])", ("test_nn.py",)),
    # glorot_uniform's shift added with the wrong sign
    ("nn.py", "        u -= limit\n", "        u += limit\n", ("test_nn.py",)),
    # the owner matrix transposed, which still broadcasts at B = Bv
    ("model.py", "owner = np.eye(feats.shape[1], dtype=dh0.dtype)[:, video]",
     "owner = np.eye(feats.shape[1], dtype=dh0.dtype)[:, video].T", ("test_training.py",)),
    # encoder.W's gradient pairs time-major frames with video-major gate gradients
    ("model.py", "dXW_e.reshape(-1, dXW_e.shape[-1])",
     "dXW_e.swapaxes(0, 1).reshape(-1, dXW_e.shape[-1])", ("test_training.py",)),
    # read_resident keeps a video without checking its shape
    ("training.py", "{keys[v]: _checked(keys[v], store.get(keys[v]), shape)",
     "{keys[v]: store.get(keys[v])", ("test_training.py",)),
    # all_finite trusts the dot screen: finite values whose squares overflow fail
    ("util.py", "and np.isfinite(np.vdot(arr, arr)):\n            return True",
     ":\n            return bool(np.isfinite(np.vdot(arr, arr)))",
     ("test_finite.py", "test_nn.py")),
    # read_lines keeps comment lines
    ("util.py", "and not text.startswith(\"#\")]", "]", ("test_reads.py",)),
    # read_lines keeps blank lines
    ("util.py", "if (text := line.strip()) and", "if ((text := line.strip()) or True) and",
     ("test_reads.py",)),
    # read_header skips the magic check
    ("util.py", "if not head.startswith(magic):", "if False:", ("test_reads.py",)),
    # write_lines drops the line terminator
    ("util.py", 'fh.writelines(line + "\\n" for line in lines)', "fh.writelines(lines)",
     ("test_evaluation.py", "test_tokenizer.py")),
    # write_lines writes its final path directly, not through write_atomic
    ("util.py", "with write_atomic(path) as fh:",
     'with open(path, "w", encoding="utf-8") as fh:', ("test_writes.py",)),
)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _stale(entry):
    """Why entry cannot run (its snippet is not there exactly once, or a
    test file is missing), or None."""
    name, snippet, _, tests = entry
    count = _read(os.path.join(SRC, "vidcap", name)).count(snippet)
    if count != 1:
        return f"snippet occurs {count} times"
    missing = [t for t in tests if not os.path.isfile(os.path.join(TESTS, t))]
    return f"missing {', '.join(missing)}" if missing else None


def _pytest(tests, entry=None):
    """pytest's exit code on tests, against a copy of src with entry's
    replacement applied (none by default)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if entry is not None:
            name, snippet, replacement, _ = entry
            path = os.path.join(src, "vidcap", name)
            text = _read(path).replace(snippet, replacement)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        # the copy replaces the ini's src on pytest's path and on that of
        # any subprocess a test starts; cwd keeps hypothesis's example
        # database out of the working tree
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}",
               *(os.path.join(TESTS, t) for t in tests)]
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main():
    parser = argparse.ArgumentParser(description="Mutation check of the test suite.")
    parser.add_argument("--only", metavar="PATTERN",
                        help="run the mutants whose file name or snippet contains PATTERN")
    only = parser.parse_args().only
    mutants = [entry for entry in MUTANTS
               if only is None or only in entry[0] or only in entry[1]]
    if not mutants:
        print(f"no mutant matches {only!r}")
        return 1
    start = time.perf_counter()
    stale = [(entry, why) for entry in mutants if (why := _stale(entry))]
    for (name, snippet, _, _), why in stale:
        print(f"STALE    {name}: {snippet!r}: {why}")
    runnable = [entry for entry in mutants if not _stale(entry)]
    tests = sorted({t for entry in runnable for t in entry[3]})
    if _pytest(tests) != 0:
        print(f"the unmutated tests fail: {' '.join(tests)}")
        return 1
    failed = len(stale)
    for entry in runnable:
        name, snippet, replacement, files = entry
        code = _pytest(files, entry)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
        failed += code != 1
        print(f"{verdict:8} {name}: {snippet.strip()!r} -> {replacement.strip()!r}")
    killed = len(runnable) - (failed - len(stale))
    print(f"{killed}/{len(mutants)} mutants killed, {len(stale)} stale, "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
