"""Show the frame-feature side: temporal decimation of raw frame counts
down to a fixed 80 rows, the .vfm binary format, and the id-keyed store.

Usage: python3 demos/02_feature_files.py
"""

import os
import tempfile

import numpy as np

from vidcap.features import (FeatureStore, decimation_indices,
                             read_feature_file, write_feature_file)

print("== decimation: variable frame counts -> fixed 80 rows ==")
for fc in (123, 80, 40, 1):
    idx = decimation_indices(fc, target=80)
    print(f"  {fc:4d} frames: first={idx[0]} mid={idx[40]} last={idx[-1]} "
          f"unique={len(np.unique(idx))}")
print("  (123 frames anchors at 0 and 122; short videos repeat frames)")

# Small matrices stand in for per-frame CNN feature rows.
work = tempfile.mkdtemp(prefix="vidcap-demo-")
rng = np.random.default_rng(0)
raw = rng.standard_normal((123, 6)).astype(np.float32)
matrix = raw[decimation_indices(123, target=8)]

path = os.path.join(work, "clip.vfm")
write_feature_file(path, matrix)
back = read_feature_file(path)
print(f"\n== .vfm round trip ==")
print(f"  wrote {matrix.shape} float32, file is {os.path.getsize(path)} bytes "
      f"(12-byte header + payload)")
print(f"  bit-exact read-back: {np.array_equal(back, matrix)}")

with open(os.path.join(work, "manifest.tsv"), "w", encoding="utf-8") as fh:
    fh.write("clip\tclip.vfm\n")

store = FeatureStore(os.path.join(work, "manifest.tsv"))
first = store.get("clip")
second = store.get("clip")
print(f"\n== FeatureStore ==")
print(f"  ids: {list(store.entries)}")
print(f"  each get reads the file again: new array {first is not second}, "
      f"equal values {np.array_equal(first, second)}")
print(f"\nscratch dir: {work}")
