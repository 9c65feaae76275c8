"""Deterministic synthetic corpus generator for tests and demos.

Produces everything the pipeline needs end to end: small .vfm feature
files, a manifest, and a descriptions file whose captions all survive
the length filter.
"""

import os

import numpy as np

from .features import decimation_indices, write_feature_file
from .util import InputError, write_lines

WORDS = ("a", "man", "woman", "dog", "cat", "ball", "guitar", "slices",
         "plays", "rides", "throws", "holds", "red", "small", "quickly",
         "slowly", "outside", "kitchen")


def make_fixture(out_dir, n_videos=6, seed=1, captions_per_video=3,
                 frames=8, feature_dim=16):
    """Write a synthetic corpus, fully deterministic per seed; returns the
    paths of its "manifest" and "descriptions" files.

    Captions draw 4..8 words from an 18-word pool, so every wrapped
    length lands in the 6..10 window and a vocabulary cap of 40 keeps
    every word.  Each video's caption line is repeated
    captions_per_video times (identical references), and captions are
    unique across videos.  Feature matrices come from decimating a
    random raw-frame matrix down to `frames` rows.
    """
    if n_videos < 3:
        raise InputError(f"need at least 3 videos, got {n_videos}")
    if captions_per_video < 1:
        raise InputError(f"captions_per_video must be >= 1, got {captions_per_video}")
    if frames < 1 or feature_dim < 1:
        raise InputError(f"frames and feature_dim must be >= 1, got {frames} x {feature_dim}")
    rng = np.random.default_rng(seed)
    feat_dir = os.path.join(out_dir, "feat")
    os.makedirs(feat_dir, exist_ok=True)
    seen = set()
    manifest_lines = []
    desc_lines = []
    for v in range(n_videos):
        vid = f"vid{v:03d}"
        while True:
            k = int(rng.integers(4, 9))
            words = tuple(WORDS[i] for i in rng.integers(0, len(WORDS), size=k))
            if words not in seen:
                seen.add(words)
                break
        raw_frames = int(rng.integers(frames, 10 * frames))
        raw = rng.standard_normal((raw_frames, feature_dim)).astype(np.float32)
        matrix = raw[decimation_indices(raw_frames, frames)]
        rel = os.path.join("feat", vid + ".vfm")
        write_feature_file(os.path.join(out_dir, rel), matrix)
        manifest_lines.append(f"{vid}\t{rel}")
        desc_lines += [f"{vid}\t{' '.join(words)}"] * captions_per_video
    paths = {"manifest": os.path.join(out_dir, "manifest.tsv"),
             "descriptions": os.path.join(out_dir, "descriptions.txt")}
    write_lines(paths["manifest"], manifest_lines)
    write_lines(paths["descriptions"], desc_lines)
    return paths
