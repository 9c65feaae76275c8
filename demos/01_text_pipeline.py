"""Walk a tiny caption file through normalization, filtering, splits,
and the tokenizer -- every text-side stage that runs before training.

Usage: python3 demos/01_text_pipeline.py
"""

import os
import tempfile

from vidcap.corpus import build_corpus, normalize_caption, parse_descriptions, split_keys
from vidcap.tokenizer import Tokenizer

LINES = """\
vid01 A man is playing the Guitar.
vid01 the man plays a guitar, quickly!
vid02 a dog runs
vid02 A small dog runs across the yard outside
vid03 A woman slices a red tomato
vid03 the woman is slicing tomatoes in the kitchen
vid04 someone throws a ball to a dog
# comment lines and blank lines are ignored

vid05 a cat sleeps on the warm windowsill
vid06
"""

print("== normalization ==")
for raw in ('A man is playing the Guitar.', 'the man plays a guitar, quickly!'):
    print(f"  {raw!r:45} -> {normalize_caption(raw)!r}")

work = tempfile.mkdtemp(prefix="vidcap-demo-")
desc_path = os.path.join(work, "descriptions.txt")
with open(desc_path, "w", encoding="utf-8") as fh:
    fh.write(LINES)

raw = parse_descriptions(desc_path)
print(f"\n== parsing ==\n  {len(raw.pairs)} captions, {raw.skipped} malformed line(s) skipped")

# Wrapping adds bos/eos, then only captions with 6..10 total tokens survive.
corp = build_corpus(raw)
print(f"\n== length filter (6..10 tokens including bos/eos) ==")
print(f"  kept {corp.kept}, dropped {corp.dropped}")
for vid in corp.entries:
    for tokens in corp.entries[vid]:
        print(f"  {vid}: {' '.join(tokens)}")

split = split_keys(corp, seed=42)
print(f"\n== split (90/5/5 with half-up rounding) ==")
print(f"  train={split.train_keys}  val={split.val_keys}  test={split.test_keys}")

# The vocabulary is fitted on training-split captions only, ranked by
# frequency with ties broken by first occurrence.
tok = Tokenizer(cap=40).fit(c for k in split.train_keys for c in corp.entries[k])
print(f"\n== tokenizer (cap 40, fitted size {tok.size}) ==")
ranked = sorted(tok.index_to_word.items())[:8]
for idx, word in ranked:
    print(f"  {idx:2d} -> {word}")

caption = corp.entries[split.train_keys[0]][0]
indices = tok.encode(caption)
# The decoder reads one index per step; 0 pads the vector to its 10 steps.
padded = tok.pad(indices, max_len=10)
print(f"\n== index encoding of: {' '.join(caption)} ==")
print(f"  indices: {indices}")
print(f"  padded to 10 decoder steps: {padded.tolist()} "
      f"({len(indices)} words, {len(padded) - len(indices)} padding)")
print(f"\nscratch dir: {work}")
