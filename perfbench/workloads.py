"""The benchmark's workloads: what each generates and which commands it runs.

Every workload drives the program through `vidcap.cli.main`, the entry
point of the `vidcap` console script.  Inputs come from
`vidcap.fixture.make_fixture` (plus, for eval_full, a seeded untrained
checkpoint) and are generated before any timer starts.
"""

from dataclasses import dataclass
import os

# eval_full decodes the train split: 112 videos split 101/6/5, and only
# the train split reaches the 100 videos a p90 latency needs.
EVAL_SPLIT = "train"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    why: str
    n_videos: int
    frames: int
    feature_dim: int
    latent: int
    vocab: int
    captions_per_video: int = 3
    max_words: int = 10
    epochs: int = 1
    batch_size: int = 50
    lr: float = 1e-4

    def prepare_argv(self, inputs, out, seed):
        return ["prepare", "--descriptions", inputs["descriptions"],
                "--manifest", inputs["manifest"], "--out", out,
                "--vocab", str(self.vocab), "--seed", str(seed)]

    def command_argv(self, inputs, out, seed):
        common = ["--descriptions", inputs["descriptions"],
                  "--manifest", inputs["manifest"], "--out", out]
        if self.kind == "eval":
            return ["eval", "--checkpoint", inputs["checkpoint"], *common,
                    "--split", EVAL_SPLIT, "--threads", "1"]
        return ["train", *common,
                "--frames", str(self.frames), "--feature-dim", str(self.feature_dim),
                "--latent", str(self.latent), "--max-words", str(self.max_words),
                "--vocab", str(self.vocab), "--epochs", str(self.epochs),
                "--batch-size", str(self.batch_size), "--lr", repr(self.lr),
                "--seed", str(seed), "--threads", "1"]

    def final_checkpoint(self, out):
        return os.path.join(out, f"ckpt-{self.epochs}.sq2s")


WORKLOADS = {w.name: w for w in (
    Workload("train_toy", "train",
             "README quick start (8x16 features, latent 32, 400 epochs): "
             "per-step and per-sample Python overhead dominates, BLAS idles",
             n_videos=6, frames=8, feature_dim=16, latent=32, vocab=40,
             epochs=400, batch_size=6, lr=1e-3),
    # Paper dimensions.  Three videos split 2/1/0, so six training
    # samples in batches of 4 and 2: encoder backward dominates each
    # sample, Adam touches 14.3 M parameters twice and one 57 MB
    # checkpoint is written.  Each video appears three times per epoch,
    # as a video with several captions does in MSVD.
    Workload("train_full", "train",
             "paper dimensions (80x4096, latent 512, V 1500): encoder backward, "
             "Adam over 14.3M parameters and a 57 MB checkpoint dominate",
             n_videos=3, frames=80, feature_dim=4096, latent=512, vocab=1500,
             epochs=1, batch_size=4, lr=1e-4),
    # Inference only: a training-kernel change must leave it unchanged.
    Workload("eval_full", "eval",
             "inference only at paper dimensions: 101 cold .vfm reads, encoder "
             "forwards and up to 10 decode steps per video; no backward or Adam",
             n_videos=112, frames=80, feature_dim=4096, latent=512, vocab=1500),
)}


def generate_inputs(workload, seed, directory):
    """Write the workload's corpus (and eval checkpoint) under directory."""
    from vidcap import fixture
    from vidcap import model as mdl

    paths = fixture.make_fixture(
        os.path.join(directory, "data"), n_videos=workload.n_videos, seed=seed,
        captions_per_video=workload.captions_per_video,
        frames=workload.frames, feature_dim=workload.feature_dim)
    inputs = {"descriptions": paths["descriptions"], "manifest": paths["manifest"]}
    if workload.kind == "eval":
        cfg = mdl.ModelConfig(workload.frames, workload.feature_dim, workload.latent,
                              workload.max_words, workload.vocab)
        inputs["checkpoint"] = os.path.join(directory, "untrained.sq2s")
        mdl.save_checkpoint(inputs["checkpoint"], cfg, mdl.ModelParams.init(cfg, seed))
    return inputs
