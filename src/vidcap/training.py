"""Epoch-driven training: batching, Adam updates, metrics, checkpoints."""

from dataclasses import dataclass, field
import os

import numpy as np

from . import model as mdl
from . import nn
from .util import InputError, fisher_yates, fmt6


class TrainingDiverged(RuntimeError):
    """A batch produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    batch_size: int = 50
    epochs: int = 80
    lr: float = 1e-4
    seed: int = 42
    mask_padding: bool = True
    prefix_expansion: bool = False
    checkpoint_every: int = 0  # extra checkpoints every N epochs; final always

    def validate(self):
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise InputError(f"lr must be finite and >= 0, got {self.lr}")
        if self.checkpoint_every < 0:
            raise InputError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        return self


@dataclass
class Sample:
    """Decoder input and target word indices, each zero-padded to max_words."""

    video_id: str
    dec_in: np.ndarray
    target: np.ndarray


def build_samples(keys, corpus, tok, max_words, prefix_expansion=False):
    """Teacher-forcing pairs for every (video, caption) in key order.

    Shift mode pairs input tokens[0..L-2] with target tokens[1..L-1].
    Prefix-expansion mode emits one sample per prefix instead, scoring
    only the final step of each prefix: its target is zero except there.
    Captions that shrink below two indices after vocabulary filtering
    are skipped.
    """
    samples = []
    for key in keys:
        for caption in corpus.entries.get(key, ()):
            idx = tok.encode(caption)
            if len(idx) < 2:
                continue
            if prefix_expansion:
                for k in range(1, len(idx)):
                    dec_in = tok.pad(idx[:k], max_words)
                    tgt = np.zeros_like(dec_in)
                    tgt[k - 1] = idx[k]
                    samples.append(Sample(key, dec_in, tgt))
            else:
                samples.append(Sample(key, tok.pad(idx[:-1], max_words),
                                      tok.pad(idx[1:], max_words)))
    return samples


def epoch_order(n, seed, epoch):
    """Sample order for one epoch, derived from (seed, epoch)."""
    order = list(range(n))
    fisher_yates(order, np.random.default_rng([seed, epoch]))
    return order


def make_batches(samples, batch_size, seed, epoch):
    """Yield shuffled batches of batch_size plus a final partial batch."""
    order = epoch_order(len(samples), seed, epoch)
    for start in range(0, len(order), batch_size):
        yield [samples[i] for i in order[start:start + batch_size]]


def accuracy(P, target, mask_padding=True):
    """Fraction of unmasked timesteps whose argmax hits the target,
    averaged over the sequences of a time-major batch (T x B x V P,
    (T, B) target) or for one sequence (T x V, (T,)).

    target holds 1-based word indices, 0 at padding steps; the argmax
    column j hits index j + 1.  With masking off, padding rows count as
    misses.  Argmax ties go to the lowest index.
    """
    seq = np.asarray(target).reshape(len(target), -1)
    rows = seq > 0 if mask_padding else np.ones(seq.shape, dtype=bool)
    hits = rows & (P.reshape(seq.shape + (-1,)).argmax(axis=-1) == seq - 1)
    return float(np.mean(hits.sum(axis=0) / np.maximum(rows.sum(axis=0), 1)))


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class MetricsHistory:
    rows: list = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,train_acc,val_loss,val_acc\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{fmt6(r.train_loss)},{fmt6(r.train_acc)},"
                         f"{fmt6(r.val_loss)},{fmt6(r.val_acc)}\n")


def batch_arrays(store, samples):
    """Samples as arrays: their distinct videos stacked in first-use order,
    each read once (Bv x frames x D), each sample's row in that stack
    (B,), and the stacked dec_in and target vectors (B x T)."""
    keys = list(dict.fromkeys(s.video_id for s in samples))
    return (np.stack([store.get(key) for key in keys]),
            np.array([keys.index(s.video_id) for s in samples]),
            np.stack([s.dec_in for s in samples]), np.stack([s.target for s in samples]))


def evaluate_samples(params, store, samples, mask_padding=True):
    """Forward-only mean (loss, accuracy); (0, 0) for an empty list.

    One training_forward pass per distinct video decodes all of that
    video's samples, so each video is read and encoded once.
    """
    by_video = {}
    for s in samples:
        by_video.setdefault(s.video_id, []).append(s)
    loss_sum = acc_sum = 0.0
    for group in by_video.values():
        feats, video, dec_in, target = batch_arrays(store, group)
        P, _ = mdl.training_forward(params, feats, dec_in, video)
        loss_sum += nn.cross_entropy(P, target.T, mask_padding)[0] * len(group)
        acc_sum += accuracy(P, target.T, mask_padding) * len(group)
    return loss_sum / max(len(samples), 1), acc_sum / max(len(samples), 1)


def train(params, cfg, model_cfg, train_keys, val_keys, corpus, tok, store,
          out_dir=None, log=None):
    """Run the optimization loop; returns (params, MetricsHistory).

    Per epoch: shuffle samples with a seed derived from (seed, epoch),
    then run each batch as one set of arrays (batch_arrays): one
    training_forward and one training_backward, one encoder row per
    caption however the shuffle grouped videos, give its batch-mean
    gradients and one Adam step applies them; validation follows.  Epoch
    metrics are per-sample means.  A non-finite loss or gradient, in
    training or in validation, raises TrainingDiverged before the
    batch's Adam step; checkpoints already on disk are left in place.

    A batch's activations and gradients are dropped before the next
    batch's pass, and Adam updates its moments and the weights in place.
    numpy's overflow/invalid warnings are off in the epoch loop: the
    finiteness checks report.
    """
    cfg.validate()
    for key in list(train_keys) + list(val_keys):
        if key not in store:
            raise InputError(f"video '{key}' has no feature manifest entry")
        if not corpus.entries.get(key):
            raise InputError(f"video '{key}' has no descriptions")
    train_samples = build_samples(train_keys, corpus, tok, model_cfg.max_words,
                                  cfg.prefix_expansion)
    val_samples = build_samples(val_keys, corpus, tok, model_cfg.max_words,
                                cfg.prefix_expansion)
    if not train_samples:
        raise InputError("no trainable samples in the training split")
    opt = nn.AdamState(lr=cfg.lr)
    history = MetricsHistory()
    tensors = params.tensors()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = acc_sum = 0.0
            try:
                for batch in make_batches(train_samples, cfg.batch_size, cfg.seed, epoch):
                    feats, video, dec_in, target = batch_arrays(store, batch)
                    P, caches = mdl.training_forward(params, feats[video], dec_in)
                    loss, grads = mdl.training_backward(params, caches, target,
                                                        cfg.mask_padding)
                    if not np.isfinite(loss):
                        raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
                    loss_sum += loss * len(batch)
                    acc_sum += accuracy(P, target.T, cfg.mask_padding) * len(batch)
                    nn.adam_step(opt, tensors, grads)
                    del feats, P, caches, grads  # before the next batch's pass
                val_loss, val_acc = evaluate_samples(params, store, val_samples,
                                                     cfg.mask_padding)
            except FloatingPointError as e:
                raise TrainingDiverged(f"epoch {epoch}: {e}") from e
            row = EpochMetrics(epoch, loss_sum / len(train_samples),
                               acc_sum / len(train_samples), val_loss, val_acc)
            history.rows.append(row)
            if log is not None:
                log(f"epoch {row.epoch}: train_loss={fmt6(row.train_loss)} "
                    f"train_acc={fmt6(row.train_acc)} val_loss={fmt6(row.val_loss)} "
                    f"val_acc={fmt6(row.val_acc)}")
            if out_dir is not None and (
                    epoch == cfg.epochs
                    or (cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0)):
                mdl.save_checkpoint(os.path.join(out_dir, f"ckpt-{epoch}.sq2s"),
                                    model_cfg, params)
    return params, history
