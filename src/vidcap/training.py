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
    """Fraction of unmasked timesteps whose argmax hits the target.

    target holds 1-based word indices, 0 at padding steps; the argmax
    column j hits index j + 1.  With masking off, padding rows count as
    misses.  Argmax ties go to the lowest index.
    """
    target = np.asarray(target)
    rows = target > 0 if mask_padding else np.ones(len(target), dtype=bool)
    sel = np.flatnonzero(rows)
    if sel.size == 0:
        return 0.0
    hits = P[sel].argmax(axis=1) == target[sel] - 1
    return float(hits.sum()) / sel.size


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


def _sample_pass(params, store, sample, mask_padding):
    feat = store.get(sample.video_id)
    P, caches = mdl.training_forward(params, feat, sample.dec_in)
    loss, grads = mdl.training_backward(params, caches, sample.target, mask_padding)
    return loss, accuracy(P, sample.target, mask_padding), grads


def _sample_eval(params, state, sample, mask_padding):
    P, _, _ = mdl.decoder_forward(params, *state, sample.dec_in)
    loss, _ = nn.cross_entropy(P, sample.target, mask_padding)
    return loss, accuracy(P, sample.target, mask_padding)


def evaluate_samples(params, store, samples, mask_padding=True):
    """Forward-only mean (loss, accuracy); (0, 0) for an empty list.

    Each distinct video is encoded once; the decoder and head then run
    per caption from that video's final encoder state, so the results
    equal those of training_forward sample by sample.
    """
    if not samples:
        return 0.0, 0.0
    states = {key: mdl.encode_video(params, store.get(key))
              for key in dict.fromkeys(s.video_id for s in samples)}
    results = [_sample_eval(params, states[s.video_id], s, mask_padding)
               for s in samples]
    n = len(results)
    return sum(r[0] for r in results) / n, sum(r[1] for r in results) / n


def train(params, cfg, model_cfg, train_keys, val_keys, corpus, tok, store,
          out_dir=None, log=None):
    """Run the optimization loop; returns (params, MetricsHistory).

    Per epoch: shuffle samples with a seed derived from (seed, epoch),
    accumulate batch-mean gradients in fixed sample order, take one Adam
    step per batch, then run a forward-only validation pass.  Epoch
    metrics are per-sample means.  A non-finite loss or gradient, in
    training or in validation, raises TrainingDiverged before the
    batch's Adam step; checkpoints already on disk are left in place.

    Each sample's gradients are added into one grad_sum buffer per
    tensor as soon as its pass returns, then dropped: the buffers are
    allocated once per run and zeroed per batch, so at most one
    per-sample gradient set is alive and peak memory does not grow with
    the batch size.  Validation encodes each distinct video once and
    decodes each of its captions from that state.  numpy's
    overflow/invalid warnings are off in the epoch loop: the finiteness
    checks report.
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
    grad_sum = {name: np.empty_like(t) for name, t in tensors.items()}  # zeroed per batch
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = acc_sum = 0.0
            n_seen = 0
            try:
                for batch in make_batches(train_samples, cfg.batch_size, cfg.seed, epoch):
                    for g in grad_sum.values():
                        g.fill(0)
                    for s in batch:
                        loss, acc, grads = _sample_pass(params, store, s, cfg.mask_padding)
                        if not np.isfinite(loss):
                            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
                        loss_sum += loss
                        acc_sum += acc
                        for name, g in grad_sum.items():
                            g += grads[name]
                        del grads  # free it before the next sample's pass
                    for g in grad_sum.values():
                        g /= len(batch)
                    nn.adam_step(opt, tensors, grad_sum)
                    n_seen += len(batch)
                val_loss, val_acc = evaluate_samples(params, store, val_samples,
                                                     cfg.mask_padding)
            except FloatingPointError as e:
                raise TrainingDiverged(f"epoch {epoch}: {e}") from e
            row = EpochMetrics(epoch, loss_sum / n_seen, acc_sum / n_seen,
                               val_loss, val_acc)
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
