"""Epoch-driven training: batching, Adam updates, metrics, checkpoints."""

from dataclasses import dataclass, field
import math
import os

import numpy as np

from . import model as mdl
from . import nn
from .util import InputError, fisher_yates, fmt6, write_lines


class TrainingDiverged(RuntimeError):
    """A batch produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    batch_size: int = 50
    epochs: int = 80
    lr: float = 1e-4
    seed: int = 42
    checkpoint_every: int = 0  # extra checkpoints every N epochs; final always

    def validate(self):
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise InputError(f"lr must be finite and >= 0, got {self.lr}")
        if self.checkpoint_every < 0:
            raise InputError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        return self


def build_samples(keys, corpus, tok, max_words):
    """Teacher-forcing pairs for every (video, caption) in key order, as
    one table (keys, video, dec_in, target): the key list, each sample's
    (N,) index into it, which does not decrease, and (N x max_words)
    decoder input and target word indices, zero-padded.  Each caption is
    one sample, shifted by one: decoder input tokens[0..L-2], target
    tokens[1..L-1].  Captions that shrink below two indices after
    vocabulary filtering are skipped; one with more than max_words
    decoder steps (L - 1) raises InputError naming its video.  Set-up
    counts the rows, then fills the table in place."""
    keys = list(keys)

    def encoded():  # (video, word indices) of every caption kept, twice
        return ((v, idx) for v, key in enumerate(keys)
                for idx in map(tok.encode, corpus.entries.get(key, ())) if len(idx) >= 2)

    n = sum(1 for _ in encoded())
    video = np.empty(n, dtype=np.intp)
    dec_in = np.empty((n, max_words), dtype=np.intp)
    target = np.empty((n, max_words), dtype=np.intp)
    for i, (v, idx) in enumerate(encoded()):
        if len(idx) - 1 > max_words:
            raise InputError(f"video '{keys[v]}': a caption has {len(idx) - 1} decoder "
                             f"steps, more than max_words {max_words}")
        video[i], dec_in[i] = v, tok.pad(idx[:-1], max_words)
        target[i] = tok.pad(idx[1:], max_words)
    return keys, video, dec_in, target


def make_batches(n, batch_size, seed, epoch):
    """Yield n sample rows in a Fisher-Yates order seeded by (seed, epoch)
    as index arrays of batch_size, plus a final partial batch."""
    order = np.array(fisher_yates(list(range(n)), np.random.default_rng([seed, epoch])))
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


# Feature bytes of a run's train and validation splits up to which train
# reads them once, into one read_resident dict per split, instead of
# each time a batch or a validation pass uses them: the quick start's
# six 8 x 16 videos are 3 KiB, a paper-size video 1.3 MB
RESIDENT_BYTES = 256 * 1024
# videos per validation pass of evaluate_samples, which caches every
# step of a pass for its loss
EVAL_CHUNK = 16


def _checked(key, matrix, shape, like=None):
    """matrix, video key's features as read, if it has shape (frames, D),
    else InputError: a FeatureStore built without an expected shape
    reads a file of any shape.  like names the video whose shape it is,
    when that is not the model's."""
    if matrix.shape != shape:
        want = (f"expected {shape}" if like is None
                else f"but those for '{like}' have {shape}")
        raise InputError(f"features for '{key}' have shape {matrix.shape}, {want}")
    return matrix


def read_resident(store, keys, video, shape):
    """A dict from key to matrix for each of keys that the video indices
    list, read once each through store.get, in index order; each matrix
    must have the given shape, else InputError.  read_batch reads the
    dict as it reads a FeatureStore."""
    return {keys[v]: _checked(keys[v], store.get(keys[v]), shape)
            for v in sorted(set(video.tolist()))}


def read_batch(store, keys, video, shape=None):
    """Each distinct video of sample rows' video indices once, in index
    order, in one time-major (frames x Bv x D) float32 array, column i
    the i-th distinct video; returns it and the (B,) row map from each
    sample to its feats column.  store is a FeatureStore or a
    read_resident dict of keys; either gives each of those videos
    through store.get, and its matrix is copied into its column.  Each
    video must have shape, the model's (frames, D), or by default the
    first one's, else InputError, which then names both videos and both
    shapes."""
    distinct = sorted(set(video.tolist()))
    first = store.get(keys[distinct[0]])
    like = None if shape else keys[distinct[0]]
    shape = shape or first.shape
    feats = np.empty((shape[0], len(distinct), shape[1]), dtype=np.float32)
    feats[:, 0] = _checked(keys[distinct[0]], first, shape)
    del first  # one read in flight at a time
    for i, v in enumerate(distinct[1:], 1):
        feats[:, i] = _checked(keys[v], store.get(keys[v]), shape, like)
    return feats, np.searchsorted(distinct, video)


def check_keys(keys, corpus, store):
    """Raise InputError for a key with no manifest entry or no descriptions."""
    for key in keys:
        if key not in store:
            raise InputError(f"video '{key}' has no feature manifest entry")
        if not corpus.entries.get(key):
            raise InputError(f"video '{key}' has no descriptions")


def accuracy(P, target):
    """Fraction of non-padding timesteps whose argmax hits the target,
    averaged over the sequences of a time-major batch (T x B x V P,
    (T, B) target) or for one sequence (T x V, (T,)).

    target holds 1-based word indices, 0 at padding steps, which are not
    counted; the argmax column j hits index j + 1.  Argmax ties go to
    the lowest index.
    """
    seq = np.asarray(target).reshape(len(target), -1)
    # padding's seq - 1 is -1, which no argmax equals
    hits = P.reshape(seq.shape + (-1,)).argmax(axis=-1) == seq - 1
    per_seq = hits.sum(axis=0) / np.maximum((seq > 0).sum(axis=0), 1)
    return float(per_seq.sum() / per_seq.size)  # np.mean's sum and division


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
        """Write the rows to path, whole or not at all (util.write_lines)."""
        write_lines(path, ["epoch,train_loss,train_acc,val_loss,val_acc", *(
            f"{r.epoch},{fmt6(r.train_loss)},{fmt6(r.train_acc)},"
            f"{fmt6(r.val_loss)},{fmt6(r.val_acc)}" for r in self.rows)])


def evaluate_samples(params, store, samples, shape=None):
    """Forward-only mean (loss, accuracy) over a build_samples table;
    (0, 0) for an empty one.  Each read_batch and training_forward pass
    takes the rows of EVAL_CHUNK consecutive videos, so each video is
    read (from store, a FeatureStore or a read_resident dict of the
    table's keys; read_batch checks it against shape) and encoded once,
    and keeps only P, which it drops before the next pass reads: one
    pass is alive at a time."""
    keys, video, dec_in, target = samples
    loss_sum = acc_sum = 0.0
    starts = np.unique(video, return_index=True)[1][::EVAL_CHUNK].tolist()
    for rows in map(slice, starts, starts[1:] + [len(video)]):
        feats, row_map = read_batch(store, keys, video[rows], shape)
        P = mdl.training_forward(params, feats, dec_in[rows], row_map)[0]
        tgt, n = target[rows].T, rows.stop - rows.start
        loss_sum += nn.cross_entropy(P, tgt)[0] * n
        acc_sum += accuracy(P, tgt) * n
        del feats, P  # before the next pass reads
    return loss_sum / max(len(video), 1), acc_sum / max(len(video), 1)


def train(params, cfg, model_cfg, train_keys, val_keys, corpus, tok, store,
          out_dir=None, log=None):
    """Run the optimization loop; returns (params, MetricsHistory).

    Per epoch: shuffle the sample table's rows with a seed derived from
    (seed, epoch), then run each batch of rows as one set of arrays:
    read_batch's frames (time-major, a column per distinct video), its
    row map and those rows of dec_in and target go through one
    training_forward and one training_backward, whose batch-mean
    gradients one Adam step applies; validation follows.  Epoch metrics
    are per-sample means.
    When the train and validation splits' features total at most
    RESIDENT_BYTES, each of their videos is read and checked once,
    before the first batch, into one read_resident dict per split, from
    which batches and validation copy their rows; otherwise each batch
    and validation pass reads its videos.  A video whose matrix is not
    (frames, feature_dim) raises InputError before the batch or
    validation pass that reads it runs.
    A non-finite loss or gradient, in training or in validation, raises
    TrainingDiverged before the batch's Adam step; checkpoints already
    on disk are left in place.  Every batch writes its gradients into
    one buffer, laid out as params.flat and allocated once per run after
    the first batch's forward pass (which so holds no gradient), and
    Adam updates params.flat and its two moments in place from it, so
    no batch allocates a gradient tensor.  A batch's activations are
    dropped before the next batch's pass.  numpy's overflow/invalid
    warnings are off in the epoch loop: the finiteness checks report.
    """
    cfg.validate()
    check_keys(list(train_keys) + list(val_keys), corpus, store)
    keys, video, dec_in, target = build_samples(train_keys, corpus, tok, model_cfg.max_words)
    val_samples = build_samples(val_keys, corpus, tok, model_cfg.max_words)
    if not len(video):
        raise InputError("no trainable samples in the training split")
    train_src = val_src = store
    shape = (model_cfg.frames, model_cfg.feature_dim)
    if (len(keys) + len(val_samples[0])) * math.prod(shape) * 4 <= RESIDENT_BYTES:
        train_src = read_resident(store, keys, video, shape)
        val_src = read_resident(store, val_samples[0], val_samples[1], shape)
    layout = tuple((k, t.size) for k, t in params.tensors().items())
    opt, history, grad = nn.AdamState(layout, lr=cfg.lr), MetricsHistory(), None
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = acc_sum = 0.0
            try:
                for rows in make_batches(len(video), cfg.batch_size, cfg.seed, epoch):
                    feats, row_map = read_batch(train_src, keys, video[rows], shape)
                    P, caches = mdl.training_forward(params, feats, dec_in[rows], row_map)
                    if grad is None:  # the run's one gradient buffer, made once
                        grad = np.empty_like(params.flat)
                        grads = params.views(grad)
                    tgt = target[rows]
                    loss = mdl.training_backward(params, caches, tgt, grads)[0]
                    if not math.isfinite(loss):
                        raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
                    loss_sum += loss * len(rows)
                    acc_sum += accuracy(P, tgt.T) * len(rows)
                    nn.adam_step(opt, params.flat, grad)
                    del feats, P, caches  # before the next batch's pass
                val_loss, val_acc = evaluate_samples(params, val_src, val_samples, shape)
            except FloatingPointError as e:
                raise TrainingDiverged(f"epoch {epoch}: {e}") from e
            row = EpochMetrics(epoch, loss_sum / len(video), acc_sum / len(video),
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
