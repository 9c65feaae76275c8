"""Command-line pipeline: prepare, train, caption, eval, make-fixture.

Every option can also come from a `key = value` config file passed with
--config; precedence is CLI flag > config file > built-in default.
Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import evaluation, fixture
from . import model as mdl
from . import training
from .features import FeatureStore, VideoFrames, load_manifest, read_feature_file
from .tokenizer import Tokenizer
from .util import InputError, fmt6, read_lines, write_lines

TOKENIZER_FILE = "tokenizer.txt"
METRICS_FILE = "metrics.csv"


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which registers its options (an option
    table, see _add_options) the first time it parses, so a run builds
    only the options of the command it runs; help is formatted while
    parsing, after they are registered."""

    def __init__(self, *args, options, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = options

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            _add_options(self, self._pending)
            self._pending = None
        return super().parse_known_args(args, namespace)


def _add_options(sub, table):
    """Register options whose defaults resolve after config merging.

    table rows: (flags, dest, kind, default, required, help).  Every flag
    parses to None when not given (no type makes None), and the table is
    kept on the namespace for _resolve_options.
    """
    for flags, dest, kind, _, _, hlp in table:
        sub.add_argument(*flags, dest=dest, type=kind, metavar=dest.upper(), help=hlp)
    sub.add_argument("--config", metavar="FILE", help="key = value file with option defaults")
    sub.set_defaults(_options=table)


def read_config_file(path):
    """Parse `key = value` lines (util.read_lines: `#` comments and
    blank lines ignored).
    Hyphens in keys read as underscores, and a key may appear once."""
    values = {}
    try:
        lines = read_lines(path)
    except OSError as e:
        raise InputError(f"cannot read config file: {e}") from e
    for ln, line in lines:
        if "=" not in line:
            raise InputError(f"{path}:{ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise InputError(f"{path}:{ln}: duplicate key '{key}'")
        values[key] = value.strip()
    return values


def _coerce(raw, kind, key):
    try:
        return kind(raw)
    except ValueError:
        raise InputError(f"config value for '{key}' is not a valid "
                         f"{kind.__name__}: '{raw}'") from None


def _resolve_options(ns):
    """Apply CLI > config > default precedence onto the namespace."""
    values = read_config_file(ns.config) if ns.config else {}
    dests = {row[1] for row in ns._options}
    for key in values:
        if key not in dests:
            raise InputError(f"unknown config key '{key}' for command '{ns.command}'")
    for _, dest, kind, default, _, _ in ns._options:
        if getattr(ns, dest) is None:
            setattr(ns, dest, _coerce(values[dest], kind, dest) if dest in values else default)
    for _, dest, _, _, required, _ in ns._options:
        if required and getattr(ns, dest) is None:
            raise InputError(f"missing required option --{dest.replace('_', '-')} "
                             f"(or config key '{dest}')")
    if getattr(ns, "threads", 1) < 1:
        raise InputError(f"threads must be >= 1, got {ns.threads}")
    if getattr(ns, "seed", 0) < 0:
        raise InputError(f"seed must be >= 0, got {ns.seed}")


_MODEL, _TRAIN = mdl.ModelConfig, training.TrainConfig  # field defaults = CLI defaults
_MODEL_OPTS = [
    (["--frames"], "frames", int, _MODEL.frames, False, "encoder timesteps per video"),
    (["--feature-dim"], "feature_dim", int, _MODEL.feature_dim, False, "per-frame feature width"),
    (["--latent"], "latent", int, _MODEL.latent, False, "LSTM hidden size"),
    (["--max-words"], "max_words", int, _MODEL.max_words, False, "decoder timesteps"),
    (["--vocab"], "vocab", int, _MODEL.vocab, False, "vocabulary cap"),
]


def _model_config(ns):
    return mdl.ModelConfig(ns.frames, ns.feature_dim, ns.latent,
                           ns.max_words, ns.vocab).validate()


def _load_tokenizer(path, cfg):
    """The tokenizer at path; its cap must be the model's vocabulary size."""
    tok = Tokenizer.load(path)
    if tok.cap != cfg.vocab:
        raise RuntimeError(f"tokenizer cap {tok.cap} does not match "
                           f"vocabulary size {cfg.vocab}")
    return tok


def cmd_prepare(ns):
    """Build split key files, the tokenizer file, and a summary.  Each
    file is written whole or not at all (util.write_lines), one after
    the other, so a failure can leave new files next to old ones."""
    raw = corpus_mod.parse_descriptions(ns.descriptions)
    corp = corpus_mod.build_corpus(raw)
    if not corp.entries:
        raise InputError("no captions survived filtering")
    split = corpus_mod.split_keys(corp, ns.seed)
    tok = Tokenizer(ns.vocab)
    tok.fit(caption for key in split.train_keys for caption in corp.entries[key])
    manifest = load_manifest(ns.manifest)
    missing = sum(1 for key in corp.entries if key not in manifest)
    os.makedirs(ns.out, exist_ok=True)
    corpus_mod.save_split(split, ns.out)
    tok.save(os.path.join(ns.out, TOKENIZER_FILE))
    lines = [
        f"videos: {len(corp.entries)}",
        f"captions kept: {corp.kept}",
        f"captions dropped: {corp.dropped}",
        f"malformed lines skipped: {raw.skipped}",
        f"vocabulary size: {tok.size} (cap {tok.cap})",
        f"split sizes: train={len(split.train_keys)} val={len(split.val_keys)} "
        f"test={len(split.test_keys)}",
        f"videos missing features: {missing}",
    ]
    write_lines(os.path.join(ns.out, "summary.txt"), lines)
    for line in lines:
        print(line)
    return 0


def cmd_train(ns):
    """Train from prepare artifacts; write checkpoints and metrics.csv."""
    cfg = _model_config(ns)
    tcfg = training.TrainConfig(
        batch_size=ns.batch_size, epochs=ns.epochs, lr=ns.lr, seed=ns.seed,
        checkpoint_every=ns.checkpoint_every).validate()  # before the costly init
    tok = _load_tokenizer(os.path.join(ns.out, TOKENIZER_FILE), cfg)
    train_keys = corpus_mod.load_split_keys(ns.out, "train")
    val_keys = corpus_mod.load_split_keys(ns.out, "val")
    corp = corpus_mod.build_corpus(corpus_mod.parse_descriptions(ns.descriptions))
    store = FeatureStore(ns.manifest, expected_shape=(cfg.frames, cfg.feature_dim))
    params = mdl.ModelParams.init(cfg, ns.seed)
    params, history = training.train(params, tcfg, cfg, train_keys, val_keys,
                                     corp, tok, store, out_dir=ns.out, log=print)
    history.to_csv(os.path.join(ns.out, METRICS_FILE))
    print(f"final checkpoint: {os.path.join(ns.out, f'ckpt-{tcfg.epochs}.sq2s')}")
    return 0


def cmd_caption(ns):
    """Print the greedy caption for one video or feature file."""
    cfg, params, _ = mdl.load_checkpoint(ns.checkpoint)
    tok = _load_tokenizer(ns.tokenizer, cfg)
    shape = (cfg.frames, cfg.feature_dim)
    if ns.features:
        feat = read_feature_file(ns.features, expected_shape=shape)
    elif ns.video_id and ns.manifest:
        feat = FeatureStore(ns.manifest, expected_shape=shape).get(ns.video_id)
    else:
        raise InputError("need --features, or both --manifest and --video-id")
    print(" ".join(mdl.greedy_decode(params, tok, feat, cfg.max_words)))
    return 0


def cmd_eval(ns):
    """Caption a whole split and write report/summary/histogram CSVs."""
    keys = corpus_mod.load_split_keys(ns.out, ns.split)
    if not keys:  # a mean over no videos would score nothing
        raise InputError(f"split '{ns.split}' in {ns.out} has no videos")
    cfg, params, _ = mdl.load_checkpoint(ns.checkpoint)
    tok = _load_tokenizer(os.path.join(ns.out, TOKENIZER_FILE), cfg)
    corp = corpus_mod.build_corpus(corpus_mod.parse_descriptions(ns.descriptions))
    store = FeatureStore(ns.manifest, expected_shape=(cfg.frames, cfg.feature_dim))
    training.check_keys(keys, corp, store)  # before the first decode
    videos = [VideoFrames(store, key) for key in keys]  # read inside greedy_decode
    predictions = dict(zip(keys, mdl.greedy_decode(params, tok, videos, cfg.max_words)))
    report = evaluation.evaluate_split(predictions, corp, keys, ns.split)
    evaluation.write_report_csv(os.path.join(ns.out, "report.csv"), report)
    evaluation.write_summary_csv(os.path.join(ns.out, "summary.csv"), report)
    evaluation.write_histogram_csv(os.path.join(ns.out, "histogram.csv"), report)
    print(f"{ns.split}: {len(report.rows)} videos, mean BLEU-2 {fmt6(report.mean)}")
    return 0


def cmd_make_fixture(ns):
    """Generate a synthetic corpus for tests and demos."""
    paths = fixture.make_fixture(ns.out, n_videos=ns.n_videos, seed=ns.seed,
                                 captions_per_video=ns.captions_per_video,
                                 frames=ns.frames, feature_dim=ns.feature_dim)
    print(f"wrote {ns.n_videos} videos under {ns.out}")
    print(f"descriptions: {paths['descriptions']}")
    print(f"manifest: {paths['manifest']}")
    return 0


# each subcommand's name, help, handler and option table
_COMMANDS = [
    ("prepare", "parse captions, split keys, fit tokenizer", cmd_prepare, [
        (["--descriptions"], "descriptions", str, None, True, "caption text file"),
        (["--manifest"], "manifest", str, None, True, "feature manifest file"),
        (["--out"], "out", str, None, True, "output directory"),
        (["--vocab"], "vocab", int, _MODEL.vocab, False, "vocabulary cap"),
        (["--seed"], "seed", int, 42, False, "split shuffle seed"),
    ]),
    ("train", "train the model on the prepared splits", cmd_train, _MODEL_OPTS + [
        (["--descriptions"], "descriptions", str, None, True, "caption text file"),
        (["--manifest"], "manifest", str, None, True, "feature manifest file"),
        (["--out"], "out", str, None, True, "directory with prepare artifacts"),
        (["--batch-size"], "batch_size", int, _TRAIN.batch_size, False, "samples per Adam step"),
        (["--epochs"], "epochs", int, _TRAIN.epochs, False, "training epochs"),
        (["--lr"], "lr", float, _TRAIN.lr, False, "Adam learning rate"),
        (["--seed"], "seed", int, _TRAIN.seed, False, "init and shuffle seed"),
        (["--threads"], "threads", int, 1, False,
         "accepted, no effect: training runs on one thread; set "
         "OPENBLAS_NUM_THREADS to use more cores"),
        (["--checkpoint-every"], "checkpoint_every", int, _TRAIN.checkpoint_every, False,
         "extra checkpoint every N epochs (0 = final only)"),
    ]),
    ("caption", "greedy-caption one video", cmd_caption, [
        (["--checkpoint"], "checkpoint", str, None, True, "model checkpoint"),
        (["--tokenizer"], "tokenizer", str, None, True, "tokenizer file"),
        (["--manifest"], "manifest", str, None, False, "feature manifest file"),
        (["--video-id"], "video_id", str, None, False, "video id in the manifest"),
        (["--features"], "features", str, None, False, "a .vfm feature file"),
    ]),
    ("eval", "score a whole split with BLEU-2", cmd_eval, [
        (["--checkpoint"], "checkpoint", str, None, True, "model checkpoint"),
        (["--descriptions"], "descriptions", str, None, True, "caption text file"),
        (["--manifest"], "manifest", str, None, True, "feature manifest file"),
        (["--out"], "out", str, None, True, "directory with prepare artifacts"),
        (["--split"], "split", str, "test", False, "train, val or test"),
        (["--threads"], "threads", int, 1, False,
         "accepted, no effect: decoding runs on one thread; set "
         "OPENBLAS_NUM_THREADS to use more cores"),
    ]),
    ("make-fixture", "write a synthetic toy corpus", cmd_make_fixture, [
        (["--out"], "out", str, None, True, "output directory"),
        (["--n-videos"], "n_videos", int, 6, False, "number of videos"),
        (["--seed"], "seed", int, 1, False, "generator seed"),
        (["--captions-per-video"], "captions_per_video", int, 3, False,
         "caption repeats per video"),
        (["--frames"], "frames", int, 8, False, "feature rows per video"),
        (["--feature-dim"], "feature_dim", int, 16, False, "feature columns"),
    ]),
]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vidcap", allow_abbrev=False,
        description="Encoder-decoder LSTM video captioning on precomputed "
                    "per-frame features.")
    parser.add_argument(
        "--version", action="version",
        version=f"vidcap {__version__} (checkpoint format {mdl.CHECKPOINT_VERSION})")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_CommandParser)
    for name, hlp, func, options in _COMMANDS:
        subs.add_parser(name, help=hlp, allow_abbrev=False,
                        options=options).set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _resolve_options(ns)
        return ns.func(ns)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's message names the failed allocation
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())
