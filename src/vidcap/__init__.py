"""Video captioning with a from-scratch encoder-decoder LSTM.

Trains on precomputed per-frame feature matrices, generates captions by
greedy decoding, and evaluates them with multi-reference 2-gram BLEU.
"""

__version__ = "0.1.0"

from .corpus import (DescriptionCorpus, SplitAssignment, build_corpus,
                     parse_descriptions, split_keys, split_sizes)
from .evaluation import BleuScore, EvalReport, bleu2, evaluate_split
from .features import (FeatureStore, decimation_indices, load_manifest,
                       read_feature_file, write_feature_file)
from .fixture import make_fixture
from .model import (CHECKPOINT_VERSION, DecodeState, ModelConfig, ModelParams,
                    decode_step, encode_video, greedy_decode, load_checkpoint,
                    param_count, save_checkpoint, training_backward,
                    training_forward)
from .tokenizer import Tokenizer
from .training import (MetricsHistory, TrainConfig, TrainingDiverged, accuracy,
                       build_samples, make_batches, train)
from .util import InputError
