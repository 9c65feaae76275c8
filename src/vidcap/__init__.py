"""Video captioning with a from-scratch encoder-decoder LSTM.

Trains on precomputed per-frame feature matrices, generates captions by
greedy decoding, and evaluates them with multi-reference 2-gram BLEU.
"""

__version__ = "0.1.0"
