"""Verify the hand-written backward pass against central finite
differences on a toy-sized model, tensor by tensor.

The difference quotient is evaluated through an extended-precision
forward pass: a handful of coordinates sit in saturated gate paths with
gradients around 1e-13, far below what a float64 quotient can resolve.

Usage: python3 demos/03_gradient_check.py
"""

import numpy as np

from vidcap import nn
from vidcap.model import (ModelConfig, ModelParams, _params_from_tensors,
                          training_backward, training_forward)

cfg = ModelConfig(frames=5, feature_dim=3, latent=4, max_words=4, vocab=7)
rng = np.random.default_rng(0)

feat = rng.standard_normal((cfg.frames, cfg.feature_dim))
# word indices in 1..vocab; the last step stays 0 (padding), as training does
dec_in = np.zeros(cfg.max_words, dtype=int)
target = np.zeros(cfg.max_words, dtype=int)
for t in range(cfg.max_words - 1):
    dec_in[t] = rng.integers(cfg.vocab) + 1
    target[t] = rng.integers(cfg.vocab) + 1

params = ModelParams.init(cfg, seed=0, dtype=np.float64)
_, caches = training_forward(params, feat, dec_in)
loss_value, grads = training_backward(params, caches, target)
print(f"toy model: {sum(t.size for t in params.tensors().values())} parameters, "
      f"loss {loss_value:.6f}")


all_tensors = params.tensors()  # live views; the checker perturbs in place


def loss(_):
    wide = _params_from_tensors(
        {k: v.astype(np.longdouble) for k, v in all_tensors.items()})
    P, _ = training_forward(wide, feat.astype(np.longdouble), dec_in)
    rows = target > 0
    nll = -np.log(P[rows, target[rows] - 1])
    return nll.sum() / rows.sum()


print("\nper-tensor max relative error, |fd - an| / max(|fd|, |an|, 1e-8):")
worst = 0.0
for name, tensor in all_tensors.items():
    err = nn.finite_difference_check(loss, {name: tensor}, {name: grads[name]})
    worst = max(worst, float(err))
    print(f"  {name:10} {tensor.size:4d} coords   {float(err):.3e}")

print(f"\noverall max relative error: {worst:.3e}  "
      f"({'OK' if worst < 1e-6 else 'TOO LARGE'} against the 1e-6 bar)")
