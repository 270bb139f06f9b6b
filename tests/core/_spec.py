"""Executable specification of the surrogate's inference path.

These are the Tensor-based bodies :class:`DeepBATSurrogate` used for
``predict``, ``predict_grid``, ``attention_scores`` and the training
loop's validation pass: eval mode, then the autograd ``forward``
machinery, then ``.data``. The graph-free ``infer`` path must reproduce
them bit for bit, which the bit-identity pins and the ``decision`` perf
gate assert.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.losses import combined_loss
from repro.nn.tensor import Tensor


def spec_predict_grid(model, sequence: np.ndarray, features: np.ndarray) -> np.ndarray:
    """One window × many configurations through the Tensor path."""
    model.eval()
    seq = np.asarray(sequence, dtype=float).reshape(1, -1)
    if seq.shape[1] != model.seq_len:
        raise ValueError(f"sequence must have length {model.seq_len}")
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    n = feats.shape[0]
    e_seq = model.seq_embed(Tensor(seq.reshape(1, model.seq_len, 1)))
    e_trans = model.encoder(model.pos_enc(e_seq))
    e_p = F.mean_pool(e_trans, axis=1)
    e_1 = model.fusion_attn(e_p, e_p, e_p)  # (1, d_model)
    e_1_grid = Tensor(np.broadcast_to(e_1.data, (n, model.d_model)).copy())
    e_2 = model.feat_embed(Tensor(feats))
    return model.head(F.concat([e_1_grid, e_2], axis=-1)).data


def spec_predict(model, sequence: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Eval-mode forward on raw arrays (the grid case via the grid spec)."""
    model.eval()
    seq = np.atleast_2d(np.asarray(sequence, dtype=float))
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    if seq.shape[0] == 1 and feats.shape[0] > 1:
        return spec_predict_grid(model, seq[0], feats)
    return model.forward(Tensor(seq), Tensor(feats)).data


def spec_attention_scores(model, sequence: np.ndarray) -> np.ndarray:
    """Aggregated encoder attention through the Tensor path."""
    model.eval()
    seq = np.atleast_2d(np.asarray(sequence, dtype=float))
    batch = seq.shape[0]
    e_seq = model.seq_embed(Tensor(seq.reshape(batch, -1, 1)))
    model.encoder(model.pos_enc(e_seq))
    maps = model.encoder.attention_maps()
    agg = np.mean([m.mean(axis=1) for m in maps], axis=0)
    received = agg.mean(axis=1)
    received = received / received.sum(axis=-1, keepdims=True)
    return received[0] if np.ndim(sequence) == 1 else received


def spec_validate(model, val_set, cfg) -> tuple[float, float]:
    """Validation through the autograd forward (a graph over the whole
    validation set, read once): the loss the training loop selects on."""
    model.eval()
    seq, feats, tgt = val_set[np.arange(len(val_set))]
    pred = model(Tensor(seq), Tensor(feats))
    loss = combined_loss(pred, Tensor(tgt), alpha=cfg.alpha, delta=cfg.huber_delta)
    mape = float(
        np.mean(np.abs(pred.data - tgt) / np.maximum(np.abs(tgt), 1e-8)) * 100.0
    )
    return loss.item(), mape
