"""Scaled dot-product and multi-head attention (Eq. 3–4 of the paper).

The implementation follows Vaswani et al.; attention weights can be captured
for the attention-score visualizations of Fig. 14 via
``return_weights=True`` / :attr:`MultiHeadAttention.last_weights`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import masked_fill, softmax, softmax_array
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import as_rng

_NEG_INF = -1e9


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Attention(Q, K, V) = softmax(QKᵀ/√d) V.

    Shapes: ``q``/``k``/``v`` are ``(..., seq, d)``; ``mask`` broadcasts over
    the score shape ``(..., seq_q, seq_k)`` with ``True`` meaning *blocked*.

    Returns the attended values and the attention-weight tensor.
    """
    d = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
    if mask is not None:
        scores = masked_fill(scores, mask, _NEG_INF)
    weights = softmax(scores, axis=-1)
    return weights @ v, weights


def _attention_array(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`scaled_dot_product_attention` on plain arrays, no tape."""
    d = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
    if mask is not None:
        scores = np.where(mask, _NEG_INF, scores)
    weights = softmax_array(scores, axis=-1)
    return weights @ v, weights


def _broadcast_mask(mask, batch: int, seq_k: int) -> np.ndarray:
    """Accept (seq_q, seq_k), (batch, seq_q, seq_k) or key-padding
    (batch, seq_k) masks; broadcast to (batch, heads, seq_q, seq_k)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 2 and mask.shape == (batch, seq_k):
        return mask[:, None, None, :]
    if mask.ndim == 2:
        return mask[None, None, :, :]
    if mask.ndim == 3:
        return mask[:, None, :, :]
    return mask


class MultiHeadAttention(Module):
    """Multi-head attention with separate Q/K/V/output projections.

    ``embed_dim`` must be divisible by ``num_heads``. Inputs of shape
    ``(batch, seq, embed_dim)`` — or ``(batch, embed_dim)`` for the pooled
    feature-fusion attention of Fig. 3, which is treated as ``seq == 1``.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        dropout: float = 0.0,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim ({embed_dim}) must be divisible by num_heads ({num_heads})"
            )
        rng = as_rng(seed)
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.w_q = Linear(embed_dim, embed_dim, seed=rng)
        self.w_k = Linear(embed_dim, embed_dim, seed=rng)
        self.w_v = Linear(embed_dim, embed_dim, seed=rng)
        self.w_o = Linear(embed_dim, embed_dim, seed=rng)
        self.drop = Dropout(dropout, seed=rng)
        #: attention weights of the most recent forward/infer pass, shape
        #: (batch, heads, seq_q, seq_k); populated for introspection (Fig. 14).
        self.last_weights: np.ndarray | None = None

    def _split_heads(self, x, batch: int, seq: int):
        """(batch, seq, embed) -> (batch, heads, seq, head_dim); the same
        reshape/transpose serves Tensors and plain arrays."""
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        squeeze = query.ndim == 2
        if squeeze:  # pooled vectors -> singleton sequence
            query = query.reshape(query.shape[0], 1, query.shape[1])
            key = key.reshape(key.shape[0], 1, key.shape[1])
            value = value.reshape(value.shape[0], 1, value.shape[1])
        batch, seq_q, _ = query.shape
        seq_k = key.shape[1]

        q = self._split_heads(self.w_q(query), batch, seq_q)
        k = self._split_heads(self.w_k(key), batch, seq_k)
        v = self._split_heads(self.w_v(value), batch, seq_k)

        if mask is not None:
            mask = _broadcast_mask(mask, batch, seq_k)

        attended, weights = scaled_dot_product_attention(q, k, v, mask=mask)
        self.last_weights = weights.data
        out = attended.transpose(0, 2, 1, 3).reshape(batch, seq_q, self.embed_dim)
        out = self.w_o(self.drop(out))
        if squeeze:
            out = out.reshape(batch, self.embed_dim)
        return out

    def infer(
        self,
        query: np.ndarray,
        key: np.ndarray,
        value: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Graph-free :meth:`forward`; still records :attr:`last_weights`."""
        squeeze = query.ndim == 2
        if squeeze:
            query = query.reshape(query.shape[0], 1, query.shape[1])
            key = key.reshape(key.shape[0], 1, key.shape[1])
            value = value.reshape(value.shape[0], 1, value.shape[1])
        batch, seq_q, _ = query.shape
        seq_k = key.shape[1]

        q = self._split_heads(self.w_q.infer(query), batch, seq_q)
        k = self._split_heads(self.w_k.infer(key), batch, seq_k)
        v = self._split_heads(self.w_v.infer(value), batch, seq_k)
        if mask is not None:
            mask = _broadcast_mask(mask, batch, seq_k)

        attended, weights = _attention_array(q, k, v, mask=mask)
        self.last_weights = weights
        out = attended.transpose(0, 2, 1, 3).reshape(batch, seq_q, self.embed_dim)
        out = self.w_o.infer(out)
        if squeeze:
            out = out.reshape(batch, self.embed_dim)
        return out
