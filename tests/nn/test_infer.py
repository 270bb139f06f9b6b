"""Graph-free inference ≡ the autograd forward, bit for bit.

Every layer on the surrogate's path has an ``infer`` that runs the same
NumPy expressions as ``forward`` without building a tape. These pins use
exact equality (``np.array_equal``), not a tolerance: one reordered
reduction would change the last bit and show up here.
"""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import FeedForward, LayerNorm, Linear
from repro.nn.tensor import Tensor
from repro.nn.transformer import (
    PositionalEncoding,
    TransformerEncoder,
    TransformerEncoderLayer,
)

RNG = np.random.default_rng(17)


def assert_bit_identical(layer, *arrays, **kwargs):
    """``layer.infer(x)`` equals the eval-mode forward's ``.data`` exactly."""
    layer.eval()
    expected = layer(*(Tensor(a) for a in arrays), **kwargs).data
    got = layer.infer(*arrays, **kwargs)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    return got


class TestLayerPins:
    @pytest.mark.parametrize("shape", [(5, 6), (3, 7, 6)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_linear(self, shape, bias):
        layer = Linear(6, 4, bias=bias, seed=0)
        assert_bit_identical(layer, RNG.normal(size=shape))

    @pytest.mark.parametrize("shape", [(5, 6), (3, 7, 6)])
    def test_layernorm(self, shape):
        layer = LayerNorm(6)
        layer.gamma.data = RNG.normal(size=6)
        layer.beta.data = RNG.normal(size=6)
        assert_bit_identical(layer, 3.0 * RNG.normal(size=shape) + 1.0)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_feedforward(self, dropout):
        layer = FeedForward(6, 12, 4, dropout=dropout, seed=1)
        assert_bit_identical(layer, RNG.normal(size=(3, 9, 6)))

    def test_positional_encoding(self):
        layer = PositionalEncoding(8, max_len=32, dropout=0.2, seed=2)
        assert_bit_identical(layer, RNG.normal(size=(2, 11, 8)))

    def test_positional_encoding_rejects_long_sequence(self):
        layer = PositionalEncoding(8, max_len=4)
        with pytest.raises(ValueError, match="exceeds positional table"):
            layer.infer(RNG.normal(size=(1, 5, 8)))

    def test_attention_3d(self):
        layer = MultiHeadAttention(8, 2, dropout=0.2, seed=3)
        q, k, v = (RNG.normal(size=(3, 5, 8)) for _ in range(3))
        assert_bit_identical(layer, q, k, v)

    def test_attention_2d_pooled(self):
        layer = MultiHeadAttention(8, 4, seed=4)
        x = RNG.normal(size=(6, 8))
        out = assert_bit_identical(layer, x, x, x)
        assert out.shape == (6, 8)

    @pytest.mark.parametrize("mask_shape", [(5, 5), (3, 5), (3, 5, 5)])
    def test_attention_masked(self, mask_shape):
        layer = MultiHeadAttention(8, 2, seed=5)
        x = RNG.normal(size=(3, 5, 8))
        mask = RNG.random(mask_shape) < 0.3
        mask[..., 0] = False  # every query keeps at least one key
        assert_bit_identical(layer, x, x, x, mask=mask)

    def test_attention_records_last_weights(self):
        layer = MultiHeadAttention(8, 2, seed=6)
        x = RNG.normal(size=(2, 7, 8))
        layer.eval()
        layer(Tensor(x), Tensor(x), Tensor(x))
        expected = layer.last_weights
        layer.last_weights = None
        layer.infer(x, x, x)
        assert np.array_equal(layer.last_weights, expected)

    def test_encoder_layer(self):
        layer = TransformerEncoderLayer(8, 2, 16, dropout=0.1, seed=7)
        assert_bit_identical(layer, RNG.normal(size=(2, 9, 8)))

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_encoder(self, num_layers):
        enc = TransformerEncoder(8, 2, 16, num_layers, dropout=0.1, seed=8)
        x = RNG.normal(size=(3, 6, 8))
        assert_bit_identical(enc, x)
        maps = [m.copy() for m in enc.attention_maps()]
        enc.infer(x)
        for got, want in zip(enc.attention_maps(), maps):
            assert np.array_equal(got, want)


class TestInferLeavesModeAlone:
    def test_train_mode_is_kept_and_dropout_skipped(self):
        enc = TransformerEncoder(8, 2, 16, 2, dropout=0.5, seed=9)
        x = RNG.normal(size=(2, 6, 8))
        enc.train()
        state = [
            m._rng.bit_generator.state for m in enc.modules() if hasattr(m, "_rng")
        ]
        got = enc.infer(x)
        assert all(m.training for m in enc.modules())
        # Dropout drew nothing: its generators are untouched.
        assert state == [
            m._rng.bit_generator.state for m in enc.modules() if hasattr(m, "_rng")
        ]
        enc.eval()
        assert np.array_equal(got, enc(Tensor(x)).data)

    def test_eval_mode_is_kept(self):
        layer = FeedForward(4, 8, seed=0)
        layer.eval()
        layer.infer(RNG.normal(size=(2, 4)))
        assert not any(m.training for m in layer.modules())
