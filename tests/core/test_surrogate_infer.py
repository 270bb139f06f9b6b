"""The surrogate's graph-free inference path, pinned to its Tensor spec.

``predict``, ``predict_grid`` and ``attention_scores`` run on ``infer``
only. They must equal the Tensor-based bodies kept in ``_spec.py``
exactly (no tolerance), build no autograd tape, and leave the train/eval
mode alone. Training's validation pass is pinned the same way: its loss
picks the best epoch, so a changed bit would change the trained weights.
"""

import numpy as np
import pytest

from repro.arrival.map_process import poisson_map
from repro.batching.config import BatchConfig, config_grid
from repro.core import training
from repro.core.controller import DeepBATController
from repro.core.dataset import generate_dataset
from repro.core.surrogate import DeepBATSurrogate
from repro.core.training import TrainConfig, train_surrogate
from repro.nn.tensor import Tensor
from repro.serverless.platform import ServerlessPlatform
from repro.serving import ServingEngine, WarmPoolConfig
from tests.core._spec import (
    spec_attention_scores,
    spec_predict,
    spec_predict_grid,
    spec_validate,
)

RNG = np.random.default_rng(23)
GRID = config_grid(memories=(512.0, 1024.0), batch_sizes=(1, 4, 8),
                   timeouts=(0.0, 0.05))


def model(num_layers=2, dropout=0.0, seq_len=16):
    return DeepBATSurrogate(seq_len=seq_len, d_model=8, num_heads=2,
                            ff_hidden=16, num_layers=num_layers,
                            dropout=dropout, seed=4)


MODELS = [
    pytest.param(dict(num_layers=1), id="1-layer"),
    pytest.param(dict(num_layers=2), id="2-layer"),
    pytest.param(dict(num_layers=2, dropout=0.25), id="dropout"),
]


class TestPinnedToSpec:
    @pytest.mark.parametrize("kw", MODELS)
    def test_infer_equals_eval_forward(self, kw):
        m = model(**kw)
        seq, feats = RNG.normal(size=(5, 16)), RNG.normal(size=(5, 3))
        m.eval()
        assert np.array_equal(m.infer(seq, feats),
                              m(Tensor(seq), Tensor(feats)).data)

    @pytest.mark.parametrize("kw", MODELS)
    def test_predict_grid(self, kw):
        m = model(**kw)
        seq, feats = RNG.normal(size=16), RNG.normal(size=(13, 3))
        m.train()  # inference must not depend on (or flip) the mode
        got = m.predict_grid(seq, feats)
        assert m.training
        assert np.array_equal(got, spec_predict_grid(m, seq, feats))

    @pytest.mark.parametrize("kw", MODELS)
    @pytest.mark.parametrize("rows", [(1, 1), (1, 9), (4, 4)])
    def test_predict(self, kw, rows):
        m = model(**kw)
        seq = RNG.normal(size=(rows[0], 16))
        feats = RNG.normal(size=(rows[1], 3))
        m.train()
        got = m.predict(seq, feats)
        assert m.training
        assert np.array_equal(got, spec_predict(m, seq, feats))

    @pytest.mark.parametrize("kw", MODELS)
    @pytest.mark.parametrize("shape", [(16,), (3, 16)])
    def test_attention_scores(self, kw, shape):
        m = model(**kw)
        seq = RNG.exponential(size=shape)
        got = m.attention_scores(seq)
        assert np.array_equal(got, spec_attention_scores(m, seq))

    def test_attention_scores_accepts_lists(self):
        # Regression: a list window used to crash on ``sequence.ndim``,
        # although predict() has always accepted lists.
        m = model()
        seq = RNG.exponential(size=16)
        got = m.attention_scores(seq.tolist())
        assert got.shape == (16,)
        assert np.array_equal(got, m.attention_scores(seq))
        batched = m.attention_scores(RNG.exponential(size=(2, 16)).tolist())
        assert batched.shape == (2, 16)

    def test_infer_validates_shapes(self):
        m = model()
        with pytest.raises(ValueError, match="sequence must be"):
            m.infer(RNG.normal(size=(2, 9)), RNG.normal(size=(2, 3)))
        with pytest.raises(ValueError, match="features must be"):
            m.infer(RNG.normal(size=(2, 16)), RNG.normal(size=(2, 5)))


class TestValidationPass:
    def test_validation_loss_and_weights_match_tensor_spec(self, monkeypatch):
        hist = np.diff(poisson_map(200.0).sample(duration=30.0, seed=0))
        ds = generate_dataset(hist, n_samples=40, seq_len=16, configs=GRID,
                              seed=0)
        cfg = TrainConfig(epochs=3, batch_size=16, patience=None, seed=0)
        graph_free = train_surrogate(ds, model=model(dropout=0.1), config=cfg)
        monkeypatch.setattr(training, "_validate", spec_validate)
        spec = train_surrogate(ds, model=model(dropout=0.1), config=cfg)
        assert graph_free.history.val_loss == spec.history.val_loss
        assert graph_free.history.val_mape == spec.history.val_mape
        assert graph_free.history.train_loss == spec.history.train_loss
        theirs = spec.model.state_dict()
        for name, value in graph_free.model.state_dict().items():
            assert np.array_equal(value, theirs[name]), name
        assert not graph_free.model.training  # handed back in eval mode


@pytest.fixture(scope="module")
def trained_tiny():
    hist = np.diff(poisson_map(200.0).sample(duration=60.0, seed=0))
    ds = generate_dataset(hist, n_samples=60, seq_len=16, configs=GRID, seed=0)
    return train_surrogate(ds, model=model(num_layers=1),
                           config=TrainConfig(epochs=3, patience=None, seed=0))


@pytest.fixture
def no_tape(monkeypatch):
    """Make any autograd node construction fail loudly (and count it)."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("autograd tape built on the inference path")

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(refuse))
    return calls


class TestDecisionPathIsGraphFree:
    def test_choose_builds_no_tape(self, trained_tiny, no_tape):
        ctrl = DeepBATController(trained_tiny, configs=GRID)
        hist = np.diff(poisson_map(200.0).sample(duration=5.0, seed=1))
        decision = ctrl.choose(hist, slo=0.1)
        assert not decision.degraded
        assert decision.config in GRID
        assert no_tape == []

    def test_serving_run_builds_no_tape(self, trained_tiny, no_tape):
        ctrl = DeepBATController(trained_tiny, configs=GRID)
        ts = np.cumsum(RNG.exponential(1.0 / 200.0, size=1500))
        log = ServingEngine(
            BatchConfig(memory_mb=1024.0, batch_size=4, timeout=0.05),
            platform=ServerlessPlatform(seed=0), chooser=ctrl, slo=0.1,
            pool=WarmPoolConfig(keep_alive_s=5.0, max_containers=16),
            decision_interval_s=0.5, min_history=16,
        ).run(ts, history=np.linspace(-0.5, -0.01, 64))
        # A raising chooser would be swallowed as a decision error (and a
        # later one degraded to the last good decision), so count both.
        assert len(log.decisions) >= 10
        assert not any(d.degraded for d in log.decisions)
        assert no_tape == []
