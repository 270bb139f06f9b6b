"""Grouped-config engine API: :class:`DriftConfig` and
:class:`PredictionDriftConfig` are the only spelling of the drift and
prediction-drift knobs; the retired flat keyword arguments are unknown
keywords, and the groups validate at construction.
"""

import warnings

import pytest

from repro.batching.config import BatchConfig
from repro.serving import DriftConfig, PredictionDriftConfig, ServingEngine

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)


class TestGroupedFlatEquivalence:
    """The grouped configs are the only spelling of the drift knobs."""

    def test_grouped_spelling_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ServingEngine(CONFIG, drift=DriftConfig(window=64),
                          prediction=PredictionDriftConfig(baseline_error=0.1))


class TestShimErrors:
    def test_unknown_kwarg_is_type_error(self):
        with pytest.raises(TypeError, match="drift_widnow"):
            ServingEngine(CONFIG, drift_widnow=64)
        # The retired flat names (``drift_window=`` and the other eight)
        # are ordinary unknown keyword arguments.
        with pytest.raises(TypeError, match="drift_window"):
            ServingEngine(CONFIG, drift_window=64)


class TestConfigValidation:
    def test_drift_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="window"):
            DriftConfig(window=0)
        with pytest.raises(ValueError, match="check_every"):
            DriftConfig(check_every=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            DriftConfig(cooldown_s=-1.0)
        with pytest.raises(ValueError, match="retrain_delay_s"):
            DriftConfig(retrain_delay_s=-0.5)

    def test_prediction_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="baseline_error"):
            PredictionDriftConfig(baseline_error=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            PredictionDriftConfig(baseline_error=0.1, tolerance=0.0)
        with pytest.raises(ValueError, match="min_samples"):
            PredictionDriftConfig(baseline_error=0.1, min_samples=0)

    def test_configs_are_frozen(self):
        cfg = DriftConfig(window=64)
        with pytest.raises(AttributeError):
            cfg.window = 32
