"""Tests for the fade-level comparison metric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.propagation import PropagationModel
from repro.core.fade_level import fade_level_db, is_anti_fade, predicted_rss_db


class TestFadeLevel:
    def test_predicted_rss_decreases_with_distance(self):
        assert predicted_rss_db(2.0) > predicted_rss_db(5.0)

    def test_predicted_rss_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            predicted_rss_db(0.0)

    def test_fade_level_zero_when_measured_matches_prediction(self):
        model = PropagationModel()
        amp = model.amplitude(3.0, 2.462e9)
        csi = np.full((3, 30), amp, dtype=complex)
        level = fade_level_db(csi, 3.0, propagation=model)
        assert level == pytest.approx(0.0, abs=0.2)

    def test_fade_level_sign(self):
        model = PropagationModel()
        amp = model.amplitude(3.0, 2.462e9)
        strong = np.full((3, 30), 2 * amp, dtype=complex)
        weak = np.full((3, 30), 0.5 * amp, dtype=complex)
        assert fade_level_db(strong, 3.0, propagation=model) > 0
        assert fade_level_db(weak, 3.0, propagation=model) < 0

    def test_fade_level_accepts_trace(self, empty_trace, link):
        level = fade_level_db(empty_trace, link.distance())
        assert np.isfinite(level)

    def test_is_anti_fade(self):
        assert is_anti_fade(1.0)
        assert not is_anti_fade(-0.5)

