"""Tests for the measurable multipath factor (paper Eq. 9-11) and its statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import Point
from repro.channel.constants import subcarrier_frequencies
from repro.channel.ofdm import dominant_tap_power_batch, synthesize_cfr
from repro.channel.rays import Path
from repro.core.multipath_factor import (
    exceeds_row_median,
    los_power_per_subcarrier_batch,
    multipath_factor_batch,
    multipath_factor_trace,
)
from repro.core.subcarrier_weighting import SubcarrierWeighting
from repro.csi import PacketCollector


def _los_only_cfr() -> np.ndarray:
    path = Path(vertices=(Point(0.0, 0.0), Point(4.0, 0.0)), kind="los")
    return synthesize_cfr([path])


def _two_path_cfr(gain: float = 0.95) -> np.ndarray:
    los = Path(vertices=(Point(0.0, 0.0), Point(4.0, 0.0)), kind="los")
    # A strong bounce with a few metres of excess length so the superposition
    # state rotates noticeably across the 20 MHz band.
    wall = Path(
        vertices=(Point(0.0, 0.0), Point(2.0, 4.0), Point(4.0, 0.0)),
        kind="wall",
        amplitude_gain=gain,
    )
    return synthesize_cfr([los, wall])


class TestLosPowerApportionment:
    def test_sums_to_dominant_tap_power(self):
        cfr = _los_only_cfr()
        los_power = los_power_per_subcarrier_batch(cfr)[0]
        assert los_power.sum() == pytest.approx(dominant_tap_power_batch(cfr)[0])

    def test_lower_frequencies_get_more_power(self):
        """Eq. 10: apportionment follows f^-2, so lower subcarriers get more."""
        los_power = los_power_per_subcarrier_batch(_los_only_cfr())[0]
        freqs = subcarrier_frequencies()
        order = np.argsort(freqs)
        assert los_power[order][0] > los_power[order][-1]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            los_power_per_subcarrier_batch(np.zeros((2, 3, 30), dtype=complex))
        with pytest.raises(ValueError):
            los_power_per_subcarrier_batch(np.zeros((1, 29), dtype=complex))


class TestMultipathFactor:
    def test_output_shape_matrix_and_frame(self):
        cfr = _two_path_cfr()
        assert multipath_factor_batch(cfr).shape == (1, 30)
        assert multipath_factor_batch(np.vstack([cfr, cfr, cfr])).shape == (3, 30)

    def test_factors_positive(self):
        factors = multipath_factor_batch(_two_path_cfr())
        assert np.all(factors > 0)

    def test_los_only_channel_is_nearly_flat(self):
        """With a single path, every subcarrier has the same superposition state."""
        factors = multipath_factor_batch(_los_only_cfr())[0]
        assert factors.std() / factors.mean() < 0.1

    def test_multipath_channel_varies_across_subcarriers(self):
        factors = multipath_factor_batch(_two_path_cfr())[0]
        assert factors.std() / factors.mean() > 0.2

    def test_faded_subcarriers_have_larger_factor(self):
        """mu is largest where the superposition is destructive (weak |H|)."""
        cfr = _two_path_cfr()[0]
        factors = multipath_factor_batch(cfr[None, :])[0]
        power = np.abs(cfr) ** 2
        assert factors[np.argmin(power)] > factors[np.argmax(power)]

    def test_trace_computation_matches_per_packet(self, empty_trace):
        factors = multipath_factor_trace(empty_trace)
        assert factors.shape == empty_trace.csi.shape
        single = multipath_factor_batch(empty_trace.csi[0])
        assert np.allclose(factors[0], single)

    def test_scale_invariance(self):
        """mu is a power ratio, so a global gain leaves it unchanged."""
        cfr = _two_path_cfr()
        assert np.allclose(multipath_factor_batch(cfr), multipath_factor_batch(3.0 * cfr))


def stability_ratio(factors: np.ndarray) -> np.ndarray:
    """``r_k`` of Eq. 13–14 as the stacked weights take it: the fraction of
    packets whose factor exceeds that packet's median."""
    return exceeds_row_median(factors).mean(axis=0)


class TestTemporalStatistics:
    def _factors(self, num_packets: int = 40) -> np.ndarray:
        rng = np.random.default_rng(3)
        base = multipath_factor_batch(_two_path_cfr())
        noise = rng.lognormal(mean=0.0, sigma=0.1, size=(num_packets, *base.shape))
        return base[None, :, :] * noise

    def test_temporal_mean_shape(self):
        """Without the stability ratio the weights are the temporal mean
        factor ``mu_bar_k`` of the window, normalised per antenna."""
        rng = np.random.default_rng(4)
        csi = rng.normal(size=(1, 12, 2, 30)) + 1j * rng.normal(size=(1, 12, 2, 30))
        weights = SubcarrierWeighting(use_stability_ratio=False).stacked_weights(csi)
        assert weights.shape == (1, 2, 30)
        mean_factor = multipath_factor_batch(csi).mean(axis=1)
        expected = mean_factor / mean_factor.sum(axis=2, keepdims=True)
        assert np.allclose(weights, expected, rtol=1e-12)

    def test_stability_ratio_bounds(self):
        ratios = stability_ratio(self._factors())
        assert ratios.shape == (1, 30)
        assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0)

    def test_stable_subcarrier_gets_high_ratio(self):
        factors = np.ones((20, 1, 30))
        factors[:, 0, 5] = 10.0  # consistently above the per-packet median
        ratios = stability_ratio(factors)
        assert ratios[0, 5] == pytest.approx(1.0)

    def test_unstable_subcarrier_gets_partial_ratio(self):
        factors = np.ones((20, 1, 30))
        factors[::2, 0, 7] = 10.0  # above the median only half the time
        ratios = stability_ratio(factors)
        assert 0.3 < ratios[0, 7] < 0.7

    def test_shape_validation(self):
        """The Eq. 13–15 statistics reduce a (windows, packets, antennas,
        subcarriers) stack; anything else is rejected."""
        with pytest.raises(ValueError, match="csi_stack must have shape"):
            SubcarrierWeighting().stacked_weights(np.ones((5, 3, 30), dtype=complex))


class TestPhysicalBehaviour:
    def test_human_presence_changes_factors(self, simulator, human):
        empty = multipath_factor_batch(simulator.clean_cfr(None))
        occupied = multipath_factor_batch(simulator.clean_cfr(human))
        assert not np.allclose(empty, occupied)

    def test_measurable_from_single_noisy_packet(self, simulator):
        packet = PacketCollector(simulator, seed=11).collect(None, num_packets=1).csi[0]
        factors = multipath_factor_batch(packet)
        assert np.all(np.isfinite(factors)) and np.all(factors > 0)
