"""Bit-identity of the batched multipath-factor layers.

The stacked-IFFT multipath pipeline (``dominant_tap_power_batch`` and the
batch layers above it) is a pure optimisation: for any input it must
reproduce the historical scalar implementations *to the bit*.  The references
here are inlined copies of the pre-change code (not calls into the library),
so a regression in the shared layers cannot mask itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import HumanBody, Point
from repro.channel.constants import subcarrier_frequencies
from repro.channel.ofdm import dominant_tap_power_batch
from repro.core.multipath_factor import (
    los_power_per_subcarrier_batch,
    multipath_factor_batch,
    multipath_factor_trace,
)
from repro.csi.collector import PacketCollector
from repro.csi.trace import CSITrace
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases
from tests.pins import TWO_CASE_DEFAULT_CAMPAIGN_SHA256, scores_sha256


def random_csi(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# --------------------------------------------------------------------------- #
# inlined scalar references (the pre-change implementations)
# --------------------------------------------------------------------------- #
def reference_dominant_tap_power(cfr_row: np.ndarray) -> float:
    impulse = np.fft.ifft(cfr_row)
    early = np.abs(impulse[: max(3, cfr_row.size // 8)])
    return float(np.max(early) ** 2)


def reference_los_power(cfr_row: np.ndarray) -> np.ndarray:
    freqs = subcarrier_frequencies()
    total_los_power = reference_dominant_tap_power(cfr_row)
    inverse_f2 = freqs**-2.0
    weights = inverse_f2 / inverse_f2.sum()
    return weights * total_los_power


def reference_multipath_factor(matrix: np.ndarray) -> np.ndarray:
    factors = np.empty(matrix.shape, dtype=float)
    for antenna in range(matrix.shape[0]):
        row = matrix[antenna]
        los_power = reference_los_power(row)
        total_power = np.abs(row) ** 2
        factors[antenna] = los_power / np.maximum(total_power, 1e-30)
    return factors


def reference_multipath_factor_trace(csi: np.ndarray) -> np.ndarray:
    factors = np.empty(csi.shape, dtype=float)
    for p in range(csi.shape[0]):
        factors[p] = reference_multipath_factor(csi[p])
    return factors


# --------------------------------------------------------------------------- #
# FFT pipeline parity
# --------------------------------------------------------------------------- #
class TestDominantTapPowerBatch:
    @pytest.mark.parametrize("rows", [1, 7, 75, 450])
    def test_matches_scalar_rows(self, rng, rows):
        stack = random_csi(rng, rows, 30)
        got = dominant_tap_power_batch(stack)
        expected = np.array([reference_dominant_tap_power(row) for row in stack])
        assert np.array_equal(got, expected)

    def test_short_rows_use_minimum_window(self, rng):
        stack = random_csi(rng, 5, 8)
        got = dominant_tap_power_batch(stack)
        expected = np.array([reference_dominant_tap_power(row) for row in stack])
        assert np.array_equal(got, expected)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            dominant_tap_power_batch(random_csi(rng, 30))


class TestLosPowerBatch:
    def test_matches_scalar_default_grid(self, rng):
        stack = random_csi(rng, 40, 30)
        got = los_power_per_subcarrier_batch(stack)
        expected = np.stack([reference_los_power(row) for row in stack])
        assert np.array_equal(got, expected)

    def test_frequency_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            los_power_per_subcarrier_batch(random_csi(rng, 4, 29))

    def test_default_grid_rejects_wrong_subcarrier_count(self, rng):
        """Rows not matching the default 30-subcarrier grid fail loudly.

        The historical scalar path raised here; the batch layer must not
        silently broadcast a 64-subcarrier row against the 30-wide weights.
        """
        with pytest.raises(ValueError, match="does not match csi shape"):
            los_power_per_subcarrier_batch(np.ones((1, 64), dtype=complex))
        with pytest.raises(ValueError, match="does not match csi shape"):
            multipath_factor_batch(np.ones((3, 64), dtype=complex))


class TestMultipathFactorBatch:
    @pytest.mark.parametrize("antennas", [1, 2, 3, 4])
    def test_trace_matches_scalar_loop(self, rng, antennas):
        csi = random_csi(rng, 25, antennas, 30)
        trace = CSITrace(csi=csi)
        got = multipath_factor_trace(trace)
        assert np.array_equal(got, reference_multipath_factor_trace(csi))

    def test_single_packet_matches_scalar(self, rng):
        matrix = random_csi(rng, 3, 30)
        assert np.array_equal(
            multipath_factor_batch(matrix), reference_multipath_factor(matrix)
        )

    def test_batch_accepts_any_leading_shape(self, rng):
        csi = random_csi(rng, 4, 2, 30)
        flat = multipath_factor_batch(csi.reshape(-1, 30))
        assert np.array_equal(multipath_factor_batch(csi), flat.reshape(csi.shape))

    def test_batch_of_noncontiguous_rows(self, rng):
        csi = random_csi(rng, 8, 3, 30)
        view = csi[::2]
        assert np.array_equal(
            multipath_factor_batch(view), reference_multipath_factor_trace(view)
        )

    def test_collected_trace_parity(self, simulator):
        collector = PacketCollector(simulator, rng=np.random.default_rng(123))
        trace = collector.collect(
            HumanBody(position=Point(4.0, 3.2)), num_packets=20
        )
        got = multipath_factor_trace(trace)
        assert np.array_equal(got, reference_multipath_factor_trace(trace.csi))


# --------------------------------------------------------------------------- #
# campaign sha256 pin
# --------------------------------------------------------------------------- #
def test_two_case_default_campaign_scores_unchanged():
    """sha256 over all window scores of a 2-case default-parameter campaign.

    Together with the full-campaign pin in ``test_scene_parity.py`` this
    asserts the batch pipeline does not move a single campaign float.
    Platform-sensitive by design (libm/FFT bit patterns of the reference
    container).
    """
    result = run_evaluation(
        EvaluationConfig(seed=2015), cases=evaluation_cases()[:2]
    )
    assert scores_sha256(result) == TWO_CASE_DEFAULT_CAMPAIGN_SHA256
