"""Tests for subcarrier weighting (Eq. 12-15) and path weighting (Eq. 17)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.aoa.bartlett import BartlettEstimator
from repro.backend import use_backend
from repro.channel import ImpairmentModel
from repro.channel.antenna import UniformLinearArray
from repro.core.detector import SubcarrierPathWeightingDetector
from repro.core.multipath_factor import multipath_factor_trace
from repro.core.path_weighting import PATH_WEIGHT_FLOOR, path_weights
from repro.core.subcarrier_weighting import SubcarrierWeighting
from repro.csi import PacketCollector


class TestSubcarrierWeighting:
    def test_weights_normalised_per_antenna(self, occupied_trace):
        weights = SubcarrierWeighting().stacked_weights(occupied_trace.csi[None])[0]
        sums = weights.sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_weights_follow_mean_factor_ordering(self, occupied_trace):
        weighting = SubcarrierWeighting(use_stability_ratio=False)
        weights = weighting.stacked_weights(occupied_trace.csi[None])[0]
        mean_factor = np.abs(multipath_factor_trace(occupied_trace).mean(axis=0)[0])
        assert np.argmax(weights[0]) == np.argmax(mean_factor)

    def test_stability_ratio_changes_weights(self, occupied_trace):
        with_ratio = SubcarrierWeighting(use_stability_ratio=True).stacked_weights(
            occupied_trace.csi[None]
        )[0]
        without_ratio = SubcarrierWeighting(use_stability_ratio=False).stacked_weights(
            occupied_trace.csi[None]
        )[0]
        assert not np.allclose(with_ratio, without_ratio)

    def test_per_packet_weights_eq12(self, occupied_trace):
        """Eq. 12 is the one-packet window without the stability ratio:
        weights proportional to that packet's multipath factors."""
        weighting = SubcarrierWeighting(use_stability_ratio=False)
        weights = weighting.stacked_weights(occupied_trace[:1].csi[None])[0]
        assert weights.shape == (3, 30)
        assert np.allclose(weights.sum(axis=1), 1.0)
        factors = multipath_factor_trace(occupied_trace[:1])[0]
        assert np.allclose(weights, factors / factors.sum(axis=1, keepdims=True))

    def test_factor_shape_validation(self):
        with pytest.raises(ValueError):
            SubcarrierWeighting().stacked_weights(np.ones((5, 30)))
        # The factors of Eq. 10 need the 30-subcarrier grid.
        with pytest.raises(ValueError, match="does not match csi shape"):
            SubcarrierWeighting().stacked_weights(np.ones((1, 5, 3, 29), dtype=complex))

    def test_zero_factors_fall_back_to_uniform(self):
        # A dead radio: every multipath factor is zero.
        weights = SubcarrierWeighting().stacked_weights(np.zeros((2, 4, 1, 30), dtype=complex))
        assert np.array_equal(weights, np.full((2, 1, 30), 1.0 / 30))

    def test_sensitive_subcarriers_weighted_up(self, simulator, human):
        """Weights concentrate on the subcarriers whose dB change is largest."""
        noiseless = ImpairmentModel().noiseless()
        burst_empty = PacketCollector(simulator, impairments=noiseless, seed=1).collect(
            None, num_packets=10
        ).csi
        burst_human = PacketCollector(simulator, impairments=noiseless, seed=2).collect(
            human, num_packets=10
        ).csi
        weighting = SubcarrierWeighting(use_stability_ratio=False)
        weights = weighting.stacked_weights(burst_human[None])[0]
        delta = 10 * np.log10(
            np.abs(burst_human).mean(axis=0) ** 2 / np.abs(burst_empty).mean(axis=0) ** 2
        )
        antenna = 0
        top_weighted = set(np.argsort(weights[antenna])[::-1][:10])
        top_changed = set(np.argsort(np.abs(delta[antenna]))[::-1][:10])
        # Substantial overlap between the most-weighted and most-changed subcarriers.
        assert len(top_weighted & top_changed) >= 4


ANGLES = np.linspace(-90.0, 90.0, 181)


def _gaussian_spectrum(center: float, width: float = 8.0, floor: float = 0.02) -> np.ndarray:
    return floor + np.exp(-0.5 * ((ANGLES - center) / width) ** 2)


def _weights(static: np.ndarray, gate: tuple[float, float] = (-60.0, 60.0)) -> np.ndarray:
    """Eq. 17 weights of one static spectrum: the batch of one."""
    return path_weights(static[None], ANGLES, [gate[0]], [gate[1]])[0]


class TestPathWeighting:
    def test_gate_validation(self):
        """A gate that holds no angle of the grid could never be scored, so
        the combined detector rejects it at construction."""
        estimator = BartlettEstimator(array=UniformLinearArray())
        for low, high in [(10, -10), (10.2, 10.8), (-100.0, -95.0), (np.nan, 60.0)]:
            with pytest.raises(ValueError, match="holds no angle") as excinfo:
                SubcarrierPathWeightingDetector(
                    estimator, theta_min_deg=low, theta_max_deg=high
                )
            assert "\n" not in str(excinfo.value)
        # One grid angle inside the gate is enough.
        SubcarrierPathWeightingDetector(estimator, theta_min_deg=9.5, theta_max_deg=10.5)

    def test_weights_zero_outside_gate(self):
        weights = _weights(_gaussian_spectrum(0.0))
        assert np.all(weights[np.abs(ANGLES) >= 60.0] == 0.0)
        assert np.all(weights[np.abs(ANGLES) < 60.0] > 0.0)

    def test_weights_sum_to_one(self):
        assert _weights(_gaussian_spectrum(10.0)).sum() == pytest.approx(1.0)

    def test_weights_inverse_to_static_spectrum(self):
        weights = _weights(_gaussian_spectrum(0.0))
        los_weight = weights[np.argmin(np.abs(ANGLES))]
        off_weight = weights[np.argmin(np.abs(ANGLES - 45.0))]
        assert off_weight > los_weight

    def test_floor_caps_amplification(self):
        weights = _weights(_gaussian_spectrum(0.0))
        nonzero = weights[weights > 0]
        assert nonzero.max() / nonzero.min() <= 1.0 / PATH_WEIGHT_FLOOR + 1e-6

    def test_apply_flattens_static_spectrum_inside_gate(self):
        static = _gaussian_spectrum(0.0, floor=0.1)
        weighted = _weights(static) * static
        inside = weighted[np.abs(ANGLES) < 60.0]
        assert inside.std() / inside.mean() < 0.05

    def test_weighted_distance_detects_new_path(self):
        static = _gaussian_spectrum(0.0)
        weights = _weights(static)
        new_path = static + 0.3 * np.exp(-0.5 * ((ANGLES - 40.0) / 6.0) ** 2)
        assert np.linalg.norm(weights * (new_path - static)) > 0.05 * np.linalg.norm(
            weights * static
        )

    def test_change_outside_gate_ignored(self):
        static = _gaussian_spectrum(0.0)
        outside = static + 1.0 * np.exp(-0.5 * ((ANGLES - 80.0) / 3.0) ** 2)
        distance = np.linalg.norm(_weights(static) * (outside - static))
        assert distance == pytest.approx(0.0, abs=1e-9)

    def test_uniform_path_weighting_open_gate(self):
        assert np.all(_weights(_gaussian_spectrum(0.0), (-90.0001, 90.0001)) > 0.0)

    def test_static_spectra_checked(self):
        with pytest.raises(ValueError, match="non-positive"):
            _weights(np.zeros(181))
        with pytest.raises(ValueError, match="angle grid"):
            path_weights(np.ones((1, 180)), ANGLES, [-60.0], [60.0])


class TestBatchOfOne:
    """Each stage's single-window entry point is its batch of one: a row of
    any stack, at any size and position, equals that row computed alone."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        backend=st.sampled_from(("exact", "fast")),
        use_stability_ratio=st.booleans(),
        stack=st.integers(min_value=1, max_value=24),
        packets=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_window_weights_are_their_row_of_the_stack(
        self, backend, use_stability_ratio, stack, packets, seed
    ):
        rng = np.random.default_rng(seed)
        shape = (stack, packets, 3, 30)
        scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(stack, 1, 1, 1))
        csi = scales * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        weighting = SubcarrierWeighting(use_stability_ratio=use_stability_ratio)
        with use_backend(backend):
            stacked = weighting.stacked_weights(csi)
            for position in range(stack):
                alone = weighting.stacked_weights(csi[position][None])[0]
                assert np.array_equal(alone, stacked[position])

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        stack=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_path_weights_are_their_row_of_the_stack(self, stack, seed):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(stack, 1))
        static = scales * (rng.random((stack, ANGLES.size)) + 1e-3)
        # Mixed gates: wide, narrow, off-centre, and some holding no angle.
        low = rng.uniform(-100.0, 80.0, size=stack)
        high = low + rng.uniform(0.1, 150.0, size=stack)
        stacked = path_weights(static, ANGLES, low, high)
        for n in range(stack):
            alone = path_weights(static[n : n + 1], ANGLES, low[n : n + 1], high[n : n + 1])
            assert np.array_equal(alone[0], stacked[n])
