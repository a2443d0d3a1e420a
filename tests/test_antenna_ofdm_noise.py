"""Tests for the antenna array, OFDM synthesis and impairment models."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.antenna import UniformLinearArray
from repro.channel.constants import (
    CHANNEL_11_CENTER_HZ,
    INTEL5300_SUBCARRIER_INDICES,
    center_wavelength,
    subcarrier_frequencies,
)
from repro.channel.geometry import Point
from repro.channel.noise import ImpairmentModel
from repro.channel.ofdm import dominant_tap_power_batch, synthesize_cfr
from repro.channel.propagation import PropagationModel
from repro.channel.rays import Path
from repro.utils.rng import ensure_rng


class TestUniformLinearArray:
    def test_default_is_half_wavelength_triple(self):
        array = UniformLinearArray()
        assert array.num_elements == 3
        assert array.spacing == pytest.approx(center_wavelength() / 2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UniformLinearArray(num_elements=0)
        with pytest.raises(ValueError):
            UniformLinearArray(spacing=0.0)
        with pytest.raises(ValueError):
            UniformLinearArray(broadside=Point(0.0, 0.0))

    def test_element_positions_spacing(self):
        array = UniformLinearArray(num_elements=3, spacing=0.06, reference=Point(1.0, 1.0))
        positions = array.element_positions()
        assert len(positions) == 3
        assert positions[0].distance_to(positions[1]) == pytest.approx(0.06)
        assert positions[1].distance_to(positions[2]) == pytest.approx(0.06)

    def test_oriented_towards_points_broadside_at_target(self):
        array = UniformLinearArray(reference=Point(0.0, 0.0)).oriented_towards(Point(0.0, 5.0))
        assert array.broadside.x == pytest.approx(0.0)
        assert array.broadside.y == pytest.approx(1.0)

    def test_oriented_towards_same_point_rejected(self):
        array = UniformLinearArray(reference=Point(1.0, 1.0))
        with pytest.raises(ValueError):
            array.oriented_towards(Point(1.0, 1.0))

    def test_steering_vector_broadside_is_uniform(self):
        array = UniformLinearArray()
        vec = array.steering_vector(0.0, CHANNEL_11_CENTER_HZ)
        assert np.allclose(vec, 1.0)

    def test_steering_vector_half_wavelength_endfire(self):
        array = UniformLinearArray()
        vec = array.steering_vector(np.pi / 2, CHANNEL_11_CENTER_HZ)
        # Adjacent elements differ by pi at half-wavelength spacing, endfire.
        phase_diff = np.angle(vec[1] * np.conj(vec[0]))
        assert abs(abs(phase_diff) - np.pi) < 1e-2

    def test_steering_matrix_shape_and_consistency(self):
        array = UniformLinearArray()
        angles = np.radians([-30.0, 0.0, 45.0])
        matrix = array.steering_matrix(angles, CHANNEL_11_CENTER_HZ)
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix[:, 1], array.steering_vector(0.0, CHANNEL_11_CENTER_HZ))

    def test_unambiguous_range_half_wavelength(self):
        low, high = UniformLinearArray().unambiguous_angle_range_deg()
        assert low == pytest.approx(-90.0, abs=1.0)
        assert high == pytest.approx(90.0, abs=1.0)

    def test_unambiguous_range_shrinks_with_wider_spacing(self):
        wide = UniformLinearArray(spacing=center_wavelength())
        low, high = wide.unambiguous_angle_range_deg()
        assert high < 35.0


class TestSynthesizeCfr:
    def _los_path(self, length: float = 4.0) -> Path:
        return Path(vertices=(Point(0.0, 0.0), Point(length, 0.0)), kind="los")

    def test_single_path_amplitude_matches_model(self):
        path = self._los_path()
        model = PropagationModel()
        cfr = synthesize_cfr([path], propagation=model)
        freqs = subcarrier_frequencies()
        assert cfr.shape == (1, 30)
        assert np.allclose(np.abs(cfr[0]), model.amplitude(4.0, freqs))

    def test_array_output_shape(self):
        array = UniformLinearArray()
        cfr = synthesize_cfr([self._los_path()], array=array)
        assert cfr.shape == (3, 30)

    def test_broadside_path_identical_across_antennas(self):
        array = UniformLinearArray()
        cfr = synthesize_cfr([self._los_path().with_aoa(0.0)], array=array)
        assert np.allclose(cfr[0], cfr[1])
        assert np.allclose(cfr[1], cfr[2])

    def test_oblique_path_differs_across_antennas(self):
        array = UniformLinearArray()
        cfr = synthesize_cfr([self._los_path().with_aoa(np.radians(40.0))], array=array)
        assert not np.allclose(cfr[0], cfr[1])
        # Only phases differ, not amplitudes, for a single path.
        assert np.allclose(np.abs(cfr[0]), np.abs(cfr[1]))

    def test_two_paths_superpose(self):
        los = self._los_path()
        wall = Path(
            vertices=(Point(0.0, 0.0), Point(2.0, 2.0), Point(4.0, 0.0)),
            kind="wall",
            amplitude_gain=0.5,
        )
        combined = synthesize_cfr([los, wall])
        alone = synthesize_cfr([los])
        assert not np.allclose(np.abs(combined), np.abs(alone))

    def test_empty_frequency_grid_rejected(self):
        with pytest.raises(ValueError):
            synthesize_cfr([self._los_path()], frequencies=np.array([]))

    def test_dominant_tap_power_reflects_los_strength(self):
        strong = synthesize_cfr([self._los_path(2.0)])
        weak = synthesize_cfr([self._los_path(6.0)])
        powers = dominant_tap_power_batch(np.vstack([strong, weak]))
        assert powers[0] > powers[1]


INDICES = np.asarray(INTEL5300_SUBCARRIER_INDICES, dtype=float)


def _clean() -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))


def _impair(model: ImpairmentModel, cleans, candidates, seed) -> np.ndarray:
    """*model*'s kernel on a generator freshly built from *seed*."""
    cleans = np.asarray(cleans)
    if cleans.ndim == 2:
        cleans = cleans[None]
    return model.apply(cleans, candidates, INDICES, ensure_rng(seed))


NOISE_ONLY = dict(cfo_phase=False, sfo_slope_std=0.0, agc_std_db=0.0, antenna_phase_offsets=False)


class TestImpairmentModel:
    def test_noiseless_copy_is_identity(self):
        clean = _clean()
        noisy = _impair(ImpairmentModel().noiseless(), clean, [0, 0, 0, 0], seed=1)
        assert np.array_equal(noisy, np.broadcast_to(clean, (4, 3, 30)))

    def test_apply_changes_csi(self):
        clean = _clean()
        noisy = _impair(ImpairmentModel(snr_db=20.0), clean, [0], seed=1)
        assert not np.allclose(noisy[0], clean)

    def test_snr_controls_noise_level(self):
        clean = _clean()
        low = ImpairmentModel(snr_db=5.0, **NOISE_ONLY)
        high = ImpairmentModel(snr_db=40.0, **NOISE_ONLY)
        err_low = np.linalg.norm(_impair(low, clean, [0], seed=2)[0] - clean)
        err_high = np.linalg.norm(_impair(high, clean, [0], seed=2)[0] - clean)
        assert err_low > 5 * err_high

    def test_cfo_only_applies_common_phase(self):
        clean = _clean()
        model = ImpairmentModel(snr_db=np.inf, cfo_phase=True, sfo_slope_std=0.0,
                                agc_std_db=0.0, antenna_phase_offsets=False)
        noisy = _impair(model, clean, [0, 0], seed=3)
        ratio = noisy / clean[None]
        assert np.allclose(np.abs(ratio), 1.0)
        # One phase per packet, shared by every antenna and subcarrier.
        assert np.allclose(ratio, ratio[:, :1, :1])
        assert not np.isclose(ratio[0, 0, 0], ratio[1, 0, 0])

    def test_zero_power_candidate_gets_no_noise(self):
        cleans = np.stack([np.zeros((3, 30), dtype=complex), _clean()])
        noisy = _impair(ImpairmentModel(), cleans, [0, 1, 0, 1], seed=4)
        assert not noisy[[0, 2]].any()
        assert not np.allclose(noisy[[1, 3]], cleans[1])

    def test_shape_validation(self):
        model = ImpairmentModel()
        rng = ensure_rng(0)
        with pytest.raises(ValueError, match="cleans"):
            model.apply(np.zeros((3, 30), dtype=complex), [0], INDICES, rng)
        with pytest.raises(ValueError, match="subcarrier_indices"):
            model.apply(np.zeros((1, 3, 30), dtype=complex), [0], np.zeros(29), rng)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("snr_db", np.nan, "snr_db must be a finite number"),
            ("snr_db", -np.inf, "snr_db must be a finite number"),
            ("agc_std_db", -1.0, "agc_std_db must be >= 0"),
            ("agc_std_db", np.nan, "agc_std_db must be a finite number"),
            ("sfo_slope_std", -0.05, "sfo_slope_std must be >= 0"),
            ("sfo_slope_std", np.inf, "sfo_slope_std must be a finite number"),
            ("cfo_phase", "no", "cfo_phase must be true or false"),
            ("cfo_phase", 0, "cfo_phase must be true or false"),
            ("antenna_phase_offsets", 0.5, "antenna_phase_offsets must be true or false"),
            ("antenna_phase_offsets", "no", "antenna_phase_offsets must be true or false"),
        ],
    )
    def test_misread_values_rejected(self, field, value, message):
        # Each used to switch its impairment off silently, or (a truthy
        # "no" or 0.5) keep it on; an infinite slope spread yielded NaN CSI.
        # snr_db=inf stays the noiseless switch.
        with pytest.raises(ValueError, match=message):
            ImpairmentModel(**{field: value})

    def test_deterministic_given_seed(self):
        clean = _clean()
        model = ImpairmentModel()
        a = _impair(model, clean, [0] * 6, seed=77)
        b = _impair(model, clean, [0] * 6, seed=77)
        assert a.tobytes() == b.tobytes()
        assert not np.allclose(a, _impair(model, clean, [0] * 6, seed=78))


class TestApplyBatch:
    def test_broadcasts_static_scene(self):
        batch = _impair(ImpairmentModel(), _clean(), np.zeros(8, dtype=int), seed=1)
        assert batch.shape == (8, 3, 30)
        # Per-packet draws differ, so no two packets are identical.
        assert not np.allclose(batch[0], batch[1])

    def test_accepts_per_packet_stack(self):
        stack = np.stack([_clean(), 2.0 * _clean()])
        batch = _impair(ImpairmentModel(), stack, [0, 1], seed=1)
        assert batch.shape == (2, 3, 30)

    def test_noiseless_batch_is_identity(self):
        stack = np.stack([_clean(), 2.0 * _clean()])
        candidates = [1, 0, 0, 1, 1]
        batch = _impair(ImpairmentModel().noiseless(), stack, candidates, seed=5)
        assert np.array_equal(batch, stack[candidates])

    def test_shape_validation(self):
        model = ImpairmentModel()
        rng = ensure_rng(0)
        stack = np.zeros((2, 3, 30), dtype=complex)
        with pytest.raises(ValueError, match="candidates"):
            model.apply(stack, [[0]], INDICES, rng)
        with pytest.raises(IndexError):
            model.apply(stack, [0, 2], INDICES, rng)
        with pytest.raises(IndexError):
            model.apply(stack, [-1], INDICES, rng)
        assert model.apply(stack, [], INDICES, rng).shape == (0, 3, 30)

    def test_zero_power_candidate_shifts_no_later_packet(self):
        # Every packet draws one fixed block, so the last packet's bytes
        # depend only on its position, not on an earlier packet's power.
        stack = np.stack([_clean(), np.zeros((3, 30), dtype=complex)])
        with_zero = _impair(ImpairmentModel(), stack, [0, 1, 0], seed=9)
        without = _impair(ImpairmentModel(), stack, [0, 0, 0], seed=9)
        assert with_zero[2].tobytes() == without[2].tobytes()
        assert not with_zero[1].any()

    @pytest.mark.parametrize(
        "switch",
        [
            {"snr_db": np.inf},
            {"cfo_phase": False},
            {"sfo_slope_std": 0.0},
            {"antenna_phase_offsets": False},
            {"agc_std_db": 0.0},
        ],
    )
    def test_switching_one_quantity_off_keeps_every_other(self, switch):
        # The reference reads each quantity from its fixed slots of the
        # block, whatever the switches: noise, CFO phasor, SFO slope,
        # antenna offsets, AGC gain.
        model = replace(ImpairmentModel(snr_db=20.0), **switch)
        clean = _clean()
        packets, antennas, subcarriers = 5, 3, 30
        noise_end = 2 * antennas * subcarriers
        block = ensure_rng(21).standard_normal((packets, noise_end + antennas + 4))
        expected = np.repeat(clean[None], packets, axis=0)
        if model.cfo_phase:
            z = block[:, noise_end] + 1j * block[:, noise_end + 1]
            expected *= (z / np.abs(z))[:, None, None]
        if model.sfo_slope_std:
            slope = model.sfo_slope_std * block[:, noise_end + 2]
            expected *= np.exp(1j * slope[:, None] * INDICES[None, :])[:, None, :]
        if model.antenna_phase_offsets:
            offsets = 0.1 * block[:, noise_end + 3 : noise_end + 3 + antennas]
            expected *= np.exp(1j * offsets)[:, :, None]
        if model.agc_std_db:
            gain_db = model.agc_std_db * block[:, noise_end + 3 + antennas]
            expected *= (10.0 ** (gain_db / 20.0))[:, None, None]
        if np.isfinite(model.snr_db):
            sigma = np.sqrt(np.mean(np.abs(clean) ** 2) / 10.0 ** (model.snr_db / 10.0) / 2.0)
            pairs = block[:, :noise_end].reshape(packets, antennas, subcarriers, 2)
            expected += sigma * (pairs[..., 0] + 1j * pairs[..., 1])
        got = _impair(model, clean, [0] * packets, seed=21)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_snr_tracks_each_packet_of_a_stack(self):
        # A packet with 10x the amplitude gets 10x the noise amplitude.
        clean = _clean()
        stack = np.stack([clean, 10.0 * clean])
        model = ImpairmentModel(snr_db=20.0, **NOISE_ONLY)
        batch = _impair(model, stack, [0, 1], seed=11)
        err_small = np.linalg.norm(batch[0] - stack[0])
        err_big = np.linalg.norm(batch[1] - stack[1])
        assert err_big == pytest.approx(10.0 * err_small, rel=0.5)
