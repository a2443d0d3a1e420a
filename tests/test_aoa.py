"""Tests for angle-of-arrival estimation (covariance, MUSIC, smoothed MUSIC, Bartlett)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.aoa import (
    BartlettEstimator,
    MusicEstimator,
    PseudoSpectrum,
    SmoothedMusicEstimator,
    angle_error_deg,
    angle_error_distribution,
    spatial_covariance,
)
from repro.aoa.covariance import spatial_covariances
from repro.aoa.errors import median_angle_error_deg, paired_error_gain
from repro.aoa.smoothed import forward_smoothed_covariance
from repro.channel.antenna import UniformLinearArray
from repro.channel.constants import CHANNEL_11_CENTER_HZ


def synthetic_snapshots(
    angles_deg: list[float],
    *,
    array: UniformLinearArray,
    num_snapshots: int = 400,
    snr_db: float = 25.0,
    seed: int = 0,
    coherent: bool = False,
) -> np.ndarray:
    """Plane waves from the given angles plus AWGN, shape (antennas, snapshots)."""
    rng = np.random.default_rng(seed)
    snapshots = np.zeros((array.num_elements, num_snapshots), dtype=complex)
    common = rng.normal(size=num_snapshots) + 1j * rng.normal(size=num_snapshots)
    for k, angle in enumerate(angles_deg):
        steering = array.steering_vector(np.radians(angle), CHANNEL_11_CENTER_HZ)
        if coherent:
            signal = common
        else:
            signal = rng.normal(size=num_snapshots) + 1j * rng.normal(size=num_snapshots)
        snapshots += steering[:, None] * signal[None, :]
    noise_scale = 10 ** (-snr_db / 20.0)
    noise = rng.normal(size=snapshots.shape) + 1j * rng.normal(size=snapshots.shape)
    return snapshots + noise_scale * noise


@pytest.fixture()
def array() -> UniformLinearArray:
    return UniformLinearArray(num_elements=3)


class TestCovariance:
    def test_covariance_is_hermitian_psd(self, array):
        snaps = synthetic_snapshots([10.0], array=array)
        cov = spatial_covariance(snaps)
        assert cov.shape == (3, 3)
        assert np.allclose(cov, cov.conj().T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-10)

    def test_covariance_from_trace_shape(self, empty_trace):
        cov = spatial_covariance(empty_trace.csi)
        assert cov.shape == (3, 3)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            spatial_covariance(np.zeros((2, 3, 4, 5), dtype=complex))
        with pytest.raises(ValueError):
            spatial_covariance(np.zeros((3, 0), dtype=complex))


class TestPseudoSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            PseudoSpectrum(np.zeros(3), np.zeros(4))

    def test_normalized_peak_is_one(self):
        spectrum = PseudoSpectrum(np.linspace(-90, 90, 5), np.array([1.0, 3.0, 2.0, 0.5, 0.1]))
        assert spectrum.normalized().values.max() == pytest.approx(1.0)

    def test_normalize_rejects_nonpositive(self):
        spectrum = PseudoSpectrum(np.linspace(-90, 90, 3), np.zeros(3))
        with pytest.raises(ValueError):
            spectrum.normalized()

    def test_peaks_ranked_by_height(self):
        angles = np.linspace(-90, 90, 181)
        values = np.exp(-0.5 * ((angles - 20) / 4) ** 2) + 0.5 * np.exp(
            -0.5 * ((angles + 40) / 4) ** 2
        )
        peaks = PseudoSpectrum(angles, values).peaks(max_peaks=2)
        assert peaks[0] == pytest.approx(20.0, abs=1.5)
        assert peaks[1] == pytest.approx(-40.0, abs=1.5)


class TestMusic:
    def test_single_source_recovered(self, array):
        snaps = synthetic_snapshots([25.0], array=array)
        estimator = MusicEstimator(array=array, num_sources=1)
        angle = estimator.estimate_angles(snaps, max_paths=1)[0]
        assert angle == pytest.approx(25.0, abs=2.0)

    def test_two_sources_recovered(self, array):
        snaps = synthetic_snapshots([-30.0, 40.0], array=array)
        estimator = MusicEstimator(array=array, num_sources=2)
        angles = sorted(estimator.estimate_angles(snaps, max_paths=2))
        assert angles[0] == pytest.approx(-30.0, abs=4.0)
        assert angles[1] == pytest.approx(40.0, abs=4.0)

    def test_num_sources_must_be_below_antennas(self, array):
        with pytest.raises(ValueError):
            MusicEstimator(array=array, num_sources=3)
        with pytest.raises(ValueError):
            MusicEstimator(array=array, num_sources=0)

    def test_covariance_shape_checked(self, array):
        estimator = MusicEstimator(array=array, num_sources=1)
        with pytest.raises(ValueError):
            estimator.spectrum_values(np.eye(4)[None])

    def test_noise_subspace_dimension(self, array):
        estimator = MusicEstimator(array=array, num_sources=1)
        noise = estimator.noise_subspaces(np.eye(3)[None])
        assert noise.shape == (1, 3, 2)

    def test_pseudospectrum_peak_higher_at_source(self, array):
        snaps = synthetic_snapshots([0.0], array=array)
        spectrum = MusicEstimator(array=array, num_sources=1).pseudospectrum(snaps)
        value = dict(zip(spectrum.angles_deg, spectrum.values))
        assert value[0.0] > 10 * value[60.0]


class TestSmoothedMusic:
    def test_resolves_coherent_single_source(self, array):
        snaps = synthetic_snapshots([20.0], array=array, coherent=True)
        smoothed = SmoothedMusicEstimator(array=array)
        assert smoothed.estimate_angles(snaps, max_paths=1)[0] == pytest.approx(20.0, abs=4.0)

    def test_max_resolvable_paths_reduced(self, array):
        smoothed = SmoothedMusicEstimator(array=array)
        assert smoothed.max_resolvable_paths() == 1
        plain = MusicEstimator(array=array, num_sources=2)
        assert plain.num_sources > smoothed.max_resolvable_paths()

    def test_forward_smoothing_shape_and_average(self):
        cov = np.arange(9, dtype=complex).reshape(3, 3)
        smoothed = forward_smoothed_covariance(cov, 2)
        assert smoothed.shape == (2, 2)
        expected = (cov[:2, :2] + cov[1:, 1:]) / 2
        assert np.allclose(smoothed, expected)

    def test_forward_smoothing_invalid_args(self):
        with pytest.raises(ValueError):
            forward_smoothed_covariance(np.eye(3), 4)
        with pytest.raises(ValueError):
            forward_smoothed_covariance(np.zeros((2, 3)), 2)

    def test_covariance_contract_matches_per_capture_spectra(self, array):
        # The combined detector's estimator contract: smooth each covariance
        # of the stack, then the inner MUSIC — bit-identical to one
        # pseudospectrum() per capture.
        smoothed = SmoothedMusicEstimator(array=array)
        captures = [
            synthetic_snapshots([angle], array=array, coherent=True)
            for angle in (-30.0, 5.0, 40.0)
        ]
        batch = smoothed.spectrum_values(
            np.stack([spatial_covariance(csi) for csi in captures])
        )
        for values, csi in zip(batch, captures):
            assert np.array_equal(values, smoothed.pseudospectrum(csi).values)
        stacked = forward_smoothed_covariance(np.stack([np.eye(3)] * 2), 2)
        assert stacked.shape == (2, 2, 2)

    def test_rebound_fields_give_a_fresh_estimators_spectra(self):
        wide = UniformLinearArray(num_elements=4)
        captures = [
            synthetic_snapshots([angle], array=wide, coherent=True, seed=seed)
            for seed, angle in enumerate((-35.0, 10.0, 50.0))
        ]
        covariances = np.stack([spatial_covariance(csi) for csi in captures])
        base = {"array": wide, "subarray_size": 3, "num_sources": 1}
        changes = [
            ("angle_grid_deg", np.linspace(-60.0, 60.0, 121)),
            ("frequency_hz", 5e9),
            ("num_sources", 2),
            ("subarray_size", 2),
            ("array", UniformLinearArray(num_elements=4, spacing=0.05)),
        ]
        for name, value in changes:
            rebound = SmoothedMusicEstimator(**base)
            rebound.pseudospectrum(captures[0])  # builds the inner estimator
            setattr(rebound, name, value)
            fresh = SmoothedMusicEstimator(**{**base, name: value})
            assert np.array_equal(
                rebound.spectrum_values(covariances), fresh.spectrum_values(covariances)
            ), name
            got = rebound.pseudospectrum(captures[1])
            want = fresh.pseudospectrum(captures[1])
            assert np.array_equal(got.angles_deg, want.angles_deg), name
            assert np.array_equal(got.values, want.values), name
        # An in-place edit of the grid counts as a rebinding too.
        mutated = SmoothedMusicEstimator(**base)
        mutated.pseudospectrum(captures[0])
        mutated.angle_grid_deg[:] = np.linspace(-45.0, 45.0, 181)
        fresh = SmoothedMusicEstimator(
            **base, angle_grid_deg=np.linspace(-45.0, 45.0, 181)
        )
        assert np.array_equal(
            mutated.pseudospectrum(captures[2]).values,
            fresh.pseudospectrum(captures[2]).values,
        )

    def test_invalid_configuration_rejected(self, array):
        with pytest.raises(ValueError):
            SmoothedMusicEstimator(array=array, subarray_size=5)
        with pytest.raises(ValueError):
            SmoothedMusicEstimator(array=array, subarray_size=2, num_sources=2)


class TestBartlett:
    def test_peak_at_source_angle(self, array):
        snaps = synthetic_snapshots([30.0], array=array)
        spectrum = BartlettEstimator(array=array).pseudospectrum(snaps)
        assert spectrum.peaks(max_peaks=1)[0] == pytest.approx(30.0, abs=5.0)

    def test_power_calibration_scales_with_signal_power(self, array):
        weak = synthetic_snapshots([0.0], array=array, seed=1) * 0.5
        strong = synthetic_snapshots([0.0], array=array, seed=1)
        est = BartlettEstimator(array=array)
        assert est.pseudospectrum(strong).values.max() > 3 * est.pseudospectrum(weak).values.max()

    def test_covariance_shape_checked(self, array):
        with pytest.raises(ValueError):
            BartlettEstimator(array=array).spectrum_values(np.eye(2)[None])

    def test_angle_grid_validation(self, array):
        with pytest.raises(ValueError):
            BartlettEstimator(array=array, angle_grid_deg=np.array([0.0]))


class TestAngleGrid:
    """Every estimator checks its grid once, at construction: a grid it
    could not score would otherwise fail later with an unrelated shape
    message, a spectrum with no power or a silently NaN score."""

    @pytest.mark.parametrize(
        "estimator", [BartlettEstimator, MusicEstimator, SmoothedMusicEstimator]
    )
    @pytest.mark.parametrize(
        "grid",
        [
            np.float64(0.0),
            np.zeros((2, 181)),
            np.array([]),
            np.array([10.0]),
            np.array([-30.0, np.nan, 30.0]),
            np.array([-np.inf, 0.0]),
        ],
        ids=["scalar", "2-D", "empty", "one-angle", "nan", "inf"],
    )
    def test_malformed_grid_rejected(self, array, estimator, grid):
        with pytest.raises(ValueError, match="angle_grid_deg") as excinfo:
            estimator(array=array, angle_grid_deg=grid)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize(
        "estimator", [BartlettEstimator, MusicEstimator, SmoothedMusicEstimator]
    )
    def test_two_angle_grid_accepted(self, array, estimator):
        est = estimator(array=array, angle_grid_deg=[-10, 10])
        assert est.angle_grid_deg.dtype == float
        assert est.pseudospectrum(synthetic_snapshots([0.0], array=array)).values.shape == (2,)


class TestAngleErrors:
    def test_angle_error_deg(self):
        assert angle_error_deg(10.0, -5.0) == 15.0

    def test_distribution_is_cdf(self):
        errors, cdf = angle_error_distribution([1.0, 5.0, 3.0], 0.0)
        assert np.all(np.diff(errors) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_distribution_rejects_empty(self):
        with pytest.raises(ValueError):
            angle_error_distribution([], 0.0)

    def test_median_error_and_gain(self):
        single = [10.0, 20.0, 30.0]
        averaged = [2.0, 4.0, 6.0]
        assert median_angle_error_deg(single, 0.0) == 20.0
        assert paired_error_gain(single, averaged) == pytest.approx(16.0)


class TestBatchedSpectraBitIdentity:
    """The grid-vectorised spectra must match per-angle / per-covariance loops bit-for-bit."""

    def _covariances(self, array, n=3):
        return np.stack(
            [
                spatial_covariance(
                    synthetic_snapshots([-20.0 + 15.0 * k, 30.0], array=array, seed=k)
                )
                for k in range(n)
            ]
        )

    def test_bartlett_matches_per_angle_loop(self, array):
        est = BartlettEstimator(array=array)
        cov = self._covariances(array, n=1)[0]
        vectorised = est.spectrum_values(cov[None])[0]
        steering = est.steering()
        per_angle = np.empty(est.angle_grid_deg.size)
        for k in range(est.angle_grid_deg.size):
            quad = np.einsum(
                "i,ij,j->", steering[:, k].conj(), cov, steering[:, k]
            )
            per_angle[k] = max(np.real(quad) / array.num_elements**2, 0.0)
        assert np.array_equal(vectorised, per_angle)
        # And against a fully naive triple loop, up to float associativity.
        naive = np.zeros(est.angle_grid_deg.size, dtype=complex)
        for k in range(est.angle_grid_deg.size):
            for i in range(array.num_elements):
                for j in range(array.num_elements):
                    naive[k] += steering[i, k].conj() * cov[i, j] * steering[j, k]
        naive_values = np.maximum(np.real(naive) / array.num_elements**2, 0.0)
        np.testing.assert_allclose(vectorised, naive_values, rtol=1e-12)

    def test_bartlett_batch_matches_individual(self, array):
        est = BartlettEstimator(array=array)
        covs = self._covariances(array)
        batched = est.spectrum_values(covs)
        for n, cov in enumerate(covs):
            assert np.array_equal(batched[n], est.spectrum_values(cov[None])[0])

    def test_music_matches_per_angle_loop(self, array):
        est = MusicEstimator(array=array)
        cov = self._covariances(array, n=1)[0]
        vectorised = est.spectrum_values(cov[None])[0]
        noise = est.noise_subspaces(cov[None])[0]
        steering = est.steering()
        per_angle = np.empty(est.angle_grid_deg.size)
        for k in range(est.angle_grid_deg.size):
            projected = noise.conj().T @ steering[:, k]
            per_angle[k] = 1.0 / max(np.sum(np.abs(projected) ** 2), 1e-12)
        np.testing.assert_allclose(vectorised, per_angle, rtol=1e-12)

    def test_music_batch_matches_individual(self, array):
        est = MusicEstimator(array=array)
        covs = self._covariances(array)
        batched = est.spectrum_values(covs)
        for n, cov in enumerate(covs):
            assert np.array_equal(batched[n], est.spectrum_values(cov[None])[0])

    def test_batch_shape_validation(self, array):
        with pytest.raises(ValueError):
            BartlettEstimator(array=array).spectrum_values(np.eye(3))
        with pytest.raises(ValueError):
            MusicEstimator(array=array).spectrum_values(np.zeros((2, 2, 2), dtype=complex))

    def test_steering_matrix_cached_until_grid_rebound(self, array):
        est = BartlettEstimator(array=array)
        first = est.steering()
        assert est.steering() is first
        est.angle_grid_deg = np.linspace(-45.0, 45.0, 91)
        second = est.steering()
        assert second is not first
        assert second.shape == (3, 91)

    def test_steering_cache_tracks_frequency_and_array(self, array):
        est = BartlettEstimator(array=array)
        first = est.steering()
        est.frequency_hz = est.frequency_hz * 2
        second = est.steering()
        assert second is not first
        assert not np.array_equal(second, first)
        est.array = UniformLinearArray(num_elements=4)
        third = est.steering()
        assert third.shape[0] == 4

    def test_steering_cache_tracks_in_place_grid_mutation(self, array):
        est = MusicEstimator(array=array)
        first = est.steering().copy()
        est.angle_grid_deg[:] = np.linspace(-45.0, 45.0, est.angle_grid_deg.size)
        second = est.steering()
        assert not np.array_equal(second, first)  # stale matrix not served
        reference = array.steering_matrix(
            np.radians(est.angle_grid_deg), est.frequency_hz
        )
        assert np.array_equal(second, reference)

    def test_pseudospectra_protocol_matches_per_capture_calls(self, array):
        """Captures of different lengths stack as covariances; each row is
        the per-capture ``pseudospectrum``."""
        captures = [
            synthetic_snapshots([-10.0], array=array, seed=1),
            synthetic_snapshots([25.0], array=array, seed=2, num_snapshots=120),
        ]
        covariances = np.stack([spatial_covariance(csi) for csi in captures])
        for est in (
            BartlettEstimator(array=array),
            MusicEstimator(array=array),
            SmoothedMusicEstimator(array=array),
        ):
            batched = est.spectrum_values(covariances)
            for csi, values in zip(captures, batched):
                assert np.array_equal(values, est.pseudospectrum(csi).values)


class TestSpectrumValuesContract:
    """``spectrum_values(covariances, columns)``: a column's value does not
    depend on which other columns were requested, or on the stack size, and
    a capture's ``pseudospectrum`` is its batch of one."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        estimator=st.sampled_from(
            (BartlettEstimator, MusicEstimator, SmoothedMusicEstimator)
        ),
        stack=st.integers(min_value=1, max_value=300),
        packets=st.integers(min_value=1, max_value=3),
        row=st.integers(min_value=0, max_value=299),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        columns=st.lists(
            st.integers(min_value=0, max_value=180), min_size=1, max_size=181, unique=True
        ),
        ordered=st.booleans(),
    )
    def test_columns_are_separable(
        self, estimator, stack, packets, row, seed, columns, ordered
    ):
        est = estimator(array=UniformLinearArray(num_elements=3))
        rng = np.random.default_rng(seed)
        shape = (stack, packets, 3, 12)
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        csi = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        covariances = spatial_covariances(csi)
        columns = np.sort(columns) if ordered else np.asarray(columns)
        full = est.spectrum_values(covariances)
        assert full.shape == (stack, est.angle_grid_deg.size)
        assert np.array_equal(est.spectrum_values(covariances, columns), full[:, columns])
        head = est.spectrum_values(covariances[:1], columns)
        assert np.array_equal(head, full[:1, columns])
        # Any row of the stack is its own batch of one, and the spectrum of
        # its capture.
        row %= stack
        assert np.array_equal(est.spectrum_values(covariances[row : row + 1]), full[row : row + 1])
        spectrum = est.pseudospectrum(csi[row])
        assert np.array_equal(spectrum.values, full[row])
        assert np.array_equal(spectrum.angles_deg, est.angle_grid_deg)
