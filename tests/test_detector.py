"""Tests for the three detection schemes (baseline, subcarrier, combined)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aoa.bartlett import BartlettEstimator
from repro.aoa.music import MusicEstimator
from repro.core.detector import (
    BaselineDetector,
    DetectionResult,
    SubcarrierPathWeightingDetector,
    SubcarrierWeightingDetector,
)
from repro.core.thresholds import roc_curve
from repro.csi import CSITrace, PacketCollector


@pytest.fixture(scope="module")
def detectors(link):
    assert link.array is not None
    return {
        "baseline": BaselineDetector(),
        "subcarrier": SubcarrierWeightingDetector(),
        "combined": SubcarrierPathWeightingDetector(BartlettEstimator(array=link.array)),
    }


@pytest.fixture(scope="module", autouse=True)
def calibrated(detectors, empty_trace):
    for detector in detectors.values():
        detector.calibrate(empty_trace)
    return detectors


def _zeroed(trace: CSITrace) -> CSITrace:
    """*trace* with every CSI value zero (a dead radio)."""
    return CSITrace(
        csi=np.zeros_like(trace.csi),
        timestamps=trace.timestamps,
        subcarrier_indices=trace.subcarrier_indices,
    )


def _calibration_state(detector: SubcarrierPathWeightingDetector) -> tuple:
    """Every piece of a combined detector's calibration state, by value."""
    return (
        detector._profile_amplitude.tobytes(),
        detector._calibration_gram.tobytes(),
        detector._calibration_packets,
        detector._path_weights.tobytes(),
        detector.theta_min_deg,
        detector.theta_max_deg,
    )


class TestCalibrationContract:
    @pytest.mark.parametrize("name", ["baseline", "subcarrier", "combined"])
    def test_score_before_calibration_raises(self, name, link, occupied_trace):
        fresh = {
            "baseline": BaselineDetector,
            "subcarrier": SubcarrierWeightingDetector,
        }
        if name == "combined":
            detector = SubcarrierPathWeightingDetector(BartlettEstimator(array=link.array))
        else:
            detector = fresh[name]()
        assert not detector.is_calibrated
        with pytest.raises(RuntimeError):
            detector.score(occupied_trace)

    def test_calibration_requires_multiple_packets(self, empty_trace):
        detector = BaselineDetector()
        with pytest.raises(ValueError):
            detector.calibrate(empty_trace[:1])

    def test_failed_first_calibration_leaves_detector_uncalibrated(
        self, link, empty_trace, occupied_trace
    ):
        """An all-zero trace has no spectral power: the combined scheme's
        calibration raises and stores nothing, not even the profile."""
        detector = SubcarrierPathWeightingDetector(BartlettEstimator(array=link.array))
        with pytest.raises(ValueError, match="no power"):
            detector.calibrate(_zeroed(empty_trace))
        assert not detector.is_calibrated
        with pytest.raises(RuntimeError, match="must be calibrated before monitoring"):
            detector.score(occupied_trace)

    def test_failed_recalibration_keeps_previous_state(
        self, link, empty_trace, occupied_trace
    ):
        detector = SubcarrierPathWeightingDetector(BartlettEstimator(array=link.array))
        detector.calibrate(empty_trace)
        before = _calibration_state(detector)
        score = detector.score(occupied_trace)
        with pytest.raises(ValueError, match="no power"):
            detector.calibrate(_zeroed(empty_trace))
        assert _calibration_state(detector) == before
        assert detector.score(occupied_trace) == score

    def test_failed_group_calibration_stores_nothing(self, link, empty_trace):
        """One dead trace in a stacked group fails the whole group before any
        detector's state is stored."""
        detectors = [
            SubcarrierPathWeightingDetector(BartlettEstimator(array=link.array))
            for _ in range(2)
        ]
        csi = np.stack([empty_trace.csi, np.zeros_like(empty_trace.csi)])
        with pytest.raises(ValueError, match="no power"):
            SubcarrierPathWeightingDetector.stacked_calibrate(detectors, csi)
        assert not any(detector.is_calibrated for detector in detectors)

    def test_combined_requires_spectrum_estimator(self):
        with pytest.raises(TypeError):
            SubcarrierPathWeightingDetector(object())

    def test_combined_accepts_music_estimator(self, link, empty_trace, occupied_trace):
        detector = SubcarrierPathWeightingDetector(MusicEstimator(array=link.array))
        detector.calibrate(empty_trace)
        assert np.isfinite(detector.score(occupied_trace))


class TestScores:
    @pytest.mark.parametrize("name", ["baseline", "subcarrier", "combined"])
    def test_scores_non_negative_finite(self, detectors, name, occupied_trace, empty_trace):
        detector = detectors[name]
        for trace in (occupied_trace, empty_trace[:25]):
            score = detector.score(trace)
            assert np.isfinite(score) and score >= 0.0

    @pytest.mark.parametrize("name", ["baseline", "subcarrier", "combined"])
    def test_blocking_person_scores_above_empty(
        self, detectors, name, occupied_trace, collector
    ):
        detector = detectors[name]
        occupied_score = detector.score(occupied_trace)
        empty_scores = [
            detector.score(collector.collect_empty(num_packets=25)) for _ in range(4)
        ]
        assert occupied_score > max(empty_scores)

    @pytest.mark.parametrize("name", ["subcarrier", "combined"])
    def test_off_path_person_detectable(self, detectors, name, off_path_trace, collector):
        detector = detectors[name]
        off_score = detector.score(off_path_trace)
        empty_scores = [
            detector.score(collector.collect_empty(num_packets=25)) for _ in range(4)
        ]
        assert off_score > np.median(empty_scores)

    def test_detect_returns_result(self, detectors, occupied_trace):
        detector = detectors["baseline"]
        score = detector.score(occupied_trace)
        result = detector.detect(occupied_trace, threshold=score / 2.0)
        assert isinstance(result, DetectionResult)
        assert result.detected
        assert not detector.detect(occupied_trace, threshold=score * 2.0).detected

    def test_monitoring_window_must_not_be_empty(self, detectors, empty_trace):
        with pytest.raises(ValueError):
            detectors["baseline"].score(empty_trace[:0])

    def test_subcarrier_weights_exposed(self, detectors, occupied_trace):
        weights = detectors["subcarrier"].last_weights(occupied_trace)
        assert weights.shape == (3, 30)

    def test_combined_exposes_path_weighting_and_spectrum(self, detectors, occupied_trace):
        combined = detectors["combined"]
        grid = combined.spectrum_estimator.angle_grid_deg
        assert combined.theta_max_deg == 60.0
        assert np.all(combined._path_weights[np.abs(grid) >= 60.0] == 0.0)
        spectrum = combined.monitored_spectrum(occupied_trace)
        assert np.array_equal(spectrum.angles_deg, grid)
        assert spectrum.values.shape == grid.shape


class TestSchemeOrdering:
    def test_weighted_schemes_separate_better_than_baseline_off_path(
        self, detectors, collector, off_path_human
    ):
        """For a person near (not on) the link, the weighted schemes should
        separate occupied from empty windows at least as well as the raw
        amplitude baseline — the paper's central claim in miniature."""
        positives = {name: [] for name in detectors}
        negatives = {name: [] for name in detectors}
        for _ in range(6):
            occupied = collector.collect(off_path_human, num_packets=20)
            empty = collector.collect_empty(num_packets=20)
            for name, detector in detectors.items():
                positives[name].append(detector.score(occupied))
                negatives[name].append(detector.score(empty))
        aucs = {
            name: roc_curve(positives[name], negatives[name]).auc() for name in detectors
        }
        assert aucs["subcarrier"] >= aucs["baseline"] - 0.05
        assert aucs["combined"] >= aucs["baseline"] - 0.05

    def test_gain_drift_hurts_baseline_more_than_subcarrier(self, simulator):
        """A 1 dB session gain drift looks like a big amplitude change to the
        baseline but only a small dB offset to the subcarrier-weighted scheme.

        A distributional claim, so it is checked on the median score ratio
        over 20 windows: on a single window it fails for about 1 draw in 22.
        The test draws calibration and windows from its own collector, so
        its verdict does not depend on which modules ran before it.
        """
        collector = PacketCollector(simulator, seed=4321)
        calibration = collector.collect_empty(num_packets=60)
        baseline, subcarrier = BaselineDetector(), SubcarrierWeightingDetector()
        for detector in (baseline, subcarrier):
            detector.calibrate(calibration)
        gain = 10 ** (1.0 / 20.0)
        ratios = []
        for _ in range(20):
            empty = collector.collect_empty(num_packets=25)
            drifted = type(empty)(
                csi=empty.csi * gain,
                timestamps=empty.timestamps,
                subcarrier_indices=empty.subcarrier_indices,
            )
            ratios.append(
                [
                    detector.score(drifted) / max(detector.score(empty), 1e-12)
                    for detector in (baseline, subcarrier)
                ]
            )
        baseline_ratio, subcarrier_ratio = np.median(ratios, axis=0)
        assert baseline_ratio > subcarrier_ratio


class TestBatchedSpectraDispatch:
    """The combined kernel's estimator contract is the array method
    ``spectrum_values``: honoured when overridden, required at
    construction."""

    def test_covariance_contract_override_honoured_by_score(
        self, link, empty_trace, occupied_trace
    ):
        calls = []

        class LoadedBartlett(BartlettEstimator):
            def spectrum_values(self, covariances, columns=None):
                calls.append(covariances.shape)
                loaded = covariances + 0.1 * np.eye(covariances.shape[-1])
                return super().spectrum_values(loaded, columns)

        plain = SubcarrierPathWeightingDetector(BartlettEstimator(array=link.array))
        loaded = SubcarrierPathWeightingDetector(LoadedBartlett(array=link.array))
        for detector in (plain, loaded):
            detector.calibrate(empty_trace)
        assert calls == [(1, 3, 3)]  # calibration's full-grid pass
        calls.clear()
        assert loaded.score(occupied_trace) != plain.score(occupied_trace)
        # One call for the window: its monitored and its static covariance.
        assert calls == [(2, 3, 3)]

    def test_estimator_without_covariance_contract_rejected(self):
        class PerCaptureOnly:
            def pseudospectrum(self, csi):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(TypeError, match="spectrum_values") as excinfo:
            SubcarrierPathWeightingDetector(PerCaptureOnly())
        assert "\n" not in str(excinfo.value)

    def test_single_covariance_path_honours_subspace_override(self, rng):
        from repro.aoa.music import MusicEstimator
        from repro.channel.antenna import UniformLinearArray

        calls = []

        class TracingMusic(MusicEstimator):
            def noise_subspaces(self, covariances):
                calls.append(covariances.shape)
                return super().noise_subspaces(covariances)

        est = TracingMusic(array=UniformLinearArray(num_elements=3))
        csi = rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))
        est.pseudospectrum(csi)
        assert calls == [(1, 3, 3)]  # one capture is a batch of one
        calls.clear()
        est.spectrum_values(np.stack([np.eye(3)] * 2), np.array([0, 90]))
        assert calls == [(2, 3, 3)]  # and the array method's batched hook
