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
        assert weights.weights.shape == (3, 30)

    def test_combined_exposes_path_weighting_and_spectrum(self, detectors, occupied_trace):
        combined = detectors["combined"]
        assert combined.path_weighting.theta_max_deg == 60.0
        spectrum = combined.monitored_spectrum(occupied_trace)
        assert spectrum.values.shape == spectrum.angles_deg.shape


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

    def test_gain_drift_hurts_baseline_more_than_subcarrier(
        self, detectors, collector
    ):
        """A 1 dB session gain drift looks like a big amplitude change to the
        baseline but only a small dB offset to the subcarrier-weighted scheme."""
        gain = 10 ** (1.0 / 20.0)
        empty = collector.collect_empty(num_packets=25)
        drifted = type(empty)(
            csi=empty.csi * gain,
            timestamps=empty.timestamps,
            subcarrier_indices=empty.subcarrier_indices,
        )
        baseline_ratio = detectors["baseline"].score(drifted) / max(
            detectors["baseline"].score(empty), 1e-12
        )
        subcarrier_ratio = detectors["subcarrier"].score(drifted) / max(
            detectors["subcarrier"].score(empty), 1e-12
        )
        assert baseline_ratio > subcarrier_ratio


class TestBatchedSpectraDispatch:
    """The combined kernel's estimator contract is
    ``pseudospectra_from_covariances``: honoured when overridden, required
    at construction."""

    def test_covariance_contract_override_honoured_by_score(
        self, link, empty_trace, occupied_trace
    ):
        calls = []

        class LoadedBartlett(BartlettEstimator):
            def pseudospectra_from_covariances(self, covariances):
                calls.append(covariances.shape)
                loaded = covariances + 0.1 * np.eye(covariances.shape[-1])
                return super().pseudospectra_from_covariances(loaded)

        plain = SubcarrierPathWeightingDetector(BartlettEstimator(array=link.array))
        loaded = SubcarrierPathWeightingDetector(LoadedBartlett(array=link.array))
        for detector in (plain, loaded):
            detector.calibrate(empty_trace)
        calls.clear()
        assert loaded.score(occupied_trace) != plain.score(occupied_trace)
        # One call for the window: its monitored and its static covariance.
        assert calls == [(2, 3, 3)]

    def test_estimator_without_covariance_contract_rejected(self):
        class PerCaptureOnly:
            def pseudospectrum(self, csi):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(TypeError, match="pseudospectra_from_covariances") as excinfo:
            SubcarrierPathWeightingDetector(PerCaptureOnly())
        assert "\n" not in str(excinfo.value)

    def test_single_covariance_path_honours_subspace_override(self, rng):
        from repro.aoa.music import MusicEstimator
        from repro.channel.antenna import UniformLinearArray

        calls = []

        class TracingMusic(MusicEstimator):
            def noise_subspace(self, covariance):
                calls.append(covariance.shape)
                return super().noise_subspace(covariance)

        est = TracingMusic(array=UniformLinearArray(num_elements=3))
        csi = rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))
        est.pseudospectrum(csi)
        assert calls  # the documented hook is dispatched through
