"""The paper's primary contribution.

* :mod:`repro.core.link_model` — the analytic one-bounce characterization of a
  multipath link under human shadowing and reflection (Section III-B,
  Eq. 2–8).
* :mod:`repro.core.multipath_factor` — the measurable multipath factor
  ``mu_k`` extracted from one CSI packet (Section IV-A1, Eq. 9–11).
* :mod:`repro.core.fitting` — the logarithmic relation between RSS change and
  multipath factor (Fig. 3).
* :mod:`repro.core.subcarrier_weighting` — frequency-diversity weighting
  (Section IV-A2, Eq. 12–15), one stacked program over windows.
* :mod:`repro.core.path_weighting` — spatial-diversity weighting of the
  angular pseudospectrum (Section IV-B2, Eq. 17), one array function over
  static spectra.
* :mod:`repro.core.detector` — the calibration/monitoring detection pipeline
  and the baseline it is compared against (Section IV-C, Section V).
* :mod:`repro.core.thresholds` — ROC sweeps and threshold selection.
* :mod:`repro.core.fade_level` — the related-work fade-level metric
  (Wilson & Patwari) used as a comparison point.
"""

from repro.core.detector import (
    BaselineDetector,
    DetectionResult,
    SubcarrierPathWeightingDetector,
    SubcarrierWeightingDetector,
)
from repro.core.fade_level import fade_level_db
from repro.core.fitting import LogFit, fit_log_curve, fit_per_subcarrier
from repro.core.link_model import OneBounceLinkModel
from repro.core.multipath_factor import multipath_factor_trace
from repro.core.path_weighting import path_weights
from repro.core.subcarrier_weighting import SubcarrierWeighting
from repro.core.thresholds import RocCurve, balanced_threshold, roc_curve

__all__ = [
    "BaselineDetector",
    "DetectionResult",
    "SubcarrierPathWeightingDetector",
    "SubcarrierWeightingDetector",
    "fade_level_db",
    "LogFit",
    "fit_log_curve",
    "fit_per_subcarrier",
    "OneBounceLinkModel",
    "multipath_factor_trace",
    "path_weights",
    "SubcarrierWeighting",
    "RocCurve",
    "balanced_threshold",
    "roc_curve",
]
