"""Device-free human detection pipelines (Section IV-C, Section V-A).

All detectors share the paper's two-stage structure:

* **Calibration** — collect N CSI packets of the empty environment, sanitise
  them, store the mean amplitude profile ``s^(0)`` and (for the combined
  scheme) the path weights of the static angular spectrum.
* **Monitoring** — collect M packets, compute a scalar detection score and
  compare it against a threshold.

Three schemes are implemented, matching the evaluation's comparison:

* :class:`BaselineDetector` — Euclidean distance of raw CSI amplitudes.
* :class:`SubcarrierWeightingDetector` — Euclidean distance of
  subcarrier-weighted RSS changes (Eq. 15).
* :class:`SubcarrierPathWeightingDetector` — Euclidean distance of
  path-weighted angular pseudospectra computed from subcarrier-weighted CSI
  (the full scheme).

The single-antenna schemes report their score averaged across the available
antennas, exactly as the paper does "for fair comparison".

Each scheme calibrates and scores through two stacked array programs, one
per stage.  :meth:`_BaseDetector.stacked_calibrate` turns a ``(detectors,
packets, antennas, subcarriers)`` stack of prepared calibration traces into
every detector's state at once, and :meth:`_BaseDetector.stacked_scores`
scores window *i* of a ``(windows, packets, antennas, subcarriers)`` stack
with detector *i*'s calibration state.  :mod:`repro.api.monitor` groups the
detectors of every caller by kernel (:meth:`~_BaseDetector.batch_key`) and
shape and calls them once per chunk; a standalone
:meth:`~_BaseDetector.calibrate` or :meth:`~_BaseDetector.score` is the
batch of one.  A detector's state depends only on its own trace and
settings, and a window's score only on its detector's calibration and its
packets, so both are bit-identical for any batch size or composition, under
every numeric backend.

The combined scheme keeps its calibration as arrays: the static spectra
of a stack become path weights in one
:func:`~repro.core.path_weighting.path_weights` call.  The path weights are
exactly zero outside each detector's angular gate, so its scoring kernel
evaluates the angular spectra only on the grid columns inside some stacked
detector's gate.  The estimator's column contract and a full-grid norm keep
each finite or infinite score the bytes of the full-grid evaluation; a NaN
score stays NaN.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.aoa.covariance import spatial_covariances
from repro.aoa.music import PseudoSpectrum
from repro.channel.antenna import UniformLinearArray
from repro.core.path_weighting import path_weights
from repro.core.subcarrier_weighting import SubcarrierWeighting
from repro.csi.calibration import sanitize_trace
from repro.csi.trace import CSITrace
from repro.utils.convert import power_to_db


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one monitoring window.

    Attributes
    ----------
    score:
        The detection statistic (larger = stronger evidence of a person).
    threshold:
        The threshold the score was compared against.
    detected:
        True when ``score > threshold``.
    """

    score: float
    threshold: float
    detected: bool

    def to_dict(self) -> dict[str, float | bool]:
        """The result as a plain JSON-serialisable dict."""
        return {
            "score": float(self.score),
            "threshold": float(self.threshold),
            "detected": bool(self.detected),
        }


def _value_key(value: object) -> Hashable:
    """A hashable key equal for values no kernel can tell apart: arrays by
    their bytes, a receive array by element count and spacing (where it sits
    in the room steers no spectrum), hashable objects as themselves, mutable
    dataclasses by class and fields, anything else by identity."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, UniformLinearArray):
        return (value.num_elements, value.spacing)
    try:
        hash(value)
        return value
    except TypeError:
        pass
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value), *(_value_key(getattr(value, f.name)) for f in fields))
    return id(value)


class _BaseDetector:
    """Common calibration plumbing and the two stacked programs.

    Calibration is the scheme's :meth:`stacked_calibrate` kernel over
    *prepared* traces: :meth:`calibrate` prepares a raw trace (optional
    phase sanitisation) and :meth:`calibrate_prepared` takes one that a
    caller already cleaned — one batched pass shared across detectors — and
    both are its batch of one.  Scoring is the scheme's
    :meth:`stacked_scores` kernel.  :meth:`batch_key` says which detectors
    may share a call of either kernel.
    """

    #: Scheme name: the ``score.<scheme>`` span of the kernel.
    scheme = "base"

    def __init__(self, *, sanitize: bool = True) -> None:
        self.sanitize = sanitize
        self._profile_amplitude: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def calibrate(self, baseline: CSITrace) -> None:
        """Store the static (no human) profile from a calibration trace."""
        self.calibrate_prepared(sanitize_trace(baseline) if self.sanitize else baseline)

    def calibrate_prepared(self, baseline: CSITrace) -> None:
        """Calibrate from an already-prepared (sanitised) baseline.

        *baseline* must be exactly what :meth:`calibrate` would have
        produced internally — i.e. ``sanitize_trace(raw)`` for a sanitising
        detector.  Callers batching the sanitisation across several
        consumers (see :func:`repro.api.monitor.calibrate_shared`) use this
        to skip the redundant per-detector pass; the stored state is
        bit-identical to :meth:`calibrate` on the raw trace.
        """
        type(self).stacked_calibrate([self], baseline.csi[None])

    @classmethod
    def stacked_calibrate(
        cls, detectors: Sequence["_BaseDetector"], csi: np.ndarray
    ) -> None:
        """Calibrate detector *i* from prepared calibration trace *i*.

        *csi* has shape ``(detectors, packets, antennas, subcarriers)``;
        every detector is of this class and shares one :meth:`batch_key`.
        The whole group's state is computed and checked before any of it is
        stored, so a raise leaves every detector as it was.  Every reduction
        runs along one trace's axes, so a detector's state does not depend
        on the rest of the stack.
        """
        if csi.shape[1] < 2:
            raise ValueError(
                f"calibration requires at least 2 packets, got {csi.shape[1]}"
            )
        state = cls._calibration_state(detectors, csi)
        for position, detector in enumerate(detectors):
            for name, values in state.items():
                setattr(detector, name, values[position])

    @classmethod
    def _calibration_state(
        cls, detectors: Sequence["_BaseDetector"], csi: np.ndarray
    ) -> dict[str, Sequence]:
        """Per state attribute, its value for every detector of the stack
        (schemes extend this)."""
        return {"_profile_amplitude": np.abs(csi).mean(axis=1)}

    @property
    def is_calibrated(self) -> bool:
        """Whether a calibration has stored this detector's state."""
        return self._profile_amplitude is not None

    def _require_calibration(self) -> None:
        if not self.is_calibrated:
            raise RuntimeError(
                f"{type(self).__name__} must be calibrated before monitoring"
            )

    def _prepare(self, window: CSITrace) -> CSITrace:
        if window.num_packets < 1:
            raise ValueError("monitoring window must contain at least one packet")
        return sanitize_trace(window) if self.sanitize else window

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #
    def score(self, window: CSITrace) -> float:
        """Detection statistic of a monitoring window (higher = human).

        The batch of one of :meth:`stacked_scores`: bit-identical to this
        window's score in any batch :func:`repro.api.monitor.score_windows`
        scores it in.
        """
        self._require_calibration()
        return float(self.stacked_scores([self], self._prepare(window).csi[None])[0])

    def batch_key(self) -> Hashable:
        """Detectors of one class with equal keys may share a kernel call.

        The key covers every setting :meth:`stacked_calibrate` and
        :meth:`stacked_scores` read from the batch's first detector on
        behalf of all of them; per-detector settings and calibration state
        are stacked instead and need no key.
        """
        return ()

    @classmethod
    def stacked_scores(
        cls,
        detectors: Sequence["_BaseDetector"],
        csi: np.ndarray,
        scratch: dict | None = None,
    ) -> np.ndarray:
        """Scores of a stack of prepared windows, window *i* under
        ``detectors[i]``'s calibration.

        *csi* has shape ``(windows, packets, antennas, subcarriers)``; every
        detector is calibrated, of this class and shares one
        :meth:`batch_key`.  Every reduction runs along the axes of one
        window, so a window's score does not depend on the rest of the stack.
        *scratch* is an optional dict that every scheme scoring this same
        stack shares, for window-only intermediates.
        """
        raise NotImplementedError

    def detect(self, window: CSITrace, threshold: float) -> DetectionResult:
        """Score a window and compare it against *threshold*."""
        value = self.score(window)
        return DetectionResult(score=value, threshold=threshold, detected=value > threshold)


def _keeps_base_hooks(detector: object, hooks: Sequence[str]) -> bool:
    """Whether *detector* is a :class:`_BaseDetector` that overrides none of
    *hooks*, on its class or per instance."""
    if not isinstance(detector, _BaseDetector):
        return False
    instance_attrs = getattr(detector, "__dict__", {})
    cls = type(detector)
    return not any(hook in instance_attrs for hook in hooks) and all(
        getattr(cls, hook) is getattr(_BaseDetector, hook) for hook in hooks
    )


def runs_scheme_kernel(detector: object) -> bool:
    """Whether ``detector.score`` is its scheme kernel's batch of one.

    True for :class:`_BaseDetector` instances that keep the base ``score``
    and ``_prepare`` plumbing; :func:`repro.api.monitor.score_windows`
    stacks their windows.  Any other detector is scored through its own
    ``score``.
    """
    return _keeps_base_hooks(detector, ("score", "_prepare"))


def calibrates_by_kernel(detector: object) -> bool:
    """Whether ``detector.calibrate`` is its scheme kernel's batch of one.

    True for :class:`_BaseDetector` instances that keep the base
    ``calibrate`` and ``calibrate_prepared`` plumbing;
    :func:`repro.api.monitor.calibrate_sessions` and
    :func:`~repro.api.monitor.calibrate_shared` stack their traces.  Any
    other detector calibrates through its own ``calibrate``.
    """
    return _keeps_base_hooks(detector, ("calibrate", "calibrate_prepared"))


def shares_sanitized_view(detector: object) -> bool:
    """Whether *detector* may be handed one shared sanitised view.

    True only for sanitising detectors that both calibrate and score
    through their scheme kernels (:func:`calibrates_by_kernel`,
    :func:`runs_scheme_kernel`).  For such detectors one batched
    sanitisation pass can serve every scheme, at calibration and at
    scoring; detectors that override the plumbing — or patch it per
    instance — get the raw traces.
    """
    return (
        bool(getattr(detector, "sanitize", False))
        and runs_scheme_kernel(detector)
        and calibrates_by_kernel(detector)
    )


def _stacked_profiles(detectors: Sequence[_BaseDetector]) -> np.ndarray:
    """The detectors' calibration profiles as ``(windows, antennas, subcarriers)``."""
    for detector in detectors:
        detector._require_calibration()
    return np.stack([detector._profile_amplitude for detector in detectors])


def _weighting_key(weighting: SubcarrierWeighting) -> Hashable:
    """The settings :meth:`SubcarrierWeighting.stacked_weights` reads."""
    return (weighting.use_stability_ratio,)


def _stacked_weights(
    weighting: SubcarrierWeighting, csi: np.ndarray, scratch: dict | None
) -> np.ndarray:
    """``weighting.stacked_weights(csi)``, computed once per *scratch* for
    the subcarrier and combined schemes scoring the same stack."""
    if scratch is None:
        return weighting.stacked_weights(csi)
    key = ("weights", _weighting_key(weighting))
    if key not in scratch:
        scratch[key] = weighting.stacked_weights(csi)
    return scratch[key]


class BaselineDetector(_BaseDetector):
    """Euclidean distance of CSI amplitudes (the paper's baseline scheme).

    The score is the Euclidean distance between the mean CSI amplitude of the
    monitoring window and the calibration profile, averaged over antennas.
    """

    scheme = "baseline"

    @classmethod
    def stacked_scores(cls, detectors, csi, scratch=None):
        profiles = _stacked_profiles(detectors)
        distances = np.linalg.norm(np.abs(csi).mean(axis=1) - profiles, axis=2)
        return distances.mean(axis=1)


class SubcarrierWeightingDetector(_BaseDetector):
    """Euclidean distance of subcarrier-weighted RSS changes (Eq. 15).

    Parameters
    ----------
    use_stability_ratio:
        Forwarded to :class:`~repro.core.subcarrier_weighting.SubcarrierWeighting`;
        False gives the per-packet Eq. 12 ablation variant.
    sanitize:
        Whether to phase-sanitise traces before processing.
    """

    scheme = "subcarrier"

    def __init__(
        self, *, use_stability_ratio: bool = True, sanitize: bool = True
    ) -> None:
        super().__init__(sanitize=sanitize)
        self.weighting = SubcarrierWeighting(use_stability_ratio=use_stability_ratio)

    def batch_key(self) -> Hashable:
        return _weighting_key(self.weighting)

    @classmethod
    def stacked_scores(cls, detectors, csi, scratch=None):
        profiles = _stacked_profiles(detectors)
        weights = _stacked_weights(detectors[0].weighting, csi, scratch)
        delta_s = power_to_db(np.abs(csi).mean(axis=1) ** 2) - power_to_db(profiles**2)
        # Weighted RMS: dividing by the weight-vector norm makes the score a
        # weighted root-mean-square RSS change in dB, so one global threshold
        # (the paper applies a single threshold across all cases) remains
        # meaningful whether the weights concentrate on a few subcarriers or
        # spread evenly.
        weight_norms = np.linalg.norm(weights, axis=2)
        distances = np.linalg.norm(weights * delta_s, axis=2) / np.maximum(
            weight_norms, 1e-12
        )
        return distances.mean(axis=1)

    def last_weights(self, window: CSITrace) -> np.ndarray:
        """The ``(antennas, subcarriers)`` weights of a window (diagnostics,
        figures)."""
        return self.weighting.weights_from_trace(self._prepare(window))


class SubcarrierPathWeightingDetector(_BaseDetector):
    """The full scheme: subcarrier weighting + path-weighted angular spectra.

    During calibration the static angular spectrum is computed and inverted
    into path weights (Eq. 17, gated to ±60° by default).  During monitoring
    the window's CSI is subcarrier-weighted, transformed into an angular
    spectrum, path-weighted, and compared with the equally processed static
    profile by Euclidean distance.

    Parameters
    ----------
    spectrum_estimator:
        Any estimator with an ``angle_grid_deg`` of ``K`` angles and the
        array method ``spectrum_values(covariances, columns=None)``, which
        maps an ``(N, antennas, antennas)`` covariance stack to ``(N, K)``
        spectrum values, or to the ``(N, len(columns))`` values of the grid
        indices *columns*.  Typically a
        :class:`~repro.aoa.bartlett.BartlettEstimator` (power-calibrated
        angular spectrum, the library default for detection) or a
        :class:`~repro.aoa.music.MusicEstimator` (the paper's literal choice;
        sharper peaks but scale-free values); the module docstring of
        :mod:`repro.aoa.bartlett` gives the trade-off.  Each spectrum must
        depend only on its own covariance and on the estimator's class and
        fields, reading of the array only its element count and spacing,
        never its placement; and a column's value must not depend on which
        other columns were requested.
        Calibration evaluates the whole grid, scoring only the columns
        inside some window's gate.  Detectors whose estimators agree on
        those settings (:meth:`batch_key`) share one kernel call, which runs
        the first detector's estimator for all.
    theta_min_deg, theta_max_deg:
        Angular gate of the path weights; it must hold at least one angle
        of the estimator's grid.
    use_stability_ratio:
        Subcarrier weighting variant (see :class:`SubcarrierWeightingDetector`).
    sanitize:
        Whether to phase-sanitise traces before processing.
    """

    scheme = "combined"

    def __init__(
        self,
        spectrum_estimator,
        *,
        theta_min_deg: float = -60.0,
        theta_max_deg: float = 60.0,
        use_stability_ratio: bool = True,
        sanitize: bool = True,
    ) -> None:
        super().__init__(sanitize=sanitize)
        if not callable(getattr(spectrum_estimator, "spectrum_values", None)):
            raise TypeError(
                "spectrum_estimator must provide spectrum_values"
                f"(covariances, columns=None), got {type(spectrum_estimator).__name__}"
            )
        grid = np.asarray(spectrum_estimator.angle_grid_deg, dtype=float)
        if not np.any((grid > theta_min_deg) & (grid < theta_max_deg)):
            raise ValueError(
                f"angular gate ({theta_min_deg}, {theta_max_deg}) holds no angle "
                "of the spectrum estimator's grid"
            )
        self.spectrum_estimator = spectrum_estimator
        self.theta_min_deg = theta_min_deg
        self.theta_max_deg = theta_max_deg
        self.weighting = SubcarrierWeighting(use_stability_ratio=use_stability_ratio)
        self._path_weights: np.ndarray | None = None
        self._calibration_gram: np.ndarray | None = None
        self._calibration_packets = 0

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    @classmethod
    def _calibration_state(cls, detectors, csi):
        state = super()._calibration_state(detectors, csi)
        # Path weights come from the *unweighted* static environment: this is
        # the calibration-stage MUSIC/Bartlett pass of Section IV-C, which
        # only needs to know where the static propagation paths arrive from.
        estimator = detectors[0].spectrum_estimator
        static = np.asarray(
            estimator.spectrum_values(spatial_covariances(csi)), dtype=float
        )
        if np.any(static.sum(axis=1) <= 0):
            raise ValueError("calibration produced a spectrum with no power")
        # The angular gate is per-detector state, like the spectrum.
        state["_path_weights"] = path_weights(
            static,
            estimator.angle_grid_deg,
            [detector.theta_min_deg for detector in detectors],
            [detector.theta_max_deg for detector in detectors],
        )
        # The subcarrier weights are measured per monitoring window and the
        # *same* weights are applied to the calibration CSI "before
        # subtracting" (Section IV-C).  They factor out of the calibration
        # Gram tensor, so a window's static covariance is one contraction of
        # this tensor with its weights.
        state["_calibration_gram"] = np.einsum("ncas,ncbs->nabs", csi, csi.conj())
        state["_calibration_packets"] = [csi.shape[1]] * len(detectors)
        return state

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #
    def batch_key(self) -> Hashable:
        return (_weighting_key(self.weighting), _value_key(self.spectrum_estimator))

    @classmethod
    def _stacked_spectra(
        cls,
        detectors: Sequence["SubcarrierPathWeightingDetector"],
        csi: np.ndarray,
        scratch: dict | None = None,
        columns: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(monitored, static) spectrum values of calibrated detectors, each
        ``(windows, angles)``, under every window's own subcarrier weights;
        with *columns*, only those grid angles."""
        # Weights act on signal power, so amplitudes are scaled by the square
        # root of the normalised weights before the spatial processing.
        sqrt_weights = np.sqrt(_stacked_weights(detectors[0].weighting, csi, scratch))
        monitored = csi * sqrt_weights[:, None]
        windows, packets, _, subcarriers = csi.shape
        monitored_cov = np.einsum("wpas,wpbs->wab", monitored, monitored.conj()) / (
            packets * subcarriers
        )
        grams = np.stack([detector._calibration_gram for detector in detectors])
        snapshots = np.array([detector._calibration_packets for detector in detectors])
        static_cov = np.einsum(
            "was,wbs,wabs->wab", sqrt_weights, sqrt_weights, grams
        ) / (snapshots * subcarriers)[:, None, None]
        values = detectors[0].spectrum_estimator.spectrum_values(
            np.concatenate([monitored_cov, static_cov]), columns
        )
        return values[:windows], values[windows:]

    @classmethod
    def stacked_scores(cls, detectors, csi, scratch=None):
        for detector in detectors:
            detector._require_calibration()
        path_weights = np.stack([detector._path_weights for detector in detectors])
        # The path weights are exactly zero outside each window's gate, so
        # only the columns inside some window's gate are evaluated; every
        # other column of the full-grid computation is zero.
        columns = np.flatnonzero(path_weights.any(axis=0))
        gated_weights = path_weights[:, columns]
        monitored, static = cls._stacked_spectra(detectors, csi, scratch, columns)
        weighted_monitored = gated_weights * monitored
        weighted_static = gated_weights * static
        # Express the distance in units of relative per-direction power
        # change (the path weights invert the static spectrum, so the
        # weighted static spectrum is flat inside the gate); dividing by its
        # peak makes one global threshold transfer across link cases with
        # very different absolute received powers.  The zero columns left
        # out add nothing to the peak but its ``initial`` zero.
        reference = weighted_static.max(axis=1, initial=0.0)
        if np.any(reference <= 0):
            raise ValueError("path-weighted static spectrum has no power inside the gate")
        scaled = (weighted_monitored - weighted_static) / reference[:, None]
        # The norm runs over a full-grid row, zeros included, so its
        # summation order is the full-grid one.
        difference = np.zeros(path_weights.shape)
        difference[:, columns] = scaled
        return np.linalg.norm(difference, axis=1)

    def monitored_spectrum(self, window: CSITrace) -> PseudoSpectrum:
        """Angular spectrum of a monitoring window after subcarrier
        weighting, over the estimator's grid (diagnostics)."""
        window = self._prepare(window)
        self._require_calibration()
        monitored, _ = self._stacked_spectra([self], window.csi[None])
        angles = np.array(self.spectrum_estimator.angle_grid_deg, dtype=float)
        return PseudoSpectrum(angles, monitored[0])
