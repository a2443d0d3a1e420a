"""Path weighting of the angular pseudospectrum (Section IV-B2, Eq. 17).

The detection statistic of the combined scheme is computed on the MUSIC
angular pseudospectrum rather than directly on subcarrier amplitudes.  Since
the impact of human presence on reflected (NLOS) paths is orders weaker than
on the LOS path, the pseudospectrum is re-weighted by

    w(theta) = 1 / P_s(theta)   for theta_min < theta < theta_max
    w(theta) = 0                otherwise                          (Eq. 17)

where ``P_s`` is the pseudospectrum measured during calibration (no human
present).  Inverting the static spectrum equalises the contribution of the
weaker reflected directions; the angular gate (±60° in the paper's
implementation) excludes the large angles where a 3-antenna linear array is
unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.aoa.music import PseudoSpectrum


@dataclass(frozen=True)
class PathWeighting:
    """Angular weighting derived from the calibration pseudospectrum.

    Parameters
    ----------
    static_spectrum:
        Pseudospectrum of the empty environment (from the calibration stage).
    theta_min_deg, theta_max_deg:
        Trusted angular window; the paper uses ±60°.
    floor:
        Relative floor applied to the static spectrum before inversion so
        that near-zero spectrum values do not produce unbounded weights.  The
        default caps the amplification of any angular direction at 20x the
        LOS direction, which keeps angular directions that carried almost no
        static energy (and therefore carry almost pure noise) from dominating
        the weighted distance.
    """

    static_spectrum: PseudoSpectrum
    theta_min_deg: float = -60.0
    theta_max_deg: float = 60.0
    floor: float = 0.05

    def __post_init__(self) -> None:
        if self.theta_min_deg >= self.theta_max_deg:
            raise ValueError(
                f"theta_min_deg ({self.theta_min_deg}) must be smaller than "
                f"theta_max_deg ({self.theta_max_deg})"
            )
        if not 0.0 < self.floor <= 1.0:
            raise ValueError(f"floor must be in (0, 1], got {self.floor}")

    # ------------------------------------------------------------------ #
    # weights
    # ------------------------------------------------------------------ #
    def weights(self) -> np.ndarray:
        """The weight ``w(theta)`` evaluated on the static spectrum's grid.

        The batch of one of :meth:`stacked_weights`.
        """
        return self.stacked_weights([self])[0]

    @staticmethod
    def stacked_weights(weightings: Sequence["PathWeighting"]) -> np.ndarray:
        """The weights of several weightings as one ``(N, angles)`` array.

        Row *n* is ``weightings[n].weights()``: every reduction runs along
        one weighting's own grid, under its own gate and floor, so a row
        does not depend on the rest of the stack.  The static spectra must
        share a grid length.
        """
        values = np.stack([w.static_spectrum.values for w in weightings])
        angles = np.stack([w.static_spectrum.angles_deg for w in weightings])
        theta_min = np.array([w.theta_min_deg for w in weightings])[:, None]
        theta_max = np.array([w.theta_max_deg for w in weightings])[:, None]
        floors = np.array([w.floor for w in weightings])[:, None]
        peaks = values.max(axis=1, keepdims=True)
        if np.any(peaks <= 0):
            raise ValueError("cannot normalise a non-positive pseudospectrum")
        weights = 1.0 / np.maximum(values / peaks, floors)
        inside = (angles > theta_min) & (angles < theta_max)
        weights = np.where(inside, weights, 0.0)
        totals = weights.sum(axis=1, keepdims=True)
        return weights / np.where(totals > 0, totals, 1.0)

    def angular_gate(self) -> np.ndarray:
        """Boolean mask of the trusted angular window on the spectrum grid."""
        angles = self.static_spectrum.angles_deg
        return (angles > self.theta_min_deg) & (angles < self.theta_max_deg)

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def apply(self, spectrum: PseudoSpectrum) -> np.ndarray:
        """Weighted spectrum values on the calibration grid.

        The monitored spectrum is interpolated onto the static spectrum's
        angle grid (they normally coincide) and multiplied by the weights.
        The spectrum values themselves are *not* re-normalised: the weights
        are already scale-free (computed from the normalised static
        spectrum), while the monitored values keep their power calibration so
        that human-induced power changes survive the weighting.
        """
        if spectrum.angles_deg.shape == self.static_spectrum.angles_deg.shape and np.allclose(
            spectrum.angles_deg, self.static_spectrum.angles_deg
        ):
            values = spectrum.values
        else:
            values = np.interp(
                self.static_spectrum.angles_deg, spectrum.angles_deg, spectrum.values
            )
        return self.weights() * values

    def weighted_distance(self, spectrum: PseudoSpectrum) -> float:
        """Euclidean distance between weighted monitored and static spectra.

        This is the combined scheme's detection statistic: both spectra are
        path-weighted and the distance between them quantifies how much the
        angular power distribution moved since calibration.
        """
        monitored = self.apply(spectrum)
        reference = self.apply(self.static_spectrum)
        return float(np.linalg.norm(monitored - reference))

    def with_gate(self, theta_min_deg: float, theta_max_deg: float) -> "PathWeighting":
        """A copy of this weighting with a different angular gate."""
        return PathWeighting(
            static_spectrum=self.static_spectrum,
            theta_min_deg=theta_min_deg,
            theta_max_deg=theta_max_deg,
            floor=self.floor,
        )


def uniform_path_weighting(static_spectrum: PseudoSpectrum) -> PathWeighting:
    """A degenerate weighting with a fully open gate and no inversion floor bias.

    Used by the ablation benchmark to isolate the effect of the ±60° gate.
    """
    return PathWeighting(
        static_spectrum=static_spectrum,
        theta_min_deg=-90.0001,
        theta_max_deg=90.0001,
    )
