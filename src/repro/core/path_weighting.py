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

:func:`path_weights` is the only implementation: it maps a stack of static
spectra on one grid, each row under its own gate, to a stack of weights, so
one detector's weights are its batch of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Relative floor applied to the static spectrum before inversion, so that
#: near-zero spectrum values do not produce unbounded weights.  It caps the
#: amplification of any angular direction at 20x the LOS direction, which
#: keeps angular directions that carried almost no static energy (and
#: therefore carry almost pure noise) from dominating the weighted distance.
PATH_WEIGHT_FLOOR = 0.05


def path_weights(
    static: np.ndarray,
    angles_deg: np.ndarray,
    theta_min_deg: Sequence[float],
    theta_max_deg: Sequence[float],
) -> np.ndarray:
    """The weights ``w(theta)`` of Eq. 17 for a stack of static spectra.

    Every reduction runs along one row, under that row's own gate, so a
    row does not depend on the rest of the stack.  A row is zero outside
    its gate and, when its gate holds an angle of the grid, sums to 1.

    Parameters
    ----------
    static:
        Static (empty-environment) spectra of shape ``(N, K)``, from the
        calibration stage.
    angles_deg:
        The ``K`` grid angles the spectra are evaluated at.
    theta_min_deg, theta_max_deg:
        The trusted angular window of each row, ``N`` bounds each; the
        paper uses ±60°.

    Returns
    -------
    numpy.ndarray
        Weights of shape ``(N, K)``.
    """
    values = np.ascontiguousarray(static, dtype=float)
    angles = np.asarray(angles_deg, dtype=float)
    if values.ndim != 2 or angles.shape != values.shape[1:]:
        raise ValueError(
            f"static spectra must have shape (N, {angles.size}) to match the "
            f"angle grid, got {values.shape}"
        )
    theta_min = np.array(theta_min_deg)[:, None]
    theta_max = np.array(theta_max_deg)[:, None]
    peaks = values.max(axis=1, keepdims=True)
    if np.any(peaks <= 0):
        raise ValueError("cannot normalise a non-positive pseudospectrum")
    weights = 1.0 / np.maximum(values / peaks, PATH_WEIGHT_FLOOR)
    inside = (angles > theta_min) & (angles < theta_max)
    weights = np.where(inside, weights, 0.0)
    totals = weights.sum(axis=1, keepdims=True)
    return weights / np.where(totals > 0, totals, 1.0)
