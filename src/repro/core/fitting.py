"""Logarithmic fitting of RSS change against the multipath factor (Fig. 3).

The link model predicts (Eq. 6 / Eq. 8) that the per-subcarrier RSS change is
``10 lg(c1 + c2 * mu)`` — approximately logarithmic in the multipath factor.
Fig. 3b/3c of the paper fit exactly that curve per subcarrier and show the
monotone decreasing trend holds on every subcarrier even though the fitted
coefficients vary.  This module reproduces the fit and the monotonicity
summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogFit:
    """Result of fitting ``delta_s = a * log10(mu) + b``.

    Attributes
    ----------
    slope:
        Coefficient ``a`` in dB per decade of multipath factor; negative when
        the RSS change decreases with increasing ``mu`` (the paper's trend).
    intercept:
        Coefficient ``b`` in dB.
    r_value:
        Pearson correlation coefficient of the fit.
    spearman:
        Spearman rank correlation between ``mu`` and ``delta_s`` — the
        distribution-free check of the monotone relationship.
    num_samples:
        Number of (mu, delta_s) pairs used.
    """

    slope: float
    intercept: float
    r_value: float
    spearman: float
    num_samples: int

    def predict(self, mu: np.ndarray | float) -> np.ndarray:
        """Predicted RSS change (dB) for multipath factor *mu*."""
        mu = np.asarray(mu, dtype=float)
        return self.slope * np.log10(np.maximum(mu, 1e-12)) + self.intercept

    def is_monotone_decreasing(self, *, tolerance: float = 0.0) -> bool:
        """True when the fitted relationship decreases with ``mu``."""
        return self.slope < tolerance


def fit_log_curve(mu: np.ndarray, delta_s: np.ndarray) -> LogFit:
    """Fit ``delta_s = a log10(mu) + b`` to the sample pairs.

    Parameters
    ----------
    mu:
        Multipath factors (positive).
    delta_s:
        RSS changes in dB, same shape as *mu*.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    delta_s = np.asarray(delta_s, dtype=float).ravel()
    if mu.shape != delta_s.shape:
        raise ValueError(
            f"mu and delta_s must have the same shape, got {mu.shape} and {delta_s.shape}"
        )
    if mu.size < 3:
        raise ValueError(f"need at least 3 samples to fit, got {mu.size}")
    if np.any(mu <= 0):
        raise ValueError("multipath factors must be positive")
    # SciPy loads on first use: only the Fig. 3 analysis fits the log curve.
    from scipy import stats

    log_mu = np.log10(mu)
    result = stats.linregress(log_mu, delta_s)
    spearman = stats.spearmanr(mu, delta_s).statistic
    if not np.isfinite(spearman):
        spearman = 0.0
    return LogFit(
        slope=float(result.slope),
        intercept=float(result.intercept),
        r_value=float(result.rvalue),
        spearman=float(spearman),
        num_samples=int(mu.size),
    )


def fit_per_subcarrier(
    mu: np.ndarray, delta_s: np.ndarray, *, min_range_db: float = 0.5
) -> dict[int, LogFit]:
    """Fit the logarithmic curve independently on every subcarrier.

    The paper notes (Section IV-A1) that subcarriers whose RSS change only
    varies within a small range produce error-prone fits; those are skipped
    via *min_range_db*.

    Parameters
    ----------
    mu:
        Multipath factors of shape ``(samples, subcarriers)``.
    delta_s:
        RSS changes in dB, same shape.
    min_range_db:
        Minimum peak-to-peak RSS-change range for a subcarrier to be fitted.

    Returns
    -------
    dict
        Mapping from subcarrier position (0-based column index) to its
        :class:`LogFit`.
    """
    mu = np.asarray(mu, dtype=float)
    delta_s = np.asarray(delta_s, dtype=float)
    if mu.shape != delta_s.shape or mu.ndim != 2:
        raise ValueError(
            "mu and delta_s must both have shape (samples, subcarriers), "
            f"got {mu.shape} and {delta_s.shape}"
        )
    fits: dict[int, LogFit] = {}
    for k in range(mu.shape[1]):
        if np.ptp(delta_s[:, k]) < min_range_db:
            continue
        fits[k] = fit_log_curve(mu[:, k], delta_s[:, k])
    return fits


def monotone_fraction(fits: dict[int, LogFit]) -> float:
    """Fraction of fitted subcarriers whose trend is monotone decreasing.

    Fig. 3c's headline observation is that the decreasing trend "roughly
    holds for all subcarriers"; this helper quantifies it.
    """
    if not fits:
        raise ValueError("monotone_fraction requires at least one fit")
    decreasing = sum(1 for fit in fits.values() if fit.is_monotone_decreasing())
    return decreasing / len(fits)
