"""Angle-of-arrival estimation on the receive antenna array.

The paper distinguishes the LOS path from reflected paths in the *spatial*
domain (Section IV-B): the three receive antennas form a half-wavelength
uniform linear array, and the MUSIC algorithm turns the inter-antenna phase
differences into an angular pseudospectrum whose peaks are the arrival
directions of the propagation paths.

Each estimator (MUSIC, smoothed MUSIC, Bartlett) computes spectra through
one array method, ``spectrum_values``, which maps a stack of spatial
covariances to a stack of spectra; the spectrum of a single capture,
``pseudospectrum``, is its batch of one.
"""

from repro.aoa.bartlett import BartlettEstimator
from repro.aoa.covariance import spatial_covariance
from repro.aoa.errors import angle_error_deg, angle_error_distribution
from repro.aoa.music import MusicEstimator, PseudoSpectrum
from repro.aoa.smoothed import SmoothedMusicEstimator

__all__ = [
    "BartlettEstimator",
    "spatial_covariance",
    "angle_error_deg",
    "angle_error_distribution",
    "MusicEstimator",
    "PseudoSpectrum",
    "SmoothedMusicEstimator",
]
