"""OFDM channel-frequency-response synthesis from a set of propagation paths.

Given a list of :class:`~repro.channel.rays.Path` objects, the channel
frequency response on subcarrier ``f_k`` at receive element ``m`` is the
coherent sum over paths (the discrete CFR of paper Eq. 1/its Fourier
transform):

    H_m(f_k) = sum_i  a_i(f_k) * exp(-j 2 pi f_k d_i / c) * s_m(theta_i, f_k)

where ``a_i`` is the per-path free-space amplitude times its accumulated
reflection/shadowing gain, ``d_i`` the path length, and ``s_m`` the array
steering phase for the path's angle of arrival.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.channel.antenna import UniformLinearArray
from repro.channel.constants import subcarrier_frequencies
from repro.channel.propagation import PropagationModel
from repro.channel.rays import Path
from repro.backend import active_backend


def synthesize_cfr(
    paths: Sequence[Path],
    *,
    propagation: PropagationModel | None = None,
    array: UniformLinearArray | None = None,
    frequencies: np.ndarray | None = None,
) -> np.ndarray:
    """Synthesize the complex CFR for a set of paths.

    Parameters
    ----------
    paths:
        Propagation paths; each must carry its ``amplitude_gain`` and
        ``aoa_rad``.
    propagation:
        Free-space propagation model (defaults to ``PropagationModel()``).
    array:
        Receive array; ``None`` means a single antenna (shape ``(1, K)``).
    frequencies:
        Subcarrier frequencies in Hz; defaults to the Intel 5300 grid on
        channel 11.

    Returns
    -------
    numpy.ndarray
        Complex array of shape ``(num_antennas, num_subcarriers)``.
    """
    propagation = propagation if propagation is not None else PropagationModel()
    freqs = (
        np.asarray(frequencies, dtype=float)
        if frequencies is not None
        else subcarrier_frequencies()
    )
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("frequencies must be a non-empty 1-D array")
    num_antennas = array.num_elements if array is not None else 1
    cfr = np.zeros((num_antennas, freqs.size), dtype=complex)
    for path in paths:
        length = path.length()
        base = propagation.complex_gain(length, freqs, path.amplitude_gain)
        if array is None:
            cfr[0] += base
            continue
        # Extra travel distance per element for this arrival angle, applied to
        # all elements at once.  Accumulation stays per path (not one big
        # stacked sum) so the floating-point order — and therefore the exact
        # bit pattern — matches the historical per-antenna loop.
        steer_phases = array.phase_shifts(path.aoa_rad, 1.0)  # per unit frequency
        cfr += base[None, :] * np.exp(-1j * steer_phases[:, None] * freqs[None, :])
    return cfr


def dominant_tap_power_batch(cfr_rows: np.ndarray) -> np.ndarray:
    """Power of the dominant (earliest strong) time-domain tap ``|h(0)|^2`` per row.

    The paper (Section IV-A1, following FILA [21] and [11]) approximates the
    LOS power by transforming the 30-subcarrier CSI back to the time domain
    and taking the power of the dominant early tap.  With only 20 MHz of
    bandwidth the taps are coarse (50 ns ≈ 15 m), so the strongest of the
    first few taps is a reasonable stand-in for the combined direct-path
    energy.

    All rows are transformed in a single ``np.fft.ifft(..., axis=-1)`` call;
    pocketfft transforms every row on its own, so a row's power does not
    depend on the other rows in the call.

    Parameters
    ----------
    cfr_rows:
        Complex CSI rows, shape ``(num_rows, num_subcarriers)``.

    Returns
    -------
    numpy.ndarray
        Dominant-tap powers of shape ``(num_rows,)``.
    """
    cfr_rows = np.asarray(cfr_rows)
    if cfr_rows.ndim != 2:
        raise ValueError(
            f"dominant_tap_power_batch expects (rows, subcarriers), got {cfr_rows.shape}"
        )
    impulse = np.fft.ifft(cfr_rows, axis=-1)
    # The direct path energy concentrates in the first taps; searching a
    # small early window guards against the dominant tap aliasing to the end
    # of the IFFT window because of residual phase slope.
    early = np.abs(impulse[:, : max(3, cfr_rows.shape[-1] // 8)])
    # The square takes the backend's power kernel (libm ``pow`` under
    # ``exact``), the route the campaign pins were taken with; ``x * x``
    # differs from it in the last ulp for a fraction of inputs.
    return active_backend().power(early.max(axis=-1), 2)
