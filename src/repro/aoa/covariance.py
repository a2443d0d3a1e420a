"""Spatial covariance estimation from CSI snapshots.

MUSIC operates on the covariance matrix of the signals observed across the
array.  On a commodity NIC the natural snapshots are the per-subcarrier CSI
vectors of one or more packets: each subcarrier provides one M-dimensional
observation (M = number of antennas), and averaging over subcarriers and
packets yields a well-conditioned estimate even with only three antennas.
"""

from __future__ import annotations

import numpy as np


def spatial_covariance(csi: np.ndarray) -> np.ndarray:
    """Spatial covariance matrix ``R = E[x x^H]`` from CSI snapshots.

    The batch of one of :func:`spatial_covariances`.

    Parameters
    ----------
    csi:
        Complex CSI of shape ``(antennas, subcarriers)`` for one packet or
        ``(packets, antennas, subcarriers)`` for a burst.  Every
        (packet, subcarrier) pair contributes one snapshot.

    Returns
    -------
    numpy.ndarray
        Hermitian matrix of shape ``(antennas, antennas)``.
    """
    csi = np.asarray(csi, dtype=complex)
    if csi.ndim not in (2, 3):
        raise ValueError(
            "csi must have shape (antennas, subcarriers) or "
            f"(packets, antennas, subcarriers), got {csi.shape}"
        )
    return spatial_covariances(csi.reshape((1,) * (4 - csi.ndim) + csi.shape))[0]


def spatial_covariances(csi: np.ndarray) -> np.ndarray:
    """Spatial covariances of a stack of bursts, ``(N, antennas, antennas)``.

    *csi* has shape ``(N, packets, antennas, subcarriers)``; burst *n*'s
    matrix averages its own (packet, subcarrier) snapshots, in one matrix
    product per burst, so it does not depend on the rest of the stack.
    """
    csi = np.asarray(csi, dtype=complex)
    if csi.ndim != 4:
        raise ValueError(
            f"csi must have shape (N, packets, antennas, subcarriers), got {csi.shape}"
        )
    # Collapse packets and subcarriers into one snapshot axis per burst.
    snapshots = np.moveaxis(csi, 2, 1).reshape(csi.shape[0], csi.shape[2], -1)
    num_snapshots = snapshots.shape[2]
    if num_snapshots == 0:
        raise ValueError("cannot estimate a covariance from zero snapshots")
    return snapshots @ snapshots.conj().transpose(0, 2, 1) / num_snapshots

