"""Per-packet CSI frame in the Intel 5300 layout.

The CSI tool reports, for every received packet, one complex number per
(receive antenna, subcarrier) pair — "a group of 30 CSIs" per antenna in the
paper's wording.  :class:`CSIFrame` is a thin, validated wrapper around that
matrix with the accessors the rest of the library needs (amplitude, phase,
per-subcarrier RSS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.constants import (
    INTEL5300_SUBCARRIER_INDICES,
    subcarrier_frequencies,
)
from repro.utils.convert import power_to_db


@dataclass(frozen=True)
class CSIFrame:
    """Channel State Information of a single received packet.

    Parameters
    ----------
    csi:
        Complex matrix of shape ``(num_antennas, num_subcarriers)``.
    timestamp:
        Reception time in seconds (monotonic within a trace).
    sequence_number:
        Packet counter assigned by the collector.
    subcarrier_indices:
        Subcarrier indices relative to the channel centre; defaults to the
        Intel 5300 grid and is carried along so consumers never have to guess
        the frequency axis.
    """

    csi: np.ndarray
    timestamp: float = 0.0
    sequence_number: int = 0
    subcarrier_indices: tuple[int, ...] = INTEL5300_SUBCARRIER_INDICES

    def __post_init__(self) -> None:
        csi = np.asarray(self.csi, dtype=complex)
        if csi.ndim == 1:
            csi = csi[None, :]
        if csi.ndim != 2:
            raise ValueError(
                f"csi must be 2-D (antennas x subcarriers), got shape {csi.shape}"
            )
        if csi.shape[1] != len(self.subcarrier_indices):
            raise ValueError(
                f"csi has {csi.shape[1]} subcarriers but "
                f"{len(self.subcarrier_indices)} indices were provided"
            )
        if not np.all(np.isfinite(csi)):
            raise ValueError("csi contains non-finite values")
        object.__setattr__(self, "csi", csi)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_antennas(self) -> int:
        """Number of receive antennas in the frame."""
        return self.csi.shape[0]

    @property
    def num_subcarriers(self) -> int:
        """Number of subcarriers in the frame."""
        return self.csi.shape[1]

    def amplitude(self) -> np.ndarray:
        """Linear CSI amplitude ``|H|`` of shape ``(antennas, subcarriers)``."""
        return np.abs(self.csi)

    def phase(self) -> np.ndarray:
        """Raw (wrapped) CSI phase in radians."""
        return np.angle(self.csi)

    def power(self) -> np.ndarray:
        """Per-subcarrier received power ``|H|^2``."""
        return np.abs(self.csi) ** 2

    def subcarrier_rss_db(self) -> np.ndarray:
        """Per-subcarrier RSS in dB (``10 log10 |H|^2``)."""
        return power_to_db(self.power())

    def frequencies(self) -> np.ndarray:
        """Absolute subcarrier frequencies in Hz."""
        return subcarrier_frequencies(indices=self.subcarrier_indices)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def antenna(self, index: int) -> "CSIFrame":
        """A single-antenna view of this frame."""
        if not 0 <= index < self.num_antennas:
            raise IndexError(
                f"antenna index {index} out of range for {self.num_antennas} antennas"
            )
        return CSIFrame(
            csi=self.csi[index : index + 1],
            timestamp=self.timestamp,
            sequence_number=self.sequence_number,
            subcarrier_indices=self.subcarrier_indices,
        )
