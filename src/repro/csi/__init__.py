"""Measurement-plane substrate: CSI frames, traces, collection and calibration.

This subpackage mimics what the Intel 5300 CSI tool delivers to user space —
per-packet complex CSI on 30 subcarriers for each receive antenna — plus the
pre-processing every CSI-based system performs before using the data:
phase sanitisation, subcarrier RSS extraction and trace management.
"""

from repro.csi.calibration import sanitize_csi_array, sanitize_trace
from repro.csi.collector import PacketCollector
from repro.csi.format import CSIFrame
from repro.csi.rssi import rss_change_db, subcarrier_rss_db
from repro.csi.trace import CSITrace

__all__ = [
    "CSIFrame",
    "CSITrace",
    "PacketCollector",
    "sanitize_csi_array",
    "sanitize_trace",
    "rss_change_db",
    "subcarrier_rss_db",
]
