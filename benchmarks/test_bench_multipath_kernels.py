"""Perf benchmarks for the batched multipath-factor and weighting kernels.

Before the stacked-IFFT pipeline the campaign spent ~1.3 s of its ~2.7 s
profile in ~40k independent length-30 ``np.fft.ifft`` calls (one per
frame/antenna) inside the per-row dominant-tap power.  These benchmarks track the
batched kernels directly — a 1000-packet window through
``multipath_factor_trace`` (one stacked IFFT for all 3000 rows), the stacked
IFFT itself and one subcarrier-weighting window — so a regression in either
kernel shows up without re-running the whole campaign.  The impairment
kernel (one block of normals per packet, drawn for every packet of a call
at once from the collector's one generator) is tracked by
``test_bench_perf_campaign.py``'s 150-packet collector window.
The combined scheme's scoring kernel is timed on a fleet-shaped stack: one
window from each of 256 calibrated combined sessions, the size of the
fleet's flushes and calibration replays.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import PipelineConfig
from repro.channel.ofdm import dominant_tap_power_batch
from repro.core.detector import SubcarrierPathWeightingDetector
from repro.core.multipath_factor import multipath_factor_trace
from repro.core.subcarrier_weighting import SubcarrierWeighting
from repro.csi.calibration import sanitize_trace
from repro.csi.trace import CSITrace
from repro.fleet import FleetConfig


def _random_trace(packets: int, antennas: int = 3, subcarriers: int = 30) -> CSITrace:
    rng = np.random.default_rng(2015)
    csi = rng.normal(size=(packets, antennas, subcarriers)) + 1j * rng.normal(
        size=(packets, antennas, subcarriers)
    )
    return CSITrace(csi=csi)


def test_multipath_factor_trace_1000_packets(benchmark):
    """3000 CSI rows through one stacked IFFT + batched Eq. 10/11."""
    trace = _random_trace(1000)
    factors = benchmark(multipath_factor_trace, trace)
    assert factors.shape == trace.csi.shape
    assert np.all(np.isfinite(factors))


def test_dominant_tap_power_batch_3000_rows(benchmark):
    """The raw batched IFFT kernel on a (3000, 30) stack."""
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(3000, 30)) + 1j * rng.normal(size=(3000, 30))
    powers = benchmark(dominant_tap_power_batch, rows)
    assert powers.shape == (3000,)
    assert np.all(powers > 0)


def test_subcarrier_weighting_window(benchmark):
    """The detector-scoring hot path: weights from a 25-packet window."""
    trace = _random_trace(25)
    weighting = SubcarrierWeighting()
    weights = benchmark(weighting.stacked_weights, trace.csi[None])
    assert weights.shape == (1, 3, 30)


#: sha256 over the stack's 256 windows and the links' calibration captures
#: (a detector is a function of its capture and geometry; its replay
#: threshold is left out because its bits depend on the FFT build).  Pool
#: and calibration bytes do not depend on the traffic duration, so this is
#: the stack the 2-second fleet of the same seed gave when set-up still
#: acquired every link's whole pool.
COMBINED_STACK_SHA256 = "9df0b3ad833be5853b348bb78d189d5e96a556c0592b19a2f5a3372d81def148"


@pytest.fixture(scope="module")
def combined_stack():
    """256 calibrated combined sessions and one raw 10-packet window each.

    The sessions are a fleet's (five geometries, one kernel group), and the
    windows cycle through the idle and occupied halves of each link's pool.
    The fleet runs 20 s, so every link's windows read (and set-up acquires)
    its whole 40-frame pool.
    """
    from repro.fleet.engine import _setup_streams

    config = FleetConfig(
        links=256,
        duration_s=20.0,
        seed=5,
        pool_packets=40,
        pipeline=PipelineConfig(
            detector="combined", window_packets=10, calibration_packets=30
        ),
    )
    streams, _ = _setup_streams(config, range(config.links))
    assert all(traffic.pool_csi.shape[0] == 40 for _, traffic in streams)
    detectors = [session.detector for session, _ in streams]
    windows = [
        CSITrace(
            csi=traffic.pool_csi[10 * (i % 4) : 10 * (i % 4) + 10],
            subcarrier_indices=traffic.subcarrier_indices,
        )
        for i, (_, traffic) in enumerate(streams)
    ]
    digest = hashlib.sha256()
    for (_, traffic), window in zip(streams, windows):
        digest.update(window.csi.tobytes())
        digest.update(traffic.calibration.csi.tobytes())
    assert digest.hexdigest() == COMBINED_STACK_SHA256
    return detectors, windows


def test_combined_kernel_256_windows(benchmark, combined_stack):
    """The combined ``stacked_scores`` on 256 prepared windows in one call."""
    detectors, windows = combined_stack
    assert len({detector.batch_key() for detector in detectors}) == 1
    csi = np.stack([sanitize_trace(window).csi for window in windows])
    scores = benchmark(SubcarrierPathWeightingDetector.stacked_scores, detectors, csi)
    assert scores.shape == (256,)
    assert np.all(np.isfinite(scores))
    assert scores[7] == detectors[7].score(windows[7])
