"""Angle-of-arrival demo: separating the LOS from reflections with 3 antennas.

A WiFi-sensing developer wants to understand what the spatial-diversity half
of the paper actually measures.  This example builds the paper's Fig. 5
scenario — a 3 m link next to a concrete wall — and prints:

* the MUSIC pseudospectrum of the empty environment (LOS + wall reflection),
* the same spectrum from spatially-smoothed MUSIC (which can only resolve a
  single path with three antennas — the trade-off the paper points out),
* how the angular power spectrum shifts when a person stands at different
  angles around the receiver, which is what path weighting exploits,
* and how those angular shifts turn into detection events when the same
  windows are streamed through the ``repro.api`` combined-scheme pipeline.

Run with::

    python examples/aoa_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.aoa import BartlettEstimator, MusicEstimator, SmoothedMusicEstimator
from repro.api import PipelineConfig
from repro.channel import ChannelSimulator, HumanBody, ImpairmentModel, Point
from repro.csi import PacketCollector
from repro.experiments.scenarios import corner_link_scenario


def ascii_spectrum(angles: np.ndarray, values: np.ndarray, width: int = 50) -> list[str]:
    """Render a spectrum as ASCII bars, one row per 15-degree step."""
    rows = []
    normalized = values / values.max()
    for angle in range(-90, 91, 15):
        level = float(np.interp(angle, angles, normalized))
        bar = "#" * int(round(level * width))
        rows.append(f"  {angle:+4d} deg |{bar}")
    return rows


def main() -> None:
    scenario = corner_link_scenario()
    link = scenario.link()
    simulator = ChannelSimulator(link, max_bounces=1)
    collector = PacketCollector(
        simulator, impairments=ImpairmentModel(snr_db=30.0), seed=6
    )
    assert link.array is not None

    print("True propagation paths (angle of arrival at the receive array):")
    for path in simulator.static_paths():
        print(
            f"  {path.kind:5s} length {path.length():5.2f} m  "
            f"aoa {np.degrees(path.aoa_rad):+6.1f} deg  gain {path.amplitude_gain:.2f}"
        )

    empty = collector.collect_empty(num_packets=200)

    music = MusicEstimator(array=link.array, num_sources=2)
    spectrum = music.pseudospectrum(empty.csi)
    print("\nMUSIC pseudospectrum of the empty environment:")
    for row in ascii_spectrum(spectrum.angles_deg, spectrum.normalized().values):
        print(row)
    print(f"  peaks: {[round(p, 1) for p in spectrum.peaks(max_peaks=2)]} deg")

    smoothed = SmoothedMusicEstimator(array=link.array)
    smoothed_spectrum = smoothed.pseudospectrum(empty.csi)
    print(
        "\nSpatially-smoothed MUSIC (effective 2-element array, "
        f"max {smoothed.max_resolvable_paths()} path):"
    )
    print(f"  peaks: {[round(p, 1) for p in smoothed_spectrum.peaks(max_peaks=2)]} deg")

    print("\nBartlett angular power change when a person stands around the receiver:")
    bartlett = BartlettEstimator(array=link.array)
    static = bartlett.pseudospectrum(empty.csi)
    broadside = link.array.broadside.normalized()
    axis = Point(-broadside.y, broadside.x)
    occupied_windows: dict[int, object] = {}
    for angle in (-45, 0, 45):
        rad = np.radians(angle)
        position = link.rx + broadside * (1.2 * float(np.cos(rad))) + axis * (
            1.2 * float(np.sin(rad))
        )
        occupied = collector.collect(HumanBody(position=position), num_packets=50)
        occupied_windows[angle] = occupied
        changed = bartlett.pseudospectrum(occupied.csi)
        delta = changed.values - np.interp(
            changed.angles_deg, static.angles_deg, static.values
        )
        strongest = changed.angles_deg[int(np.argmax(np.abs(delta)))]
        print(
            f"  person at {angle:+3d} deg, 1.2 m from RX -> largest angular power "
            f"change near {strongest:+.0f} deg "
            f"({np.max(np.abs(delta)) / static.values.max():.1%} of the static peak)"
        )

    # The same angular shifts, consumed the way a deployed system would: the
    # combined scheme (subcarrier + path weighting) streamed via repro.api.
    pipeline = PipelineConfig(detector="combined", window_packets=50, calibration_packets=200)
    session = pipeline.session(link)
    session.calibrate(empty)
    print(
        "\nStreaming the same windows through the combined-scheme pipeline "
        f"(threshold {session.threshold:.3f} from calibration):"
    )
    for angle, occupied in occupied_windows.items():
        (event,) = session.push_trace(occupied)
        verdict = "DETECTED" if event.detected else "not detected"
        print(f"  person at {angle:+3d} deg -> score {event.score:6.3f} ({verdict})")


if __name__ == "__main__":
    main()
