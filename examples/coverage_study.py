"""Coverage study: how far from the receiver can a person be detected?

An elderly-care application needs to know the usable sensing radius of a
single link before deciding how many links to install.  This example sweeps
human positions at increasing distance from the receiver, compares the
baseline scheme with the paper's subcarrier + path weighting, and reports the
detection range at a 90 % minimum detection rate — the paper's "almost 1x
range gain" experiment (Fig. 9) as a user-facing tool.

Run with::

    python examples/coverage_study.py
"""

from __future__ import annotations

import numpy as np

from repro.api import PipelineConfig
from repro.channel import ChannelSimulator, HumanBody, ImpairmentModel, Link, Point, Room
from repro.core import balanced_threshold
from repro.csi import PacketCollector
from repro.experiments.metrics import detection_rate, range_gain
from repro.experiments.workloads import BackgroundDynamics, EnvironmentDrift


def main() -> None:
    room = Room.rectangular(13.0, 8.0, name="open-plan-office")
    link = Link(room=room, tx=Point(2.0, 3.0), rx=Point(7.0, 3.0), name="coverage-link")
    simulator = ChannelSimulator(link, max_bounces=2)
    # The pipeline (detector, window policy, seed) is described declaratively;
    # the same config dict could come straight from a JSON file.
    base = PipelineConfig.from_dict(
        {"detector": "combined", "window_packets": 25, "calibration_packets": 150, "seed": 12}
    )
    # The office's noise floor is a property of the receiver's measurements.
    collector = PacketCollector(
        simulator, impairments=ImpairmentModel(snr_db=28.0), seed=base.seed
    )
    # Realistic nuisances between monitoring windows: colleagues working at
    # least 5 m away and slow gain drift between sessions.
    background = BackgroundDynamics(link, max_people=3, seed=14)
    drift = EnvironmentDrift(link, gain_drift_std_db=0.4, seed=15)

    calibration = collector.collect_empty(num_packets=base.calibration_packets)
    detectors = {
        name: base.replace(detector=name).build_detector(link)
        for name in ("baseline", "subcarrier", "combined")
    }
    for detector in detectors.values():
        detector.calibrate(calibration)

    # Positions at increasing distance from the receiver, 1.2 m off the LOS
    # so the task is reflection-dominated (the hard regime of Fig. 9).
    distances = [1.0, 2.0, 3.0, 4.0, 5.0]
    windows_per_distance = 6
    rng = np.random.default_rng(13)

    scores: dict[str, dict[str, list[float]]] = {
        name: {f"{d:.0f}m": [] for d in distances} for name in detectors
    }
    negatives: dict[str, list[float]] = {name: [] for name in detectors}

    for _ in range(windows_per_distance * 2):
        scene = background.people_for_window() + drift.clutter_for_window()
        window = drift.apply_to_trace(
            collector.collect(scene, num_packets=base.window_packets), drift.gain_for_window()
        )
        for name, detector in detectors.items():
            negatives[name].append(detector.score(window))

    for distance in distances:
        for _ in range(windows_per_distance):
            jitter = rng.normal(0.0, 0.15, size=2)
            # Farther positions also sit farther off the LOS, so the far end
            # of the sweep is genuinely reflection-dominated.
            lateral = 0.6 + 0.45 * distance
            position = Point(
                min(max(link.rx.x - distance + jitter[0], 0.3), room.width - 0.3),
                min(max(link.rx.y + lateral + jitter[1], 0.3), room.height - 0.3),
            )
            scene = [HumanBody(position=position)]
            scene += background.people_for_window() + drift.clutter_for_window()
            window = drift.apply_to_trace(
                collector.collect(scene, num_packets=base.window_packets), drift.gain_for_window()
            )
            for name, detector in detectors.items():
                scores[name][f"{distance:.0f}m"].append(detector.score(window))

    print("Detection rate vs distance to the receiver (90% target):\n")
    print("scheme      " + "".join(f"{d:>8.0f}m" for d in distances))
    rates: dict[str, dict[str, float]] = {}
    for name in detectors:
        all_positives = [s for values in scores[name].values() for s in values]
        threshold = balanced_threshold(all_positives, negatives[name])
        rates[name] = {
            label: detection_rate(values, threshold) for label, values in scores[name].items()
        }
        print(name.ljust(12) + "".join(f"{rates[name][f'{d:.0f}m']:9.2f}" for d in distances))

    centres = {f"{d:.0f}m": d for d in distances}
    gain = range_gain(rates["baseline"], rates["combined"], bin_centres=centres)
    print(
        f"\nDetection-range gain of the combined scheme over the baseline at a 90% "
        f"minimum detection rate: {gain:+.1f}x with this link and sample size.\n"
        "(The full five-case campaign behind Fig. 9 — run "
        "`pytest benchmarks/test_bench_fig09_range.py --benchmark-only -s` — "
        "reproduces the paper's ~+1x gain with much larger samples.)"
    )


if __name__ == "__main__":
    main()
