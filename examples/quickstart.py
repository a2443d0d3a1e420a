"""Quickstart: detect a person on a single simulated WiFi link.

This example walks through the library's core loop end to end, the
``repro.api`` way:

1. build a room and deploy a TX-RX link (the simulator stands in for the
   paper's Tenda AP + Intel 5300 receiver);
2. describe the detection pipeline declaratively with a
   :class:`repro.api.PipelineConfig` — one per scheme the paper compares;
3. calibrate a :class:`repro.api.StreamingSession` per scheme on the empty
   room (the session also derives its decision threshold from the
   calibration windows);
4. stream monitoring packets through the sessions and read the emitted
   :class:`repro.api.DetectionEvent` objects.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import PipelineConfig, available_detectors
from repro.channel import ChannelSimulator, HumanBody, Link, Point, Room
from repro.csi import PacketCollector

#: Human-readable labels for the paper's three schemes.
SCHEME_LABELS = {
    "baseline": "baseline (CSI amplitude)",
    "subcarrier": "subcarrier weighting",
    "combined": "subcarrier + path weighting",
}


def main() -> None:
    # 1. A 8 m x 6 m room with a 4 m link across its middle.
    room = Room.rectangular(8.0, 6.0, name="demo-room")
    link = Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0), name="demo-link")
    collector = PacketCollector(ChannelSimulator(link, max_bounces=2), seed=2)

    # 2. One declarative config per registered scheme.  The base config also
    #    fixes the window policy (25 packets = 0.5 s) and the threshold
    #    policy (derived from the calibration windows).
    base = PipelineConfig(
        detector="combined",
        window_packets=25,
        calibration_packets=150,
        threshold_policy="calibration",
    )
    configs = {name: base.replace(detector=name) for name in available_detectors()}

    # 3. Calibration: 150 packets (3 seconds at 50 packets/s) of the empty room.
    calibration = collector.collect_empty(num_packets=base.calibration_packets)
    sessions = {name: config.session(link) for name, config in configs.items()}
    for session in sessions.values():
        session.calibrate(calibration)

    # 4. Stream monitoring windows (25 packets = 0.5 s each) through every
    #    session and collect the emitted detection events.
    scenarios: dict[str, HumanBody | None] = {
        "empty room": None,
        "person on the LOS path": HumanBody(position=Point(4.0, 3.0)),
        "person 1 m off the path": HumanBody(position=Point(4.0, 4.0)),
        "person 2.5 m off the path": HumanBody(position=Point(3.0, 5.4)),
    }
    labels = [SCHEME_LABELS.get(name, name) for name in sessions]
    print(f"{'scenario':28s}" + "".join(f"{label:>30s}" for label in labels))
    for scenario, human in scenarios.items():
        scene = [human] if human is not None else None
        window = collector.collect(scene, num_packets=base.window_packets)
        row = scenario.ljust(28)
        for name, session in sessions.items():
            (event,) = session.push_trace(window)
            flag = "!" if event.detected else " "
            row += f"{event.score:>28.4f} {flag}"
        print(row)

    print("\nDetection events (thresholds derived at calibration time):")
    for name, session in sessions.items():
        detections = sum(bool(e.detected) for e in session.events)
        print(
            f"  {SCHEME_LABELS.get(name, name):30s} threshold "
            f"{session.threshold:8.4f}  {detections}/{len(session.events)} "
            "windows flagged as occupied"
        )


if __name__ == "__main__":
    main()
