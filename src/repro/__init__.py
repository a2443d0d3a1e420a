"""repro — reproduction of "On Multipath Link Characterization and Adaptation
for Device-free Human Detection" (Zhou, Yang, Wu, Liu, Ni — ICDCS 2015).

The package is organised in layers:

* :mod:`repro.channel` — a 2-D ray-bouncing WiFi channel simulator standing in
  for the paper's Intel 5300 testbed (rooms, walls, a human body model, an
  OFDM/CSI synthesiser with measurement impairments).
* :mod:`repro.csi` — the measurement plane: CSI frames and traces in the Intel
  5300 format, packet collection, phase sanitisation and RSS extraction.
* :mod:`repro.aoa` — spatial processing: MUSIC, spatially-smoothed MUSIC and
  the Bartlett angular power spectrum over the 3-antenna array.
* :mod:`repro.core` — the paper's contribution: the multipath factor, the
  one-bounce link model, subcarrier weighting, path weighting and the three
  detection schemes compared in the evaluation.
* :mod:`repro.experiments` — scenarios, workloads, metrics and figure
  generators reproducing every figure of the paper's evaluation.
* :mod:`repro.api` — the pipeline API every consumer builds on: a pluggable
  detector registry, a declarative :class:`~repro.api.config.PipelineConfig`
  and push-based :class:`~repro.api.session.StreamingSession` monitoring;
  :mod:`repro.fleet` runs many links at once.

Quickstart (config -> session -> events)::

    from repro.api import PipelineConfig
    from repro.channel import ChannelSimulator, HumanBody, Link, Point, Room

    room = Room.rectangular(8.0, 6.0)
    link = Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0))

    config = PipelineConfig(detector="subcarrier", window_packets=25)
    collector = config.collector(ChannelSimulator(link))
    session = config.session(link)
    session.calibrate(collector.collect_empty(num_packets=config.calibration_packets))

    window = collector.collect(HumanBody(position=Point(4.0, 3.0)), num_packets=25)
    for event in session.push_trace(window):
        print(event.score, event.detected)
"""

__version__ = "1.1.0"

__all__ = [
    "aoa",
    "api",
    "channel",
    "core",
    "csi",
    "experiments",
    "obs",
    "utils",
]
