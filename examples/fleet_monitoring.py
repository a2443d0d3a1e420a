"""Fleet monitoring: stream 60 heterogeneous links through one scheduler.

The paper's detector is a per-link online monitor; a deployment runs it
against a *fleet* of links with ragged, independent packet schedules.  This
example drives that layer through ``repro.fleet`` in the three ways it
ships:

1. as a library — build a :class:`repro.fleet.FleetConfig` and call
   :func:`repro.fleet.run_fleet` in-process;
2. from the CLI — persist the same config as JSON and run
   ``repro --config fleet.json fleet run --events events.jsonl``, then
   summarise the persisted stream with ``repro fleet report``;
3. sharded — rerun with ``max_workers=4`` and check the merged event stream
   is byte-identical to the sequential run (the sha256 digest matches).

Traffic is synthetic but deterministic: each link draws Poisson arrivals at
a rate set by its class (``normal``/``busy``/``abusive``), and every stream
derives from the fleet seed plus the link index alone — which is exactly why
any worker can rebuild any shard and the merge cannot depend on timing.

Run with::

    python examples/fleet_monitoring.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.api import PipelineConfig
from repro.fleet import FleetConfig, run_fleet


def main() -> None:
    # 1. Library mode.  60 links over 6 simulated seconds; the default class
    #    mix is 80% normal (5 Hz), 15% busy (20 Hz), 5% abusive (60 Hz).
    config = FleetConfig(
        links=60,
        duration_s=6.0,
        seed=2015,
        batch_windows=32,
        pipeline=PipelineConfig(
            detector="baseline", window_packets=10, calibration_packets=30
        ),
    )
    report = run_fleet(config)
    print(f"fleet of {report.links} links, class census {report.per_class}")
    print(
        f"arrivals={report.arrivals} windows={report.windows_scored} "
        f"detected={report.detected}"
    )
    print(
        f"throughput {report.windows_per_sec:.0f} windows/s, "
        f"latency p50={report.latency_p50_s * 1e3:.2f}ms "
        f"p99={report.latency_p99_s * 1e3:.2f}ms"
    )
    digest = report.event_digest()
    print(f"event digest {digest}\n")

    # 2. CLI mode.  The same config round-trips through JSON; `fleet run`
    #    appends one event per line to a JSONL file and `fleet report`
    #    recomputes the digest from that file alone — the persisted stream
    #    is the canonical artifact, not the in-memory one.
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as workdir:
        config_path = Path(workdir) / "fleet.json"
        events_path = Path(workdir) / "events.jsonl"
        config_path.write_text(config.to_json())
        for argv, label in (
            (
                ["--config", str(config_path), "fleet", "run", "--events", str(events_path)],
                "fleet run",
            ),
            (["fleet", "report", "--events", str(events_path)], "fleet report"),
        ):
            out = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                capture_output=True,
                text=True,
                check=True,
            )
            payload = json.loads(out.stdout)
            print(f"repro {label} -> {payload['events']} events")
            assert payload["event_digest"] == digest  # CLI == library, bit for bit

    # 3. Sharded mode.  Four workers rebuild disjoint link shards and the
    #    merged stream sorts into the same canonical order — the digest is
    #    the proof that parallelism changed nothing.
    sharded = run_fleet(config, max_workers=4)
    assert sharded.event_digest() == digest
    print(f"\nworkers=4 digest matches sequential run ({sharded.workers} shards)")


if __name__ == "__main__":
    main()
