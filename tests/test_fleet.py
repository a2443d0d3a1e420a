"""Tests for repro.fleet: traffic determinism, scheduler parity, fleet engine.

The load-bearing contracts:

* per-link traffic is a pure function of ``(fleet seed, link index)`` — any
  worker can rebuild any subset byte-identically;
* the cross-link batch scheduler emits events byte-for-byte identical to
  sequential per-link :meth:`~repro.api.session.StreamingSession.push`, for
  any batch-flush size;
* :func:`~repro.fleet.run_fleet` produces the same canonical event stream
  for any worker count.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import PipelineConfig
from repro.backend import use_backend
from repro.csi.format import CSIFrame
from repro.experiments.scenarios import evaluation_cases
from repro.fleet import (
    RATE_CLASSES,
    FleetConfig,
    FleetScheduler,
    LinkTraffic,
    derive_link_seed,
    poisson_arrival_times,
    run_fleet,
)
from repro.fleet.traffic import build_fleet_traffic
from repro.utils.rng import ensure_rng
from tests.pins import COMBINED_FLEET_EVENT_SHA256
from tests.traffic_oracle import full_pool_traffic


def small_pipeline(**changes) -> PipelineConfig:
    settings = {
        "detector": "baseline",
        "window_packets": 10,
        "calibration_packets": 30,
    }
    settings.update(changes)
    return PipelineConfig(**settings)


def small_fleet(**changes) -> FleetConfig:
    settings = {
        "links": 8,
        "duration_s": 4.0,
        "seed": 11,
        "batch_windows": 8,
        "pool_packets": 20,
        "pipeline": small_pipeline(),
    }
    settings.update(changes)
    return FleetConfig(**settings)


def traffic_kw(config: FleetConfig) -> dict:
    return dict(
        seed=config.seed,
        pipeline=config.pipeline,
        duration_s=config.duration_s,
        pool_packets=config.pool_packets,
        occupied_fraction=config.occupied_fraction,
        class_mix=config.class_mix,
        class_rates_hz=config.class_rates_hz,
    )


def fleet_traffic(config: FleetConfig, indices) -> list[LinkTraffic]:
    """The links' traffic as the fleet builds it (only the frames read)."""
    cases = evaluation_cases()
    links = [cases[index % len(cases)][1] for index in indices]
    return build_fleet_traffic(list(indices), links, **traffic_kw(config))


def oracle_traffic(config: FleetConfig, index: int) -> LinkTraffic:
    """The full-pool oracle's traffic of one link."""
    cases = evaluation_cases()
    return full_pool_traffic(
        index, cases[index % len(cases)][1], **traffic_kw(config)
    )


def sequential_events(config: FleetConfig, index: int):
    """The reference stream: fresh session, plain per-frame push over the
    oracle's full pool."""
    return replay(config, oracle_traffic(config, index))


def replay(config: FleetConfig, traffic: LinkTraffic):
    """Push every arrival of a full-pool *traffic* through a fresh session.

    Arrival ``i`` reports pool frame ``i % pool``, stamped with its arrival
    time.
    """
    cases = evaluation_cases()
    _, link = cases[traffic.profile.index % len(cases)]
    session = config.pipeline.session(link, link_name=traffic.profile.name)
    session.calibrate(traffic.calibration)
    pool = traffic.pool_csi.shape[0]
    events = []
    for i in range(traffic.num_arrivals):
        frame = CSIFrame(
            csi=traffic.pool_csi[i % pool],
            timestamp=float(traffic.arrivals[i]),
            sequence_number=i,
            subcarrier_indices=traffic.subcarrier_indices,
        )
        event = session.push(frame)
        if event is not None:
            events.append(event)
    return events


def stream_digest(events) -> str:
    payload = json.dumps([event.to_dict() for event in events], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# config
# --------------------------------------------------------------------------- #
class TestFleetConfig:
    def test_dict_round_trip(self):
        config = small_fleet(occupied_fraction=0.25, max_workers=3)
        restored = FleetConfig.from_dict(config.to_dict())
        assert restored == config
        assert isinstance(restored.pipeline, PipelineConfig)

    def test_json_round_trip(self):
        config = small_fleet()
        assert FleetConfig.from_json(config.to_json()) == config

    def test_from_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        config = small_fleet(links=5)
        path.write_text(config.to_json())
        assert FleetConfig.from_file(path) == config

    def test_nested_pipeline_dict_parsed(self):
        config = FleetConfig.from_dict(
            {"links": 3, "pipeline": {"detector": "baseline", "window_packets": 5}}
        )
        assert config.pipeline.detector == "baseline"
        assert config.pipeline.window_packets == 5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown FleetConfig keys"):
            FleetConfig.from_dict({"links": 3, "durration_s": 2.0})

    def test_unknown_pipeline_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown PipelineConfig keys"):
            FleetConfig.from_dict({"pipeline": {"detectr": "baseline"}})

    @pytest.mark.parametrize(
        "changes",
        [
            {"links": 0},
            {"links": True},
            {"duration_s": 0.0},
            {"batch_windows": 0},
            {"pool_packets": 0},
            {"max_workers": 0},
            {"occupied_fraction": 1.5},
            {"seed": "2015"},
            {"class_mix": {}},
            {"class_mix": {"vip": 1.0}},
            {"class_mix": {"normal": 0.0}},
            {"class_mix": {"normal": -1.0, "busy": 2.0}},
            {"class_mix": {"normal": 1.0}, "class_rates_hz": {"busy": 5.0}},
            {"class_rates_hz": {"normal": 0.0}},
            {"pipeline": "baseline"},
        ],
    )
    def test_invalid_values_rejected(self, changes):
        with pytest.raises(ValueError):
            small_fleet(**changes)

    @pytest.mark.parametrize(
        "changes",
        [
            {"duration_s": float("inf")},
            {"duration_s": float("nan")},
            {"duration_s": True},
            {"class_mix": {"normal": float("nan"), "busy": 1.0}},
            {"class_mix": {"normal": float("inf"), "busy": 1.0}},
            {"class_mix": {"normal": True}},
            {"class_rates_hz": {"normal": float("inf"), "busy": 20.0, "abusive": 60.0}},
            {"class_rates_hz": {"normal": float("nan"), "busy": 20.0, "abusive": 60.0}},
            {"class_rates_hz": {"normal": True, "busy": 20.0, "abusive": 60.0}},
        ],
    )
    def test_non_finite_and_boolean_numbers_rejected(self, changes):
        with pytest.raises(ValueError, match="must be a finite number"):
            small_fleet(**changes)

    def test_replace_validates(self):
        config = small_fleet()
        assert config.replace(links=50).links == 50
        with pytest.raises(ValueError):
            config.replace(batch_windows=0)


# --------------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------------- #
class TestTraffic:
    def test_derive_link_seed_convention(self):
        assert derive_link_seed(7, 0) == 7
        assert derive_link_seed(7, 3) == 3007

    def test_poisson_arrivals_sorted_and_bounded(self):
        times = poisson_arrival_times(ensure_rng(3), rate_hz=40.0, duration_s=5.0)
        assert times.shape[0] > 0
        assert np.all(np.diff(times) > 0)
        assert times[0] > 0 and times[-1] < 5.0

    def test_poisson_rate_roughly_honoured(self):
        times = poisson_arrival_times(ensure_rng(4), rate_hz=50.0, duration_s=100.0)
        assert times.shape[0] == pytest.approx(5000, rel=0.1)

    def test_traffic_is_pure_function_of_seed_and_index(self):
        config = small_fleet()
        first = fleet_traffic(config, [4])[0]
        second = fleet_traffic(config, [0, 2, 4, 7])[2]
        assert np.array_equal(first.arrivals, second.arrivals)
        assert np.array_equal(first.pool_csi, second.pool_csi)
        assert np.array_equal(first.calibration.csi, second.calibration.csi)
        assert first.profile == second.profile

    def test_different_links_draw_different_traffic(self):
        config = small_fleet(duration_s=20.0)
        a, b = fleet_traffic(config, [0, 5])
        # Same case geometry (5 mod 5 == 0) but independent streams.
        assert a.profile.case_name == b.profile.case_name
        assert not np.array_equal(a.pool_csi, b.pool_csi)

    def test_single_class_mix_assigns_everyone(self):
        config = small_fleet(
            class_mix={"abusive": 1.0}, class_rates_hz={"abusive": 30.0}
        )
        for traffic in fleet_traffic(config, range(4)):
            assert traffic.profile.rate_class == "abusive"

    def test_mix_census_tracks_weights(self):
        config = small_fleet(class_mix={"normal": 0.5, "busy": 0.5})
        classes = {traffic.profile.rate_class for traffic in fleet_traffic(config, range(12))}
        assert classes <= {"normal", "busy"}
        assert len(classes) == 2

    @pytest.mark.parametrize("fraction, expected", [(0.0, 0), (1.0, 20)])
    def test_occupied_fraction_extremes(self, fraction, expected):
        # 20 s at >= 5 Hz: the link's windows read its whole 20-frame pool.
        config = small_fleet(occupied_fraction=fraction, duration_s=20.0)
        traffic = fleet_traffic(config, [1])[0]
        assert traffic.pool_csi.shape[0] == traffic.pool_cycle == 20
        assert int(traffic.pool_occupied.sum()) == expected

    def test_non_finite_pool_rejected(self):
        traffic = fleet_traffic(small_fleet(pool_packets=5), [2])[0]
        pool_csi = traffic.pool_csi.copy()
        pool_csi[3, 0, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            LinkTraffic(
                traffic.profile,
                traffic.arrivals,
                traffic.calibration,
                pool_csi,
                traffic.pool_occupied,
                traffic.subcarrier_indices,
                traffic.pool_cycle,
            )

    def test_decreasing_arrivals_rejected(self):
        traffic = fleet_traffic(small_fleet(pool_packets=5), [2])[0]
        with pytest.raises(ValueError, match="non-decreasing"):
            LinkTraffic(
                traffic.profile,
                traffic.arrivals[::-1],
                traffic.calibration,
                traffic.pool_csi,
                traffic.pool_occupied,
                traffic.subcarrier_indices,
                traffic.pool_cycle,
            )


class TestPoolCycle:
    """``LinkTraffic`` holds a prefix of its pool's cycle; ``arrival_csi``
    maps arrival ``i`` to frame ``i % pool_cycle``."""

    def traffic(self, frames: int, cycle) -> LinkTraffic:
        oracle = oracle_traffic(small_fleet(pool_packets=6), 3)
        return LinkTraffic(
            oracle.profile,
            oracle.arrivals,
            oracle.calibration,
            oracle.pool_csi[:frames],
            oracle.pool_occupied[:frames],
            oracle.subcarrier_indices,
            pool_cycle=cycle,
        )

    def test_arrival_csi_cycles_over_the_pool(self):
        full = self.traffic(6, 6)
        arrivals = np.arange(20)
        assert np.array_equal(full.arrival_csi(arrivals), full.pool_csi[arrivals % 6])
        assert np.array_equal(full.arrival_csi(13), full.pool_csi[1])

    def test_prefix_reads_acquired_frames_and_refuses_the_rest(self):
        full, prefix = self.traffic(6, 6), self.traffic(4, 6)
        assert np.array_equal(prefix.arrival_csi(np.arange(4)), full.pool_csi[:4])
        assert np.array_equal(prefix.arrival_csi(np.arange(6, 10)), full.pool_csi[:4])
        with pytest.raises(IndexError):
            prefix.arrival_csi(np.arange(2, 6))
        with pytest.raises(IndexError):
            prefix.arrival_csi(11)

    def test_zero_frames_keep_their_cycle(self):
        empty = self.traffic(0, 6)
        assert empty.pool_csi.shape[0] == 0 and empty.pool_cycle == 6
        assert "frames=0/6" in repr(empty)
        with pytest.raises(IndexError):
            empty.arrival_csi(0)

    @pytest.mark.parametrize("frames, cycle", [(4, 3), (0, 0), (4, True), (4, 6.0), (4, None)])
    def test_bad_cycle_rejected(self, frames, cycle):
        with pytest.raises(ValueError, match="pool_cycle"):
            self.traffic(frames, cycle)

    def test_link_without_a_complete_window_holds_no_frames(self):
        config = small_fleet(duration_s=1.5)
        traffics = fleet_traffic(config, range(config.links))
        window = config.pipeline.window_packets
        short = [t for t in traffics if t.num_arrivals < window]
        assert short and len(short) < len(traffics)
        for traffic in short:
            assert traffic.pool_csi.shape == (0, 3, 30)
            assert traffic.pool_occupied.shape == (0,)
            assert traffic.pool_cycle == config.pool_packets


# --------------------------------------------------------------------------- #
# prefix acquisition vs the full-pool oracle
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    duration_s=st.floats(0.3, 5.0),
    pool_packets=st.integers(1, 30),
    occupied_fraction=st.sampled_from((0.0, 0.5, 1.0)),
    window_packets=st.integers(1, 12),
    window_stride=st.one_of(st.none(), st.integers(1, 12)),
    loss_probability=st.sampled_from((0.0, 0.3)),
    detector=st.sampled_from(("baseline", "combined")),
    backend=st.sampled_from(("exact", "fast")),
    seed=st.integers(0, 10_000),
)
def test_fleet_acquires_the_full_pool_prefix_its_windows_read(
    duration_s,
    pool_packets,
    occupied_fraction,
    window_packets,
    window_stride,
    loss_probability,
    detector,
    backend,
    seed,
):
    """Each link holds pool frames ``0 … min(pool, last window end) - 1``,
    byte-equal to the full-pool oracle's prefix; every frame a planned
    window reads is there; the fleet's events are the sequential push
    replayed on the full pool."""
    config = small_fleet(
        links=3,
        seed=seed,
        duration_s=duration_s,
        pool_packets=pool_packets,
        occupied_fraction=occupied_fraction,
        backend=backend,
        pipeline=small_pipeline(
            detector=detector,
            window_packets=window_packets,
            window_stride=window_stride,
            loss_probability=loss_probability,
        ),
    )
    cases = evaluation_cases()
    with use_backend(backend):
        traffics = fleet_traffic(config, range(config.links))
        oracles = [oracle_traffic(config, index) for index in range(config.links)]
        references = [replay(config, oracle) for oracle in oracles]
    report = run_fleet(config)
    for traffic, oracle, reference in zip(traffics, oracles, references):
        assert traffic.profile == oracle.profile
        assert traffic.arrivals.tobytes() == oracle.arrivals.tobytes()
        assert traffic.calibration.csi.tobytes() == oracle.calibration.csi.tobytes()
        assert (
            traffic.calibration.timestamps.tobytes()
            == oracle.calibration.timestamps.tobytes()
        )
        assert traffic.calibration.label == oracle.calibration.label
        session = config.pipeline.session(cases[traffic.profile.index % len(cases)][1])
        starts = session.window_starts(traffic.num_arrivals)
        last_end = int(starts[-1]) + window_packets if starts.size else 0
        frames = traffic.pool_csi.shape[0]
        assert frames == min(pool_packets, last_end)
        assert traffic.pool_cycle == pool_packets
        assert traffic.pool_csi.tobytes() == oracle.pool_csi[:frames].tobytes()
        assert np.array_equal(traffic.pool_occupied, oracle.pool_occupied[:frames])
        for start in starts:
            read = np.arange(start, start + window_packets)
            assert (
                traffic.arrival_csi(read).tobytes()
                == oracle.pool_csi[read % pool_packets].tobytes()
            )
        events = [event for event in report.events if event.link == traffic.profile.name]
        assert events == reference


# --------------------------------------------------------------------------- #
# scheduler vs sequential parity
# --------------------------------------------------------------------------- #
class TestSchedulerParity:
    def fleet_streams(self, config):
        """Calibrated sessions over the fleet builder's traffic (only the
        frames the windows read); the reference replays the oracle's."""
        cases = evaluation_cases()
        streams = []
        for index, traffic in enumerate(fleet_traffic(config, range(config.links))):
            _, link = cases[index % len(cases)]
            session = config.pipeline.session(link, link_name=traffic.profile.name)
            session.calibrate(traffic.calibration)
            streams.append((session, traffic))
        return streams

    @pytest.mark.parametrize("batch_windows", [1, 3, 64])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_batched_events_bit_identical_to_sequential_push(self, seed, batch_windows):
        config = small_fleet(seed=seed, links=6)
        scheduler = FleetScheduler(batch_windows=batch_windows)
        events, stats = scheduler.run(self.fleet_streams(config))
        assert stats.windows == len(events) > 0
        assert len(stats.latencies_s) == len(events)
        by_link: dict[str, list] = {}
        for event in events:
            by_link.setdefault(event.link, []).append(event)
        for index in range(config.links):
            reference = sequential_events(config, index)
            name = f"link-{index:05d}"
            got = sorted(by_link.get(name, []), key=lambda event: event.index)
            assert stream_digest(got) == stream_digest(reference)

    @pytest.mark.parametrize("batch_windows", [1, 3, 64])
    def test_combined_batched_events_bit_identical_to_sequential_push(
        self, batch_windows
    ):
        # The paper's scheme: cross-link stacked spectra, one kernel call
        # per flush and array geometry, against plain per-link push.
        config = small_fleet(links=6, pipeline=small_pipeline(detector="combined"))
        events, _ = FleetScheduler(batch_windows=batch_windows).run(
            self.fleet_streams(config)
        )
        by_link: dict[str, list] = {}
        for event in events:
            by_link.setdefault(event.link, []).append(event)
        assert events
        for index in range(config.links):
            reference = sequential_events(config, index)
            got = sorted(by_link.get(f"link-{index:05d}", []), key=lambda e: e.index)
            assert stream_digest(got) == stream_digest(reference)

    def test_parity_holds_for_non_batchable_detector(self):
        # Subcarrier sessions share the stacked kernel path too; events must
        # match plain push exactly.
        config = small_fleet(
            links=3, pipeline=small_pipeline(detector="subcarrier")
        )
        events, _ = FleetScheduler(batch_windows=4).run(self.fleet_streams(config))
        by_link: dict[str, list] = {}
        for event in events:
            by_link.setdefault(event.link, []).append(event)
        assert events
        for index in range(config.links):
            reference = sequential_events(config, index)
            got = by_link.get(f"link-{index:05d}", [])
            assert stream_digest(got) == stream_digest(reference)

    def test_deferred_packets_seen_matches_inline_push(self):
        # Regression: packets_seen must be captured at window completion,
        # not at deferred emission — a large batch delays scoring past many
        # subsequent arrivals.
        config = small_fleet(links=6, batch_windows=10_000)
        events, _ = FleetScheduler(batch_windows=10_000).run(self.fleet_streams(config))
        reference = {
            (event.link, event.index): event
            for index in range(config.links)
            for event in sequential_events(config, index)
        }
        assert events
        for event in events:
            assert event == reference[(event.link, event.index)]

    def assert_matches_sequential_push(self, config, events):
        """Events come out in (completion time, link) order, and each link's
        are the ones its plain per-frame push emits."""
        keys = [(event.timestamp, event.link) for event in events]
        assert keys == sorted(keys)
        by_link: dict[str, list] = {}
        for event in events:
            by_link.setdefault(event.link, []).append(event)
        for index in range(config.links):
            reference = sequential_events(config, index)
            assert by_link.get(f"link-{index:05d}", []) == reference

    @pytest.mark.parametrize("detector", ["baseline", "combined"])
    @pytest.mark.parametrize("stride", [3, 10, 15])
    def test_strided_windows_match_sequential_push(self, detector, stride):
        config = small_fleet(
            links=4,
            duration_s=2.0,
            pipeline=small_pipeline(detector=detector, window_stride=stride),
        )
        events, stats = FleetScheduler(batch_windows=5).run(self.fleet_streams(config))
        assert events and stats.windows == len(events)
        self.assert_matches_sequential_push(config, events)

    def test_short_links_emit_nothing_but_count_their_arrivals(self):
        config = small_fleet(duration_s=1.5)
        streams = self.fleet_streams(config)
        window = config.pipeline.window_packets
        counts = [traffic.num_arrivals for _, traffic in streams]
        assert min(counts) < window <= max(counts)
        events, stats = FleetScheduler(batch_windows=4).run(streams)
        assert stats.arrivals == sum(counts)
        short = {t.profile.name for _, t in streams if t.num_arrivals < window}
        assert not short & {event.link for event in events}
        self.assert_matches_sequential_push(config, events)

    def test_scheduler_requires_calibrated_sessions(self):
        config = small_fleet(links=1)
        session = config.pipeline.session(evaluation_cases()[0][1])
        with pytest.raises(RuntimeError, match="calibrated"):
            FleetScheduler().run([(session, oracle_traffic(config, 0))])

    def test_scheduler_requires_fresh_sessions(self):
        streams = self.fleet_streams(small_fleet(links=2))
        FleetScheduler().run(streams)
        with pytest.raises(ValueError, match="first packet"):
            FleetScheduler().run(streams)

    def test_scheduler_rejects_bad_batch_and_sessions(self):
        with pytest.raises(ValueError, match="batch_windows"):
            FleetScheduler(batch_windows=0)
        with pytest.raises(TypeError, match="StreamingSession"):
            FleetScheduler().run([(object(), None)])


# --------------------------------------------------------------------------- #
# fleet engine determinism
# --------------------------------------------------------------------------- #
class TestRunFleet:
    def test_report_shape_and_census(self):
        config = small_fleet()
        report = run_fleet(config)
        assert report.links == config.links
        assert sum(report.per_class.values()) == config.links
        assert set(report.per_class) == set(RATE_CLASSES)
        assert report.windows_scored == len(report.events) > 0
        assert report.arrivals > 0
        assert report.windows_per_sec > 0
        assert 0.0 <= report.latency_p50_s <= report.latency_p99_s
        assert report.detected == sum(1 for e in report.events if e.detected)

    def test_events_canonically_ordered(self):
        report = run_fleet(small_fleet())
        keys = [(e.timestamp, e.link, e.index) for e in report.events]
        assert keys == sorted(keys)

    def test_same_config_same_digest(self):
        config = small_fleet()
        assert run_fleet(config).event_digest() == run_fleet(config).event_digest()

    def test_workers_do_not_change_the_event_stream(self):
        config = small_fleet()
        sequential = run_fleet(config)
        sharded = run_fleet(config, max_workers=4)
        assert sharded.workers == 4
        assert sharded.event_digest() == sequential.event_digest()
        assert [e.to_dict() for e in sharded.events] == [
            e.to_dict() for e in sequential.events
        ]

    @pytest.mark.parametrize("batch_windows", [1, 7, 500])
    def test_batch_flush_size_does_not_change_the_event_stream(self, batch_windows):
        config = small_fleet()
        assert (
            run_fleet(config.replace(batch_windows=batch_windows)).event_digest()
            == run_fleet(config).event_digest()
        )

    @pytest.mark.parametrize("backend", ["exact", "fast"])
    @pytest.mark.parametrize("detector", ["baseline", "subcarrier", "combined"])
    def test_digest_invariant_for_every_scheme_and_backend(self, detector, backend):
        # Regression: a multi-RHS lstsq phase fit or a cached-IDFT zgemm
        # gives row-count-dependent bits, so the digest would move with the
        # flush size.
        config = small_fleet(
            links=6,
            duration_s=2.0,
            backend=backend,
            pool_packets=40,
            pipeline=small_pipeline(detector=detector),
        )
        reference = run_fleet(config.replace(batch_windows=1)).event_digest()
        for batch_windows in (7, 64):
            report = run_fleet(config.replace(batch_windows=batch_windows))
            assert report.event_digest() == reference
        sharded = run_fleet(config.replace(batch_windows=64), max_workers=2)
        assert sharded.event_digest() == reference

    @pytest.mark.parametrize("backend", ["exact", "fast"])
    def test_combined_fleet_event_digest_pinned(self, backend):
        config = small_fleet(
            links=40,
            duration_s=4.0,
            batch_windows=64,
            pool_packets=40,
            backend=backend,
            pipeline=small_pipeline(detector="combined"),
        )
        report = run_fleet(config)
        assert report.event_digest() == COMBINED_FLEET_EVENT_SHA256[backend]

    def test_report_to_dict_serialisable(self):
        report = run_fleet(small_fleet(links=3))
        summary = report.to_dict()
        assert "event_stream" not in summary
        json.dumps(summary)
        full = report.to_dict(include_events=True)
        assert len(full["event_stream"]) == len(report.events)
        json.dumps(full)

    def test_bad_worker_override_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            run_fleet(small_fleet(), max_workers=0)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestFleetCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_fleet_run_writes_events_and_report_agrees(self, capsys, tmp_path):
        events_path = tmp_path / "events.jsonl"
        config_path = tmp_path / "fleet.json"
        config_path.write_text(small_fleet(links=6, duration_s=5.0).to_json())
        assert (
            self.run_cli(
                [
                    "--config",
                    str(config_path),
                    "fleet",
                    "run",
                    "--events",
                    str(events_path),
                ]
            )
            == 0
        )
        run_payload = json.loads(capsys.readouterr().out)
        assert run_payload["links"] == 6
        assert run_payload["events"] > 0
        lines = [
            line for line in events_path.read_text().splitlines() if line.strip()
        ]
        assert len(lines) == run_payload["events"]

        assert self.run_cli(["fleet", "report", "--events", str(events_path)]) == 0
        report_payload = json.loads(capsys.readouterr().out)
        assert report_payload["events"] == run_payload["events"]
        # The digest recomputed from the persisted stream must match the
        # run's in-memory digest: the file is the canonical stream.
        assert report_payload["event_digest"] == run_payload["event_digest"]

    def test_fleet_run_flag_overrides(self, capsys, tmp_path):
        config_path = tmp_path / "fleet.json"
        config_path.write_text(small_fleet(links=3, duration_s=4.0).to_json())
        assert (
            self.run_cli(
                ["--config", str(config_path), "fleet", "run", "--links", "5"]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["links"] == 5

    def test_fleet_run_config_error_is_one_line_exit_2(self, capsys, tmp_path):
        config_path = tmp_path / "fleet.json"
        config_path.write_text(json.dumps({"linkz": 3}))
        assert (
            self.run_cli(["--config", str(config_path), "fleet", "run"]) == 2
        )
        err = capsys.readouterr().err
        assert "unknown FleetConfig keys" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_fleet_run_non_finite_duration_is_one_line_exit_2(self, capsys, duration):
        assert self.run_cli(["fleet", "run", "--links", "2", "--duration", duration]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration_s must be a finite number")
        assert "Traceback" not in err

    def test_fleet_run_nan_class_weight_is_one_line_exit_2(self, capsys, tmp_path):
        config_path = tmp_path / "fleet.json"
        config_path.write_text('{"links": 2, "class_mix": {"normal": NaN, "busy": 1.0}}')
        assert self.run_cli(["--config", str(config_path), "fleet", "run"]) == 2
        assert "class_mix['normal'] must be a finite number" in capsys.readouterr().err

    def test_fleet_report_missing_file_exit_2(self, capsys, tmp_path):
        assert (
            self.run_cli(
                ["fleet", "report", "--events", str(tmp_path / "nope.jsonl")]
            )
            == 2
        )
        assert "no such events file" in capsys.readouterr().err

    def test_fleet_report_malformed_line_exit_2(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"score": 1.0}\nnot-json\n')
        assert self.run_cli(["fleet", "report", "--events", str(path)]) == 2
        assert "malformed event line" in capsys.readouterr().err
