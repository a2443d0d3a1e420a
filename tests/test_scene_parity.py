"""Parity of the array-based scene engine against the scalar layer.

The vectorised geometry (:func:`segment_point_deltas`), shadowing
(:meth:`HumanBody.shadow_attenuation_batch`) and batched CFR synthesis
(:meth:`ChannelSimulator.clean_cfr_batch`) are pure optimisations: for any
scene they must reproduce the scalar reference implementations *to the
bit*.  Batched phase sanitisation (:func:`sanitize_trace` /
:func:`sanitize_csi_array`) fits every frame through one cached
pseudo-inverse, so it matches the per-frame ``np.polyfit`` reference to
rounding.  These tests pin those contracts with randomized rooms, bounce
orders, body counts and offsets; the sha256 pins of the campaign scores are
asserted in ``test_pins.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backend import active_backend
from repro.channel.channel import ChannelSimulator, Link
from repro.channel.geometry import (
    Point,
    Room,
    Segment,
    angle_between,
    points_as_array,
    segment_point_deltas,
    signed_angles_to_reference,
)
from repro.channel.human import HumanBody, attenuation_profile
from repro.channel.ofdm import synthesize_cfr
from repro.channel.propagation import PropagationModel
from repro.channel.scene import PathBundle
from repro.csi.calibration import sanitize_csi_array, sanitize_trace
from repro.csi.collector import PacketCollector
from repro.csi.trace import CSITrace


# --------------------------------------------------------------------------- #
# randomized scene generation
# --------------------------------------------------------------------------- #
def random_scene(seed: int) -> tuple[ChannelSimulator, list[list[HumanBody]]]:
    """A random room/link plus a few random human scenes (1-4 bodies)."""
    rng = np.random.default_rng(seed)
    width = float(rng.uniform(5.0, 12.0))
    height = float(rng.uniform(4.0, 10.0))
    room = Room.rectangular(width, height, material="concrete")
    if rng.random() < 0.6:
        # An interior obstacle (desk edge / cabinet), as in the office cases.
        x0 = float(rng.uniform(0.5, width - 1.5))
        y0 = float(rng.uniform(0.5, height - 1.5))
        room.add_obstacle(
            Segment(Point(x0, y0), Point(x0 + 1.0, y0 + 0.5)), material="wood"
        )
    margin = 0.4

    def random_point() -> Point:
        return Point(
            float(rng.uniform(margin, width - margin)),
            float(rng.uniform(margin, height - margin)),
        )

    tx = random_point()
    rx = random_point()
    while tx.distance_to(rx) < 1.5:
        rx = random_point()
    link = Link(room=room, tx=tx, rx=rx, name=f"rand-{seed}")
    simulator = ChannelSimulator(
        link,
        propagation=PropagationModel(path_loss_exponent=float(rng.uniform(1.8, 3.0))),
        max_bounces=int(rng.integers(0, 3)),
    )

    def random_body() -> HumanBody:
        return HumanBody(
            position=random_point(),
            radius=float(rng.uniform(0.15, 0.35)),
            min_attenuation=float(rng.uniform(0.2, 0.9)),
            reflection_coefficient=float(rng.uniform(0.05, 0.8)),
            shadow_extent_wavelengths=float(rng.uniform(2.0, 8.0)),
        )

    scenes = [[random_body() for _ in range(int(rng.integers(1, 5)))] for _ in range(3)]
    return simulator, scenes


def reference_clean_cfr(simulator: ChannelSimulator, humans) -> np.ndarray:
    """The scalar synthesis path: Path objects through synthesize_cfr."""
    return synthesize_cfr(
        simulator.paths(humans),
        propagation=simulator.propagation,
        array=simulator.link.array,
        frequencies=simulator.frequencies,
    )


SEEDS = [0, 1, 2, 3, 4]


# --------------------------------------------------------------------------- #
# geometry kernels
# --------------------------------------------------------------------------- #
class TestVectorisedGeometry:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_segment_point_deltas_cross_product_match_scalar(self, seed):
        rng = np.random.default_rng(100 + seed)
        starts = rng.uniform(-5, 5, size=(12, 2))
        ends = rng.uniform(-5, 5, size=(12, 2))
        ends[3] = starts[3]  # degenerate zero-length segment
        points = rng.uniform(-6, 6, size=(7, 2))
        dx, dy = segment_point_deltas(starts[None], ends[None], points[:, None])
        got = active_backend().hypot(dx, dy)
        assert got.shape == (7, 12)
        for i, (px, py) in enumerate(points):
            for j in range(starts.shape[0]):
                segment = Segment(Point(*starts[j]), Point(*ends[j]))
                assert got[i, j] == segment.distance_to_point(Point(px, py))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_segment_point_deltas_row_aligned_match_scalar(self, seed):
        rng = np.random.default_rng(200 + seed)
        starts = rng.uniform(-5, 5, size=(9, 2))
        ends = rng.uniform(-5, 5, size=(9, 2))
        ends[0] = starts[0]
        points = rng.uniform(-6, 6, size=(9, 2))
        got = active_backend().hypot(*segment_point_deltas(starts, ends, points))
        # One start broadcast against every row, as the reflection loop uses it.
        shared = active_backend().hypot(*segment_point_deltas(starts[:1], ends, points))
        for i in range(9):
            segment = Segment(Point(*starts[i]), Point(*ends[i]))
            assert got[i] == segment.distance_to_point(Point(*points[i]))
            segment = Segment(Point(*starts[0]), Point(*ends[i]))
            assert shared[i] == segment.distance_to_point(Point(*points[i]))

    def test_segment_point_deltas_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="points must have shape"):
            segment_point_deltas(np.zeros((3, 2)), np.ones((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="starts must have shape"):
            segment_point_deltas(np.float64(0.0), np.ones(2), np.zeros(2))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_signed_angles_match_angle_between(self, seed):
        rng = np.random.default_rng(300 + seed)
        vectors = rng.uniform(-4, 4, size=(20, 2))
        vectors[5] = (0.0, 0.0)  # the zero-vector convention
        reference = Point(float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 1)))
        got = signed_angles_to_reference(vectors, reference)
        origin = Point(0.0, 0.0)
        for i, (vx, vy) in enumerate(vectors):
            assert got[i] == angle_between(origin, Point(vx, vy), reference)

    def test_points_as_array_round_trip(self):
        points = [Point(1.25, -3.5), Point(0.0, 2.0)]
        arr = points_as_array(points)
        assert arr.shape == (2, 2)
        assert arr[0, 0] == 1.25 and arr[1, 1] == 2.0
        assert points_as_array([]).shape == (0, 2)


# --------------------------------------------------------------------------- #
# bundle + shadowing
# --------------------------------------------------------------------------- #
class TestPathBundle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip_is_bit_identical(self, seed):
        simulator, _ = random_scene(seed)
        paths = simulator.static_paths()
        bundle = PathBundle.from_paths(paths)
        assert bundle.num_paths == len(paths)
        assert bundle.to_paths() == paths
        # Lengths/gains/aoas carry exactly the scalar per-path floats.
        for p, path in enumerate(paths):
            assert bundle.lengths[p] == path.length()
            assert bundle.gains[p] == path.amplitude_gain
            assert bundle.aoas[p] == path.aoa_rad

    @pytest.mark.parametrize("seed", SEEDS)
    def test_segments_match_path_segments(self, seed):
        simulator, _ = random_scene(seed)
        paths = simulator.static_paths()
        bundle = PathBundle.from_paths(paths)
        for p, path in enumerate(paths):
            starts, ends = bundle.segments_of(p)
            segments = path.segments()
            assert starts.shape[0] == len(segments)
            for row, segment in enumerate(segments):
                assert tuple(starts[row]) == segment.start.as_tuple()
                assert tuple(ends[row]) == segment.end.as_tuple()


class TestShadowingParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_attenuation_profile_matches_scalar(self, seed):
        rng = np.random.default_rng(400 + seed)
        body = HumanBody(
            position=Point(1.0, 1.0),
            min_attenuation=float(rng.uniform(0.2, 0.9)),
            shadow_extent_wavelengths=float(rng.uniform(2.0, 8.0)),
        )
        sigma, depth = body.shadow_sigma(), 1.0 - body.min_attenuation
        offsets = rng.uniform(0.0, 4.0, size=64)
        got = attenuation_profile(offsets, sigma, depth)
        for offset, value in zip(offsets, got):
            assert value == body.attenuation_for_offset(float(offset))
        with pytest.raises(ValueError):
            attenuation_profile(np.array([-0.1]), sigma, depth)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shadow_attenuation_batch_matches_scalar(self, seed):
        simulator, scenes = random_scene(seed)
        paths = simulator.static_paths()
        bundle = simulator.path_bundle()
        for scene in scenes:
            template = scene[0]
            positions = points_as_array([body.position for body in scene])
            got = template.shadow_attenuation_batch(bundle, positions)
            assert got.shape == (len(scene), len(paths))
            for i, body in enumerate(scene):
                moved = template.moved_to(body.position)
                for p, path in enumerate(paths):
                    assert got[i, p] == moved.shadow_attenuation(path)

    def test_default_positions_use_own_position(self):
        simulator, _ = random_scene(0)
        body = HumanBody(position=simulator.link.midpoint())
        got = body.shadow_attenuation_batch(simulator.path_bundle())
        assert got.shape == (1, simulator.path_bundle().num_paths)
        for p, path in enumerate(simulator.static_paths()):
            assert got[0, p] == body.shadow_attenuation(path)


# --------------------------------------------------------------------------- #
# batched CFR synthesis
# --------------------------------------------------------------------------- #
class TestCleanCfrBatchParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_matches_scalar_reference(self, seed):
        simulator, scenes = random_scene(seed)
        all_scenes = [None, []] + scenes
        batch = simulator.clean_cfr_batch(all_scenes)
        for s, scene in enumerate(all_scenes):
            reference = reference_clean_cfr(simulator, scene)
            assert np.array_equal(batch[s], reference), f"scene {s} diverged"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_wrapper_matches_reference(self, seed):
        simulator, scenes = random_scene(seed)
        for scene in [None, scenes[0][0], scenes[0]]:
            assert np.array_equal(
                simulator.clean_cfr(scene), reference_clean_cfr(simulator, scene)
            )

    def test_shared_background_bodies_are_deduplicated_not_mangled(self):
        simulator, scenes = random_scene(1)
        background = scenes[1]
        template = scenes[0][0]
        walk = [
            [template.moved_to(Point(2.0 + 0.1 * i, 2.0)), *background]
            for i in range(10)
        ]
        batch = simulator.clean_cfr_batch(walk)
        for s, scene in enumerate(walk):
            assert np.array_equal(batch[s], reference_clean_cfr(simulator, scene))

    def test_duplicate_body_object_matches_scalar_is_semantics(self):
        # The scalar path skips self-shadowing via an `is` check; a body
        # listed twice must therefore not shadow either of its own
        # reflection paths.  The batch path must reproduce that.
        simulator, scenes = random_scene(2)
        body = scenes[0][0]
        scene = [body, body]
        assert np.array_equal(
            simulator.clean_cfr(scene), reference_clean_cfr(simulator, scene)
        )

    def test_empty_batch(self):
        simulator, _ = random_scene(3)
        out = simulator.clean_cfr_batch([])
        assert out.shape == (0, simulator.link.array.num_elements, 30)

    def test_ragged_scene_sizes(self):
        simulator, scenes = random_scene(4)
        ragged = [scenes[0][:1], scenes[1][:3], None, scenes[2]]
        batch = simulator.clean_cfr_batch(ragged)
        for s, scene in enumerate(ragged):
            assert np.array_equal(batch[s], reference_clean_cfr(simulator, scene))


# --------------------------------------------------------------------------- #
# batched sanitisation
# --------------------------------------------------------------------------- #
def reference_sanitize_frame(frame):
    """The historical per-frame sanitiser (pre-vectorisation), verbatim."""
    indices = np.asarray(frame.subcarrier_indices, dtype=float)
    csi = frame.csi
    phase = np.unwrap(np.angle(csi[0]))
    slope, offset = np.polyfit(indices, phase, 1)
    correction = slope * indices + offset
    sanitized = csi * np.exp(-1j * correction)[None, :]
    return dataclasses.replace(frame, csi=sanitized)


def reference_sanitize_trace(trace):
    frames = [reference_sanitize_frame(trace.frame(i)) for i in range(trace.num_packets)]
    sanitized = CSITrace.from_frames(frames, label=trace.label)
    sanitized.timestamps = trace.timestamps.copy()
    return sanitized


def assert_sanitized_close(got: np.ndarray, reference: np.ndarray) -> None:
    """Equal to the ``np.polyfit`` reference up to rounding, relative to the CSI scale."""
    np.testing.assert_allclose(
        got, reference, rtol=0, atol=1e-12 * np.abs(reference).max()
    )


@pytest.fixture(scope="module")
def noisy_trace() -> CSITrace:
    simulator, scenes = random_scene(7)
    collector = PacketCollector(simulator, seed=70)
    return collector.collect(scenes[0], num_packets=40, label="parity")


class TestSanitizeParity:
    def test_sanitize_trace_matches_per_frame_reference(self, noisy_trace):
        got = sanitize_trace(noisy_trace)
        reference = reference_sanitize_trace(noisy_trace)
        assert_sanitized_close(got.csi, reference.csi)
        assert np.array_equal(got.timestamps, reference.timestamps)
        assert got.label == reference.label
        assert got.subcarrier_indices == reference.subcarrier_indices

    def test_sanitize_does_not_mutate_the_input_trace(self, noisy_trace):
        before = noisy_trace.csi.copy()
        timestamps_before = noisy_trace.timestamps.copy()
        sanitize_trace(noisy_trace)
        assert np.array_equal(noisy_trace.csi, before)
        assert np.array_equal(noisy_trace.timestamps, timestamps_before)

    def test_sanitize_csi_array_validates_shapes(self, noisy_trace):
        indices = np.asarray(noisy_trace.subcarrier_indices, dtype=float)
        with pytest.raises(ValueError, match="packets, antennas, subcarriers"):
            sanitize_csi_array(noisy_trace.csi[0], indices)
        with pytest.raises(ValueError, match="subcarrier_indices"):
            sanitize_csi_array(noisy_trace.csi, indices[:-1])

    def test_windows_stack_like_separate_calls(self, noisy_trace):
        # The monitor concatenates several windows into one sanitise call;
        # per-frame fits are independent so the stacking must be invisible.
        indices = np.asarray(noisy_trace.subcarrier_indices, dtype=float)
        first, second = noisy_trace.csi[:20], noisy_trace.csi[20:]
        stacked = sanitize_csi_array(np.concatenate([first, second]), indices)
        assert np.array_equal(stacked[:20], sanitize_csi_array(first, indices))
        assert np.array_equal(stacked[20:], sanitize_csi_array(second, indices))
