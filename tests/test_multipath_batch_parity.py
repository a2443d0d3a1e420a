"""Bit-identity of the batched multipath-factor / impairment layers.

The stacked-IFFT multipath pipeline (``dominant_tap_power_batch`` and the
batch layers above it) and the draw-order-compatible impairment plan behind
``PacketCollector.collect`` are pure optimisations: for any input they must
reproduce the historical scalar implementations *to the bit*.  The references
here are inlined copies of the pre-change code (not calls into the library),
so a regression in the shared layers cannot mask itself.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.channel import ChannelSimulator, HumanBody, ImpairmentModel, Link, Point, Room
from repro.channel.constants import INTEL5300_SUBCARRIER_INDICES, subcarrier_frequencies
from repro.channel.ofdm import dominant_tap_power, dominant_tap_power_batch
from repro.core.multipath_factor import (
    los_power_per_subcarrier,
    los_power_per_subcarrier_batch,
    multipath_factor,
    multipath_factor_batch,
    multipath_factor_trace,
)
from repro.csi.collector import PacketCollector
from repro.csi.trace import CSITrace
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases


def random_csi(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# --------------------------------------------------------------------------- #
# inlined scalar references (the pre-change implementations)
# --------------------------------------------------------------------------- #
def reference_dominant_tap_power(cfr_row: np.ndarray) -> float:
    impulse = np.fft.ifft(cfr_row)
    early = np.abs(impulse[: max(3, cfr_row.size // 8)])
    return float(np.max(early) ** 2)


def reference_los_power(cfr_row: np.ndarray, frequencies: np.ndarray | None) -> np.ndarray:
    freqs = (
        np.asarray(frequencies, dtype=float)
        if frequencies is not None
        else subcarrier_frequencies()
    )
    total_los_power = reference_dominant_tap_power(cfr_row)
    inverse_f2 = freqs**-2.0
    weights = inverse_f2 / inverse_f2.sum()
    return weights * total_los_power


def reference_multipath_factor(matrix: np.ndarray, frequencies: np.ndarray | None) -> np.ndarray:
    factors = np.empty(matrix.shape, dtype=float)
    for antenna in range(matrix.shape[0]):
        row = matrix[antenna]
        los_power = reference_los_power(row, frequencies)
        total_power = np.abs(row) ** 2
        factors[antenna] = los_power / np.maximum(total_power, 1e-30)
    return factors


def reference_multipath_factor_trace(
    csi: np.ndarray, frequencies: np.ndarray | None = None
) -> np.ndarray:
    factors = np.empty(csi.shape, dtype=float)
    for p in range(csi.shape[0]):
        factors[p] = reference_multipath_factor(csi[p], frequencies)
    return factors


# --------------------------------------------------------------------------- #
# FFT pipeline parity
# --------------------------------------------------------------------------- #
class TestDominantTapPowerBatch:
    @pytest.mark.parametrize("rows", [1, 7, 75, 450])
    def test_matches_scalar_rows(self, rng, rows):
        stack = random_csi(rng, rows, 30)
        got = dominant_tap_power_batch(stack)
        expected = np.array([reference_dominant_tap_power(row) for row in stack])
        assert np.array_equal(got, expected)

    def test_scalar_wrapper_unchanged(self, rng):
        row = random_csi(rng, 30)
        assert dominant_tap_power(row) == reference_dominant_tap_power(row)

    def test_short_rows_use_minimum_window(self, rng):
        stack = random_csi(rng, 5, 8)
        got = dominant_tap_power_batch(stack)
        expected = np.array([reference_dominant_tap_power(row) for row in stack])
        assert np.array_equal(got, expected)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            dominant_tap_power_batch(random_csi(rng, 30))


class TestLosPowerBatch:
    def test_matches_scalar_default_grid(self, rng):
        stack = random_csi(rng, 40, 30)
        got = los_power_per_subcarrier_batch(stack)
        expected = np.stack([reference_los_power(row, None) for row in stack])
        assert np.array_equal(got, expected)

    def test_scalar_wrapper_matches_reference(self, rng):
        row = random_csi(rng, 30)
        assert np.array_equal(los_power_per_subcarrier(row), reference_los_power(row, None))

    def test_custom_frequencies_take_uncached_path(self, rng):
        """A custom grid is recomputed per call — and computed correctly."""
        stack = random_csi(rng, 12, 16)
        grid_a = np.linspace(5.0e9, 5.02e9, 16)
        grid_b = np.linspace(2.4e9, 2.42e9, 16)
        got_a = los_power_per_subcarrier_batch(stack, grid_a)
        got_b = los_power_per_subcarrier_batch(stack, grid_b)
        assert np.array_equal(
            got_a, np.stack([reference_los_power(row, grid_a) for row in stack])
        )
        assert np.array_equal(
            got_b, np.stack([reference_los_power(row, grid_b) for row in stack])
        )
        # Interleaving custom grids with the default grid must not poison the
        # default-grid cache (the cache is keyed on the default grid only).
        row30 = random_csi(rng, 30)
        assert np.array_equal(
            los_power_per_subcarrier(row30), reference_los_power(row30, None)
        )

    def test_frequency_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            los_power_per_subcarrier_batch(random_csi(rng, 4, 30), np.linspace(1, 2, 29))

    def test_default_grid_rejects_wrong_subcarrier_count(self, rng):
        """Rows not matching the default 30-subcarrier grid fail loudly.

        The historical scalar path raised here; the batch layer must not
        silently broadcast a 64-subcarrier row against the 30-wide weights.
        """
        with pytest.raises(ValueError, match="does not match csi shape"):
            los_power_per_subcarrier(np.ones(64, dtype=complex))
        with pytest.raises(ValueError, match="does not match csi shape"):
            multipath_factor(np.ones((3, 64), dtype=complex))


class TestMultipathFactorBatch:
    @pytest.mark.parametrize("antennas", [1, 2, 3, 4])
    def test_trace_matches_scalar_loop(self, rng, antennas):
        csi = random_csi(rng, 25, antennas, 30)
        trace = CSITrace(csi=csi)
        got = multipath_factor_trace(trace)
        assert np.array_equal(got, reference_multipath_factor_trace(csi))

    def test_trace_matches_scalar_loop_custom_grid(self, rng):
        csi = random_csi(rng, 10, 3, 30)
        grid = np.linspace(5.0e9, 5.02e9, 30)
        got = multipath_factor_trace(CSITrace(csi=csi), grid)
        assert np.array_equal(got, reference_multipath_factor_trace(csi, grid))

    def test_single_packet_matches_scalar(self, rng):
        matrix = random_csi(rng, 3, 30)
        assert np.array_equal(
            multipath_factor(matrix), reference_multipath_factor(matrix, None)
        )

    def test_batch_accepts_any_leading_shape(self, rng):
        csi = random_csi(rng, 4, 2, 30)
        flat = multipath_factor_batch(csi.reshape(-1, 30))
        assert np.array_equal(multipath_factor_batch(csi), flat.reshape(csi.shape))

    def test_batch_of_noncontiguous_rows(self, rng):
        csi = random_csi(rng, 8, 3, 30)
        view = csi[::2]
        assert np.array_equal(
            multipath_factor_batch(view), reference_multipath_factor_trace(view)
        )

    def test_collected_trace_parity(self, simulator):
        collector = PacketCollector(simulator, rng=np.random.default_rng(123))
        trace = collector.collect(
            HumanBody(position=Point(4.0, 3.2)), num_packets=20
        )
        got = multipath_factor_trace(trace)
        assert np.array_equal(got, reference_multipath_factor_trace(trace.csi))


# --------------------------------------------------------------------------- #
# impairment draw plan parity
# --------------------------------------------------------------------------- #
class TestImpairmentDrawPlanParity:
    INDICES = np.asarray(INTEL5300_SUBCARRIER_INDICES, dtype=float)

    @pytest.mark.parametrize("antennas", [1, 3])
    @pytest.mark.parametrize(
        "model",
        [
            ImpairmentModel(),
            ImpairmentModel(snr_db=12.0, sfo_slope_std=0.2, agc_std_db=1.5),
            ImpairmentModel(cfo_phase=False, antenna_phase_offsets=False),
            ImpairmentModel().noiseless(),
        ],
    )
    def test_static_plan_matches_sequential_apply(self, rng, antennas, model):
        clean = random_csi(rng, antennas, 30)
        seq_rng = np.random.default_rng(2024)
        plan_rng = np.random.default_rng(2024)
        expected = np.stack(
            [model.apply(clean, self.INDICES, seed=seq_rng) for _ in range(17)]
        )
        plan = model.draw_plan(clean, self.INDICES, num_packets=17)
        for _ in range(17):
            plan.draw_next(plan_rng)
        assert np.array_equal(plan.apply(), expected)
        # Both paths consumed the generator identically.
        assert seq_rng.bit_generator.state == plan_rng.bit_generator.state

    def test_candidate_stack_matches_sequential_apply(self, rng):
        model = ImpairmentModel()
        cleans = random_csi(rng, 9, 3, 30)
        seq_rng = np.random.default_rng(7)
        plan_rng = np.random.default_rng(7)
        expected = np.stack(
            [model.apply(cleans[i], self.INDICES, seed=seq_rng) for i in range(9)]
        )
        plan = model.draw_plan(cleans, self.INDICES)
        for i in range(9):
            plan.draw_next(plan_rng, candidate=i)
        assert np.array_equal(plan.apply(), expected)

    def test_skipped_candidates_draw_nothing(self, rng):
        """A lost ping's candidate is skipped without touching the stream."""
        model = ImpairmentModel()
        cleans = random_csi(rng, 6, 3, 30)
        received = [0, 2, 5]
        seq_rng = np.random.default_rng(31)
        plan_rng = np.random.default_rng(31)
        expected = np.stack(
            [model.apply(cleans[i], self.INDICES, seed=seq_rng) for i in received]
        )
        plan = model.draw_plan(cleans, self.INDICES)
        for i in received:
            plan.draw_next(plan_rng, candidate=i)
        assert np.array_equal(plan.apply(), expected)

    def test_zero_power_candidate_draws_no_noise(self, rng):
        """apply() skips the noise draws entirely for an all-zero clean CFR."""
        model = ImpairmentModel(cfo_phase=False, antenna_phase_offsets=False,
                                sfo_slope_std=0.0, agc_std_db=0.0)
        cleans = np.stack([np.zeros((2, 30), dtype=complex), random_csi(rng, 2, 30)])
        seq_rng = np.random.default_rng(5)
        plan_rng = np.random.default_rng(5)
        expected = np.stack(
            [model.apply(cleans[i], self.INDICES, seed=seq_rng) for i in (0, 1)]
        )
        plan = model.draw_plan(cleans, self.INDICES)
        plan.draw_next(plan_rng, candidate=0)
        plan.draw_next(plan_rng, candidate=1)
        assert np.array_equal(plan.apply(), expected)
        assert seq_rng.bit_generator.state == plan_rng.bit_generator.state

    def test_capacity_exhaustion_raises(self, rng):
        model = ImpairmentModel()
        plan = model.draw_plan(random_csi(rng, 1, 30), self.INDICES, num_packets=1)
        plan.draw_next(np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            plan.draw_next(np.random.default_rng(0))

    def test_plan_validation(self, rng):
        model = ImpairmentModel()
        with pytest.raises(ValueError):
            model.draw_plan(random_csi(rng, 2, 30), self.INDICES)  # no num_packets
        with pytest.raises(ValueError):
            model.draw_plan(random_csi(rng, 2, 30), self.INDICES, num_packets=0)
        with pytest.raises(ValueError):
            model.draw_plan(random_csi(rng, 4, 2, 30), self.INDICES, num_packets=0)
        with pytest.raises(ValueError):
            model.draw_plan(random_csi(rng, 2, 30), np.arange(29.0), num_packets=2)
        # num_packets with a candidate stack sets the plan capacity (candidates
        # may repeat), so more packets than candidates is legal.
        plan = model.draw_plan(random_csi(rng, 4, 2, 30), self.INDICES, num_packets=9)
        assert plan.capacity == 9


class TestCollectorDrawBatchingParity:
    """Collector-level parity: the batched draws vs a fully sequential loop."""

    def _link(self) -> Link:
        room = Room.rectangular(8.0, 6.0)
        return Link(room=room, tx=Point(2.0, 3.0), rx=Point(6.0, 3.0))

    @pytest.mark.parametrize("loss_probability", [0.0, 0.35])
    def test_collect_matches_sequential_impair_loop(self, loss_probability):
        link = self._link()
        simulator = ChannelSimulator(link, seed=3)
        collector = PacketCollector(
            simulator,
            loss_probability=loss_probability,
            rng=np.random.default_rng(55),
        )
        fast = collector.collect(
            HumanBody(position=Point(4.0, 3.4)), num_packets=30, start_time=0.5
        )
        reference_rng = np.random.default_rng(55)
        clean = simulator.clean_cfr(HumanBody(position=Point(4.0, 3.4)))
        interval = 1.0 / collector.packet_rate_hz
        frames, timestamps, t = [], [], 0.5
        while len(frames) < 30:
            t += interval
            if loss_probability > 0 and reference_rng.random() < loss_probability:
                continue
            frames.append(
                simulator.impairments.apply(
                    clean, simulator.subcarrier_indices, seed=reference_rng
                )
            )
            timestamps.append(t)
        assert fast.csi.tobytes() == np.asarray(frames).tobytes()
        assert fast.timestamps.tobytes() == np.asarray(timestamps).tobytes()

    @pytest.mark.parametrize("loss_probability", [0.0, 0.4])
    def test_collect_walk_matches_sequential_impair_loop(self, loss_probability):
        link = self._link()
        simulator = ChannelSimulator(link, seed=9)
        collector = PacketCollector(
            simulator,
            loss_probability=loss_probability,
            rng=np.random.default_rng(77),
        )
        positions = [Point(2.5 + 0.1 * i, 3.0 + 0.05 * i) for i in range(40)]
        walk = collector.collect_walk(positions)

        reference_rng = np.random.default_rng(77)
        template = HumanBody(position=simulator.link.midpoint())
        scenes = [[template.moved_to(p)] for p in positions]
        cleans = simulator.clean_cfr_batch(scenes)
        interval = 1.0 / collector.packet_rate_hz
        frames, timestamps, t = [], [], 0.0
        for i in range(len(scenes)):
            t += interval
            if loss_probability > 0 and reference_rng.random() < loss_probability:
                continue
            frames.append(
                simulator.impairments.apply(
                    cleans[i], simulator.subcarrier_indices, seed=reference_rng
                )
            )
            timestamps.append(t)
        assert walk.csi.tobytes() == np.asarray(frames).tobytes()
        assert walk.timestamps.tobytes() == np.asarray(timestamps).tobytes()


# --------------------------------------------------------------------------- #
# campaign sha256 pin
# --------------------------------------------------------------------------- #
def scores_sha256(result) -> str:
    digest = hashlib.sha256()
    for window in result.windows:
        digest.update(f"{window.scheme}|{window.case}|{window.occupied}|".encode())
        digest.update(struct.pack("<d", window.score))
    return digest.hexdigest()


def test_two_case_default_campaign_scores_unchanged():
    """sha256 over all window scores of a 2-case default-parameter campaign.

    Captured immediately before the batched multipath/impairment layers
    landed and re-captured once for the stacked combined kernel (see
    ``test_scene_parity.py``); together with the full-campaign pin there
    this asserts the batch pipeline does not move a single campaign float.
    Platform-sensitive by design (libm/FFT bit patterns of the reference
    container).
    """
    result = run_evaluation(
        EvaluationConfig(seed=2015), cases=evaluation_cases()[:2]
    )
    assert (
        scores_sha256(result)
        == "799e31a5a0b7b66a5f3d7a64817b4171147ec17b543269bcc23b0eb088f6c6ab"
    )
