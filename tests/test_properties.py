"""Property-based tests on cross-module invariants.

These complement the per-module unit tests by checking relationships that
must hold for *any* admissible input: scale invariances, consistency between
the analytic link model and the simulator, conservation-style checks on
the weighting schemes, and the byte identity of the cheaper kernels with the
NumPy routines they replace.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.backend import active_backend, use_backend
from repro.channel.constants import subcarrier_frequencies
from repro.channel.geometry import Point, segment_point_deltas
from repro.channel.human import SHADOW_CUT_SIGMAS, HumanBody, attenuation_profile
from repro.channel.ofdm import synthesize_cfr
from repro.channel.propagation import PropagationModel
from repro.channel.rays import Path
from repro.channel.scene import PathBundle
from repro.core.link_model import OneBounceLinkModel
from repro.core.multipath_factor import exceeds_row_median, multipath_factor_batch
from repro.core.subcarrier_weighting import SubcarrierWeighting
from repro.core.thresholds import roc_curve
from repro.csi.calibration import _unwrap
from repro.utils.stats import ecdf

slow_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestScaleInvariances:
    @slow_settings
    @given(st.floats(min_value=0.05, max_value=50.0))
    def test_multipath_factor_invariant_to_global_gain(self, gain):
        los = Path(vertices=(Point(0.0, 0.0), Point(4.0, 0.0)), kind="los")
        wall = Path(
            vertices=(Point(0.0, 0.0), Point(2.0, 4.0), Point(4.0, 0.0)),
            kind="wall",
            amplitude_gain=0.8,
        )
        cfr = synthesize_cfr([los, wall])
        assert np.allclose(
            multipath_factor_batch(cfr), multipath_factor_batch(gain * cfr), rtol=1e-9
        )

    @slow_settings
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_subcarrier_weights_invariant_to_global_gain(self, gain):
        rng = np.random.default_rng(11)
        csi = rng.normal(size=(8, 2, 30)) + 1j * rng.normal(size=(8, 2, 30))
        weighting = SubcarrierWeighting()
        base = weighting.stacked_weights(csi[None])[0]
        scaled = weighting.stacked_weights(gain * csi[None])[0]
        assert np.allclose(base, scaled, rtol=1e-9)

    @slow_settings
    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_roc_invariant_to_monotone_scaling(self, shift, scale):
        rng = np.random.default_rng(5)
        positives = rng.normal(2.0, 1.0, size=80)
        negatives = rng.normal(0.0, 1.0, size=80)
        base = roc_curve(positives, negatives).auc()
        transformed = roc_curve(positives * scale + shift, negatives * scale + shift).auc()
        assert transformed == pytest.approx(base, abs=0.02)


class TestLinkModelConsistency:
    @slow_settings
    @given(
        st.floats(min_value=1.1, max_value=10.0),
        st.floats(min_value=0.3, max_value=8.0),
    )
    def test_analytic_factor_matches_synthesized_two_path_channel(self, gamma, excess):
        """The analytic Eq. 3 and the simulator agree on a two-path channel.

        A channel made of a LOS path and one reflection with amplitude ratio
        gamma and excess length `excess` must have, on every subcarrier, the
        multipath factor predicted by the one-bounce model at that
        subcarrier's frequency (up to the dominant-tap approximation, hence
        the loose tolerance on the ratio of the two).
        """
        distance = 4.0
        model = PropagationModel()
        freqs = subcarrier_frequencies()
        los_amp = model.amplitude(distance, freqs)
        reflected_amp = los_amp / gamma
        phases_los = model.phase(distance, freqs)
        phases_ref = model.phase(distance + excess, freqs)
        cfr = (los_amp * np.exp(-1j * phases_los) + reflected_amp * np.exp(-1j * phases_ref))[
            None, :
        ]
        measured = multipath_factor_batch(cfr)[0]
        predicted = np.array(
            [
                OneBounceLinkModel.from_excess_distance(gamma, excess, f).multipath_factor()
                for f in freqs
            ]
        )
        # Both rank the subcarriers the same way even if absolute scales differ.
        correlation = np.corrcoef(measured, predicted)[0, 1]
        assert correlation > 0.8

    @slow_settings
    @given(
        st.floats(min_value=1.05, max_value=10.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=0.1, max_value=0.9),
    )
    def test_shadowing_of_stronger_los_never_amplifies_more_than_cancellation_bound(
        self, gamma, phi, beta
    ):
        """|h_S| can never exceed |h_N| by more than the removed-cancellation bound."""
        model = OneBounceLinkModel(gamma=gamma, phi=phi)
        change = model.shadowing_rss_change_exact(beta)
        # Upper bound: the shadowed channel is at most (beta*gamma+1/gamma...)
        upper = 20.0 * math.log10((beta * gamma + 1.0) / max(gamma - 1.0, 1e-9))
        assert change <= max(upper, 0.0) + 1e-6


class TestStatisticalInvariants:
    @slow_settings
    @given(st.integers(min_value=2, max_value=40))
    def test_stability_ratio_bounds_for_random_factors(self, packets):
        rng = np.random.default_rng(packets)
        factors = rng.lognormal(size=(packets, 1, 30))
        ratios = exceeds_row_median(factors).mean(axis=0)
        assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0)

    @slow_settings
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=200))
    def test_ecdf_last_value_is_one(self, values):
        _, ps = ecdf(np.asarray(values))
        assert ps[-1] == pytest.approx(1.0)

    @slow_settings
    @given(st.integers(min_value=1, max_value=6))
    def test_weights_sum_to_one_for_any_window_length(self, packets):
        rng = np.random.default_rng(packets)
        csi = rng.normal(size=(packets, 3, 30)) + 1j * rng.normal(size=(packets, 3, 30))
        weights = SubcarrierWeighting().stacked_weights(csi[None])[0]
        assert np.allclose(weights.sum(axis=1), 1.0)


#: Values that stress ties, signed zeros and non-finite handling.
_SPECIAL_FLOATS = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, -math.nan)
#: Phase steps on and around the unwrap's ±π boundary and its 2π period.
_PHASE_FLOATS = tuple(k * math.pi for k in range(-4, 5)) + (
    math.nextafter(math.pi, 0.0),
    math.nextafter(math.pi, 4.0),
    -math.nextafter(math.pi, 0.0),
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    -math.nan,
)


def _float_arrays(specials, *, max_dims, max_side):
    return hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=st.one_of(
            st.sampled_from(specials),
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(min_value=-20.0, max_value=20.0),
        ),
    )


class TestKernelByteIdentity:
    @settings(max_examples=300, deadline=None)
    @given(_float_arrays(_SPECIAL_FLOATS, max_dims=4, max_side=9))
    def test_row_median_mask_matches_numpy_median(self, values):
        # Masks, not medians: np.median's NaN may carry the sign bit.
        with np.errstate(invalid="ignore", over="ignore"):
            expected = values > np.median(values, axis=-1, keepdims=True)
            mask = exceeds_row_median(values)
        assert np.array_equal(mask, expected)

    @settings(max_examples=300, deadline=None)
    @given(_float_arrays(_PHASE_FLOATS, max_dims=3, max_side=12))
    def test_unwrap_matches_numpy_unwrap_bit_for_bit(self, phases):
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.unwrap(phases, axis=-1)
            unwrapped = _unwrap(phases)
        assert unwrapped.dtype == expected.dtype
        assert unwrapped.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_unwrap_matches_numpy_on_csi_phase(self, rows, subcarriers, seed):
        rng = np.random.default_rng(seed)
        slope = rng.uniform(-1.5, 1.5, size=(rows, 1))
        phases = np.angle(
            np.exp(1j * (slope * np.arange(subcarriers) + rng.normal(size=(rows, subcarriers))))
        )
        assert _unwrap(phases).tobytes() == np.unwrap(phases, axis=-1).tobytes()


#: Normalised offsets on and around the shadowing cut and the largest offset
#: whose profile is below 1.0 (``sqrt(54 ln 2)``).
_CUT_OFFSETS = (
    SHADOW_CUT_SIGMAS,
    math.nextafter(SHADOW_CUT_SIGMAS, 0.0),
    math.nextafter(SHADOW_CUT_SIGMAS, 40.0),
    math.sqrt(54.0 * math.log(2.0)),
    6.1116,
    0.0,
)


def _uncut_shadow_attenuation(body, bundle, positions):
    """``shadow_attenuation_batch`` with ``hypot`` and the profile everywhere."""
    dx, dy = segment_point_deltas(
        bundle.segment_starts[None], bundle.segment_ends[None], positions[:, None]
    )
    per_segment = attenuation_profile(
        active_backend().hypot(dx, dy), body.shadow_sigma(), 1.0 - body.min_attenuation
    )
    return np.minimum.reduceat(per_segment, bundle.segment_offsets[:-1], axis=1)


@st.composite
def _shadow_scenes(draw):
    """A body, a bundle of polyline paths and positions to evaluate it at.

    Paths may repeat a vertex (a zero-length segment).  Positions mix free
    points, points on a segment, points at the cut radius from a segment's
    start and non-finite coordinates.
    """
    body = HumanBody(
        position=Point(0.0, 0.0),
        radius=draw(st.floats(min_value=0.05, max_value=0.5)),
        min_attenuation=draw(st.floats(min_value=0.01, max_value=0.99)),
        shadow_extent_wavelengths=draw(st.floats(min_value=0.5, max_value=10.0)),
    )
    coordinate = st.floats(min_value=-30.0, max_value=30.0)
    vertex = st.builds(Point, coordinate, coordinate)
    paths = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        vertices = draw(st.lists(vertex, min_size=2, max_size=4))
        if draw(st.booleans()):
            vertices.insert(1, vertices[0])
        paths.append(Path(vertices=tuple(vertices), kind="wall"))
    bundle = PathBundle.from_paths(paths)
    cut = SHADOW_CUT_SIGMAS * body.shadow_sigma()
    starts, ends = bundle.segment_starts, bundle.segment_ends
    positions = [
        (draw(coordinate), draw(coordinate)),
        (0.0, cut),
        (-cut, 0.0),
        (math.nan, 1.0),
        (math.inf, -math.inf),
        (-math.inf, 2.0),
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        segment = draw(st.integers(min_value=0, max_value=starts.shape[0] - 1))
        along = draw(st.floats(min_value=0.0, max_value=1.0))
        start, end = starts[segment], ends[segment]
        positions.append(tuple(start + (end - start) * along))
        positions.append((start[0], start[1] + cut))
        positions.append((start[0] - cut, start[1]))
    return body, bundle, np.array(positions, dtype=float)


class TestShadowCut:
    """Shadowing calls ``hypot`` and ``exp`` only where a byte can change."""

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=32),
            elements=st.one_of(
                st.floats(min_value=0.0, max_value=40.0),
                st.floats(min_value=6.0, max_value=7.0),
                st.sampled_from(_CUT_OFFSETS),
            ),
        ),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_cut_profile_matches_full_profile_bit_for_bit(self, r, depth):
        for name in ("exact", "fast"):
            with use_backend(name) as backend:
                full = 1.0 - depth * backend.exp(-(r * r))
                cut = np.where(r >= SHADOW_CUT_SIGMAS, 1.0, full)
                assert cut.tobytes() == full.tobytes(), name

    @settings(max_examples=150, deadline=None)
    @given(_shadow_scenes())
    def test_shadow_batch_matches_uncut_reference_bit_for_bit(self, scene):
        body, bundle, positions = scene
        for name in ("exact", "fast"):
            with use_backend(name), np.errstate(invalid="ignore", over="ignore"):
                expected = _uncut_shadow_attenuation(body, bundle, positions)
                got = body.shadow_attenuation_batch(bundle, positions)
            assert got.tobytes() == expected.tobytes(), name
            # A NaN position stays NaN instead of reading as unshadowed (1.0).
            assert np.isnan(got[3]).all(), name

    @pytest.mark.parametrize("name", ["exact", "fast"])
    def test_far_body_calls_no_libm_kernel(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("a far body reached a libm kernel")

        body = HumanBody(position=Point(0.0, 0.0))
        far = SHADOW_CUT_SIGMAS * body.shadow_sigma() * 1.01
        bundle = PathBundle.from_paths(
            [
                Path(vertices=(Point(far, -5.0), Point(far, 5.0)), kind="los"),
                Path(
                    vertices=(Point(-far, far), Point(far, 2 * far), Point(far, far)),
                    kind="wall",
                ),
            ]
        )
        positions = np.array([[0.0, 0.0], [-0.5, 0.0], [1e200, -1e200]])
        with use_backend(name) as backend:
            monkeypatch.setattr(backend, "exp", refuse)
            monkeypatch.setattr(backend, "hypot", refuse)
            with np.errstate(over="ignore"):
                got = body.shadow_attenuation_batch(bundle, positions)
        assert np.array_equal(got, np.ones((3, 2)))
