"""Tests for the analytic one-bounce link model (paper Eq. 2-8).

These tests validate the algebra of the paper's equations: consistency of the
exact and multipath-factor forms, the sign behaviour that motivates the whole
paper (RSS can rise as well as drop), and the frequency dependence that makes
the superposition state configurable.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.constants import CHANNEL_11_CENTER_HZ
from repro.core.link_model import (
    OneBounceLinkModel,
    sweep_multipath_factor,
    sweep_shadowing_rss_change,
)

gammas = st.floats(min_value=1.05, max_value=20.0)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)
betas = st.floats(min_value=0.05, max_value=0.95)


class TestMultipathFactor:
    def test_matches_equation_3(self):
        model = OneBounceLinkModel(gamma=2.0, phi=1.0)
        expected = 4.0 / (4.0 + 1.0 + 4.0 * math.cos(1.0))
        assert model.multipath_factor() == pytest.approx(expected)

    def test_constructive_vs_destructive(self):
        constructive = OneBounceLinkModel(gamma=2.0, phi=0.0).multipath_factor()
        destructive = OneBounceLinkModel(gamma=2.0, phi=math.pi).multipath_factor()
        assert destructive > 1.0 > constructive

    def test_matches_baseline_cir_power_ratio(self):
        model = OneBounceLinkModel(gamma=3.0, phi=2.1)
        mu_from_cir = 1.0 / abs(model.baseline_cir()) ** 2
        assert model.multipath_factor() == pytest.approx(mu_from_cir)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            OneBounceLinkModel(gamma=0.0, phi=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a finite number"):
            OneBounceLinkModel(gamma=gamma, phi=0.0)

    @given(gammas, phases)
    def test_factor_positive(self, gamma, phi):
        assert OneBounceLinkModel(gamma=gamma, phi=phi).multipath_factor() > 0

    def test_sweep_matches_scalar(self):
        phis = np.linspace(0, 2 * np.pi, 7)
        swept = sweep_multipath_factor(2.5, phis)
        scalars = [OneBounceLinkModel(gamma=2.5, phi=p).multipath_factor() for p in phis]
        assert np.allclose(swept, scalars)


class TestShadowing:
    def test_exact_matches_direct_cir_computation(self):
        model = OneBounceLinkModel(gamma=2.0, phi=0.8)
        beta = 0.5
        expected = 10 * math.log10(
            abs(model.shadowed_cir(beta)) ** 2 / abs(model.baseline_cir()) ** 2
        )
        assert model.shadowing_rss_change_exact(beta) == pytest.approx(expected)

    @given(gammas, phases, betas)
    @settings(max_examples=200)
    def test_eq6_equals_eq5(self, gamma, phi, beta):
        """Eq. 6 (expressed through mu) is an exact rewrite of Eq. 5."""
        model = OneBounceLinkModel(gamma=gamma, phi=phi)
        exact = model.shadowing_rss_change_exact(beta)
        via_mu = model.shadowing_rss_change_mu(beta)
        if exact > -250 and via_mu > -250:  # skip the near-cancellation singularity
            assert via_mu == pytest.approx(exact, abs=1e-6)

    def test_pure_los_link_always_drops(self):
        model = OneBounceLinkModel(gamma=1e6, phi=0.3)
        assert model.shadowing_rss_change_exact(0.5) < 0

    def test_rss_can_rise_under_destructive_superposition(self):
        # gamma close to 1 and phi near pi: blocking the LOS removes the
        # cancellation and the received power increases.
        model = OneBounceLinkModel(gamma=1.2, phi=math.pi * 0.98)
        assert model.shadowing_increases_rss(0.4)
        assert model.shadowing_rss_change_exact(0.4) > 0

    def test_sensitivity_gain_possible(self):
        # beta * gamma close to 1 with phi near pi: the shadowed channel is
        # nearly cancelled, so the multipath link reacts far more strongly
        # than a pure LOS link would.
        model = OneBounceLinkModel(gamma=2.0, phi=3.0)
        assert model.sensitivity_gain_over_los(0.5) > 0

    def test_los_only_reference(self):
        model = OneBounceLinkModel(gamma=2.0, phi=1.0)
        assert model.los_only_rss_change(0.5) == pytest.approx(10 * math.log10(0.25))

    def test_invalid_beta_rejected(self):
        model = OneBounceLinkModel(gamma=2.0, phi=1.0)
        for beta in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                model.shadowing_rss_change_exact(beta)

    def test_sweep_matches_scalar(self):
        phis = np.linspace(0.1, 2 * np.pi - 0.1, 9)
        swept = sweep_shadowing_rss_change(2.1, phis, 0.5)
        scalars = [
            OneBounceLinkModel(gamma=2.1, phi=p).shadowing_rss_change_exact(0.5) for p in phis
        ]
        assert np.allclose(swept, scalars)


class TestReflection:
    @given(gammas, phases, st.floats(min_value=0.0, max_value=3.0), phases)
    @settings(max_examples=200)
    def test_eq8_equals_exact(self, gamma, phi, eta, phi_new):
        """Eq. 8 (expressed through mu) matches the direct CIR computation."""
        model = OneBounceLinkModel(gamma=gamma, phi=phi)
        exact = model.reflection_rss_change_exact(eta, phi_new)
        via_mu = model.reflection_rss_change_mu(eta, phi_new)
        if exact > -250 and via_mu > -250:
            assert via_mu == pytest.approx(exact, abs=1e-6)

    def test_no_new_path_means_no_change(self):
        model = OneBounceLinkModel(gamma=2.0, phi=0.7)
        assert model.reflection_rss_change_exact(0.0, 1.0) == pytest.approx(0.0)

    def test_reflection_can_raise_or_lower_rss(self):
        model = OneBounceLinkModel(gamma=2.0, phi=0.5)
        rise = model.reflection_rss_change_exact(1.0, 0.0)
        drop = model.reflection_rss_change_exact(1.0, math.pi + 0.5)
        assert rise > 0
        assert drop < 0

    def test_negative_eta_rejected(self):
        model = OneBounceLinkModel(gamma=2.0, phi=0.5)
        with pytest.raises(ValueError):
            model.reflection_cir(-0.5, 0.0)


class TestFrequencyDependence:
    def test_from_excess_distance_phase(self):
        model = OneBounceLinkModel.from_excess_distance(2.0, 0.5, CHANNEL_11_CENTER_HZ)
        from repro.channel.constants import SPEED_OF_LIGHT

        expected = 2 * math.pi * CHANNEL_11_CENTER_HZ * 0.5 / SPEED_OF_LIGHT
        assert model.phi == pytest.approx(expected)

    def test_different_subcarriers_get_different_superposition(self):
        """The same geometry produces different mu on different subcarriers."""
        low = OneBounceLinkModel.from_excess_distance(2.0, 1.7, 2.401e9)
        high = OneBounceLinkModel.from_excess_distance(2.0, 1.7, 2.473e9)
        assert low.multipath_factor() != pytest.approx(high.multipath_factor(), rel=1e-3)
