"""Tests for material properties and the free-space propagation model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.channel.constants import (
    CHANNEL_11_CENTER_HZ,
    INTEL5300_SUBCARRIER_INDICES,
    NUM_SUBCARRIERS,
    SPEED_OF_LIGHT,
    center_wavelength,
    subcarrier_frequencies,
    subcarrier_wavelengths,
)
from repro.channel.materials import DEFAULT_MATERIALS, Material, MaterialLibrary
from repro.channel.propagation import PropagationModel


class TestConstants:
    def test_intel5300_grid_size(self):
        assert NUM_SUBCARRIERS == 30
        assert len(INTEL5300_SUBCARRIER_INDICES) == 30

    def test_subcarrier_frequencies_centre_and_span(self):
        freqs = subcarrier_frequencies()
        assert freqs.shape == (30,)
        assert freqs.min() == pytest.approx(CHANNEL_11_CENTER_HZ - 28 * 312_500)
        assert freqs.max() == pytest.approx(CHANNEL_11_CENTER_HZ + 28 * 312_500)
        assert np.all(np.diff(freqs) > 0)

    def test_wavelengths_match_frequencies(self):
        lams = subcarrier_wavelengths()
        freqs = subcarrier_frequencies()
        assert np.allclose(lams * freqs, SPEED_OF_LIGHT)

    def test_center_wavelength_is_about_12cm(self):
        assert 0.12 < center_wavelength() < 0.125


class TestMaterials:
    def test_default_library_contains_standard_materials(self):
        for name in ("concrete", "wood", "drywall", "metal", "human"):
            assert name in DEFAULT_MATERIALS

    def test_effective_gain_below_reflection_coefficient(self):
        material = Material("x", reflection_coefficient=0.5, roughness_loss_db=3.0)
        assert material.effective_amplitude_gain() < 0.5

    def test_effective_gain_equals_coefficient_with_no_roughness(self):
        material = Material("x", reflection_coefficient=0.5)
        assert material.effective_amplitude_gain() == pytest.approx(0.5)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Material("x", reflection_coefficient=1.5)
        with pytest.raises(ValueError):
            Material("x", reflection_coefficient=0.5, roughness_loss_db=-1.0)

    def test_unknown_material_raises_keyerror_with_hint(self):
        with pytest.raises(KeyError, match="concrete"):
            DEFAULT_MATERIALS.get("vibranium")

    def test_register_and_len(self):
        library = MaterialLibrary([Material("a", 0.1)])
        assert len(library) == 1
        library.register(Material("b", 0.2))
        assert len(library) == 2
        assert library.names() == ["a", "b"]

    def test_metal_reflects_more_than_wood(self):
        metal = DEFAULT_MATERIALS.get("metal").effective_amplitude_gain()
        wood = DEFAULT_MATERIALS.get("wood").effective_amplitude_gain()
        assert metal > wood


class TestPropagationModel:
    def test_amplitude_decreases_with_distance(self):
        model = PropagationModel()
        assert model.amplitude(2.0, CHANNEL_11_CENTER_HZ) > model.amplitude(
            4.0, CHANNEL_11_CENTER_HZ
        )

    def test_amplitude_halves_when_distance_doubles_free_space(self):
        model = PropagationModel(path_loss_exponent=2.0)
        a1 = model.amplitude(2.0, CHANNEL_11_CENTER_HZ)
        a2 = model.amplitude(4.0, CHANNEL_11_CENTER_HZ)
        assert a1 / a2 == pytest.approx(2.0)

    def test_amplitude_inverse_proportional_to_frequency(self):
        model = PropagationModel()
        a1 = model.amplitude(3.0, 2.4e9)
        a2 = model.amplitude(3.0, 4.8e9)
        assert a1 / a2 == pytest.approx(2.0)

    def test_higher_exponent_attenuates_more(self):
        free = PropagationModel(path_loss_exponent=2.0)
        indoor = PropagationModel(path_loss_exponent=3.0)
        assert indoor.amplitude(5.0, CHANNEL_11_CENTER_HZ) < free.amplitude(
            5.0, CHANNEL_11_CENTER_HZ
        )

    def test_phase_matches_wavelength(self):
        model = PropagationModel()
        lam = center_wavelength()
        phase = model.phase(lam, CHANNEL_11_CENTER_HZ)
        assert phase == pytest.approx(2.0 * np.pi)

    def test_delay(self):
        model = PropagationModel()
        assert model.delay(SPEED_OF_LIGHT) == pytest.approx(1.0)

    def test_complex_gain_magnitude_and_extra_gain(self):
        model = PropagationModel()
        gain = model.complex_gain(3.0, CHANNEL_11_CENTER_HZ, extra_amplitude_gain=0.5)
        assert abs(gain) == pytest.approx(0.5 * model.amplitude(3.0, CHANNEL_11_CENTER_HZ))

    def test_reference_distance_clamps_singularity(self):
        model = PropagationModel(reference_distance=0.5)
        assert model.amplitude(0.001, CHANNEL_11_CENTER_HZ) == pytest.approx(
            model.amplitude(0.5, CHANNEL_11_CENTER_HZ)
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PropagationModel(tx_power=0.0)
        with pytest.raises(ValueError):
            PropagationModel(path_loss_exponent=-1.0)
        with pytest.raises(ValueError):
            PropagationModel().amplitude(3.0, 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tx_power", np.nan),
            ("tx_power", np.inf),
            ("tx_gain", np.nan),
            ("rx_gain", -np.inf),
            ("path_loss_exponent", np.nan),
            ("path_loss_exponent", np.inf),
            ("reference_distance", np.nan),
            ("reference_distance", np.inf),
            ("tx_power", True),
        ],
    )
    def test_non_finite_and_boolean_parameters_rejected(self, field, value):
        # NaN passes a bare ``<= 0`` check; these used to synthesise NaN
        # (or, for an infinite exponent, all-zero) CFRs without an error.
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            PropagationModel(**{field: value})

    def test_received_power_db_monotone_in_distance(self):
        model = PropagationModel()
        assert model.received_power_db(2.0, CHANNEL_11_CENTER_HZ) > model.received_power_db(
            5.0, CHANNEL_11_CENTER_HZ
        )

    @given(
        st.floats(min_value=0.5, max_value=30.0),
        st.floats(min_value=1e9, max_value=6e9),
    )
    def test_phase_non_negative_and_finite(self, distance, frequency):
        model = PropagationModel()
        phase = float(model.phase(distance, frequency))
        assert phase >= 0.0 and np.isfinite(phase)
