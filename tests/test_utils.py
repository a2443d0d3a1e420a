"""Unit tests for repro.utils (rng, conversions, statistics, validation, registry)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.utils import (
    amplitude_to_db,
    check_finite,
    check_positive,
    check_probability,
    check_shape,
    db_to_amplitude,
    db_to_power,
    ecdf,
    ensure_rng,
    percentile_summary,
    power_to_db,
    running_mean,
    sliding_windows,
)
from repro.utils.registry import Registry
from repro.utils.rng import child_rng, draw_word
from repro.utils.stats import median_absolute_deviation
from repro.utils.validation import check_finite_real, check_integer


class TestRng:
    def test_ensure_rng_from_int_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_child_rng_children_differ(self):
        parent = ensure_rng(5)
        child_a = child_rng(draw_word(parent), "packet", 1)
        child_b = child_rng(draw_word(parent), "packet", 2)
        assert child_a.integers(0, 10**6) != child_b.integers(0, 10**6)

    @staticmethod
    def list_seeded(base: int, keys) -> np.random.Generator:
        """The child generator seeded from a Python list of words."""
        words = [base]
        for key in keys:
            if isinstance(key, str):
                words.append(sum(ord(c) * (i + 1) for i, c in enumerate(key)) % (2**31 - 1))
            else:
                words.append(key % (2**31 - 1))
        return np.random.default_rng(np.random.SeedSequence(words))

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.integers(0, 2**31 - 2),
        keys=st.lists(
            st.one_of(st.integers(-(2**64), 2**64), st.text(max_size=16)), max_size=4
        ),
    )
    @example(base=0, keys=[""])
    @example(base=2**31 - 2, keys=["", "loss", "ünïcødé", "日本語", 0, -1, 2**31 - 1])
    def test_child_rng_state_equals_the_list_seeded_generator(self, base, keys):
        # The uint32 word array gives the entropy pool the list gives, so
        # every child generator starts in the same state.
        expected = self.list_seeded(base, keys).bit_generator.state
        assert child_rng(base, *keys).bit_generator.state == expected
        # The memoised string words hold on a second derivation.
        assert child_rng(base, *keys).bit_generator.state == expected

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        keys=st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=3),
    )
    def test_draw_word_is_one_integers_draw(self, seed, keys):
        parent, twin = ensure_rng(seed), ensure_rng(seed)
        derived = child_rng(draw_word(parent), *keys)
        base = int(twin.integers(0, 2**31 - 1))
        assert 0 <= base < 2**31 - 1
        assert derived.bit_generator.state == self.list_seeded(base, keys).bit_generator.state
        assert parent.bit_generator.state == twin.bit_generator.state


class TestConversions:
    def test_power_db_roundtrip(self):
        powers = np.array([1e-6, 1.0, 250.0])
        assert np.allclose(db_to_power(power_to_db(powers)), powers)

    def test_amplitude_db_roundtrip(self):
        amps = np.array([0.001, 1.0, 30.0])
        assert np.allclose(db_to_amplitude(amplitude_to_db(amps)), amps)

    def test_power_to_db_of_unit_power_is_zero(self):
        assert power_to_db(1.0) == pytest.approx(0.0)

    def test_amplitude_to_db_is_twice_power_to_db(self):
        value = 7.3
        assert amplitude_to_db(value) == pytest.approx(2 * power_to_db(value))

    def test_zero_power_is_floored_not_infinite(self):
        assert np.isfinite(power_to_db(0.0))

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_roundtrip_property(self, power):
        assert db_to_power(power_to_db(power)) == pytest.approx(power, rel=1e-9)


class TestStats:
    def test_ecdf_monotone_and_bounded(self):
        xs, ps = ecdf(np.array([3.0, 1.0, 2.0]))
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(ps) >= 0)
        assert ps[0] > 0 and ps[-1] == pytest.approx(1.0)

    def test_ecdf_rejects_empty(self):
        with pytest.raises(ValueError):
            ecdf(np.array([]))

    def test_percentile_summary_keys(self):
        summary = percentile_summary(np.arange(100.0))
        assert set(summary) == {5, 25, 50, 75, 95}
        assert summary[50] == pytest.approx(49.5)

    def test_running_mean_window_one_is_identity(self):
        values = np.array([1.0, 5.0, 2.0])
        assert np.array_equal(running_mean(values, 1), values)

    def test_running_mean_smooths(self):
        values = np.array([0.0, 10.0, 0.0, 10.0, 0.0])
        smoothed = running_mean(values, 3)
        assert smoothed.shape == values.shape
        assert np.all(smoothed <= 10.0) and np.all(smoothed >= 0.0)
        assert smoothed[2] == pytest.approx(20.0 / 3.0)

    def test_running_mean_invalid_window(self):
        with pytest.raises(ValueError):
            running_mean(np.array([1.0]), 0)

    def test_sliding_windows_full_only(self):
        windows = list(sliding_windows(np.arange(5), window=2, step=2))
        assert [w.tolist() for w in windows] == [[0, 1], [2, 3]]

    def test_sliding_windows_bad_args(self):
        with pytest.raises(ValueError):
            list(sliding_windows(np.arange(5), window=0))
        with pytest.raises(ValueError):
            list(sliding_windows(np.arange(5), window=2, step=0))

    def test_median_absolute_deviation(self):
        assert median_absolute_deviation(np.array([1.0, 1.0, 1.0])) == 0.0
        assert median_absolute_deviation(np.array([1.0, 2.0, 9.0])) == pytest.approx(1.0)


class TestValidation:
    def test_check_positive_accepts_and_rejects(self):
        assert check_positive("x", 2.0) == 2.0
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "2"])
    @pytest.mark.parametrize("strict", [True, False])
    def test_check_positive_rejects_non_finite_and_boolean(self, value, strict):
        with pytest.raises(ValueError, match="x must be a finite number"):
            check_positive("x", value, strict=strict)

    @pytest.mark.parametrize(
        "value, expected", [(np.int64(7), 7), (np.uint8(7), 7), (7, 7)]
    )
    def test_check_integer_returns_a_python_int(self, value, expected):
        checked = check_integer("n", value)
        assert checked == expected and type(checked) is int

    @pytest.mark.parametrize(
        "value, expected",
        [(np.float32(2.5), 2.5), (np.float64(2.5), 2.5), (np.int64(2), 2.0), (2, 2.0)],
    )
    def test_check_finite_real_returns_a_python_float(self, value, expected):
        checked = check_finite_real("x", value)
        assert checked == expected and type(checked) is float

    @pytest.mark.parametrize("value", [np.bool_(True), np.float32("nan"), np.float64("inf")])
    def test_numpy_booleans_and_non_finite_scalars_rejected(self, value):
        with pytest.raises(ValueError, match="x must be a finite number"):
            check_finite_real("x", value)
        with pytest.raises(ValueError, match="x must be an integer"):
            check_integer("x", value)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                check_probability("p", bad)

    @pytest.mark.parametrize("value", ["0.5", True, False, np.nan, np.inf, None])
    def test_check_probability_rejects_mistyped_and_non_finite(self, value):
        # float() used to accept a quoted number and turn true into 1.0.
        with pytest.raises(ValueError, match="p must be a finite number"):
            check_probability("p", value)

    def test_check_finite(self):
        array = np.array([1.0, 2.0])
        assert check_finite("a", array) is not None
        with pytest.raises(ValueError):
            check_finite("a", np.array([1.0, np.nan]))

    def test_check_shape_wildcards(self):
        array = np.zeros((3, 30))
        check_shape("a", array, (None, 30))
        with pytest.raises(ValueError):
            check_shape("a", array, (None, 29))
        with pytest.raises(ValueError):
            check_shape("a", array, (3, 30, 1))


class TestRegistry:
    """The registry class behind the detector plugins."""

    def test_direct_registration(self):
        registry: Registry[int] = Registry("widget", int)
        assert registry.register("one", 1) == 1
        registry.register("two", 2)
        assert registry.get("one") == 1
        assert "one" in registry and "three" not in registry
        assert len(registry) == 2
        assert registry.names() == ("one", "two") == tuple(registry)
        assert repr(registry) == "Registry('widget', ['one', 'two'])"

    def test_decorator_registration(self):
        registry: Registry[type] = Registry("widget", type)

        @registry.register("decorated")
        class Decorated:
            pass

        assert registry.get("decorated") is Decorated

    def test_duplicate_registration_rejected(self):
        registry: Registry[int] = Registry("widget", int)
        registry.register("name", 1)
        with pytest.raises(ValueError, match="widget 'name' is already registered"):
            registry.register("name", 2)
        assert registry.get("name") == 1

    def test_unknown_name_lists_registered_names(self):
        registry: Registry[int] = Registry("widget", int)
        registry.register("a", 1)
        registry.register("b", 2)
        with pytest.raises(ValueError) as excinfo:
            registry.get("nope")
        assert str(excinfo.value) == "unknown widget 'nope'; registered widgets: ['a', 'b']"

    @pytest.mark.parametrize("name", ["", None, 3])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ValueError, match="widget name must be a non-empty string"):
            Registry("widget", int).register(name, 1)

    def test_invalid_entries_rejected(self):
        registry: Registry[int] = Registry("widget", int)
        with pytest.raises(TypeError, match="widget must be an instance of int"):
            registry.register("x", "not-an-int")
        with pytest.raises(TypeError):
            registry.register("y")(2.5)
        assert len(registry) == 0

    def test_unregister(self):
        registry: Registry[int] = Registry("widget", int)
        registry.register("gone", 1)
        registry.unregister("gone")
        assert "gone" not in registry
        with pytest.raises(KeyError):
            registry.unregister("gone")
        # Replacing an entry is unregister, then register.
        registry.register("gone", 2)
        assert registry.get("gone") == 2
