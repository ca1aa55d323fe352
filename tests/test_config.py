"""The typed config readers: each rejects a boolean or a string where a number or a flag is meant."""

import numpy as np
import pytest

from pnplab.config import (
    NONNEGATIVE,
    POSITIVE,
    UNIT,
    ConfigError,
    count,
    flag,
    flag_array,
    is_number,
    real,
    real_array,
    require,
)


@pytest.mark.parametrize("value", [0, 2.5, -1, np.float64(0.1), np.int64(3), float("nan")])
def test_numbers(value):
    assert is_number(value)


@pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None, [1.0], {"a": 1}])
def test_not_numbers(value):
    assert not is_number(value)


class TestScalars:
    def test_real_converts_and_applies_its_rule(self):
        assert real(3, "sigma") == 3.0 and type(real(3, "sigma")) is float
        assert real(np.float64(0.5), "sigma", POSITIVE) == 0.5
        assert real(0.0, "sigma", NONNEGATIVE) == 0.0
        assert real(0.0, "eps", UNIT) == 0.0

    @pytest.mark.parametrize(
        "value, rule, message",
        [
            (True, None, "'x' must be a number, got True"),
            ("0.1", POSITIVE, "'x' must be a number, got '0.1'"),
            (None, None, "'x' must be a number, got None"),
            (0.0, POSITIVE, "'x' must be positive and finite, got 0.0"),
            (float("inf"), POSITIVE, "'x' must be positive and finite, got inf"),
            (float("nan"), NONNEGATIVE, "'x' must be nonnegative and finite, got nan"),
            (-0.1, NONNEGATIVE, "'x' must be nonnegative and finite, got -0.1"),
            (1.0, UNIT, "'x' must lie in [0, 1), got 1.0"),
            (10**400, None, "'x' is too large for a float"),
            (-(10**400), NONNEGATIVE, "'x' must be nonnegative and finite, got -1" + "0" * 400),
        ],
    )
    def test_real_rejects(self, value, rule, message):
        with pytest.raises(ConfigError) as info:
            real(value, "x", rule)
        assert str(info.value) == message

    def test_count(self):
        assert count(0, "seed") == 0 and count(np.int64(7), "seed") == 7
        for bad in (True, 1.0, 1.5, -1, "3", None):
            with pytest.raises(ConfigError, match=f"'seed' must be a nonnegative integer, got {bad!r}"):
                count(bad, "seed")

    def test_flag(self):
        assert flag(True, "f") is True and flag(False, "f") is False
        for bad in (0, 1, "false", "no", None):
            with pytest.raises(ConfigError, match=f"'f' must be true or false, got {bad!r}"):
                flag(bad, "f")

    def test_require_names_the_first_missing_field(self):
        assert require({"a": 1}, "a", where="block") == 1
        assert require({"a": 1, "b": 2}, "a", "b", where="block") == (1, 2)
        with pytest.raises(ConfigError, match="block config missing required field 'b'"):
            require({"a": 1}, "a", "b", "c", where="block")


class TestArrays:
    def test_real_array_converts(self):
        got = real_array([1, 2.5, np.float64(3.0)], "g")
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.5, 3.0]
        means = real_array([[0, 1], [2, 3]], "means", ndim=2)
        assert means.shape == (2, 2) and means.dtype == np.float64
        assert real_array(np.array([0.5, 2.0]), "g", rule=POSITIVE).tolist() == [0.5, 2.0]

    @pytest.mark.parametrize(
        "value, ndim, message",
        [
            ([True, 10.0], 1, "g must hold only numbers, got True"),
            ([1.0, "2"], 1, "g must hold only numbers, got '2'"),
            ([[0.0, False]], 2, "g must hold only numbers, got False"),
            ([1.0, None], 1, "g must hold only numbers, got None"),
            ([], 1, "g must be a nonempty 1-D array of numbers, got shape (0,)"),
            (2.0, 1, "g must be a nonempty 1-D array of numbers, got shape ()"),
            ("abc", 1, "g must be a nonempty 1-D array of numbers, got shape ()"),
            ([[1.0, 2.0], [3.0]], 2, "g must be a nonempty 2-D array of numbers, got shape (2,)"),
            ([1.0, 2.0], 2, "g must be a nonempty 2-D array of numbers, got shape (2,)"),
            ([[1.0, [2.0]]], 2, "g must hold only numbers, got [2.0]"),
            ([1.0, 10**400], 1, "g holds a number too large for a float"),
            ([[1.0, -(10**400)]], 2, "g holds a number too large for a float"),
        ],
    )
    def test_real_array_rejects(self, value, ndim, message):
        with pytest.raises(ConfigError) as info:
            real_array(value, "g", ndim=ndim)
        assert str(info.value) == message

    def test_rule_names_the_first_bad_value(self):
        with pytest.raises(ConfigError) as info:
            real_array([1.0, -2.0, 0.0], "delta_grid", rule=POSITIVE)
        assert str(info.value) == "every value of delta_grid must be positive and finite, got -2.0"
        with pytest.raises(ConfigError, match="got inf"):
            real_array([1.0, np.inf], "delta_grid", rule=POSITIVE)

    def test_cap_counts_values_and_is_checked_first(self):
        assert real_array([1.0] * 3, "g", cap=3).size == 3
        with pytest.raises(ConfigError) as info:
            real_array([1.0, 2.0, "x", 4.0], "g", cap=3)
        assert str(info.value) == "g holds 4 values, more than its cap of 3"

    def test_flag_array(self):
        got = flag_array([True, False, True], "mask")
        assert got.dtype == bool and got.tolist() == [True, False, True]
        for bad, shown in (([1, 0, 2], "1"), (["no", "yes"], "'no'"), ([True, 0.0], "0.0")):
            with pytest.raises(ConfigError, match=f"mask must hold only true or false, got {shown}"):
                flag_array(bad, "mask")
