"""The typed readers: each rejects a boolean or a string where a number or a flag is meant.

Every reader raises a plain ``ValueError``, not the :class:`ConfigError` of the
config boundary; only ``require`` raises that.
"""

import re

import numpy as np
import pytest

from pnplab.config import (
    FACTOR,
    FRACTION,
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
from pnplab.denoisers import MmseDenoiser, OutputShrink, ScaledDenoiser, ShrinkageDenoiser
from pnplab.linop import Convolve1d, Identity, Mask
from pnplab.prior import GmmPrior
from pnplab.solver import PnpConfig


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
        assert real(1, "alpha", FACTOR) == 1.0
        assert real(0.0, "mask_fraction", FRACTION) == 0.0 and real(1.0, "mask_fraction", FRACTION) == 1.0

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
            (0.0, FACTOR, "'x' must lie in (0, 1], got 0.0"),
            (1.5, FACTOR, "'x' must lie in (0, 1], got 1.5"),
            (float("nan"), FACTOR, "'x' must lie in (0, 1], got nan"),
            (-0.1, FRACTION, "'x' must lie in [0, 1], got -0.1"),
            (1.01, FRACTION, "'x' must lie in [0, 1], got 1.01"),
        ],
    )
    def test_real_rejects(self, value, rule, message):
        with pytest.raises(ValueError) as info:
            real(value, "x", rule)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_count(self):
        assert count(0, "seed") == 0 and count(np.int64(7), "seed") == 7
        for bad in (True, 1.0, 1.5, -1, "3", None):
            with pytest.raises(ValueError, match=f"'seed' must be a nonnegative integer, got {bad!r}") as info:
                count(bad, "seed")
            assert type(info.value) is ValueError

    def test_count_applies_its_rule(self):
        assert count(1, "dim", POSITIVE) == 1 and type(count(np.int64(2), "dim", POSITIVE)) is int
        with pytest.raises(ValueError) as info:
            count(0, "dim", POSITIVE)
        assert type(info.value) is ValueError and str(info.value) == "'dim' must be positive and finite, got 0"
        with pytest.raises(ValueError, match="'dim' must be a nonnegative integer, got -1"):
            count(-1, "dim", POSITIVE)

    def test_flag(self):
        assert flag(True, "f") is True and flag(False, "f") is False
        for bad in (0, 1, "false", "no", None):
            with pytest.raises(ValueError, match=f"'f' must be true or false, got {bad!r}") as info:
                flag(bad, "f")
            assert type(info.value) is ValueError

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
        with pytest.raises(ValueError) as info:
            real_array(value, "g", ndim=ndim)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_rule_names_the_first_bad_value(self):
        with pytest.raises(ValueError) as info:
            real_array([1.0, -2.0, 0.0], "delta_grid", rule=POSITIVE)
        assert type(info.value) is ValueError
        assert str(info.value) == "every value of delta_grid must be positive and finite, got -2.0"
        with pytest.raises(ValueError, match="got inf") as info:
            real_array([1.0, np.inf], "delta_grid", rule=POSITIVE)
        assert type(info.value) is ValueError

    def test_cap_counts_values_and_is_checked_first(self):
        assert real_array([1.0] * 3, "g", cap=3).size == 3
        with pytest.raises(ValueError) as info:
            real_array([1.0, 2.0, "x", 4.0], "g", cap=3)
        assert type(info.value) is ValueError and str(info.value) == "g holds 4 values, more than its cap of 3"

    def test_flag_array(self):
        got = flag_array([True, False, True], "mask")
        assert got.dtype == bool and got.tolist() == [True, False, True]
        for bad, shown in (([1, 0, 2], "1"), (["no", "yes"], "'no'"), ([True, 0.0], "0.0")):
            with pytest.raises(ValueError, match=f"mask must hold only true or false, got {shown}") as info:
                flag_array(bad, "mask")
            assert type(info.value) is ValueError


# Every scalar argument of the library that a reader checks: (where, name, kind, call).
# The kind says which values of _HOSTILE are admissible and which one the call takes.
_PRIOR = GmmPrior([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
_BASE = ShrinkageDenoiser(0.5, 2)
_Y = np.zeros(2)
_LIBRARY_ARGUMENTS = [
    ("PnpConfig", "tau", "step", lambda v: PnpConfig(tau=v)),
    ("PnpConfig", "tol", "positive", lambda v: PnpConfig(tol=v)),
    ("PnpConfig", "max_iters", "count", lambda v: PnpConfig(max_iters=v)),
    ("MmseDenoiser", "sigma", "positive", lambda v: MmseDenoiser(_PRIOR, v)),
    ("ShrinkageDenoiser", "alpha", "factor", lambda v: ShrinkageDenoiser(v, 2)),
    ("ShrinkageDenoiser", "dim", "count", lambda v: ShrinkageDenoiser(0.5, v)),
    ("OutputShrink", "alpha", "factor", lambda v: OutputShrink(_BASE, v)),
    ("ScaledDenoiser", "delta", "positive", lambda v: ScaledDenoiser(_BASE, v)),
    ("ScaledDenoiser-rows", "delta", "positive", lambda v: ScaledDenoiser(_BASE, [1.0, v])),
    ("Identity", "dim", "count", lambda v: Identity(v)),
    ("Convolve1d", "dim", "count", lambda v: Convolve1d([0.5], v)),
    ("Mask.random", "dim", "count", lambda v: Mask.random(v, 0.5)),
    ("Mask.random", "mask_fraction", "fraction", lambda v: Mask.random(8, v)),
    ("gradient_step", "tau", "positive", lambda v: Identity(2).gradient_step(_Y, v, _Y)),
    ("pair_blocks", "sigma", "positive", lambda v: _PRIOR.pair_blocks(v, 4, 0, 2)),
    ("pair_blocks", "count", "count", lambda v: _PRIOR.pair_blocks(0.1, v, 0, 2)),
    ("pair_blocks", "rows", "count", lambda v: _PRIOR.pair_blocks(0.1, 4, 0, v)),
    ("sample_pairs", "sigma", "positive", lambda v: _PRIOR.sample_pairs(v, 3, 0)),
    ("sample_pairs", "count", "count", lambda v: _PRIOR.sample_pairs(0.1, v, 0)),
    ("log_density", "sigma", "nonnegative", lambda v: _PRIOR.log_density(_Y, v)),
    ("responsibilities", "sigma", "nonnegative", lambda v: _PRIOR.responsibilities(_Y, v)),
    ("score", "sigma", "nonnegative", lambda v: _PRIOR.score(_Y, v)),
    ("mmse_denoise", "sigma", "positive", lambda v: _PRIOR.mmse_denoise(_Y, v)),
    ("posterior_mean", "sigma", "positive", lambda v: _PRIOR.posterior_mean(_Y, v)),
]
_HOSTILE = [True, False, "1", None, float("nan"), np.inf, -np.inf, 2.5, 0, -1]
# The hostile values each kind admits, by repr (so that False is not 0), and a value it takes.
_ADMITS = {
    "positive": {"2.5"},
    "step": {"2.5", "None"},
    "nonnegative": {"2.5", "0"},
    "factor": set(),
    "fraction": {"0"},
    "count": set(),
}
_TAKES = {"positive": 0.5, "step": 0.5, "nonnegative": 0.0, "factor": 1.0, "fraction": 1.0, "count": 2}


class TestLibraryArguments:
    """Every scalar argument is read by a reader: a bad value is a ValueError that names it."""

    @pytest.mark.parametrize(
        "call, name, value",
        [
            pytest.param(call, name, value, id=f"{where}-{name}-{value!r}")
            for where, name, kind, call in _LIBRARY_ARGUMENTS
            for value in _HOSTILE
            if repr(value) not in _ADMITS[kind]
        ],
    )
    def test_rejects(self, call, name, value):
        with pytest.raises(ValueError) as info:
            call(value)
        assert type(info.value) is ValueError
        assert re.match(f"('{name}'|{name}|every value of {name}) ", str(info.value)), str(info.value)

    @pytest.mark.parametrize(
        "call, kind",
        [pytest.param(call, kind, id=f"{where}-{name}") for where, name, kind, call in _LIBRARY_ARGUMENTS],
    )
    def test_takes_python_and_numpy_scalars(self, call, kind):
        value = _TAKES[kind]
        for taken in (value, np.asarray(value)[()]):
            result = call(taken)
            if hasattr(result, "close"):
                result.close()
