"""Typed readers for every scalar and array argument in the library.

Every field a config supplies, and every scalar a constructor, operator or
sampler takes, is read by one of these: a real number, a count, a flag, an
array of reals and an array of flags. Each reader checks the value's type
and any rule its caller names, and returns it converted. A boolean is not a
number and a string is neither a number nor a flag, so both are rejected
where a number or a flag is meant. Each message names the argument and the
bad value, as a ``ValueError``; the experiments report one met while reading
a config as a :class:`ConfigError`, the class the command line turns into a
``config error:`` line.

An array reader takes a size cap, which a caller derives from the memory the
field sizes, so that an oversized grid is rejected before anything is
allocated for it.

The module imports nothing from pnplab, so every other module reads its
arguments and config blocks with it.
"""

from __future__ import annotations

import numbers

import numpy as np


class ConfigError(ValueError):
    """A config is malformed or missing a required field."""


# A rule is the phrase a message states and a test that holds elementwise.
POSITIVE = ("be positive and finite", lambda x: (x > 0.0) & (x < np.inf))
NONNEGATIVE = ("be nonnegative and finite", lambda x: (x >= 0.0) & (x < np.inf))
UNIT = ("lie in [0, 1)", lambda x: (x >= 0.0) & (x < 1.0))
FACTOR = ("lie in (0, 1]", lambda x: (x > 0.0) & (x <= 1.0))
FRACTION = ("lie in [0, 1]", lambda x: (x >= 0.0) & (x <= 1.0))


def is_number(value) -> bool:
    """Whether ``value`` is a real number and not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require(config: dict, *keys: str, where: str):
    """The values of ``keys`` in the ``where`` config block, one per key; a missing one is named."""
    for key in keys:
        if key not in config:
            raise ConfigError(f"{where} config missing required field {key!r}")
    return config[keys[0]] if len(keys) == 1 else tuple(config[key] for key in keys)


def real(value, name: str, rule=None) -> float:
    """The number ``name`` as a float, checked against ``rule`` if one is given."""
    if not is_number(value):
        raise ValueError(f"{name!r} must be a number, got {value!r}")
    if rule is not None and not rule[1](value):
        raise ValueError(f"{name!r} must {rule[0]}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name!r} is too large for a float") from None


def count(value, name: str, rule=None) -> int:
    """The count or seed ``name``: a nonnegative integer, not a boolean or a float.

    It is checked against ``rule`` if one is given; a count that must be at
    least 1 names :data:`POSITIVE`.
    """
    if not (is_number(value) and isinstance(value, numbers.Integral) and value >= 0):
        raise ValueError(f"{name!r} must be a nonnegative integer, got {value!r}")
    if rule is not None and not rule[1](value):
        raise ValueError(f"{name!r} must {rule[0]}, got {value!r}")
    return int(value)


def flag(value, name: str) -> bool:
    """The switch ``name``: a JSON boolean, not a string or a number."""
    if not isinstance(value, bool):
        raise ValueError(f"{name!r} must be true or false, got {value!r}")
    return value


def _items(value, name: str, ndim: int, cap, what: str, wanted) -> np.ndarray:
    """``value`` as a nonempty ``ndim``-D object array of at most ``cap`` items, each ``wanted``.

    One item of each type is tested, so a large array costs one pass in C.
    """
    items = np.asarray(value, dtype=object)
    if items.ndim != ndim or items.size == 0:
        raise ValueError(f"{name} must be a nonempty {ndim}-D array of {what}, got shape {items.shape}")
    if cap is not None and items.size > cap:
        raise ValueError(f"{name} holds {items.size} values, more than its cap of {cap}")
    examples = dict(zip(map(type, items.flat), items.flat))
    bad = {kind for kind, item in examples.items() if not wanted(item)}
    if bad:
        first = next(item for item in items.flat if type(item) in bad)
        raise ValueError(f"{name} must hold only {what}, got {first!r}")
    return items


def real_array(value, name: str, ndim: int = 1, rule=None, cap: int | None = None) -> np.ndarray:
    """The ``ndim``-D array of numbers ``name`` as float64, each checked against ``rule``."""
    items = _items(value, name, ndim, cap, "numbers", is_number)
    try:
        values = items.astype(np.float64)
    except OverflowError:
        raise ValueError(f"{name} holds a number too large for a float") from None
    if rule is not None and not np.all(rule[1](values)):
        first = float(values.flat[np.argmin(rule[1](values))])
        raise ValueError(f"every value of {name} must {rule[0]}, got {first!r}")
    return values


def flag_array(value, name: str) -> np.ndarray:
    """The 1-D array of JSON booleans ``name`` as a boolean array."""
    return _items(value, name, 1, None, "true or false", lambda x: isinstance(x, bool)).astype(bool)
