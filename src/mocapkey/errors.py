"""Exception types raised across the package, and the stored-field check.

Three classes, each caught by name somewhere: ``MocapKeyError`` is bad
input data (a file, a record, a checkpoint or a config that names what is
wrong; exit code 2), ``NumericError`` a computation with no defined result
(a singularity, an unreachable pose, a non-finite gradient; exit code 3),
and ``DegenerateSequence`` a window whose baseline error is zero, which
``eval`` and ``train`` skip.
"""

import math


class MocapKeyError(Exception):
    """Bad input data; the message names the file, field or line at fault."""


class NumericError(MocapKeyError):
    """A computation with no defined result: singularities and the like."""


class DegenerateSequence(NumericError):
    """Baseline error Q0 is zero, so relative error is undefined."""


_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          bool: "true or false", list: "a list", dict: "an object"}


def checked(value, name: str, kind, error, low=None, high=None, *,
            above=None, among=None, size=None, finite=True):
    """``value`` itself, unconverted, when it is of JSON kind ``kind`` and
    within the limits; otherwise raises ``error(message)`` naming ``name``
    and the value. Kinds: int (not a bool), float (an int or float, finite
    unless ``finite`` is false, never NaN), str, bool, dict, list (of
    ``size`` elements) and ``list[item]``, each element checked as ``item``.
    Limits: ``low`` and ``high`` inclusive, ``above`` exclusive, ``among``
    the allowed values."""
    if hasattr(kind, "__args__"):       # list[item]
        for i, element in enumerate(checked(value, name, list, error, size=size)):
            checked(element, f"{name}[{i}]", kind.__args__[0], error, low, high,
                    above=above, among=among, finite=finite)
        return value
    if kind is float:
        fits = type(value) in (int, float) and (
            math.isfinite(value) if finite else not math.isnan(value))
    else:
        fits = type(value) is kind and (size is None or len(value) == size)
    if not (fits and (low is None or value >= low) and (high is None or value <= high)
            and (above is None or value > above)):
        what = (_KINDS[kind] if finite else "a number other than NaN") + (
            "" if size is None else f" of {size} elements")
        limits = [f"{op} {bound!r}" for op, bound in ((">=", low), ("<=", high), (">", above))
                  if bound is not None]
        raise error(f"{name} is {value!r}, expected {', '.join([what, *limits])}")
    if among is not None and value not in among:
        raise error(f"{name} is {value!r}, " + (
            f"fixed at {next(iter(among))!r}" if len(among) == 1
            else f"expected one of {sorted(among)}"))
    return value
