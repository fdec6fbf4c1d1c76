"""Exception types raised across the package, and the stored-field check.

Every error that callers are expected to catch derives from MocapKeyError,
grouped loosely by pipeline stage (parsing, geometry, metrics, training);
numeric failures derive from NumericError.
"""

import math


class MocapKeyError(Exception):
    """Base class for all package-specific errors."""


class NumericError(MocapKeyError):
    """Base class for degenerate metrics, singularities and the like."""


# --- parsing / file formats -------------------------------------------------

class MalformedAsf(MocapKeyError):
    """ASF skeleton file is structurally invalid; message names the line."""


class MalformedAmc(MocapKeyError):
    """AMC motion file is structurally invalid; message names the line."""


class TooShort(MocapKeyError):
    """Source sequence shorter than one window after downsampling."""


class MalformedDataset(MocapKeyError):
    """Dataset directory, manifest or window record is invalid."""


class UnreachablePose(NumericError):
    """A parent-relative direction is incompatible with a joint's dof."""


class CheckpointError(MocapKeyError):
    """Base class for checkpoint load failures."""


class VersionMismatch(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class CorruptCheckpoint(CheckpointError):
    """Checkpoint file is truncated or fails integrity checks."""


# --- geometry ----------------------------------------------------------------

class ZeroVector(NumericError):
    """Spherical conversion of the zero vector is undefined."""


class PoleSingularity(NumericError):
    """Azimuth rate is undefined because the point lies on the z-axis."""


class MeridianSingularity(NumericError):
    """Constrained azimuth rate divides by cos(phi) which is ~0."""


class DegenerateInterval(NumericError):
    """Cubic fit requested over an empty or reversed time interval."""


# --- keyframes / metrics -----------------------------------------------------

class InvalidKeyframeSet(MocapKeyError):
    """Keyframe indices violate the sorted/distinct/endpoint constraints."""


class InvalidW(MocapKeyError):
    """Requested keyframe count outside [2, N]."""


class DegenerateSequence(NumericError):
    """Baseline error Q0 is zero, so relative error is undefined."""


# --- neural / training ---------------------------------------------------------

class ShapeMismatch(MocapKeyError):
    """Input vector length does not match the network or encoder."""


class NonFiniteGradient(NumericError):
    """A training step produced NaN or infinite gradients."""


class NoValidAction(NumericError):
    """All frames are already keyframes; no action can be taken."""


class EmptyDataset(MocapKeyError):
    """No usable sequences remain after filtering."""


class MalformedConfig(MocapKeyError):
    """Training config holds an unknown key or a value of the wrong kind or range."""


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
