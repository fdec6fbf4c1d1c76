"""Exception types raised across the package.

Every error that callers are expected to catch derives from MocapKeyError,
grouped loosely by pipeline stage (parsing, geometry, metrics, training);
numeric failures derive from NumericError.
"""


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
