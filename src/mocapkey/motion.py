"""World-space motion sequences: forward kinematics and preprocessing."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .asfamc import Joint, RawMotion, Skeleton, root_track, world_rotations
from .errors import MocapKeyError

# The one window shape: CMU capture at 120 Hz, kept every STRIDE-th frame
# (30 Hz) and cut into WINDOW_LEN-frame windows. The rates are floats
# because the manifest stores them as written here.
SOURCE_FPS = 120.0
TARGET_FPS = 30.0
STRIDE = round(SOURCE_FPS / TARGET_FPS)
WINDOW_LEN = 60

# Distal extremities removed from the skeleton (filter_joints) before
# forward kinematics. With these removed the standard CMU skeleton keeps 22
# bones whose ends, together with the root, are the usual 23 tracked body
# points.
CMU_EXCLUDED_JOINTS = (
    "lhand", "lfingers", "lthumb",
    "rhand", "rfingers", "rthumb",
    "ltoes", "rtoes",
)


@dataclass(frozen=True)
class MotionSequence:
    """World-space positions of the non-root joints plus a separate root
    track. Positions are (N, M, 3), frame-major."""
    dt: float
    positions: np.ndarray
    root_positions: np.ndarray
    joint_names: tuple[str, ...]
    parents: tuple[int, ...]      # index into joint_names; -1 means the root
    source: str = ""

    def __post_init__(self):
        n, m = self.positions.shape[:2]
        if self.positions.shape != (n, m, 3):
            raise ValueError("positions must be (N, M, 3)")
        if m == 0:
            raise ValueError("no tracked joints: the skeleton has no bones to track")
        if self.root_positions.shape != (n, 3):
            raise ValueError("root_positions must be (N, 3)")
        if len(self.joint_names) != m or len(self.parents) != m:
            raise ValueError("joint_names and parents must have length M")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")

    @property
    def frame_count(self) -> int:
        return self.positions.shape[0]

    @property
    def joint_count(self) -> int:
        return self.positions.shape[1]


def forward_kinematics(skeleton: Skeleton, raw: RawMotion, dt: float,
                       source: str = "") -> MotionSequence:
    """World positions of every bone end over the clip.

    Joint order matches the skeleton's (topological, root excluded). Pass
    the :func:`filter_joints` skeleton to compute only the tracked joints.
    """
    joints = skeleton.joints
    rotations = world_rotations(skeleton, raw)
    positions = np.empty((len(joints), raw.frame_count, 3))
    positions[0] = root_track(skeleton, raw)
    for idx in range(1, len(joints)):
        joint = joints[idx]
        offset = joint.length * joint.direction
        positions[idx] = positions[joint.parent] + rotations[idx] @ offset

    return MotionSequence(
        dt=dt,
        positions=np.moveaxis(positions[1:], 0, 1),   # (N, M, 3)
        root_positions=positions[0],
        joint_names=skeleton.bone_names,
        parents=skeleton.bone_parents,
        source=source,
    )


def finite_difference(track: np.ndarray, dt: float) -> np.ndarray:
    """Central differences along axis 0, one-sided at the first/last frame."""
    if len(track) < 2:
        return np.zeros_like(track)
    out = np.empty_like(track)
    out[1:-1] = (track[2:] - track[:-2]) / (2.0 * dt)
    out[0] = (track[1] - track[0]) / dt
    out[-1] = (track[-1] - track[-2]) / dt
    return out


def filter_joints(skeleton: Skeleton, excluded: tuple[str, ...]) -> Skeleton:
    """Skeleton with the named bones removed.

    Every excluded bone must be a leaf of the remaining tree (no retained
    descendants), otherwise the hierarchy would be broken: MocapKeyError.
    """
    names = {j.name for j in skeleton.joints}
    unknown = [e for e in excluded if e not in names]
    if unknown:
        raise ValueError(f"excluded joints not in skeleton: {unknown}")
    keep: list[Joint] = []
    new_index: dict[int, int] = {}
    for old_idx, joint in enumerate(skeleton.joints):
        if joint.name in excluded:
            continue
        if joint.parent is not None and joint.parent not in new_index:
            raise MocapKeyError(
                f"cannot exclude '{skeleton.joints[joint.parent].name}': "
                f"retained joint '{joint.name}' descends from it")
        parent = None if joint.parent is None else new_index[joint.parent]
        new_index[old_idx] = len(keep)
        keep.append(replace(joint, parent=parent))
    return replace(skeleton, joints=tuple(keep))


def preprocess(seq: MotionSequence) -> list[MotionSequence]:
    """Downsample a SOURCE_FPS clip to TARGET_FPS and cut WINDOW_LEN-frame
    windows.

    Windows are consecutive and non-overlapping; a trailing remainder
    shorter than the window length is discarded. Raises MocapKeyError when
    the clip yields no complete window.
    """
    pos = seq.positions[::STRIDE]
    root = seq.root_positions[::STRIDE]
    n_windows = len(pos) // WINDOW_LEN
    if n_windows == 0:
        raise MocapKeyError(
            f"{len(pos)} downsampled frames < window length {WINDOW_LEN}")
    windows = []
    for w in range(n_windows):
        lo = w * WINDOW_LEN
        hi = lo + WINDOW_LEN
        windows.append(replace(
            seq, dt=STRIDE * seq.dt, positions=pos[lo:hi], root_positions=root[lo:hi],
            source=f"{seq.source}[{lo * STRIDE}:{hi * STRIDE}]" if seq.source else ""))
    return windows
