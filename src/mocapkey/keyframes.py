"""Keyframe index sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidKeyframeSet, InvalidW


def check_keyframe_count(n: int, w: int) -> None:
    """Raise InvalidW unless a budget of w keyframes fits n frames."""
    if not 2 <= w <= n:
        raise InvalidW(f"keyframe count must be in [2, {n}], got {w}")


@dataclass(frozen=True)
class KeyframeSet:
    """Sorted distinct frame indices, always containing the first and last
    frame of the sequence they refer to."""
    indices: tuple[int, ...]
    frame_count: int

    def __post_init__(self):
        idx = self.indices
        if self.frame_count < 2:
            raise InvalidKeyframeSet("frame_count must be at least 2")
        if len(idx) < 2:
            raise InvalidKeyframeSet("need at least the first and last frame")
        if any(int(i) != i for i in idx):
            raise InvalidKeyframeSet("indices must be integers")
        object.__setattr__(self, "indices", tuple(map(int, idx)))   # plain ints
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidKeyframeSet(f"indices must be strictly increasing: {idx}")
        if idx[0] != 0 or idx[-1] != self.frame_count - 1:
            raise InvalidKeyframeSet(
                f"set must span frames 0..{self.frame_count - 1}, got {idx}")

    @classmethod
    def from_indices(cls, indices, frame_count: int) -> "KeyframeSet":
        """Build from any iterable; duplicates collapse, order is ignored."""
        return cls(tuple(sorted(set(indices))), frame_count)

    @classmethod
    def endpoints(cls, frame_count: int) -> "KeyframeSet":
        return cls((0, frame_count - 1), frame_count)

    @classmethod
    def from_mask(cls, mask) -> "KeyframeSet":
        mask = np.asarray(mask, dtype=bool)
        return cls(tuple(np.flatnonzero(mask)), len(mask))

    def add(self, frame: int) -> "KeyframeSet":
        if frame in self.indices:
            raise InvalidKeyframeSet(f"frame {frame} is already a keyframe")
        return KeyframeSet.from_indices(self.indices + (frame,), self.frame_count)

    @property
    def mask(self) -> np.ndarray:
        out = np.zeros(self.frame_count, dtype=bool)
        out[list(self.indices)] = True
        return out

    def complement(self) -> np.ndarray:
        """Frames that are not keyframes, ascending."""
        return np.flatnonzero(~self.mask)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, frame) -> bool:
        return frame in self.indices

    def __iter__(self):
        return iter(self.indices)
