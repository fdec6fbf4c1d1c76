"""Random, uniform and greedy keyframe selectors."""

from __future__ import annotations

import numpy as np

from .keyframes import KeyframeSet, check_keyframe_count
from .metrics import q_baseline, section_error_table
from .spherical import SphericalSequence


def select_random(n: int, w: int, seed: int) -> KeyframeSet:
    """Endpoints plus w-2 interior frames drawn uniformly without
    replacement; a pure function of (n, w, seed)."""
    check_keyframe_count(n, w)
    rng = np.random.default_rng(seed)
    interior = rng.choice(np.arange(1, n - 1), size=w - 2, replace=False)
    return KeyframeSet.from_indices([0, n - 1, *interior.tolist()], n)


def select_uniform(n: int, w: int) -> KeyframeSet:
    """Frames round((n-1) * i / (w-1)) for i = 0..w-1.

    Rounding is half-to-even.
    """
    check_keyframe_count(n, w)
    return KeyframeSet(tuple(int(np.rint((n - 1) * i / (w - 1))) for i in range(w)), n)


def select_greedy(sph: SphericalSequence, w: int) -> KeyframeSet:
    """Grow from the endpoints, always adding the frame that minimizes the
    reconstruction error; ties break toward the smallest frame index.

    Candidates are scored from a table of every section's error: adding
    frame f to section [a, b] replaces E[a, b] by E[a, f] + E[f, b].
    """
    n = sph.frame_count
    check_keyframe_count(n, w)
    q_baseline(sph)   # degenerate windows have no meaningful argmin
    table = section_error_table(sph)
    mask = KeyframeSet.endpoints(n).mask
    total = table[0, n - 1]
    for _ in range(w - 2):
        keys = np.flatnonzero(mask)
        cand = np.flatnonzero(~mask)
        right = np.searchsorted(keys, cand)
        lo, hi = keys[right - 1], keys[right]
        scores = total - table[lo, hi] + table[lo, cand] + table[cand, hi]
        best = int(np.argmin(scores))
        total = scores[best]
        mask[cand[best]] = True
    return KeyframeSet.from_mask(mask)
