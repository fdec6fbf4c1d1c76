"""Reconstruction-error metrics."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInterval, DegenerateSequence
from .keyframes import KeyframeSet
from .reconstruct import _interior_cubics, _sections
from .spherical import SphericalSequence

TWO_PI = 2.0 * math.pi

# schema of one evaluation row (see the eval command)
REPORT_COLUMNS = ("sequence", "keyframes", "method", "q_error",
                  "root_rmse", "decision_time_s")


def angle_distance(a, b):
    """Wrapped absolute angular distance, elementwise in [0, pi]."""
    d = np.abs(np.asarray(a, dtype=np.float64) - b)
    wide = d >= TWO_PI    # the mod is the costly step and a no-op below 2 pi
    if np.any(wide):
        d = np.where(wide, np.mod(d, TWO_PI), d)
    return np.minimum(d, TWO_PI - d)


def section_errors(sph: SphericalSequence, a, b) -> np.ndarray:
    """Summed wrapped theta + phi error of the cubic reconstruction of
    each section ``[a[i], b[i]]``, one entry per pair.

    Only interior frames are summed: the endpoints are verbatim keyframe
    copies with zero error. The cubics are the angle cubics of
    ``reconstruct_full``; the root path and the rates are not built.
    """
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    if a.shape != b.shape or np.any(a < 0) or np.any(b <= a) \
            or np.any(b >= sph.frame_count):
        raise DegenerateInterval(f"bad sections for N={sph.frame_count}")
    return section_kernel(*stacked_angles(sph), sph.dt, a, b)


def stacked_angles(sph: SphericalSequence) -> tuple[np.ndarray, np.ndarray]:
    """theta|phi, (N, 2M), and their rates: :func:`section_kernel`'s input."""
    return (np.hstack((sph.theta, sph.phi)),
            np.hstack((sph.theta_dot, sph.phi_dot)))


def section_kernel(angle, rate, dt, a, b) -> np.ndarray:
    """``section_errors`` on prepared arrays and valid section ends; each
    entry sums its own section's frames alone, whatever else is passed."""
    owner, frames, recon = _interior_cubics(a, b, dt, angle, rate)
    err = angle_distance(recon, angle[frames]).sum(axis=1)
    return np.bincount(owner, err, minlength=a.size)


def section_error_table(sph: SphericalSequence) -> np.ndarray:
    """N x N table E with E[a, b] = ``section_errors`` of section [a, b],
    zero where b <= a + 1.

    Built one span length at a time: one all-pairs gather would hold
    every interior frame of every section in memory at once.
    """
    n = sph.frame_count
    table = np.zeros((n, n))
    for span in range(2, n):          # spans of one frame have no interior
        a = np.arange(n - span)
        table[a, a + span] = section_errors(sph, a, a + span)
    return table


def q_error(sph: SphericalSequence, keys: KeyframeSet) -> float:
    """Mean wrapped angle error of the keyframe reconstruction.

    Sum of per-section theta and phi errors over all sections, divided by
    frame count times joint count.
    """
    total = section_errors(sph, *_sections(sph, keys)).sum()
    return float(total) / (sph.frame_count * sph.joint_count)


def q_baseline(sph: SphericalSequence) -> float:
    """Error of the two-endpoint reconstruction, the normalizer Q0.

    Raises DegenerateSequence when it is exactly zero (static or
    cubic-exact windows), for which relative errors are undefined.
    """
    q0 = q_error(sph, KeyframeSet.endpoints(sph.frame_count))
    if q0 == 0.0:
        raise DegenerateSequence(
            f"endpoint reconstruction is already exact for {sph.source or 'window'}")
    return q0


def root_rmse(sph: SphericalSequence, keys: KeyframeSet) -> float:
    """Root-mean-square deviation of the keyframe reconstruction's root
    path over the window, from the root cubics of the sections alone;
    keyframes are verbatim copies and deviate by zero."""
    a, b = _sections(sph, keys)
    _, frames, recon = _interior_cubics(a, b, sph.dt, sph.root_positions,
                                        sph.root_velocities)
    d = np.zeros_like(sph.root_positions)
    d[frames] = recon - sph.root_positions[frames]
    return float(np.sqrt(np.mean(np.sum(d * d, axis=-1))))
