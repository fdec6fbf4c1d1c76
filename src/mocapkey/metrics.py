"""Reconstruction-error metrics."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DegenerateSequence, NumericError
from .keyframes import KeyframeSet
from .reconstruct import _hermite_u_coeffs, _horner, _interior_cubics, _sections
from .spherical import SphericalSequence

TWO_PI = 2.0 * math.pi

# schema of one evaluation row (see the eval command)
REPORT_COLUMNS = ("sequence", "keyframes", "method", "q_error",
                  "root_rmse", "decision_time_s")


def angle_distance(a, b):
    """Wrapped absolute angular distance, elementwise in [0, pi]."""
    d = np.asarray(np.abs(np.asarray(a, dtype=np.float64) - b))
    return _wrap(d)[()]      # [()] turns a 0-d result back into a scalar


def _wrap(d: np.ndarray) -> np.ndarray:
    """Each d >= 0 taken in place to its distance from the nearest multiple
    of 2 pi, in [0, pi]; returns d."""
    wide = d >= TWO_PI    # the mod is the costly step and a no-op below 2 pi
    if wide.any():
        np.mod(d, TWO_PI, out=d, where=wide)
    return np.minimum(d, TWO_PI - d, out=d)


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
        raise NumericError(f"bad sections for N={sph.frame_count}")
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
    bit for bit, and zero where b <= a + 1.

    Built one span length s at a time: the N - s sections of span s take
    their cubics from contiguous slices and share the grid u = k/s, so
    their interior frames fill one (s - 1, N - s, 2M) buffer with no
    gather. The buffer is C-contiguous and every step writes into it: each
    frame's columns are then summed along the contiguous last axis, as
    ``section_kernel`` sums them, where another memory order would make
    numpy sum them in another order. A section's frames are summed in frame
    order, as ``bincount`` sums them.
    """
    n = sph.frame_count
    angle, rate = stacked_angles(sph)
    width = angle.shape[1]
    table = np.zeros((n, n))
    step, col = angle.strides
    for s in range(2, n):             # spans of one frame have no interior
        c = _hermite_u_coeffs(angle[:n - s], rate[:n - s], angle[s:], rate[s:],
                              s * sph.dt)
        u = (np.arange(1, s) / s)[:, None]
        # one row per grid point, each the (N - s, 2M) plane of all sections
        recon = _horner(c.reshape(4, -1), u, out=np.empty((s - 1, (n - s) * width)))
        recon = recon.reshape(s - 1, n - s, width)
        # frame a + k of section [a, a + s] is recon[k - 1, a]
        source = as_strided(angle[1:], recon.shape, (step, step, col), writeable=False)
        np.subtract(recon, source, out=recon)
        err = _wrap(np.abs(recon, out=recon)).sum(axis=-1)
        a = np.arange(n - s)
        table[a, a + s] = np.add.accumulate(err)[-1]
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
