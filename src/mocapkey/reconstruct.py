"""Cubic reconstruction of motion windows from keyframes.

Between consecutive keyframes every angle channel (and each Cartesian root
component) is replaced by the unique cubic matching the endpoint values and
endpoint rates. Keyframe frames themselves are copied from the source
verbatim. This module is the one place that cubic is defined; the error
metrics evaluate the same cubics through ``_interior_cubics`` and
``_horner``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import NumericError
from .keyframes import KeyframeSet
from .motion import finite_difference
from .spherical import SphericalSequence


def _hermite_u_coeffs(p0, v0, p1, v1, duration):
    """Cubic coefficients in u = (t - t0)/duration matching endpoint values
    and rates, stacked along a new leading axis of 4."""
    return np.stack([p0, v0 * duration,
                     3.0 * (p1 - p0) - duration * (2.0 * v0 + v1),
                     2.0 * (p0 - p1) + duration * (v0 + v1)])


def _horner(c, u, out=None):
    """The cubics of coefficients ``c`` (from :func:`_hermite_u_coeffs`) at
    u, ((c3 u + c2) u + c1) u + c0, written into ``out`` when given."""
    out = np.multiply(c[3], u, out=out)
    out += c[2]
    out *= u
    out += c[1]
    out *= u
    out += c[0]
    return out


def _interior_cubics(a, b, dt, values, rates):
    """The section, frame index and value of every interior frame of the
    sections ``[a[i], b[i]]``: each section's cubic through the values and
    rates of its two end frames, evaluated in normalized time."""
    span = b - a
    inner = span - 1
    owner = np.repeat(np.arange(a.size), inner)        # section of each frame
    step = np.arange(owner.size) - np.repeat(np.cumsum(inner) - inner, inner) + 1
    u = (step / span[owner])[:, None]
    c = _hermite_u_coeffs(values[a], rates[a], values[b], rates[b],
                          (span * dt)[:, None])[:, owner]
    return owner, a[owner] + step, _horner(c, u)


def _sections(sph: SphericalSequence, keys: KeyframeSet):
    """First and last frames of the keyframe sections."""
    if keys.frame_count != sph.frame_count:
        raise NumericError(
            f"keyframe set is over {keys.frame_count} frames, "
            f"sequence has {sph.frame_count}")
    idx = np.asarray(keys.indices, dtype=np.intp)
    return idx[:-1], idx[1:]


def reconstruct_full(sph: SphericalSequence, keys: KeyframeSet) -> SphericalSequence:
    """The N-frame sequence rebuilt from the keyframes of ``keys``.

    Keyframe rows are the source rows; every interior frame of ``theta``,
    ``phi`` and the root path is its section's cubic. The rates are finite
    differences of the rebuilt tracks.
    """
    a, b = _sections(sph, keys)

    def rebuilt(values, rates):
        out = values.copy()
        _, frames, recon = _interior_cubics(a, b, sph.dt, values, rates)
        out[frames] = recon
        return out

    theta = rebuilt(sph.theta, sph.theta_dot)
    phi = rebuilt(sph.phi, sph.phi_dot)
    root = rebuilt(sph.root_positions, sph.root_velocities)
    return replace(
        sph, theta=theta, phi=phi, root_positions=root,
        theta_dot=finite_difference(theta, sph.dt),
        phi_dot=finite_difference(phi, sph.dt),
        root_velocities=finite_difference(root, sph.dt))
