"""Spherical joint representation.

Each non-root joint is described by the direction of its bone seen from
its parent: inclination theta in [0, pi] measured from +z and azimuth phi
in (-pi, pi] measured from +x in the xy plane. Bone radii are constant, so
a motion window reduces to angle tracks plus the Cartesian root path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .motion import MotionSequence, finite_difference

POLE_EPS = 1e-9


def wrap_angle(a):
    """Wrap to (-pi, pi]; -pi maps to pi."""
    return np.mod(np.asarray(a, dtype=np.float64) - math.pi, -2.0 * math.pi) + math.pi


def cart_to_sph(p):
    """(..., 3) Cartesian -> (r, theta, phi), each (...,).

    At the poles (x = y = 0) phi is set to 0 by convention. A zero vector
    has no direction and raises NumericError.
    """
    p = np.asarray(p, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    r = np.linalg.norm(p, axis=-1)
    if np.any(r == 0.0):
        raise NumericError("cannot convert a zero vector to spherical coordinates")
    theta = np.arccos(np.clip(z / r, -1.0, 1.0))
    phi = np.arctan2(y, x)
    phi = np.where((x == 0.0) & (y == 0.0), 0.0, phi)
    if phi.ndim == 0:
        return float(r), float(theta), float(phi)
    return r, theta, phi


def sph_to_cart(r, theta, phi):
    """(r, theta, phi) -> (..., 3) Cartesian; broadcasts."""
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    st = np.sin(theta)
    return np.stack([
        r * st * np.cos(phi),
        r * st * np.sin(phi),
        r * np.cos(theta),
    ], axis=-1)


def _chart_terms(p, v):
    """(r, sin theta, cos theta, sin phi, cos phi, v) at ``p``: the terms
    both rate forms are built from."""
    r, theta, phi = cart_to_sph(p)
    return (r, np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi),
            np.asarray(v, dtype=np.float64))


def velocity_to_sph(p, v):
    """Angular rates (r_dot, theta_dot, phi_dot) of a moving point.

    Differentiates the spherical chart along the Cartesian velocity ``v``
    at position ``p``. phi_dot is undefined on the poles; raises
    NumericError there.
    """
    r, st, ct, sp, cp, v = _chart_terms(p, v)
    if np.any(st < POLE_EPS):
        raise NumericError("phi rate is undefined on the z axis")
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    r_dot = st * cp * vx + st * sp * vy + ct * vz
    theta_dot = (ct * cp * vx + ct * sp * vy - st * vz) / r
    phi_dot = (-sp * vx + cp * vy) / (r * st)
    if np.asarray(r_dot).ndim == 0:
        return float(r_dot), float(theta_dot), float(phi_dot)
    return r_dot, theta_dot, phi_dot


def velocity_to_sph_constrained(p, v):
    """Angular rates for motion on a sphere (r_dot identically zero).

    Uses the reduced two-term forms that eliminate vx via the constraint:

        theta_dot = -vz / (r sin(theta))
        phi_dot   = (vy sin(theta) + vz cos(theta) sin(phi))
                    / (r sin(theta)^2 cos(phi))

    Valid only off the poles and off the meridian cos(phi) = 0; raises
    NumericError there. The general
    :func:`velocity_to_sph` agrees with this wherever both are defined.
    """
    r, st, ct, sp, cp, v = _chart_terms(p, v)
    if np.any(st < POLE_EPS):
        raise NumericError("constrained rates are undefined on the z axis")
    if np.any(np.abs(cp) < POLE_EPS):
        raise NumericError("constrained rates are undefined where cos(phi) = 0")
    vy, vz = v[..., 1], v[..., 2]
    theta_dot = -vz / (r * st)
    phi_dot = (vy * st + vz * ct * sp) / (r * st * st * cp)
    if np.asarray(theta_dot).ndim == 0:
        return float(theta_dot), float(phi_dot)
    return theta_dot, phi_dot


@dataclass(frozen=True)
class SphericalSequence:
    """Angle tracks of a motion window.

    ``theta``/``phi`` are (N, M); ``phi`` is unwrapped along time so the
    track is continuous (values may leave (-pi, pi]). Angular rates are
    finite differences of the angle tracks. Bone radii are per joint and
    constant over the window. The root path stays Cartesian.
    """
    dt: float
    theta: np.ndarray
    phi: np.ndarray
    theta_dot: np.ndarray
    phi_dot: np.ndarray
    bone_lengths: np.ndarray
    joint_names: tuple[str, ...]
    parents: tuple[int, ...]
    root_positions: np.ndarray
    root_velocities: np.ndarray
    source: str = ""

    def __post_init__(self):
        n, m = self.theta.shape
        for name in ("phi", "theta_dot", "phi_dot"):
            if getattr(self, name).shape != (n, m):
                raise ValueError(f"{name} must have shape {(n, m)}")
        if self.bone_lengths.shape != (m,):
            raise ValueError("bone_lengths must be (M,)")
        if self.root_positions.shape != (n, 3) or self.root_velocities.shape != (n, 3):
            raise ValueError("root tracks must be (N, 3)")
        if len(self.joint_names) != m or len(self.parents) != m:
            raise ValueError("joint_names and parents must have length M")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")

    @property
    def frame_count(self) -> int:
        return self.theta.shape[0]

    @property
    def joint_count(self) -> int:
        return self.theta.shape[1]


def sequence_to_spherical(seq: MotionSequence) -> SphericalSequence:
    """Convert world positions to parent-relative spherical angle tracks.

    phi is filled by continuation over pole frames (where it is undefined)
    and unwrapped along time. Rates, the root's included, are central
    finite differences of the resulting tracks, one-sided at the window
    ends.
    """
    rel = relative_vectors(seq.positions, seq.root_positions, seq.parents)
    r, theta, phi = cart_to_sph(rel)
    pole = (rel[..., 0] == 0.0) & (rel[..., 1] == 0.0)
    for m in range(phi.shape[1]):
        col_pole = pole[:, m]
        if col_pole.any() and not col_pole.all():
            # carry the nearest defined azimuth across pole frames so the
            # unwrap below sees a continuous track
            idx = np.arange(len(col_pole))
            defined = idx[~col_pole]
            nearest = defined[np.argmin(np.abs(defined[None, :] - idx[:, None]), axis=1)]
            phi[col_pole, m] = phi[nearest[col_pole], m]
        phi[:, m] = np.unwrap(phi[:, m])
    return SphericalSequence(
        dt=seq.dt,
        theta=theta,
        phi=phi,
        theta_dot=finite_difference(theta, seq.dt),
        phi_dot=finite_difference(phi, seq.dt),
        bone_lengths=r.mean(axis=0),
        joint_names=seq.joint_names,
        parents=seq.parents,
        root_positions=seq.root_positions.copy(),
        root_velocities=finite_difference(seq.root_positions, seq.dt),
        source=seq.source,
    )


def spherical_to_sequence(sph: SphericalSequence) -> MotionSequence:
    """Rebuild world positions from angle tracks and the root path.

    Parents precede children in the joint order, so one forward pass
    accumulates positions down the tree.
    """
    rel = sph_to_cart(sph.bone_lengths[None, :], sph.theta, sph.phi)
    n, m = sph.theta.shape
    positions = np.empty((n, m, 3))
    for j in range(m):
        p = sph.parents[j]
        base = sph.root_positions if p == -1 else positions[:, p]
        positions[:, j] = base + rel[:, j]
    return MotionSequence(
        dt=sph.dt,
        positions=positions,
        root_positions=sph.root_positions.copy(),
        joint_names=sph.joint_names,
        parents=sph.parents,
        source=sph.source,
    )


def relative_vectors(positions: np.ndarray, root_positions: np.ndarray,
                     parents: tuple[int, ...]) -> np.ndarray:
    """Bone vectors child_end - parent_end, shape (N, M, 3)."""
    base = np.empty_like(positions)
    for j, p in enumerate(parents):
        base[:, j] = root_positions if p == -1 else positions[:, p]
    return positions - base
