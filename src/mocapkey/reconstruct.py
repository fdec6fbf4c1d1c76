"""Cubic reconstruction of motion windows from keyframes.

Between consecutive keyframes every angle channel (and each Cartesian root
component) is replaced by the unique cubic matching the endpoint values and
endpoint rates. Keyframe frames themselves are copied from the source
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInterval
from .keyframes import KeyframeSet
from .spherical import SphericalSequence


@dataclass(frozen=True)
class CubicChannel:
    """One cubic on [t_start, t_end].

    ``coefficients`` are in absolute time: f(t) = sum_k A_k t^k. Evaluation
    uses the normalized variable u = (t - t_start)/(t_end - t_start)
    internally, which is where the fit is well conditioned.
    """
    coefficients: np.ndarray        # (4,) A_0..A_3
    t_start: float
    t_end: float
    _u_coeffs: np.ndarray = field(repr=False, default=None)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __call__(self, t):
        u = (np.asarray(t, dtype=np.float64) - self.t_start) / self.duration
        a = self._u_coeffs
        return ((a[3] * u + a[2]) * u + a[1]) * u + a[0]

    def derivative(self, t):
        u = (np.asarray(t, dtype=np.float64) - self.t_start) / self.duration
        a = self._u_coeffs
        return ((3.0 * a[3] * u + 2.0 * a[2]) * u + a[1]) / self.duration


def _hermite_u_coeffs(p0, v0, p1, v1, duration):
    """Cubic coefficients in u = (t - t0)/duration matching endpoint values
    and rates; inputs broadcast, output has a leading axis of 4."""
    p0, v0, p1, v1 = np.broadcast_arrays(
        np.asarray(p0, dtype=np.float64), np.asarray(v0, dtype=np.float64),
        np.asarray(p1, dtype=np.float64), np.asarray(v1, dtype=np.float64))
    a0 = p0
    a1 = v0 * duration
    a2 = 3.0 * (p1 - p0) - duration * (2.0 * v0 + v1)
    a3 = 2.0 * (p0 - p1) + duration * (v0 + v1)
    return np.stack([a0, a1, a2, a3])


def fit_cubic(p0: float, v0: float, p1: float, v1: float,
              t0: float, t1: float) -> CubicChannel:
    """The unique cubic with f(t0)=p0, f'(t0)=v0, f(t1)=p1, f'(t1)=v1.

    Solved in normalized time for conditioning; the absolute-time
    coefficients A_0..A_3 are recovered by expanding ((t - t0)/T)^k.
    """
    if not t1 > t0:
        raise DegenerateInterval(f"need t1 > t0, got [{t0}, {t1}]")
    duration = t1 - t0
    a = _hermite_u_coeffs(p0, v0, p1, v1, duration)
    scaled = a / duration ** np.arange(4.0)       # b_k: f(t) = sum b_k (t-t0)^k
    s = -t0
    coeffs = np.array([
        scaled[0] + scaled[1] * s + scaled[2] * s * s + scaled[3] * s ** 3,
        scaled[1] + 2.0 * scaled[2] * s + 3.0 * scaled[3] * s * s,
        scaled[2] + 3.0 * scaled[3] * s,
        scaled[3],
    ])
    return CubicChannel(coefficients=coeffs, t_start=float(t0), t_end=float(t1),
                        _u_coeffs=a)


@dataclass(frozen=True)
class Section:
    """Reconstructed frames for one keyframe span, endpoints inclusive."""
    start: int
    stop: int
    theta: np.ndarray            # (stop - start + 1, M)
    phi: np.ndarray
    theta_dot: np.ndarray
    phi_dot: np.ndarray
    root_positions: np.ndarray   # (stop - start + 1, 3)
    root_velocities: np.ndarray

    @property
    def frame_indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop + 1)


def _section_channels(values0, rates0, values1, rates1, duration, u):
    a = _hermite_u_coeffs(values0, rates0, values1, rates1, duration)
    uu = u[:, None]
    pos = ((a[3] * uu + a[2]) * uu + a[1]) * uu + a[0]
    rate = ((3.0 * a[3] * uu + 2.0 * a[2]) * uu + a[1]) / duration
    return pos, rate


def reconstruct_section(sph: SphericalSequence, k0: int, k1: int) -> Section:
    """Cubic reconstruction of frames k0..k1 from the two keyframes.

    Angle channels use the keyframes' angles and angular rates; the root
    path is fitted componentwise in Cartesian space. The endpoint frames
    are copied from the source verbatim.
    """
    if not 0 <= k0 < k1 <= sph.frame_count - 1:
        raise DegenerateInterval(f"bad section [{k0}, {k1}] for N={sph.frame_count}")
    duration = (k1 - k0) * sph.dt
    u = np.arange(k1 - k0 + 1) / (k1 - k0)
    theta, theta_dot = _section_channels(
        sph.theta[k0], sph.theta_dot[k0], sph.theta[k1], sph.theta_dot[k1],
        duration, u)
    phi, phi_dot = _section_channels(
        sph.phi[k0], sph.phi_dot[k0], sph.phi[k1], sph.phi_dot[k1],
        duration, u)
    root, root_vel = _section_channels(
        sph.root_positions[k0], sph.root_velocities[k0],
        sph.root_positions[k1], sph.root_velocities[k1],
        duration, u)
    for arr, src in ((theta, sph.theta), (phi, sph.phi),
                     (theta_dot, sph.theta_dot), (phi_dot, sph.phi_dot),
                     (root, sph.root_positions), (root_vel, sph.root_velocities)):
        arr[0] = src[k0]
        arr[-1] = src[k1]
    return Section(start=k0, stop=k1, theta=theta, phi=phi,
                   theta_dot=theta_dot, phi_dot=phi_dot,
                   root_positions=root, root_velocities=root_vel)


@dataclass(frozen=True)
class ReconstructedSequence(SphericalSequence):
    """A SphericalSequence rebuilt from keyframes, tagged with the set used."""
    keyframes: KeyframeSet = field(kw_only=True, default=None)


def reconstruct_full(sph: SphericalSequence, keys: KeyframeSet) -> ReconstructedSequence:
    """Assemble all sections into a full N-frame sequence.

    Interior keyframes belong to two sections but are emitted once; being
    verbatim source copies, both sections agree there by construction.
    """
    if keys.frame_count != sph.frame_count:
        raise DegenerateInterval(
            f"keyframe set is over {keys.frame_count} frames, "
            f"sequence has {sph.frame_count}")
    n, m = sph.frame_count, sph.joint_count
    theta = np.empty((n, m))
    phi = np.empty((n, m))
    theta_dot = np.empty((n, m))
    phi_dot = np.empty((n, m))
    root = np.empty((n, 3))
    root_vel = np.empty((n, 3))
    for k0, k1 in keys.sections():
        sec = reconstruct_section(sph, k0, k1)
        sl = slice(k0, k1 + 1)
        theta[sl] = sec.theta
        phi[sl] = sec.phi
        theta_dot[sl] = sec.theta_dot
        phi_dot[sl] = sec.phi_dot
        root[sl] = sec.root_positions
        root_vel[sl] = sec.root_velocities
    return ReconstructedSequence(
        dt=sph.dt,
        theta=theta,
        phi=phi,
        theta_dot=theta_dot,
        phi_dot=phi_dot,
        bone_lengths=sph.bone_lengths.copy(),
        joint_names=sph.joint_names,
        parents=sph.parents,
        root_positions=root,
        root_velocities=root_vel,
        source=sph.source,
        keyframes=keys,
    )
