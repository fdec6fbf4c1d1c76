import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference as oracle
from conftest import random_spherical
from mocapkey import metrics, reconstruct
from mocapkey.errors import MocapKeyError, NumericError
from mocapkey.keyframes import KeyframeSet
from mocapkey.motion import finite_difference
from mocapkey.spherical import SphericalSequence

finite = st.floats(-10.0, 10.0)


def assert_matches_reference(sph, keys):
    """theta, phi and the root path of ``reconstruct_full`` against the
    pure-Python reconstruction. The reference solves each cubic in raw
    time, whose conditioning limits the agreement to about 1e-6."""
    recon = reconstruct.reconstruct_full(sph, keys)
    for values, rates, got in ((sph.theta, sph.theta_dot, recon.theta),
                               (sph.phi, sph.phi_dot, recon.phi),
                               (sph.root_positions, sph.root_velocities,
                                recon.root_positions)):
        ref = oracle.reconstruct_reference(values.tolist(), rates.tolist(),
                                           sph.dt, list(keys.indices))
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)
    return recon


def smoothstep_window(n):
    """One joint stepping from theta 0 to 1 with flat ends."""
    theta = np.linspace(0.0, 1.0, n)[:, None]
    theta_dot = np.zeros_like(theta)
    theta_dot[1:-1] = 1.0          # interior rates are never read
    return SphericalSequence(
        dt=0.1, theta=theta, phi=np.zeros_like(theta), theta_dot=theta_dot,
        phi_dot=np.zeros_like(theta), bone_lengths=np.ones(1),
        joint_names=("j0",), parents=(-1,), root_positions=np.zeros((n, 3)),
        root_velocities=np.zeros((n, 3)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(3, 24), m=st.integers(1, 4),
       smooth=st.booleans(), data=st.data())
def test_reconstruct_full_matches_reference(seed, n, m, smooth, data):
    sph = random_spherical(seed, n=n, m=m, smooth=smooth)
    interior = data.draw(st.sets(st.integers(1, n - 2), max_size=n - 2))
    assert_matches_reference(sph, KeyframeSet.from_indices([0, n - 1, *interior], n))


def section_cubic(p0, v0, p1, v1, duration):
    """Value and time derivative of the section cubic at normalized time u."""
    c = reconstruct._hermite_u_coeffs(p0, v0, p1, v1, duration)
    return (lambda u: ((c[3] * u + c[2]) * u + c[1]) * u + c[0],
            lambda u: ((3.0 * c[3] * u + 2.0 * c[2]) * u + c[1]) / duration)


def test_fit_cubic_smoothstep():
    # unit step with flat ends is the classic 3u^2 - 2u^3 profile
    c = reconstruct._hermite_u_coeffs(0.0, 0.0, 1.0, 0.0, 1.0)
    assert np.allclose(c, [0.0, 0.0, 3.0, -2.0], atol=1e-12)
    step = smoothstep_window(11)
    recon = assert_matches_reference(step, KeyframeSet.endpoints(11))
    u = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(recon.theta[:, 0], 3 * u**2 - 2 * u**3,
                               rtol=0.0, atol=1e-12)


def test_fit_cubic_hits_boundary_conditions():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p0, v0, p1, v1 = rng.normal(size=4) * 3
        value, rate = section_cubic(p0, v0, p1, v1, rng.uniform(0.05, 3.0))
        assert value(0.0) == pytest.approx(p0, abs=1e-10)
        assert value(1.0) == pytest.approx(p1, abs=1e-9)
        assert rate(0.0) == pytest.approx(v0, abs=1e-9)
        assert rate(1.0) == pytest.approx(v1, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(finite, finite, finite, finite,
       st.floats(-5.0, 5.0), st.floats(0.1, 4.0), st.floats(0.0, 1.0))
def test_fit_cubic_matches_reference_solver(p0, v0, p1, v1, t0, dur, frac):
    # duration bounded away from zero: the reference solves in raw t and
    # its conditioning degrades as (t/duration)^3
    value, _ = section_cubic(p0, v0, p1, v1, dur)
    ref = oracle.fit_cubic_reference(p0, v0, p1, v1, t0, t0 + dur)
    assert value(frac) == pytest.approx(oracle.eval_cubic(ref, t0 + frac * dur),
                                        rel=1e-6, abs=1e-6)


def test_fit_cubic_rejects_empty_interval(small_sph):
    # a repeated or reversed keyframe would make an empty section; neither
    # a keyframe set nor the section kernel accepts one
    with pytest.raises(MocapKeyError, match="^indices must be strictly increasing"):
        KeyframeSet((0, 20, 20, 59), 60)
    with pytest.raises(MocapKeyError, match="^indices must be strictly increasing"):
        KeyframeSet((0, 30, 20, 59), 60)
    sph = small_sph[0]
    with pytest.raises(NumericError, match="^bad sections for N="):
        metrics.section_errors(sph, [20], [20])
    with pytest.raises(NumericError, match="^bad sections for N="):
        metrics.section_errors(sph, [20], [19])


def test_reconstruct_section_copies_endpoint_frames(small_sph):
    sph = small_sph[0]
    keys = KeyframeSet.from_indices((0, 10, 25, 59), sph.frame_count)
    recon = reconstruct.reconstruct_full(sph, keys)
    for name in ("theta", "phi", "root_positions"):
        got = getattr(recon, name)
        src = getattr(sph, name)
        # section endpoints are bitwise copies of the source frames
        assert np.array_equal(got[10], src[10])
        assert np.array_equal(got[25], src[25])
        # and the frames between them are rebuilt, not copied
        assert not np.array_equal(got[11:25], src[11:25])


def test_reconstruct_section_validates_span(small_sph):
    sph = small_sph[0]
    n = sph.frame_count
    with pytest.raises(NumericError, match=f"^bad sections for N={n}$"):
        metrics.section_errors(sph, [12], [12])
    with pytest.raises(NumericError, match=f"^bad sections for N={n}$"):
        metrics.section_errors(sph, [20], [10])
    with pytest.raises(NumericError, match=f"^bad sections for N={n}$"):
        metrics.section_errors(sph, [0], [n])
    # a keyframe set reaching past the last frame
    with pytest.raises(NumericError, match=f"^keyframe set is over {n + 1} frames"):
        reconstruct.reconstruct_full(sph, KeyframeSet.endpoints(n + 1))


def test_reconstruct_full_interior_matches_cubics(small_sph):
    sph = small_sph[0]
    assert_matches_reference(
        sph, KeyframeSet.from_indices((0, 21, 40, 59), sph.frame_count))


def test_reconstruct_full_keeps_keyframe_rows_bitwise(small_sph):
    sph = small_sph[1]
    keys = KeyframeSet.from_indices((0, 7, 30, 59), sph.frame_count)
    recon = reconstruct.reconstruct_full(sph, keys)
    for k in keys:
        assert np.array_equal(recon.theta[k], sph.theta[k])
        assert np.array_equal(recon.phi[k], sph.phi[k])
        assert np.array_equal(recon.root_positions[k], sph.root_positions[k])
    assert recon.dt == sph.dt
    assert recon.joint_names == sph.joint_names
    # the rates are finite differences of the rebuilt tracks
    assert np.array_equal(recon.theta_dot, finite_difference(recon.theta, sph.dt))
    assert np.array_equal(recon.phi_dot, finite_difference(recon.phi, sph.dt))
    assert np.array_equal(recon.root_velocities,
                          finite_difference(recon.root_positions, sph.dt))


def test_reconstruct_full_all_frames_is_identity(small_sph):
    sph = small_sph[2]
    keys = KeyframeSet.from_indices(range(sph.frame_count), sph.frame_count)
    recon = reconstruct.reconstruct_full(sph, keys)
    assert np.array_equal(recon.theta, sph.theta)
    assert np.array_equal(recon.phi, sph.phi)
    assert np.array_equal(recon.root_positions, sph.root_positions)


def test_reconstruct_full_rejects_mismatched_frame_count(small_sph):
    sph = small_sph[0]
    keys = KeyframeSet.from_indices((0, 30), 31)
    with pytest.raises(NumericError, match="^keyframe set is over 31 frames, sequence has"):
        reconstruct.reconstruct_full(sph, keys)


def test_reconstruct_root_interpolates_positions(small_sph):
    sph = small_sph[0]
    n = sph.frame_count
    # a straight uniform drift is reproduced exactly by cubics
    drift = sph.root_positions[:1] + np.arange(n)[:, None] * np.array([0.1, 0.0, -0.05])
    flat = SphericalSequence(
        dt=sph.dt, theta=sph.theta, phi=sph.phi, theta_dot=sph.theta_dot,
        phi_dot=sph.phi_dot, bone_lengths=sph.bone_lengths,
        joint_names=sph.joint_names, parents=sph.parents,
        root_positions=drift,
        root_velocities=np.gradient(drift, sph.dt, axis=0))
    assert metrics.root_rmse(flat, KeyframeSet.endpoints(n)) < 1e-9
    keys = KeyframeSet.from_indices((0, 20, 59), n)
    assert metrics.root_rmse(flat, keys) < 1e-9
    full = reconstruct.reconstruct_full(flat, keys)
    assert np.allclose(full.root_positions, drift, atol=1e-9)
