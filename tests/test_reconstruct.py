import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference as oracle
from mocapkey import metrics, reconstruct
from mocapkey.errors import DegenerateInterval
from mocapkey.keyframes import KeyframeSet

finite = st.floats(-10.0, 10.0)


def test_fit_cubic_smoothstep():
    # unit step with flat ends is the classic 3u^2 - 2u^3 profile
    ch = reconstruct.fit_cubic(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    assert np.allclose(ch.coefficients, [0.0, 0.0, 3.0, -2.0], atol=1e-12)


def test_fit_cubic_hits_boundary_conditions():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p0, v0, p1, v1 = rng.normal(size=4) * 3
        t0 = rng.uniform(-4, 4)
        t1 = t0 + rng.uniform(0.05, 3.0)
        ch = reconstruct.fit_cubic(p0, v0, p1, v1, t0, t1)
        assert ch(t0) == pytest.approx(p0, abs=1e-10)
        assert ch(t1) == pytest.approx(p1, abs=1e-9)
        assert ch.derivative(t0) == pytest.approx(v0, abs=1e-9)
        assert ch.derivative(t1) == pytest.approx(v1, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(finite, finite, finite, finite,
       st.floats(-5.0, 5.0), st.floats(0.1, 4.0), st.floats(0.0, 1.0))
def test_fit_cubic_matches_reference_solver(p0, v0, p1, v1, t0, dur, frac):
    # duration bounded away from zero: the reference solves in raw t and
    # its conditioning degrades as (t/duration)^3
    t1 = t0 + dur
    ch = reconstruct.fit_cubic(p0, v0, p1, v1, t0, t1)
    ref = oracle.fit_cubic_reference(p0, v0, p1, v1, t0, t1)
    t = t0 + frac * dur
    assert ch(t) == pytest.approx(oracle.eval_cubic(ref, t), rel=1e-6, abs=1e-6)


def test_fit_cubic_exposes_absolute_coefficients():
    ch = reconstruct.fit_cubic(0.3, -1.0, 2.0, 0.5, 1.5, 2.25)
    ts = np.linspace(1.5, 2.25, 9)
    direct = sum(c * ts ** k for k, c in enumerate(ch.coefficients))
    assert np.allclose(direct, ch(ts), atol=1e-9)


def test_fit_cubic_rejects_empty_interval():
    with pytest.raises(DegenerateInterval):
        reconstruct.fit_cubic(0.0, 0.0, 1.0, 0.0, 2.0, 2.0)
    with pytest.raises(DegenerateInterval):
        reconstruct.fit_cubic(0.0, 0.0, 1.0, 0.0, 2.0, 1.0)


def test_reconstruct_section_copies_endpoint_frames(small_sph):
    sph = small_sph[0]
    section = reconstruct.reconstruct_section(sph, 10, 25)
    assert section.start == 10 and section.stop == 25
    for name in ("theta", "phi", "theta_dot", "phi_dot"):
        got = getattr(section, name)
        src = getattr(sph, name)
        # endpoints are bitwise copies of the source frames
        assert np.array_equal(got[0], src[10])
        assert np.array_equal(got[-1], src[25])
    assert np.array_equal(section.root_positions[0], sph.root_positions[10])
    assert np.array_equal(section.root_positions[-1], sph.root_positions[25])


def test_reconstruct_section_validates_span(small_sph):
    sph = small_sph[0]
    with pytest.raises(DegenerateInterval):
        reconstruct.reconstruct_section(sph, 12, 12)
    with pytest.raises(DegenerateInterval):
        reconstruct.reconstruct_section(sph, 20, 10)
    with pytest.raises(DegenerateInterval):
        reconstruct.reconstruct_section(sph, 0, sph.frame_count)


def test_reconstruct_full_interior_matches_cubics(small_sph):
    sph = small_sph[0]
    keys = KeyframeSet.from_indices((0, 21, 40, 59), sph.frame_count)
    recon = reconstruct.reconstruct_full(sph, keys)
    t = np.arange(sph.frame_count) * sph.dt
    for k0, k1 in keys.sections():
        for j in range(sph.joint_count):
            ch = reconstruct.fit_cubic(
                sph.theta[k0, j], sph.theta_dot[k0, j],
                sph.theta[k1, j], sph.theta_dot[k1, j],
                k0 * sph.dt, k1 * sph.dt)
            inner = np.arange(k0 + 1, k1)
            assert np.allclose(recon.theta[inner, j], ch(t[inner]), atol=1e-9)


def test_reconstruct_full_keeps_keyframe_rows_bitwise(small_sph):
    sph = small_sph[1]
    keys = KeyframeSet.from_indices((0, 7, 30, 59), sph.frame_count)
    recon = reconstruct.reconstruct_full(sph, keys)
    for k in keys:
        assert np.array_equal(recon.theta[k], sph.theta[k])
        assert np.array_equal(recon.phi[k], sph.phi[k])
        assert np.array_equal(recon.root_positions[k], sph.root_positions[k])
    assert recon.keyframes is keys
    assert recon.dt == sph.dt
    assert recon.joint_names == sph.joint_names


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
    with pytest.raises(DegenerateInterval):
        reconstruct.reconstruct_full(sph, keys)


def test_reconstruct_root_interpolates_positions(small_sph):
    sph = small_sph[0]
    root = reconstruct.reconstruct_section(sph, 5, 40).root_positions
    assert root.shape == (36, 3)
    assert np.array_equal(root[0], sph.root_positions[5])
    assert np.array_equal(root[-1], sph.root_positions[40])
    # a straight uniform drift is reproduced exactly by cubics
    n = sph.frame_count
    drift = sph.root_positions[:1] + np.arange(n)[:, None] * np.array([0.1, 0.0, -0.05])
    flat = reconstruct.SphericalSequence(
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
