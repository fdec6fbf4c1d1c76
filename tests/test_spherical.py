import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spherical
from mocapkey import spherical
from mocapkey.errors import NumericError
from mocapkey.motion import MotionSequence


def test_wrap_angle_range_and_fixed_points():
    a = np.linspace(-20, 20, 2001)
    w = spherical.wrap_angle(a)
    assert np.all(w > -math.pi) and np.all(w <= math.pi)
    assert spherical.wrap_angle(math.pi) == pytest.approx(math.pi)
    assert spherical.wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert spherical.wrap_angle(0.0) == 0.0
    assert spherical.wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)


def test_cart_to_sph_axes():
    r, th, ph = spherical.cart_to_sph(np.array([0.0, 0.0, 2.0]))
    assert (r, th, ph) == (2.0, 0.0, 0.0)
    r, th, ph = spherical.cart_to_sph(np.array([3.0, 0.0, 0.0]))
    assert (r, th) == (3.0, pytest.approx(math.pi / 2))
    assert ph == 0.0
    r, th, ph = spherical.cart_to_sph(np.array([0.0, -1.0, 0.0]))
    assert ph == pytest.approx(-math.pi / 2)


def test_cart_to_sph_rejects_zero():
    with pytest.raises(NumericError, match="^cannot convert a zero vector"):
        spherical.cart_to_sph(np.zeros(3))


def test_pole_convention_sets_phi_to_zero():
    _, _, ph = spherical.cart_to_sph(np.array([0.0, 0.0, -1.5]))
    assert ph == 0.0


def test_round_trip_array_batch():
    rng = np.random.default_rng(4)
    p = rng.normal(size=(500, 3))
    r, th, ph = spherical.cart_to_sph(p)
    back = spherical.sph_to_cart(r, th, ph)
    assert np.max(np.abs(back - p)) < 1e-12


@given(st.floats(0.05, 50.0), st.floats(1e-3, math.pi - 1e-3),
       st.floats(-math.pi + 1e-9, math.pi))
def test_round_trip_hypothesis(r, theta, phi):
    p = spherical.sph_to_cart(r, theta, phi)
    r2, th2, ph2 = spherical.cart_to_sph(np.asarray(p))
    assert abs(r2 - r) < 1e-9 * max(1.0, r)
    assert abs(th2 - theta) < 1e-9
    assert abs(spherical.wrap_angle(ph2 - phi)) < 1e-9


def _analytic_state(t):
    """Point on a known smooth curve plus its exact velocity."""
    p = np.array([2.0 * math.cos(t), 1.5 * math.sin(2 * t), 1.0 + 0.5 * math.sin(t)])
    v = np.array([-2.0 * math.sin(t), 3.0 * math.cos(2 * t), 0.5 * math.cos(t)])
    return p, v


def test_velocity_transform_matches_finite_differences():
    h = 1e-6
    for t in np.linspace(0.1, 6.0, 40):
        p, v = _analytic_state(t)
        pm, _ = _analytic_state(t - h)
        pp, _ = _analytic_state(t + h)
        _, th_m, ph_m = spherical.cart_to_sph(pm)
        r0, th_0, ph_0 = spherical.cart_to_sph(p)
        _, th_p, ph_p = spherical.cart_to_sph(pp)
        rm = np.linalg.norm(pm)
        rp = np.linalg.norm(pp)
        r_dot, th_dot, ph_dot = spherical.velocity_to_sph(p, v)
        assert r_dot == pytest.approx((rp - rm) / (2 * h), rel=1e-5, abs=1e-7)
        assert th_dot == pytest.approx((th_p - th_m) / (2 * h), rel=1e-5, abs=1e-7)
        assert ph_dot == pytest.approx((ph_p - ph_m) / (2 * h), rel=1e-5, abs=1e-7)


def test_velocity_transform_pole_handling():
    p = np.array([0.0, 0.0, 1.0])
    v = np.array([0.3, -0.2, 0.1])
    with pytest.raises(NumericError, match="^phi rate is undefined on the z axis$"):
        spherical.velocity_to_sph(p, v)
    with pytest.raises(NumericError, match="^phi rate is undefined on the z axis$"):
        spherical.velocity_to_sph(np.array([[1.0, 0.0, 0.0], p]), np.stack([v, v]))


def test_constrained_velocity_agrees_with_general_on_tangential_input():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = rng.normal(size=3)
        while np.linalg.norm(p) < 0.1:
            p = rng.normal(size=3)
        v = rng.normal(size=3)
        v = v - p * (p @ v) / (p @ p)          # remove any radial part
        _, th, ph = spherical.cart_to_sph(p)
        if abs(math.sin(th)) < 1e-2 or abs(math.cos(ph)) < 1e-2:
            continue
        _, th_dot, ph_dot = spherical.velocity_to_sph(p, v)
        th_dot_c, ph_dot_c = spherical.velocity_to_sph_constrained(p, v)
        assert th_dot_c == pytest.approx(th_dot, rel=1e-9, abs=1e-9)
        assert ph_dot_c == pytest.approx(ph_dot, rel=1e-9, abs=1e-9)


def test_constrained_velocity_singularities():
    v = np.array([0.1, 0.2, 0.0])
    with pytest.raises(NumericError, match="^constrained rates are undefined on the z axis$"):
        spherical.velocity_to_sph_constrained(np.array([0.0, 0.0, 1.0]), v)
    # on the y axis the constrained form divides by cos(phi) = 0
    with pytest.raises(NumericError, match=r"undefined where cos\(phi\) = 0$"):
        spherical.velocity_to_sph_constrained(np.array([0.0, 1.0, 0.0]),
                                              np.array([0.0, 0.0, 0.3]))


def test_sequence_round_trip(small_windows):
    for seq in small_windows:
        sph = spherical.sequence_to_spherical(seq)
        back = spherical.spherical_to_sequence(sph)
        assert np.max(np.abs(back.root_positions - seq.root_positions)) < 1e-12
        # radii are averaged over the window, so positions agree to the
        # rigid-bone tolerance of the capture itself
        assert np.max(np.abs(back.positions - seq.positions)) < 1e-6


def test_sequence_to_spherical_phi_is_continuous(small_windows):
    for seq in small_windows:
        sph = spherical.sequence_to_spherical(seq)
        assert np.max(np.abs(np.diff(sph.phi, axis=0))) < math.pi


def test_sequence_to_spherical_carries_phi_over_pole_frames():
    # joint "a" passes the z axis on frames 1 and 2, which take the azimuth
    # of the nearest off-axis frame; joint "b" stays on the axis throughout
    xy = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    positions = np.zeros((5, 2, 3))
    positions[:, 0, :2] = xy
    positions[..., 2] = 1.0
    seq = MotionSequence(dt=0.1, positions=positions,
                         root_positions=np.zeros((5, 3)),
                         joint_names=("a", "b"), parents=(-1, -1))
    phi = spherical.sequence_to_spherical(seq).phi
    assert np.allclose(phi[:, 0], [0.0, 0.0, math.pi / 2, math.pi / 2, math.pi / 2])
    assert np.all(phi[:, 1] == 0.0)


def test_rates_are_finite_differences_of_tracks(small_windows):
    seq = small_windows[0]
    sph = spherical.sequence_to_spherical(seq)
    expect_theta = np.gradient(sph.theta, sph.dt, axis=0)
    assert np.allclose(sph.theta_dot, expect_theta, atol=1e-9)
    expect_phi = np.gradient(sph.phi, sph.dt, axis=0)
    assert np.allclose(sph.phi_dot, expect_phi, atol=1e-9)


def test_spherical_sequence_validates_shapes():
    good = random_spherical(0, 8, 2)
    with pytest.raises(ValueError):
        spherical.SphericalSequence(
            dt=good.dt, theta=good.theta, phi=good.phi[:, :1],
            theta_dot=good.theta_dot, phi_dot=good.phi_dot,
            bone_lengths=good.bone_lengths, joint_names=good.joint_names,
            parents=good.parents, root_positions=good.root_positions,
            root_velocities=good.root_velocities)


def test_sequences_require_a_finite_positive_dt():
    good = random_spherical(0, 8, 2)
    for dt in (math.nan, math.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="dt"):
            MotionSequence(dt=dt, positions=np.zeros((3, 1, 3)),
                           root_positions=np.zeros((3, 3)),
                           joint_names=("a",), parents=(-1,))
        with pytest.raises(ValueError, match="dt"):
            dataclasses.replace(good, dt=dt)
