import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference as oracle
from conftest import random_spherical
from mocapkey import metrics, reconstruct
from mocapkey.errors import DegenerateSequence, NumericError
from mocapkey.keyframes import KeyframeSet


def test_angle_distance_wraps():
    assert metrics.angle_distance(0.1, -0.1) == pytest.approx(0.2)
    assert metrics.angle_distance(math.pi - 0.05, -math.pi + 0.05) == pytest.approx(0.1)
    assert metrics.angle_distance(0.0, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert metrics.angle_distance(0.0, 7.0) == pytest.approx(7.0 - 2 * math.pi)
    a = np.array([0.0, 3.0])
    b = np.array([6.0, -3.0])
    d = metrics.angle_distance(a, b)
    assert d[0] == pytest.approx(2 * math.pi - 6.0)
    assert d[1] == pytest.approx(2 * math.pi - 6.0)


def test_q_error_matches_reference_on_random_small_sequences():
    for seed in range(6):
        sph = random_spherical(seed, n=9, m=2)
        keys = KeyframeSet.from_indices([0, 3, 8], 9)
        mine = metrics.q_error(sph, keys)
        ref = oracle.mean_angle_error_reference(
            sph.theta.tolist(), sph.phi.tolist(),
            sph.theta_dot.tolist(), sph.phi_dot.tolist(),
            sph.dt, list(keys.indices))
        assert mine == pytest.approx(ref, abs=1e-10)


def test_q_error_zero_when_all_frames_kept(small_sph):
    sph = small_sph[0]
    keys = KeyframeSet.from_indices(range(sph.frame_count), sph.frame_count)
    assert metrics.q_error(sph, keys) <= 1e-12


def test_q_error_decreases_when_adding_a_keyframe(small_sph):
    sph = small_sph[0]
    keys = KeyframeSet.endpoints(sph.frame_count)
    q0 = metrics.q_error(sph, keys)
    q1 = metrics.q_error(sph, keys.add(30))
    assert q1 <= q0


def test_q_baseline_is_endpoint_only_error(small_sph):
    sph = small_sph[1]
    assert metrics.q_baseline(sph) == pytest.approx(
        metrics.q_error(sph, KeyframeSet.endpoints(sph.frame_count)))


def test_q_baseline_raises_on_degenerate_input():
    sph = random_spherical(3, n=8, m=2)
    frozen = reconstruct.SphericalSequence(
        dt=sph.dt,
        theta=np.tile(sph.theta[:1] * 0 + 1.0, (8, 1)),
        phi=np.zeros_like(sph.phi),
        theta_dot=np.zeros_like(sph.theta),
        phi_dot=np.zeros_like(sph.phi),
        bone_lengths=sph.bone_lengths, joint_names=sph.joint_names,
        parents=sph.parents, root_positions=np.zeros((8, 3)),
        root_velocities=np.zeros((8, 3)))
    with pytest.raises(DegenerateSequence):
        metrics.q_baseline(frozen)


def test_step_reward_telescopes_to_total_improvement(small_sph):
    # the step reward of agent.train: the error drop of one added keyframe
    # over the two-keyframe baseline
    sph = small_sph[2]
    n = sph.frame_count
    q0 = metrics.q_baseline(sph)
    keys = KeyframeSet.endpoints(n)
    total = 0.0
    for frame in (40, 9, 25, 51):
        total += (metrics.q_error(sph, keys) - metrics.q_error(sph, keys.add(frame))) / q0
        keys = keys.add(frame)
    expect = 1.0 - metrics.q_error(sph, keys) / q0
    assert total == pytest.approx(expect, abs=1e-10)


def test_section_errors_sum_to_q_error(small_sph):
    sph = small_sph[0]
    keys = KeyframeSet.from_indices([0, 13, 29, 47, 59], sph.frame_count)
    a, b = keys.indices[:-1], keys.indices[1:]
    per_section = metrics.section_errors(sph, a, b)
    assert per_section.shape == (4,) and np.all(per_section > 0.0)
    n, m = sph.theta.shape
    assert per_section.sum() == pytest.approx(metrics.q_error(sph, keys) * n * m,
                                              abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(3, 24), m=st.integers(1, 4),
       smooth=st.booleans(), data=st.data())
def test_section_kernel_matches_full_reconstruction(seed, n, m, smooth, data):
    # the full reconstruction here is the pure-Python one: reconstruct_full
    # shares its cubics with the kernel and would check nothing
    sph = random_spherical(seed, n=n, m=m, smooth=smooth)
    interior = data.draw(st.sets(st.integers(1, n - 2), max_size=n - 2))
    keys = KeyframeSet.from_indices([0, n - 1, *interior], n)
    theta, phi, root = (
        oracle.reconstruct_reference(values.tolist(), rates.tolist(), sph.dt,
                                     list(keys.indices))
        for values, rates in ((sph.theta, sph.theta_dot), (sph.phi, sph.phi_dot),
                              (sph.root_positions, sph.root_velocities)))
    slow = sum(oracle.wrapped_distance(r, s)
               for got, src in ((theta, sph.theta), (phi, sph.phi))
               for r, s in zip(np.ravel(got), src.ravel())) / (n * m)
    assert metrics.q_error(sph, keys) == pytest.approx(slow, rel=1e-6, abs=1e-6)
    d = np.asarray(root) - sph.root_positions
    assert metrics.root_rmse(sph, keys) == pytest.approx(
        float(np.sqrt(np.mean(np.sum(d * d, axis=-1)))), rel=1e-6, abs=1e-6)
    table = metrics.section_error_table(sph)
    a, b = np.triu_indices(n, k=1)
    one_by_one = [metrics.section_errors(sph, [i], [j])[0] for i, j in zip(a, b)]
    np.testing.assert_allclose(table[a, b], one_by_one, rtol=0.0, atol=1e-12)
    assert not np.any(np.tril(table))


def test_section_errors_rejects_bad_sections(small_sph):
    sph = small_sph[0]
    for a, b in (([3], [3]), ([5], [2]), ([-1], [4]), ([0], [60]), ([0, 1], [5])):
        with pytest.raises(NumericError, match="^bad sections for N=60$"):
            metrics.section_errors(sph, a, b)


def test_root_rmse_zero_on_identity(small_sph):
    sph = small_sph[0]
    n = sph.frame_count
    assert metrics.root_rmse(sph, KeyframeSet.from_indices(range(n), n)) == 0.0
    assert metrics.root_rmse(sph, KeyframeSet.endpoints(n)) > 0.0
    with pytest.raises(NumericError, match=rf"^keyframe set is over {n + 1} frames"):
        metrics.root_rmse(sph, KeyframeSet.endpoints(n + 1))


def test_report_columns_stable():
    assert metrics.REPORT_COLUMNS == ("sequence", "keyframes", "method",
                                      "q_error", "root_rmse", "decision_time_s")
