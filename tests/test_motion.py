import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthcorpus
from mocapkey.asfamc import RawMotion, euler_matrix
from mocapkey.errors import MocapKeyError
from mocapkey.motion import (
    CMU_EXCLUDED_JOINTS,
    MotionSequence,
    filter_joints,
    finite_difference,
    forward_kinematics,
    preprocess,
)

# ---------------------------------------------------------------------------
# forward kinematics
# ---------------------------------------------------------------------------


def _zero_raw(skeleton, n_frames: int) -> RawMotion:
    channels = {"root": np.zeros((n_frames, 6))}
    for joint in skeleton.joints[1:]:
        if joint.dof:
            channels[joint.name] = np.zeros((n_frames, len(joint.dof)))
    return RawMotion(frame_count=n_frames, channels=channels)


def test_fk_rest_pose_is_cumulative_bone_offsets(skeleton):
    # All channels zero: every local rotation is C M C^-1 with M = I, so every
    # world rotation is the identity and each bone end sits at the running sum
    # of length * direction along its ancestor chain.
    raw = _zero_raw(skeleton, 3)
    seq = forward_kinematics(skeleton, raw, dt=1.0 / 120.0)
    assert seq.frame_count == 3
    assert seq.joint_count == len(skeleton.joints) - 1
    assert seq.joint_names == tuple(j.name for j in skeleton.joints[1:])

    expected = {None: np.zeros(3)}
    for idx, joint in enumerate(skeleton.joints[1:], start=1):
        parent_key = None if joint.parent == 0 else joint.parent
        expected[idx] = expected[parent_key] + joint.length * joint.direction
    for j, joint in enumerate(skeleton.joints[1:], start=1):
        assert np.allclose(seq.positions[:, j - 1], expected[j], atol=1e-12), joint.name
    assert np.allclose(seq.root_positions, 0.0, atol=1e-12)


def test_fk_root_translation_scaled_by_units(skeleton):
    raw = _zero_raw(skeleton, 2)
    raw.channels["root"][:, :3] = [10.0, 0.0, 0.0]
    seq = forward_kinematics(skeleton, raw, dt=1.0 / 120.0)
    rest = forward_kinematics(skeleton, _zero_raw(skeleton, 2), dt=1.0 / 120.0)
    shift = np.array([10.0 * skeleton.length_scale, 0.0, 0.0])
    assert np.allclose(seq.root_positions, rest.root_positions + shift, atol=1e-12)
    assert np.allclose(seq.positions, rest.positions + shift, atol=1e-12)


def test_fk_root_rotation_spins_whole_body(skeleton):
    raw = _zero_raw(skeleton, 2)
    raw.channels["root"][:, 4] = np.pi / 2  # ry
    seq = forward_kinematics(skeleton, raw, dt=1.0 / 120.0)
    rest = forward_kinematics(skeleton, _zero_raw(skeleton, 2), dt=1.0 / 120.0)
    x, y, z = rest.positions[..., 0], rest.positions[..., 1], rest.positions[..., 2]
    spun = np.stack([z, y, -x], axis=-1)
    assert np.allclose(seq.positions, spun, atol=1e-12)


def test_fk_single_joint_angle_hand_checked(skeleton):
    # ltibia has a single rx dof and axis (0, 0, 20deg); bending the knee must
    # move lfoot while leaving lfemur's end fixed, and preserve bone length.
    names = [j.name for j in skeleton.joints]
    tibia = skeleton.joints[names.index("ltibia")]
    raw = _zero_raw(skeleton, 2)
    raw.channels["ltibia"][:, 0] = 0.7
    seq = forward_kinematics(skeleton, raw, dt=1.0 / 120.0)
    rest = forward_kinematics(skeleton, _zero_raw(skeleton, 2), dt=1.0 / 120.0)
    col = {nm: i for i, nm in enumerate(seq.joint_names)}
    assert np.allclose(seq.positions[:, col["lfemur"]],
                       rest.positions[:, col["lfemur"]], atol=1e-12)
    assert not np.allclose(seq.positions[:, col["ltibia"]],
                           rest.positions[:, col["ltibia"]], atol=1e-3)
    bone = seq.positions[:, col["ltibia"]] - seq.positions[:, col["lfemur"]]
    assert np.allclose(np.linalg.norm(bone, axis=-1), tibia.length, atol=1e-12)
    # The rotation happens about the axis-frame x axis: C @ e_x in the world.
    axis = euler_matrix(tibia.axis, tibia.axis_order) @ np.array([1.0, 0.0, 0.0])
    rest_bone = rest.positions[0, col["ltibia"]] - rest.positions[0, col["lfemur"]]
    assert np.isclose(bone[0] @ axis, rest_bone @ axis, atol=1e-12)


def test_fk_parents_reference_sequence_indices(skeleton):
    seq = forward_kinematics(skeleton, _zero_raw(skeleton, 2), dt=1.0 / 120.0)
    for j, parent in enumerate(seq.parents):
        assert -1 <= parent < j
    roots = [nm for nm, p in zip(seq.joint_names, seq.parents) if p == -1]
    assert set(roots) == {"lhipjoint", "rhipjoint", "lowerback"}


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_finite_difference_exact_for_quadratic():
    dt = 0.05
    t = np.arange(12) * dt
    track = (3.0 * t * t - 2.0 * t + 1.0)[:, None] * np.ones(3)
    vel = finite_difference(track, dt)
    true = (6.0 * t - 2.0)[:, None] * np.ones(3)
    # central differences are exact on quadratics in the interior
    assert np.allclose(vel[1:-1], true[1:-1], atol=1e-10)
    # one-sided ends are exact only on linears
    lin = (4.0 * t + 2.0)[:, None] * np.ones(3)
    assert np.allclose(finite_difference(lin, dt), 4.0, atol=1e-10)


def test_finite_difference_short_tracks():
    assert np.all(finite_difference(np.ones((1, 3)), 0.1) == 0.0)
    two = np.array([[0.0], [1.0]])
    assert np.allclose(finite_difference(two, 0.5), 2.0)


# ---------------------------------------------------------------------------
# joint filtering
# ---------------------------------------------------------------------------


def test_filter_joints_removes_extremities(skeleton):
    sub = filter_joints(skeleton, CMU_EXCLUDED_JOINTS)
    assert len(sub.joints) == len(skeleton.joints) - len(CMU_EXCLUDED_JOINTS)
    names = [j.name for j in sub.joints]
    assert not set(CMU_EXCLUDED_JOINTS) & set(names)
    # parent links survive reindexing
    for joint in sub.joints[1:]:
        assert sub.joints[joint.parent].name != joint.name
    assert names[names.index("lwrist")] == "lwrist"
    wrist = sub.joints[names.index("lwrist")]
    assert sub.joints[wrist.parent].name == "lradius"


def test_filter_joints_rejects_orphaning(skeleton):
    with pytest.raises(MocapKeyError, match="cannot exclude 'lfoot'"):
        filter_joints(skeleton, ("lfoot",))  # ltoes would lose its parent


def test_filter_joints_rejects_unknown_names(skeleton):
    with pytest.raises(ValueError, match="pelvis"):
        filter_joints(skeleton, ("pelvis",))


def _leaves(skeleton):
    parents = {j.parent for j in skeleton.joints}
    return [j.name for i, j in enumerate(skeleton.joints)
            if i > 0 and i not in parents]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fk_on_filtered_skeleton_equals_kept_columns(skeleton, data):
    # Excluding leaves before kinematics must give, bitwise, the kept joints'
    # columns of the full-skeleton kinematics: a joint's pose depends only on
    # its ancestors, and filtering keeps every ancestor of a kept joint.
    excluded = tuple(data.draw(st.lists(st.sampled_from(_leaves(skeleton)),
                                        unique=True)))
    seed = data.draw(st.integers(0, 2**16))
    raw = synthcorpus.make_raw_motion(skeleton, seed, 9)
    full = forward_kinematics(skeleton, raw, dt=1.0 / 120.0, source="t.amc")
    sub = forward_kinematics(filter_joints(skeleton, excluded), raw,
                             dt=1.0 / 120.0, source="t.amc")
    kept = [i for i, nm in enumerate(full.joint_names) if nm not in excluded]
    assert sub.joint_names == tuple(full.joint_names[i] for i in kept)
    assert np.array_equal(sub.positions, full.positions[:, kept])
    assert np.array_equal(sub.root_positions, full.root_positions)
    for j, p in enumerate(sub.parents):
        old_parent = full.parents[kept[j]]
        assert p == (-1 if old_parent == -1 else kept.index(old_parent))
    assert sub.dt == full.dt and sub.source == full.source


# ---------------------------------------------------------------------------
# sequence validation
# ---------------------------------------------------------------------------


def test_motion_sequence_shape_validation():
    good = dict(
        dt=0.1,
        positions=np.zeros((5, 2, 3)),
        root_positions=np.zeros((5, 3)),
        joint_names=("a", "b"),
        parents=(-1, 0),
    )
    MotionSequence(**good)
    for field, bad in [
        ("positions", np.zeros((5, 2, 2))),
        ("root_positions", np.zeros((4, 3))),
        ("joint_names", ("a",)),
        ("dt", 0.0),
    ]:
        with pytest.raises(ValueError):
            MotionSequence(**{**good, field: bad})


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def test_preprocess_windows_downsampled_frames(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 7, 750)
    sub = filter_joints(skeleton, CMU_EXCLUDED_JOINTS)
    seq = forward_kinematics(sub, raw, dt=1.0 / 120.0, source="take.amc")
    windows = preprocess(seq)
    # 750 frames / stride 4 = 187 downsampled, 3 full windows, 7 discarded
    assert len(windows) == 3
    for w, win in enumerate(windows):
        assert win.frame_count == 60
        assert win.dt == pytest.approx(4.0 / 120.0)
        assert win.joint_names == seq.joint_names
        assert win.parents == seq.parents
        lo = w * 60
        assert np.array_equal(win.positions, seq.positions[::4][lo:lo + 60])
        assert np.array_equal(win.root_positions, seq.root_positions[::4][lo:lo + 60])
        assert win.source == f"take.amc[{lo * 4}:{(lo + 60) * 4}]"


def test_preprocess_rejects_short_clips(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 8, 230)
    seq = forward_kinematics(skeleton, raw, dt=1.0 / 120.0)
    with pytest.raises(MocapKeyError, match="^58 downsampled frames < window length 60$"):
        preprocess(seq)
