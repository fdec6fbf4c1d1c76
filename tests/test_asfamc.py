import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthcorpus
from mocapkey import asfamc, baselines, reconstruct, spherical
from mocapkey.errors import MalformedAmc, MalformedAsf, UnreachablePose
from mocapkey.motion import CMU_EXCLUDED_JOINTS, filter_joints, forward_kinematics

# ---------------------------------------------------------------------------
# Euler helpers
# ---------------------------------------------------------------------------


def test_single_axis_matrices():
    rx = asfamc.single_axis_matrix(0, np.array(math.pi / 2))
    assert np.allclose(rx @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-12)
    ry = asfamc.single_axis_matrix(1, np.array(math.pi / 2))
    assert np.allclose(ry @ np.array([0.0, 0.0, 1.0]), [1.0, 0.0, 0.0], atol=1e-12)
    rz = asfamc.single_axis_matrix(2, np.array(math.pi / 2))
    assert np.allclose(rz @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


vectors = st.lists(st.floats(-1e100, 1e100), min_size=3, max_size=3).map(np.array)


@settings(max_examples=300, deadline=None)
@given(a=vectors, b=vectors, angle=st.floats(-100.0, 100.0), axis=st.integers(0, 2))
@example(a=np.zeros(3), b=np.zeros(3), angle=0.0, axis=0)
def test_export_scalar_helpers_equal_numpy(a, b, angle, axis):
    # exact equality: AMC export must not change by a single bit
    assert asfamc._norm(a) == np.linalg.norm(a)
    assert np.array_equal(asfamc._cross(a, b), np.cross(a, b))
    assert np.array_equal(asfamc.single_axis_matrix(axis, angle),
                          asfamc.single_axis_matrix(axis, np.array([angle]))[0])


def test_euler_matrix_applies_first_axis_first():
    angles = np.array([0.3, -0.7, 1.1])
    m = asfamc.euler_matrix(angles, "XYZ")
    direct = (asfamc.single_axis_matrix(2, np.array(1.1))
              @ asfamc.single_axis_matrix(1, np.array(-0.7))
              @ asfamc.single_axis_matrix(0, np.array(0.3)))
    assert np.allclose(m, direct, atol=1e-12)


@pytest.mark.parametrize("order", ["XYZ", "ZYX", "YXZ", "XZY", "YZX", "ZXY"])
def test_euler_extraction_round_trip(order):
    rng = np.random.default_rng(8)
    for _ in range(200):
        angles = rng.uniform(-math.pi + 0.02, math.pi - 0.02, size=3)
        angles[1] = rng.uniform(-math.pi / 2 + 0.02, math.pi / 2 - 0.02)
        m = asfamc.euler_matrix(angles, order)
        back = asfamc.euler_from_matrix(m, order)
        assert np.allclose(asfamc.euler_matrix(back, order), m, atol=1e-9)


def test_euler_extraction_handles_gimbal_lock():
    angles = np.array([0.4, math.pi / 2, 0.0])
    m = asfamc.euler_matrix(angles, "XYZ")
    back = asfamc.euler_from_matrix(m, "XYZ")
    assert np.allclose(asfamc.euler_matrix(back, "XYZ"), m, atol=1e-9)


# ---------------------------------------------------------------------------
# ASF parsing
# ---------------------------------------------------------------------------


def test_parse_asf_reads_corpus_skeleton(skeleton):
    assert skeleton.name == "synth"
    assert len(skeleton.joints) == 31
    assert skeleton.root.name == "root"
    assert skeleton.length_scale == pytest.approx(0.45)
    lfemur = skeleton.joints[skeleton.index("lfemur")]
    assert lfemur.dof == ("rx", "ry", "rz")
    assert lfemur.length == pytest.approx(7.0 * 0.45)
    assert np.linalg.norm(lfemur.direction) == pytest.approx(1.0)
    assert len(lfemur.limits) == 3
    hip = skeleton.joints[skeleton.index("lhipjoint")]
    assert hip.dof == ()


def test_parse_asf_hierarchy_parent_links(skeleton):
    idx = {j.name: i for i, j in enumerate(skeleton.joints)}
    for j in skeleton.joints[1:]:
        parent = skeleton.joints[j.parent]
        assert idx[parent.name] < idx[j.name]
    assert skeleton.joints[idx["ltibia"]].parent == idx["lfemur"]
    assert skeleton.joints[idx["lthumb"]].parent == idx["lwrist"]


def test_parse_asf_requires_sections():
    with pytest.raises(MalformedAsf, match=r"line \d+"):
        asfamc.parse_asf(io.StringIO(":version 1.1\n:name x\n"))
    with pytest.raises(MalformedAsf, match=r"^line 2: missing :units section$"):
        asfamc.parse_asf(io.StringIO(":version 1.1\n:name x\n"))


def test_parse_asf_rejects_unattached_bone():
    text = synthcorpus.skeleton_text().replace("    root lhipjoint rhipjoint lowerback\n", "")
    # keep the hierarchy section structurally valid but drop root's children
    with pytest.raises(MalformedAsf, match=r"line \d+") as info:
        asfamc.parse_asf(io.StringIO(text))
    begin = text.splitlines().index("  begin") + 1   # lhipjoint, the first bone
    assert str(info.value).startswith(f"line {begin}: bone 'lhipjoint'")


def test_parse_asf_rejects_duplicate_parent():
    text = synthcorpus.skeleton_text().replace(
        "    lfemur ltibia", "    lfemur ltibia\n    rfemur ltibia")
    with pytest.raises(MalformedAsf):
        asfamc.parse_asf(io.StringIO(text))


@pytest.mark.parametrize("line, broken", [
    ("    name lfemur\n", "    name\n"),
    ("    length 7.0000\n", "    length\n"),
    ("    length 7.0000\n", "    length long\n"),
    ("    direction 0.3401360817 -0.9403762258 0.0000000000\n",
     "    direction 0.3401360817 -0.9403762258\n"),
    ("    axis 0 0 20 XYZ\n", "    axis 0 0\n"),
    ("    axis 0 0 20 XYZ\n", "    axis 0 x 20 XYZ\n"),
    ("    limits (-180.0 180.0)\n", "    limits (-180.0 abc)\n"),
    ("  length 0.45\n", "  length x\n"),
    ("  axis XYZ\n", "  axis\n"),
    ("  orientation 0 0 0\n", "  orientation 0 0\n"),
    ("  position 0 0 0\n", "  position\n"),
    ("    direction 0.3401360817 -0.9403762258 0.0000000000\n",
     "    direction nan 0 0\n"),
    ("    length 7.0000\n", "    length 1e999\n"),
    ("    axis 0 0 20 XYZ\n", "    axis 0 inf 20 XYZ\n"),
    ("  length 0.45\n", "  length inf\n"),
    ("  axis XYZ\n", "  axis XXZ\n"),
    ("  orientation 0 0 0\n", "  orientation 0 -inf 0\n"),
    ("  position 0 0 0\n", "  position 0 NaN 0\n"),
], ids=["name", "length-missing", "length-text", "direction-short",
        "axis-short", "axis-text", "limits-text", "units-length-text",
        "root-axis-missing", "root-orientation-short", "root-position-missing",
        "direction-nan", "length-overflow", "axis-inf", "units-length-inf",
        "root-axis-order", "root-orientation-inf", "root-position-nan"])
def test_parse_asf_rejects_keyword_lines_without_values(line, broken):
    text = synthcorpus.skeleton_text()
    assert line in text
    text = text.replace(line, broken, 1)
    with pytest.raises(MalformedAsf, match=r"^line \d+: "):
        asfamc.parse_asf(io.StringIO(text))


def test_skeleton_dict_round_trip(skeleton):
    clone = asfamc.Skeleton.from_dict(skeleton.to_dict())
    assert clone.bone_names == skeleton.bone_names
    assert clone.length_scale == skeleton.length_scale
    for a, b in zip(clone.joints, skeleton.joints):
        assert a.name == b.name and a.parent == b.parent
        assert np.allclose(a.direction, b.direction)
        assert np.allclose(a.axis, b.axis)
        assert a.dof == b.dof and a.limits == b.limits


# ---------------------------------------------------------------------------
# AMC parsing
# ---------------------------------------------------------------------------


def test_parse_amc_round_trips_synthetic_channels(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 77, 24)
    text = synthcorpus.amc_text(skeleton, raw)
    parsed = asfamc.parse_amc(io.StringIO(text), skeleton)
    assert parsed.frame_count == raw.frame_count
    assert set(parsed.channels) == set(raw.channels)
    for name, values in raw.channels.items():
        assert np.allclose(parsed.channels[name], values, atol=1e-9), name


def test_parse_amc_missing_joint_rows_become_zeros(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 3)
    lines = synthcorpus.amc_text(skeleton, raw).splitlines()
    kept = [ln for ln in lines if not ln.startswith("head")]
    parsed = asfamc.parse_amc(io.StringIO("\n".join(kept)), skeleton)
    assert np.all(parsed.channels["head"] == 0.0)
    # a joint listed twice in one frame keeps its last row
    second = lines.index("2")
    twice = lines[:second] + ["ltibia 45", "ltibia 30"] + lines[second:]
    parsed = asfamc.parse_amc(io.StringIO("\n".join(twice)), skeleton)
    plain = asfamc.parse_amc(io.StringIO("\n".join(lines)), skeleton)
    assert parsed.channels["ltibia"][0, 0] == math.radians(30.0)
    assert np.array_equal(parsed.channels["ltibia"][1:], plain.channels["ltibia"][1:])


def test_parse_amc_rejects_bad_frame_numbers(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 3)
    text = synthcorpus.amc_text(skeleton, raw).replace("\n2\n", "\n7\n")
    with pytest.raises(MalformedAmc):
        asfamc.parse_amc(io.StringIO(text), skeleton)
    # a non-numeric value on an earlier line is the first bad line
    lines = text.splitlines()
    bad = next(i for i, ln in enumerate(lines) if ln.startswith("rtibia "))
    lines[bad] = "rtibia abc"
    with pytest.raises(MalformedAmc, match=rf"^line {bad + 1}: non-numeric"):
        asfamc.parse_amc(io.StringIO("\n".join(lines)), skeleton)
    # so is a non-finite value, with or without a later structural error
    lines[bad] = "rtibia nan"
    with pytest.raises(MalformedAmc, match=rf"^line {bad + 1}: non-finite"):
        asfamc.parse_amc(io.StringIO("\n".join(lines)), skeleton)
    clean = synthcorpus.amc_text(skeleton, raw).splitlines()
    clean[bad] = "rtibia 1e999"
    with pytest.raises(MalformedAmc, match=rf"^line {bad + 1}: non-finite"):
        asfamc.parse_amc(io.StringIO("\n".join(clean)), skeleton)


def test_parse_amc_rejects_unknown_joint(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 2)
    text = synthcorpus.amc_text(skeleton, raw) + "pelvis 1 2 3\n"
    with pytest.raises(MalformedAmc):
        asfamc.parse_amc(io.StringIO(text), skeleton)


def test_parse_amc_rejects_wrong_channel_count(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 2)
    lines = synthcorpus.amc_text(skeleton, raw).splitlines()
    out = []
    for ln in lines:
        if ln.startswith("ltibia ") and len(out) < 40:
            ln = ln + " 0.5"
        out.append(ln)
    with pytest.raises(MalformedAmc) as err:
        asfamc.parse_amc(io.StringIO("\n".join(out)), skeleton)
    assert "ltibia" in str(err.value)


def test_parse_amc_radians_mode(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 2)
    deg_text = synthcorpus.amc_text(skeleton, raw)
    rad_lines = []
    for ln in deg_text.splitlines():
        if ln.startswith(":DEGREES"):
            rad_lines.append(":RADIANS")
        elif ln and not ln.startswith((":", "#")) and not ln.strip().isdigit():
            name, *vals = ln.split()
            dof = (skeleton.root.dof if name == "root"
                   else skeleton.joints[skeleton.index(name)].dof)
            conv = [str(math.radians(float(v))) if d.startswith("r") else v
                    for d, v in zip(dof, vals)]
            rad_lines.append(name + " " + " ".join(conv))
        else:
            rad_lines.append(ln)
    parsed = asfamc.parse_amc(io.StringIO("\n".join(rad_lines)), skeleton)
    for name, values in raw.channels.items():
        assert np.allclose(parsed.channels[name], values, atol=1e-9), name


# ---------------------------------------------------------------------------
# Export via per-frame pose solving
# ---------------------------------------------------------------------------


def _fk(skeleton, raw):
    """Unit world bone directions (N, M, 3) and the root path of a pose."""
    seq = forward_kinematics(skeleton, raw, dt=1.0 / 120.0)
    rel = spherical.relative_vectors(seq.positions, seq.root_positions, seq.parents)
    return rel / np.linalg.norm(rel, axis=-1, keepdims=True), seq.root_positions


def _angles(a, b):
    """Angle between unit vectors along the last axis (chord form)."""
    return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * np.linalg.norm(a - b, axis=-1)))


def _disturbed(skeleton, seed, frames):
    """Bone vectors (not unit length) of a pose whose ltibia end moved
    off the skeleton's reach, and the root path."""
    seq = forward_kinematics(skeleton, synthcorpus.make_raw_motion(skeleton, seed, frames),
                             dt=1.0 / 120.0)
    positions = seq.positions.copy()
    positions[:, skeleton.index("ltibia") - 1] += [0.4, 0.0, 0.0]
    rel = spherical.relative_vectors(positions, seq.root_positions, seq.parents)
    return rel, seq.root_positions


def test_export_amc_round_trips_through_kinematics(skeleton):
    dirs, root = _fk(skeleton, synthcorpus.make_raw_motion(skeleton, 21, 6))
    text, bend = asfamc.export_amc(skeleton, dirs, root)
    assert set(bend) == set(skeleton.bone_names)
    assert max(bend.values()) < 1e-4
    dirs2, root2 = _fk(skeleton, asfamc.parse_amc(io.StringIO(text), skeleton))
    assert np.max(np.abs(root2 - root)) < 1e-6
    assert np.max(_angles(dirs2, dirs)) < 1e-4


@pytest.mark.parametrize("pose", ["disturbed", "wrist", "rebuilt"])
def test_export_amc_bend_is_the_reparsed_pose_error(skeleton, small_windows, pose):
    if pose == "disturbed":
        targets, root = _disturbed(skeleton, 25, 8)
        targets = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    elif pose == "wrist":
        # the 1-dof lwrist cannot reach a bone tilted off its twist axis;
        # the hand and thumb below it bend in the written pose too
        targets, root = _fk(skeleton, synthcorpus.make_raw_motion(skeleton, 25, 2))
        targets, root = targets[:1], root[:1]
        targets[:, skeleton.index("lwrist") - 1] += [0.0, 0.3, 0.3]
        targets = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    else:
        # a window rebuilt from uniform keyframes, as `reconstruct` exports it
        skeleton = filter_joints(skeleton, CMU_EXCLUDED_JOINTS)
        sph = spherical.sequence_to_spherical(small_windows[0])
        recon = reconstruct.reconstruct_full(
            sph, baselines.select_uniform(sph.frame_count, 5))
        targets = spherical.sph_to_cart(1.0, recon.theta, recon.phi)
        root = recon.root_positions
    text, bend = asfamc.export_amc(skeleton, targets, root)
    dirs2, _ = _fk(skeleton, asfamc.parse_amc(io.StringIO(text), skeleton))
    worst = _angles(dirs2, targets).max(axis=0)
    for bi, name in enumerate(skeleton.bone_names):
        assert bend[name] == pytest.approx(worst[bi], abs=1e-6), name
    assert max(bend.values()) > 1e-4      # some joint did bend
    if pose == "wrist":
        assert min(bend[name] for name in ("lhand", "lfingers", "lthumb")) > 1e-2


def test_export_amc_best_fit_mode_for_unreachable_targets(skeleton):
    dirs, root = _disturbed(skeleton, 22, 4)
    text, bend = asfamc.export_amc(skeleton, dirs, root)
    assert ":DEGREES" in text
    # the inconsistency may surface below ltibia once upstream twist adapts
    chain = ("lfemur", "ltibia", "lfoot", "ltoes")
    assert max(bend[name] for name in chain) > 1e-3
    assert max(b for name, b in bend.items() if name not in chain) < 1e-6


def test_export_amc_rejects_bad_directions(skeleton):
    dirs, root = _fk(skeleton, synthcorpus.make_raw_motion(skeleton, 23, 3))
    with pytest.raises(ValueError, match="directions"):
        asfamc.export_amc(skeleton, dirs[:, 1:], root)
    with pytest.raises(ValueError, match="directions"):
        asfamc.export_amc(skeleton, dirs, root[1:])
    bi = skeleton.index("ltibia") - 1
    zero = dirs.copy()
    zero[2, bi] = 0.0
    with pytest.raises(UnreachablePose, match="joint 'ltibia' frame 2"):
        asfamc.export_amc(skeleton, zero, root)
    nan = dirs.copy()
    nan[1, bi, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        asfamc.export_amc(skeleton, nan, root)


def test_export_amc_translation_only_root(skeleton):
    text = synthcorpus.skeleton_text().replace("order TX TY TZ RX RY RZ",
                                               "order TX TY TZ")
    skel = asfamc.parse_asf(text)
    assert skel.root.dof == ("tx", "ty", "tz")
    raw = synthcorpus.make_raw_motion(skeleton, 27, 5)
    raw = asfamc.RawMotion(raw.frame_count,
                           {**raw.channels, "root": raw.channels["root"][:, :3]})
    dirs, root = _fk(skel, raw)
    out, bend = asfamc.export_amc(skel, dirs, root)
    dirs2, root2 = _fk(skel, asfamc.parse_amc(io.StringIO(out), skel))
    assert np.max(np.abs(root2 - root)) < 1e-6
    assert np.max(_angles(dirs2, dirs)) < 1e-4 and max(bend.values()) < 1e-4


def test_export_amc_comment_written(skeleton):
    dirs, root = _fk(skeleton, synthcorpus.make_raw_motion(skeleton, 24, 2))
    text, _ = asfamc.export_amc(skeleton, dirs, root, comment="window w00001")
    assert text.splitlines()[0] == "# window w00001"
