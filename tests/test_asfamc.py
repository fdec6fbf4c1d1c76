import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference
import synthcorpus
from mocapkey import asfamc, baselines, reconstruct, spherical
from mocapkey.dataset import load_dataset
from mocapkey.errors import MocapKeyError, NumericError
from mocapkey.metrics import angle_distance, q_error
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
    joints = {j.name: j for j in skeleton.joints}
    lfemur = joints["lfemur"]
    assert lfemur.dof == ("rx", "ry", "rz")
    assert lfemur.length == pytest.approx(7.0 * 0.45)
    assert np.linalg.norm(lfemur.direction) == pytest.approx(1.0)
    assert len(lfemur.limits) == 3
    assert joints["lhipjoint"].dof == ()


def test_parse_asf_hierarchy_parent_links(skeleton):
    idx = {j.name: i for i, j in enumerate(skeleton.joints)}
    for j in skeleton.joints[1:]:
        parent = skeleton.joints[j.parent]
        assert idx[parent.name] < idx[j.name]
    assert skeleton.joints[idx["ltibia"]].parent == idx["lfemur"]
    assert skeleton.joints[idx["lthumb"]].parent == idx["lwrist"]


def test_parse_asf_requires_sections():
    with pytest.raises(MocapKeyError, match=r"line \d+"):
        asfamc.parse_asf(io.StringIO(":version 1.1\n:name x\n"))
    with pytest.raises(MocapKeyError, match=r"^line 2: missing :units section$"):
        asfamc.parse_asf(io.StringIO(":version 1.1\n:name x\n"))


def test_parse_asf_rejects_unattached_bone():
    text = synthcorpus.skeleton_text().replace("    root lhipjoint rhipjoint lowerback\n", "")
    # keep the hierarchy section structurally valid but drop root's children
    with pytest.raises(MocapKeyError, match=r"line \d+") as info:
        asfamc.parse_asf(io.StringIO(text))
    begin = text.splitlines().index("  begin") + 1   # lhipjoint, the first bone
    assert str(info.value).startswith(f"line {begin}: bone 'lhipjoint'")


def test_parse_asf_rejects_duplicate_parent():
    text = synthcorpus.skeleton_text().replace(
        "    lfemur ltibia", "    lfemur ltibia\n    rfemur ltibia")
    with pytest.raises(MocapKeyError, match=r"^line \d+: bone 'ltibia' has two parents$"):
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
    (":version 1.10\n", ":\n"),
], ids=["name", "length-missing", "length-text", "direction-short",
        "axis-short", "axis-text", "limits-text", "units-length-text",
        "root-axis-missing", "root-orientation-short", "root-position-missing",
        "direction-nan", "length-overflow", "axis-inf", "units-length-inf",
        "root-axis-order", "root-orientation-inf", "root-position-nan",
        "section-name"])
def test_parse_asf_rejects_keyword_lines_without_values(line, broken):
    text = synthcorpus.skeleton_text()
    assert line in text
    text = text.replace(line, broken, 1)
    with pytest.raises(MocapKeyError, match=r"^line \d+: "):
        asfamc.parse_asf(io.StringIO(text))


def test_parse_asf_rejects_nan_limits_naming_the_line():
    lines = synthcorpus.skeleton_text().splitlines()
    first = lines.index("    limits (-180.0 180.0)")    # lfemur, 3 dof
    for no, broken in ((first, "    limits (nan 180.0)"),
                       (first + 1, "           (-180.0 NaN)")):
        edited = lines[:no] + [broken] + lines[no + 1:]
        with pytest.raises(MocapKeyError, match=rf"^line {no + 1}: NaN in limits"):
            asfamc.parse_asf(io.StringIO("\n".join(edited) + "\n"))
    # an infinite limit stays readable
    lines[first] = "    limits (-inf 180.0)"
    skel = asfamc.parse_asf(io.StringIO("\n".join(lines) + "\n"))
    lfemur = next(j for j in skel.joints if j.name == "lfemur")
    assert lfemur.limits[0] == (-np.inf, np.pi)


def test_skeleton_dict_round_trip(skeleton):
    clone = asfamc.Skeleton.from_dict(skeleton.to_dict())
    assert clone.bone_names == skeleton.bone_names
    assert clone.length_scale == skeleton.length_scale
    for a, b in zip(clone.joints, skeleton.joints):
        assert a.name == b.name and a.parent == b.parent
        assert np.allclose(a.direction, b.direction)
        assert np.allclose(a.axis, b.axis)
        assert a.dof == b.dof and a.limits == b.limits


_TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1e999", "(", ")", "(-180.0", "180.0)",
                     "begin", "end", "root", ":root", ":bonedata", ":hierarchy",
                     "order", "dof", "limits", "axis", "XXZ", "lfemur", "rx",
                     "tx", "0", "1", "-3", "1.5", "#"]),
    st.text(alphabet=" ()#:.-+e0123456789xyzXYZ", max_size=8))


@st.composite
def _one_line_edit(draw, text):
    """``text`` with one line deleted, doubled, cut short, given a new
    token, or preceded by a new line."""
    lines = text.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    edit = draw(st.sampled_from(["delete", "double", "cut", "token", "insert"]))
    if edit == "delete":
        new = []
    elif edit == "double":
        new = [line, line]
    elif edit == "cut":
        new = [line[:draw(st.integers(0, len(line)))]]
    elif edit == "token":
        parts = line.split() or [""]
        parts[draw(st.integers(0, len(parts) - 1))] = draw(_TOKENS)
        new = [" ".join(parts)]
    else:
        new = [" ".join(draw(st.lists(_TOKENS, max_size=4))), line]
    return "\n".join(lines[:at] + new + lines[at + 1:]) + "\n"


@pytest.fixture(scope="module")
def amc_30(skeleton):
    return synthcorpus.amc_text(skeleton, synthcorpus.make_raw_motion(skeleton, 9, 30))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), edit_asf=st.booleans())
def test_parsers_fail_cleanly_on_one_line_edits(skeleton, amc_30, data, edit_asf):
    # every outcome is a parse or a typed error naming the problem
    try:
        if edit_asf:
            skel = asfamc.parse_asf(data.draw(_one_line_edit(synthcorpus.skeleton_text())))
            asfamc.parse_amc(amc_30, skel)
        else:
            asfamc.parse_amc(data.draw(_one_line_edit(amc_30)), skeleton)
    except MocapKeyError as exc:     # a data error, never a numeric one
        assert not isinstance(exc, NumericError), exc


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
    # a joint listed twice in one frame is rejected on its second line
    second = lines.index("2")
    twice = lines[:second] + ["ltibia 45", "ltibia 30"] + lines[second:]
    with pytest.raises(MocapKeyError,
                       match=rf"^line {second + 1}: joint 'ltibia' listed twice in frame 1$"):
        asfamc.parse_amc(io.StringIO("\n".join(twice)), skeleton)
    # a frame that lacks a joint of frame 1, mid-take or last, names its line
    raw = synthcorpus.make_raw_motion(skeleton, 5, 8)
    lines = synthcorpus.amc_text(skeleton, raw).splitlines()
    for frame in (5, 8):
        at = lines.index(str(frame))
        drop = next(i for i in range(at, len(lines)) if lines[i].startswith("lfemur "))
        with pytest.raises(MocapKeyError, match=rf"^line {at + 1}: frame {frame} does not "
                                                r"list \['lfemur'\], which frame 1 lists$"):
            asfamc.parse_amc(io.StringIO("\n".join(lines[:drop] + lines[drop + 1:])), skeleton)
    # a joint missing from frame 1 is rejected on its first line in frame 2
    first = next(i for i, ln in enumerate(lines) if ln.startswith("head "))
    later = next(i for i in range(first + 1, len(lines)) if lines[i].startswith("head "))
    with pytest.raises(MocapKeyError,
                       match=rf"^line {later}: joint 'head' is not listed in frame 1$"):
        asfamc.parse_amc(io.StringIO("\n".join(lines[:first] + lines[first + 1:])), skeleton)


def test_parse_amc_rejects_bad_frame_numbers(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 3)
    text = synthcorpus.amc_text(skeleton, raw).replace("\n2\n", "\n7\n")
    with pytest.raises(MocapKeyError, match="frame 7 follows frame 1"):
        asfamc.parse_amc(io.StringIO(text), skeleton)
    # a non-numeric value on an earlier line is the first bad line
    lines = text.splitlines()
    bad = next(i for i, ln in enumerate(lines) if ln.startswith("rtibia "))
    lines[bad] = "rtibia abc"
    with pytest.raises(MocapKeyError, match=rf"^line {bad + 1}: non-numeric"):
        asfamc.parse_amc(io.StringIO("\n".join(lines)), skeleton)
    # so is a non-finite value, with or without a later structural error
    lines[bad] = "rtibia nan"
    with pytest.raises(MocapKeyError, match=rf"^line {bad + 1}: non-finite"):
        asfamc.parse_amc(io.StringIO("\n".join(lines)), skeleton)
    clean = synthcorpus.amc_text(skeleton, raw).splitlines()
    clean[bad] = "rtibia 1e999"
    with pytest.raises(MocapKeyError, match=rf"^line {bad + 1}: non-finite"):
        asfamc.parse_amc(io.StringIO("\n".join(clean)), skeleton)
    # a frame gap before the first bad value is the first bad line
    gap = lines.index("7")
    lines[bad] = "rtibia 1"
    lines[gap + 2] = lines[gap + 2].split()[0] + " abc"
    with pytest.raises(MocapKeyError, match=rf"^line {gap + 1}: frame 7 follows frame 1"):
        asfamc.parse_amc(io.StringIO("\n".join(lines)), skeleton)
    # and channel data before frame 1, even with a bad value of its own
    first = clean.index("1")
    for data in ("rtibia abc", "rtibia nan", "rtibia 1 2"):
        early = clean[:first] + [data] + clean[first:]
        with pytest.raises(MocapKeyError, match=rf"^line {first + 1}: channel data "
                                               "before the first frame number$"):
            asfamc.parse_amc(io.StringIO("\n".join(early)), skeleton)


def test_parse_amc_rejects_unknown_joint(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 2)
    text = synthcorpus.amc_text(skeleton, raw) + "pelvis 1 2 3\n"
    with pytest.raises(MocapKeyError, match="unknown joint 'pelvis'"):
        asfamc.parse_amc(io.StringIO(text), skeleton)
    # an unknown joint with a bad value is reported as the unknown joint
    at = text.count("\n")
    for values in ("x", "nan 1", "1e999"):
        with pytest.raises(MocapKeyError, match=rf"^line {at}: unknown joint 'pelvis'$"):
            asfamc.parse_amc(io.StringIO(text.replace("1 2 3", values)), skeleton)


def test_parse_amc_rejects_wrong_channel_count(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 2)
    lines = synthcorpus.amc_text(skeleton, raw).splitlines()
    out = []
    for ln in lines:
        if ln.startswith("ltibia ") and len(out) < 40:
            ln = ln + " 0.5"
        out.append(ln)
    with pytest.raises(MocapKeyError, match="joint 'ltibia' has 2 values, expected 1"):
        asfamc.parse_amc(io.StringIO("\n".join(out)), skeleton)
    # a bad value on a line with the wrong count is reported as the value
    at = next(i for i, ln in enumerate(lines) if ln.startswith("ltibia "))
    for values, problem in (("x 0.5", "non-numeric"), ("nan 0.5", "non-finite"),
                            ("0.5 x", "non-numeric")):
        edited = lines[:at] + [f"ltibia {values}"] + lines[at + 1:]
        with pytest.raises(MocapKeyError, match=rf"^line {at + 1}: {problem} channel value$"):
            asfamc.parse_amc(io.StringIO("\n".join(edited)), skeleton)


def test_parse_amc_radians_mode(skeleton):
    raw = synthcorpus.make_raw_motion(skeleton, 5, 2)
    deg_text = synthcorpus.amc_text(skeleton, raw)
    rad_lines = []
    for ln in deg_text.splitlines():
        if ln.startswith(":DEGREES"):
            rad_lines.append(":RADIANS")
        elif ln and not ln.startswith((":", "#")) and not ln.strip().isdigit():
            name, *vals = ln.split()
            dof = {j.name: j for j in skeleton.joints}[name].dof
            conv = [str(math.radians(float(v))) if d.startswith("r") else v
                    for d, v in zip(dof, vals)]
            rad_lines.append(name + " " + " ".join(conv))
        else:
            rad_lines.append(ln)
    parsed = asfamc.parse_amc(io.StringIO("\n".join(rad_lines)), skeleton)
    for name, values in raw.channels.items():
        assert np.allclose(parsed.channels[name], values, atol=1e-9), name


_SKELETON = synthcorpus.skeleton()
_AMC_3 = synthcorpus.amc_text(_SKELETON, synthcorpus.make_raw_motion(_SKELETON, 4, 3))
_LAYOUT_EDITS = ("join", "split", "move", "duplicate", "delete", "swap", "drop joint",
                 "token", "tab", "double space", "trailing space", "cr", "radians",
                 "crlf", "no final newline")


@st.composite
def _amc_variant(draw, text):
    """``text`` after up to three edits that keep or break its regular
    layout: lines joined, split, duplicated, deleted or swapped, a newline
    moved, a joint dropped from every frame, a token replaced, a tab, a
    doubled or trailing space, a CR, ``:RADIANS``, CRLF line ends or no
    final newline."""
    lines = text.splitlines()
    newline, end = "\n", "\n"
    for edit in draw(st.lists(st.sampled_from(_LAYOUT_EDITS), max_size=3)):
        at = draw(st.integers(0, len(lines) - 2))
        line, words = lines[at], lines[at].split(" ")
        if edit == "join":
            lines[at:at + 2] = [line + " " + lines[at + 1]]
        elif edit in ("split", "move"):
            if edit == "move":
                words += lines.pop(at + 1).split(" ")
            cut = draw(st.integers(0, len(words)))
            lines[at:at + 1] = [" ".join(words[:cut]), " ".join(words[cut:])]
        elif edit == "duplicate":
            lines.insert(at, line)
        elif edit == "delete":
            del lines[at]
        elif edit == "swap":
            lines[at:at + 2] = [lines[at + 1], line]
        elif edit == "drop joint":
            name = draw(st.sampled_from([j.name for j in _SKELETON.joints]))
            lines = [ln for ln in lines if ln.split(" ")[0] != name]
        elif edit == "token":
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(
                ["nan", "1e400", "-inf", "x", "-0", "1_0", "2", "01", "root", ":RADIANS"]))
            lines[at] = " ".join(words)
        elif edit in ("tab", "double space"):
            lines[at] = line.replace(" ", {"tab": "\t", "double space": "  "}[edit], 1)
        elif edit in ("trailing space", "cr"):
            lines[at] = line + {"trailing space": " ", "cr": "\r"}[edit]
        elif edit == "radians":
            lines = [":RADIANS" if ln == ":DEGREES" else ln for ln in lines]
        elif edit == "crlf":
            newline = end = "\r\n"
        else:
            end = ""
    return newline.join(lines) + end


def _moved_newline(text):
    """``name v`` / ``2`` at the end of frame 1 rewritten as ``name`` /
    ``v 2``: the same tokens, in lines the line loop rejects."""
    head, _, tail = text.partition("\n2\n")
    name, value = head.rsplit(" ", 1)
    return f"{name}\n{value} 2\n{tail}"


def _moved_value(text):
    """The last value of frame 1's root line moved, after a tab, to the
    next line, and a space doubled on the root line: the same tokens and
    the same spaces on each line, but not the same tokens on each line."""
    lines = text.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("root "))
    *head, second, last = lines[at].split(" ")
    lines[at:at + 2] = [" ".join(head) + "  " + second, last + "\t" + lines[at + 1]]
    return "\n".join(lines)


def _twin(text):
    """``text`` with a comment on every line: the same meaning, but never
    the regular layout, so the line loop parses it."""
    return "\n".join(line + " # c" for line in text.splitlines())


def _parse_outcome(text, skeleton=_SKELETON):
    try:
        raw = asfamc.parse_amc(text, skeleton)
    except MocapKeyError as exc:
        return type(exc), str(exc)
    return raw.frame_count, [(k, v.shape, v.tobytes()) for k, v in raw.channels.items()]


@settings(max_examples=600, deadline=None)
@given(text=_amc_variant(_AMC_3))
@example(text=_AMC_3)
@example(text=_moved_newline(_AMC_3))
@example(text=_moved_value(_AMC_3))
@example(text=_AMC_3.replace("\nltibia ", "\nltibia nan\nltibia "))  # twice a frame
@example(text=_AMC_3.replace("\n3\n", "\n4\n"))
def test_parse_amc_one_pass_equals_the_line_loop(text):
    assert asfamc._parse_regular_amc(_twin(text), _SKELETON) is None
    assert _parse_outcome(text) == _parse_outcome(_twin(text))


@pytest.mark.parametrize("joint, name, old, new", [
    ("rfingers", ":rfingers", "\nrfingers ", "\n:rfingers "),
    ("rfingers", "rfingers#1", "\nrfingers ", "\nrfingers#1 "),
    ("lhipjoint", "5", "\nroot ", "\n5\nroot "),
])
def test_parse_amc_one_pass_keeps_line_loop_names(joint, name, old, new):
    # to the line loop, the line of an ASF leaf bone named ':rfingers' is a
    # header line, and in a skeleton built in code 'rfingers#1' ends in a
    # comment and the line of a joint '5' without channels is a frame number
    joints = tuple(dataclasses.replace(j, name=name) if j.name == joint else j
                   for j in _SKELETON.joints)
    skeleton = dataclasses.replace(_SKELETON, joints=joints)
    text = _AMC_3.replace(old, new)
    assert _parse_outcome(text, skeleton) == _parse_outcome(_twin(text), skeleton)


def test_parse_amc_takes_the_one_pass_path_on_regular_text():
    for frames in (1, 3, 40):
        raw = synthcorpus.make_raw_motion(_SKELETON, 6, frames)
        text = synthcorpus.amc_text(_SKELETON, raw)
        assert asfamc._parse_regular_amc(text, _SKELETON) is not None
    # so is the text that AMC export (and so `reconstruct`) writes
    dirs, root = _fk(_SKELETON, synthcorpus.make_raw_motion(_SKELETON, 8, 4))
    text, _ = asfamc.export_amc(_SKELETON, dirs, root, comment="rebuilt")
    assert asfamc._parse_regular_amc(text, _SKELETON) is not None
    assert _parse_outcome(text) == _parse_outcome(_twin(text))
    assert asfamc._parse_regular_amc(_moved_newline(_AMC_3), _SKELETON) is None


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
    positions[:, skeleton.bone_names.index("ltibia")] += [0.4, 0.0, 0.0]
    rel = spherical.relative_vectors(positions, seq.root_positions, seq.parents)
    return rel, seq.root_positions


def _noisy(skeleton):
    """Unit bone directions of an 8-frame full-skeleton pose plus Gaussian
    noise (sigma 0.05, not renormalized), and the root path."""
    dirs, root = _fk(skeleton, synthcorpus.make_raw_motion(skeleton, 31, 8))
    return dirs + np.random.default_rng(0).normal(0.0, 0.05, dirs.shape), root


def _rebuilt(skeleton, window):
    """The tracked skeleton, bone directions and root path of a window
    rebuilt from uniform keyframes, as `reconstruct` exports it."""
    sph = spherical.sequence_to_spherical(window)
    recon = reconstruct.reconstruct_full(sph, baselines.select_uniform(sph.frame_count, 5))
    return (filter_joints(skeleton, CMU_EXCLUDED_JOINTS),
            spherical.sph_to_cart(1.0, recon.theta, recon.phi), recon.root_positions)


def test_export_amc_round_trips_through_kinematics(skeleton):
    dirs, root = _fk(skeleton, synthcorpus.make_raw_motion(skeleton, 21, 6))
    text, bend = asfamc.export_amc(skeleton, dirs, root)
    assert set(bend) == set(skeleton.bone_names)
    assert max(bend.values()) < 1e-9
    dirs2, root2 = _fk(skeleton, asfamc.parse_amc(io.StringIO(text), skeleton))
    assert np.max(np.abs(root2 - root)) < 1e-6
    # the text holds 10 significant digits of degrees: about 1e-9 rad a channel
    assert np.max(_angles(dirs2, dirs)) < 1e-8


@pytest.mark.parametrize("pose", ["disturbed", "wrist", "rebuilt", "noisy"])
def test_export_amc_bend_is_the_reparsed_pose_error(skeleton, small_windows, pose):
    if pose == "disturbed":
        targets, root = _disturbed(skeleton, 25, 8)
        targets = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    elif pose == "wrist":
        # the 1-dof lwrist cannot reach a bone tilted off its twist axis;
        # twisting about the bone it does reach leaves its children free
        # to land their targets in the written pose
        targets, root = _fk(skeleton, synthcorpus.make_raw_motion(skeleton, 25, 2))
        targets, root = targets[:1], root[:1]
        targets[:, skeleton.bone_names.index("lwrist")] += [0.0, 0.3, 0.3]
        targets = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    elif pose == "noisy":
        targets, root = _noisy(skeleton)
        targets = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    else:
        skeleton, targets, root = _rebuilt(skeleton, small_windows[0])
    text, bend = asfamc.export_amc(skeleton, targets, root)
    dirs2, _ = _fk(skeleton, asfamc.parse_amc(io.StringIO(text), skeleton))
    worst = _angles(dirs2, targets).max(axis=0)
    for bi, name in enumerate(skeleton.bone_names):
        assert bend[name] == pytest.approx(worst[bi], abs=1e-6), name
    assert max(bend.values()) > 1e-4      # some joint did bend
    if pose == "wrist":
        assert bend["lwrist"] > 0.1
        assert max(bend[name] for name in ("lhand", "lfingers", "lthumb")) < 1e-6
    if pose == "noisy":
        assert max(bend.values()) <= 0.1979


@pytest.mark.parametrize("pose", ["rebuilt", "disturbed", "noisy"])
def test_export_amc_solves_each_frame_on_its_own(skeleton, small_windows, pose):
    def frame_rows(text):
        frames = []
        for line in text.splitlines():
            if line.isdigit():
                frames.append([])
            elif frames:
                frames[-1].append(line)
        return frames

    if pose == "rebuilt":
        skeleton, targets, root = _rebuilt(skeleton, small_windows[0])
    elif pose == "disturbed":
        targets, root = _disturbed(skeleton, 25, 8)
    else:
        targets, root = _noisy(skeleton)
    whole = frame_rows(asfamc.export_amc(skeleton, targets, root)[0])
    assert len(whole) == len(targets)
    for fi, rows in enumerate(whole):
        alone, _ = asfamc.export_amc(skeleton, targets[fi:fi + 1], root[fi:fi + 1])
        assert frame_rows(alone) == [rows], fi


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), axes=st.permutations([0, 1, 2]))
def test_two_axis_branch_holds_under_rounding_noise(seed, axes):
    # both branches reach a reachable target, so residuals differ only by
    # rounding; noise of that size must not swap the first-ranked branch
    rng = np.random.default_rng(seed)
    first, second = axes[:2]
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
    t = (asfamc.single_axis_matrix(second, beta)
         @ asfamc.single_axis_matrix(first, alpha) @ u)
    noisy = t + rng.normal(0.0, 1e-15, size=3)
    best = asfamc._solve_two_axes(u, t[None], first, second)[0][0, 0]
    assert np.allclose(best @ u, t, atol=1e-9)
    assert np.allclose(asfamc._solve_two_axes(u, noisy[None], first, second)[0][0, 0], best,
                       atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), axes=st.permutations([0, 1, 2]))
def test_twist_band_roots_match_a_dense_grid(seed, axes):
    # a 3-dof parent twisting about its bone under a 2-dof child: the child
    # lands while its target's component along its second axis stays within
    # the reach of its first rotation, sqrt(1 - u[first]^2)
    rng = np.random.default_rng(seed)
    first, second = axes[:2]

    def joint(name, parent, order, dof):
        direction = rng.normal(size=3)
        return asfamc.Joint(name, parent, direction / np.linalg.norm(direction), 1.0,
                            rng.uniform(-math.pi, math.pi, 3), order, dof)

    letters = "".join("XYZ"[a] for a in axes)
    skel = asfamc.Skeleton((
        asfamc.Joint("root", None, np.zeros(3), 0.0, np.zeros(3), "XYZ", ()),
        joint("upper", 0, "XYZ", ("rx", "ry", "rz")),
        joint("lower", 1, letters, tuple(f"r{a}" for a in letters[:2].lower()))))
    nodes = asfamc._build_solve_nodes(skel)
    upper, lower = nodes
    parent_rot, m0 = (asfamc.euler_matrix(rng.uniform(-math.pi, math.pi, 3), "XYZ")
                      for _ in range(2))
    seen = rng.normal(size=(2, 3))
    seen /= np.linalg.norm(seen, axis=1, keepdims=True)
    spin = m0 @ upper.u
    roots, exist = asfamc._twist_candidates(nodes, 0, 1, spin[None, None], m0[None, None],
                                            parent_rot[None, None], seen[None])
    roots = roots[exist]

    def component(psi):
        # R_spin(psi).T g by Rodrigues' vector formula, then into the child's frame
        g = upper.c.T @ (parent_rot.T @ seen[1])
        cos, sin = np.cos(psi)[:, None], np.sin(psi)[:, None]
        turned = cos * g - sin * np.cross(spin, g) + (1.0 - cos) * (spin @ g) * spin
        return (turned @ m0 @ upper.c.T @ lower.c)[:, second]

    reach = math.sqrt(1.0 - lower.u[first] ** 2)
    step = 2.0 * math.pi / 3600
    grid = np.arange(3600) * step
    values = component(grid)
    inside = np.abs(values) <= reach
    edges = grid[inside != np.roll(inside, -1)] + 0.5 * step
    extrema = grid[[np.argmax(values), np.argmin(values)]]

    def near(angles, marks):
        gap = np.abs((angles[:, None] - marks[None, :] + math.pi) % (2 * math.pi) - math.pi)
        return gap.min(axis=1, initial=math.inf) <= step

    lands = np.abs(component(roots)) <= reach + 1e-9
    assert inside.any() == lands.any()
    # every root is a band edge, or the extremum that is the best effort
    # when an edge lies beyond the component's range
    assert np.all(near(roots, edges) | near(roots, extrema))
    assert np.all(near(edges, roots))


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """The 66 window records of ``build_dataset(6, 2640, seed=1)``."""
    out = tmp_path_factory.mktemp("small_corpus")
    synthcorpus.build_dataset(out, 6, 2640, seed=1)
    return load_dataset(out)


def export_differential(skeleton, targets, root):
    """Compare the export with the per-frame solver of
    ``oracle_reference.export_amc_reference`` on one pose and return
    counts: joint-frames whose branch was decided (margin above 1e-12),
    joint-frames at or below a tie that went the other way, joint-frames
    at or below a band edge, and written AMC lines that differ in their
    10 printed digits.

    A joint-frame is compared where every joint above it took the same
    branch: below a different branch the targets differ. There, a
    decided branch must be the same, and the same branch must give the
    same channels within 1e-12 rad. A 2-dof child whose parent picked one
    of its edge roots sits on the edge of its reach, where the acos of
    its branch angle turns a rounding error e of the target into about
    sqrt(2 e), some 1e-8 rad; at and below it the channels must agree
    within 1e-6 rad. Every bend must agree within 1e-9. The text must be
    the reference writer's text of the export's own rows, byte for byte.
    """
    unit = targets / np.linalg.norm(targets, axis=-1, keepdims=True)
    text, bend = asfamc.export_amc(skeleton, targets, root)
    rows, picks = asfamc._pose_channels(skeleton, unit, root)
    ref_text, ref_bend, ref_rows, slots, margins = oracle_reference.export_amc_reference(
        skeleton, unit, root)
    nodes = asfamc._build_solve_nodes(skeleton)
    n = len(root)
    assert text == oracle_reference.format_amc_reference(skeleton, rows, n)
    same = {0: np.ones(n, dtype=bool)}      # by joint: it and all above agree
    edge = {0: np.zeros(n, dtype=bool)}     # by joint: it or one above sits on an edge
    counts = {"decided": 0, "below_ties": 0, "on_edges": 0}
    for ji, joint in enumerate(skeleton.joints[1:], start=1):
        above, bi, pi = same[joint.parent], ji - 1, joint.parent - 1
        decided = above & (margins[bi] > 1e-12)
        assert np.array_equal(picks[bi][decided], slots[bi][decided]), joint.name
        same[ji] = above & (picks[bi] == slots[bi])
        edge[ji] = edge[joint.parent].copy()
        if pi >= 0 and len(nodes[bi].ordered) == 2:
            edge[ji] |= np.isin(picks[pi], oracle_reference.twist_root_slots(nodes, pi)
                                .get(bi, ()))
        counts["decided"] += int(decided.sum())
        counts["below_ties"] += int((~same[ji]).sum())
        counts["on_edges"] += int((same[ji] & edge[ji]).sum())
    for ji, joint in enumerate(skeleton.joints):
        if joint.dof:
            gap = np.abs((rows[joint.name] - ref_rows[joint.name] + math.pi)
                         % (2 * math.pi) - math.pi).max(axis=1)
            assert gap[same[ji] & ~edge[ji]].max(initial=0.0) <= 1e-12, joint.name
            assert gap[same[ji] & edge[ji]].max(initial=0.0) <= 1e-6, joint.name
    for name in skeleton.bone_names:
        assert bend[name] == pytest.approx(ref_bend[name], abs=1e-9), name
    counts["lines_differ"] = sum(a != b for a, b in zip(text.splitlines(),
                                                         ref_text.splitlines()))
    return counts


@pytest.mark.parametrize("pose", ["rebuilt", "disturbed", "noisy"])
def test_export_amc_matches_the_per_frame_reference(skeleton, small_corpus, pose):
    if pose == "rebuilt":     # uniform W=5 on every window of the small corpus
        cases = []
        for rec in small_corpus:
            sph = spherical.sequence_to_spherical(rec.seq)
            recon = reconstruct.reconstruct_full(
                sph, baselines.select_uniform(sph.frame_count, 5))
            cases.append((rec.skeleton, spherical.sph_to_cart(1.0, recon.theta, recon.phi),
                          recon.root_positions))
    elif pose == "disturbed":
        cases = [(skeleton, *_disturbed(skeleton, 25, 8))]
    else:
        cases = [(skeleton, *_noisy(skeleton))]
    totals = {}
    for case in cases:
        for key, value in export_differential(*case).items():
            totals[key] = totals.get(key, 0) + value
    print(pose, totals)
    assert totals["decided"] > 0


def test_written_motion_crosses_a_pole(small_corpus):
    # the rebuilt theta of lfoot leaves [0, pi] in w00035 (uc, W=5): the
    # written pose reads back as (-theta, phi + pi), a bone within `bend`
    # of its rebuilt direction whose angle error counts up to pi of phi
    rec = next(r for r in small_corpus if r.window_id == "w00035")
    sph = spherical.sequence_to_spherical(rec.seq)
    keys = baselines.select_uniform(sph.frame_count, 5)
    recon = reconstruct.reconstruct_full(sph, keys)
    foot = rec.skeleton.bone_names.index("lfoot")
    assert recon.theta[:, foot].min() < 0.0
    targets = spherical.sph_to_cart(1.0, recon.theta, recon.phi)
    text, bend = asfamc.export_amc(rec.skeleton, targets, recon.root_positions)
    written = spherical.sequence_to_spherical(forward_kinematics(
        rec.skeleton, asfamc.parse_amc(text, rec.skeleton), dt=sph.dt))
    dirs = spherical.sph_to_cart(1.0, written.theta, written.phi)
    # the text holds 10 significant digits of degrees: about 1e-9 rad a channel
    assert np.all(_angles(dirs, targets).max(axis=0)
                  <= np.array([bend[name] for name in rec.skeleton.bone_names]) + 1e-8)
    # ... and reads back across the pole: phi turned by about pi
    pole = recon.theta[:, foot] < 0.0
    assert pole.sum() == 4
    assert np.all(angle_distance(written.phi[pole, foot], recon.phi[pole, foot]) > 3.0)
    # so the angle error of the written tracks is not the printed one
    printed = q_error(sph, keys)
    read_back = float((angle_distance(written.theta, sph.theta)
                       + angle_distance(written.phi, sph.phi)).sum()) / written.theta.size
    assert printed == pytest.approx(0.068376, abs=1e-6)
    assert read_back - printed == pytest.approx(0.007251, abs=1e-6)


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
    bi = skeleton.bone_names.index("ltibia")
    zero = dirs.copy()
    zero[2, bi] = 0.0
    with pytest.raises(NumericError, match="joint 'ltibia' frame 2"):
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


@pytest.mark.parametrize("case", ["comment", "no comment", "radians", "percent name"])
def test_export_amc_writes_the_reference_text(skeleton, case):
    # the one-template writer against the reference writer, byte for byte:
    # comment lines, an empty comment (no '#' line), a :RADIANS skeleton
    # (rotation values written as they are) and a joint name with '%' in it
    if case == "radians":
        skeleton = dataclasses.replace(skeleton, angle_in_degrees=False)
    elif case == "percent name":
        skeleton = dataclasses.replace(skeleton, joints=tuple(
            dataclasses.replace(j, name=j.name.replace("femur", "%sfemur%"))
            for j in skeleton.joints))
    comment = "window w00001\nuc W=5" if case == "comment" else ""
    dirs, root = _fk(skeleton, synthcorpus.make_raw_motion(skeleton, 24, 2))
    text, _ = asfamc.export_amc(skeleton, dirs, root, comment=comment)
    unit = dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
    rows, _ = asfamc._pose_channels(skeleton, unit, root)
    assert text == oracle_reference.format_amc_reference(skeleton, rows, 2, comment)
    lines = text.splitlines()
    assert lines[:lines.index(":FULLY-SPECIFIED")] == (
        ["# window w00001", "# uc W=5"] if comment else [])
    assert (":RADIANS" in lines) == (case == "radians")
    back = asfamc.parse_amc(text, skeleton)
    for name, values in rows.items():
        assert np.allclose(back.channels[name], values, rtol=1e-9, atol=1e-12), name
