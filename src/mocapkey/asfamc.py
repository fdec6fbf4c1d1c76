"""ASF/AMC motion-capture text formats.

Parses Acclaim skeleton (ASF) and motion (AMC) files following the CMU
database conventions, and writes AMC back out from world-space bone
directions via per-bone inverse kinematics.

Conventions used throughout:
  * all angles are radians internally; degree conversion happens only at
    the parse/export boundary,
  * bone lengths and root translations are multiplied by the ASF
    ``:units length`` scale,
  * a joint's world rotation is ``R_parent @ C @ M @ C^-1`` where ``C`` is
    the bone's axis matrix and ``M`` the Euler rotation built from its dof
    channels (applied in axis order),
  * a child joint sits at ``parent_position + R_joint @ (length * direction)``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedAsf, MalformedAmc, UnreachablePose

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
_ROTATION_DOF = ("rx", "ry", "rz")
# every known dof channel, with its column in the export's per-joint rows
_CHANNEL_COLUMN = {"tx": 0, "ty": 1, "tz": 2, "rx": 3, "ry": 4, "rz": 5, "l": 6}
_EYE = np.eye(3)


# ---------------------------------------------------------------------------
# Euler rotation helpers
# ---------------------------------------------------------------------------

def single_axis_matrix(axis: int, angle):
    """Rotation matrix about a coordinate axis; broadcasts over angle arrays."""
    if isinstance(angle, float):      # np.float64 too: skips numpy's per-call cost
        c, s, shape = math.cos(angle), math.sin(angle), ()
    else:
        angle = np.asarray(angle, dtype=np.float64)
        c, s, shape = np.cos(angle), np.sin(angle), angle.shape
    out = np.zeros(shape + (3, 3))
    i = axis
    j, k = (i + 1) % 3, (i + 2) % 3
    out[..., i, i] = 1.0
    out[..., j, j] = c
    out[..., k, k] = c
    out[..., k, j] = s
    out[..., j, k] = -s
    return out

def euler_matrix(angles, order: str):
    """Compose rotations about ``order``'s axes, first axis applied first.

    ``euler_matrix((ax, ay, az), "XYZ")`` returns ``Rz @ Ry @ Rx``.
    Broadcasts: ``angles`` of shape (..., 3) yields (..., 3, 3).
    """
    angles = np.asarray(angles, dtype=np.float64)
    order = order.lower()
    result = single_axis_matrix(_AXIS_INDEX[order[0]], angles[..., 0])
    for pos in range(1, len(order)):
        step = single_axis_matrix(_AXIS_INDEX[order[pos]], angles[..., pos])
        result = step @ result
    return result

def euler_from_matrix(rot: np.ndarray, order: str) -> np.ndarray:
    """Invert :func:`euler_matrix` for a proper rotation and 3-axis order."""
    order = order.lower()
    i, j, k = (_AXIS_INDEX[a] for a in order)
    # parity of the axis permutation flips the sine terms
    eps = 1.0 if (j - i) % 3 == 1 else -1.0
    sin_b = -eps * rot[k, i]
    sin_b = min(1.0, max(-1.0, sin_b))
    beta = math.asin(sin_b)
    if abs(rot[k, i]) < 1.0 - 1e-12:
        alpha = math.atan2(eps * rot[k, j], rot[k, k])
        gamma = math.atan2(eps * rot[j, i], rot[i, i])
    else:
        # gimbal lock: fix gamma = 0 and recover alpha from the remainder
        gamma = 0.0
        rem = single_axis_matrix(j, beta).T @ rot
        a2, a3 = (i + 1) % 3, (i + 2) % 3
        alpha = math.atan2(rem[a3, a2], rem[a2, a2])
    return np.array([alpha, beta, gamma])


# ---------------------------------------------------------------------------
# Skeleton model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Joint:
    """One entry of the skeleton; index 0 of Skeleton.joints is the root."""
    name: str
    parent: int | None            # index into Skeleton.joints; None for the root
    direction: np.ndarray         # unit vector from parent's end (zeros for root)
    length: float                 # scaled bone length; 0.0 for the root
    axis: np.ndarray              # local axis Euler angles, radians
    axis_order: str               # e.g. "XYZ"
    dof: tuple[str, ...]          # channel names in AMC value order
    limits: tuple[tuple[float, float], ...] = ()

    @property
    def rotation_dof(self) -> tuple[str, ...]:
        return tuple(d for d in self.dof if d in _ROTATION_DOF)


@dataclass(frozen=True)
class Skeleton:
    """Joint hierarchy in topological order (root first)."""
    joints: tuple[Joint, ...]
    name: str = ""
    length_scale: float = 1.0
    angle_in_degrees: bool = True
    root_position: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not self.joints or self.joints[0].parent is not None:
            raise MalformedAsf("skeleton must start with a parentless root")
        for idx, joint in enumerate(self.joints[1:], start=1):
            if joint.parent is None or not 0 <= joint.parent < idx:
                raise MalformedAsf(
                    f"joint '{joint.name}' is not in topological order")
            if joint.length <= 0.0:
                raise MalformedAsf(f"joint '{joint.name}' has non-positive length")
            if abs(np.linalg.norm(joint.direction) - 1.0) > 1e-6:
                raise MalformedAsf(f"joint '{joint.name}' direction is not unit")

    @property
    def root(self) -> Joint:
        return self.joints[0]

    @property
    def bone_names(self) -> tuple[str, ...]:
        return tuple(j.name for j in self.joints[1:])

    @property
    def bone_lengths(self) -> np.ndarray:
        return np.array([j.length for j in self.joints[1:]])

    def index(self, name: str) -> int:
        for i, j in enumerate(self.joints):
            if j.name == name:
                return i
        raise KeyError(name)

    def axis_matrix(self, joint: Joint) -> np.ndarray:
        return euler_matrix(joint.axis, joint.axis_order)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "length_scale": self.length_scale,
            "angle_in_degrees": self.angle_in_degrees,
            "root_position": self.root_position.tolist(),
            "joints": [
                {
                    "name": j.name,
                    "parent": j.parent,
                    "direction": j.direction.tolist(),
                    "length": j.length,
                    "axis": j.axis.tolist(),
                    "axis_order": j.axis_order,
                    "dof": list(j.dof),
                    "limits": [list(pair) for pair in j.limits],
                }
                for j in self.joints
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Skeleton":
        joints = tuple(
            Joint(
                name=j["name"],
                parent=j["parent"],
                direction=np.array(j["direction"], dtype=np.float64),
                length=float(j["length"]),
                axis=np.array(j["axis"], dtype=np.float64),
                axis_order=j["axis_order"],
                dof=tuple(j["dof"]),
                limits=tuple(tuple(pair) for pair in j["limits"]),
            )
            for j in data["joints"]
        )
        return cls(
            joints=joints,
            name=data.get("name", ""),
            length_scale=float(data.get("length_scale", 1.0)),
            angle_in_degrees=bool(data.get("angle_in_degrees", True)),
            root_position=np.array(data.get("root_position", [0, 0, 0]), dtype=np.float64),
        )


@dataclass(frozen=True)
class RawMotion:
    """Per-frame channel values parsed from an AMC file (rotations in radians)."""
    frame_count: int
    channels: dict[str, np.ndarray]   # joint name -> (N, n_dof)


# ---------------------------------------------------------------------------
# ASF parsing
# ---------------------------------------------------------------------------

def _read_lines(source) -> list[str]:
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    return text.splitlines()


class _BoneDraft:
    def __init__(self, line_no: int):
        self.line_no = line_no
        self.name = None
        self.direction = None
        self.length = None
        self.axis = np.zeros(3)
        self.axis_order = "XYZ"
        self.dof: tuple[str, ...] = ()
        self.limits: list[tuple[float, float]] = []


def parse_asf(source) -> Skeleton:
    """Parse an ASF document into a Skeleton.

    Requires the ``:units``, ``:root``, ``:bonedata`` and ``:hierarchy``
    sections; raises MalformedAsf naming the offending line otherwise.
    """
    lines = _read_lines(source)
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    name = ""
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(":"):
            parts = line[1:].split(None, 1)
            current = parts[0].lower()
            sections[current] = []
            if current == "name" and len(parts) > 1:
                name = parts[1].strip()
            continue
        if current is not None:
            sections[current].append((no, line))

    for required in ("units", "root", "bonedata", "hierarchy"):
        if required not in sections:
            raise MalformedAsf(f"line {len(lines)}: missing :{required} section")

    length_scale = 1.0
    degrees = True
    for no, line in sections["units"]:
        parts = line.split()
        if len(parts) < 2:
            continue
        key = parts[0].lower()
        if key == "length":
            length_scale = _numbers(parts, 1, no)[0]
        elif key == "angle":
            degrees = parts[1].lower().startswith("deg")

    def to_rad(values):
        arr = np.asarray(values, dtype=np.float64)
        return np.deg2rad(arr) if degrees else arr

    # --- :root ---
    root_order: tuple[str, ...] = ("tx", "ty", "tz", "rx", "ry", "rz")
    root_axis_order = "XYZ"
    root_orientation = np.zeros(3)
    root_position = np.zeros(3)
    for no, line in sections["root"]:
        parts = line.split()
        key = parts[0].lower()
        if key == "order":
            tokens = tuple(t.lower() for t in parts[1:])
            for t in tokens:
                if t not in _CHANNEL_COLUMN:
                    raise MalformedAsf(f"line {no}: unknown root channel '{t}'")
            root_order = tokens
        elif key == "axis":
            root_axis_order = _word(parts, no).upper()
            if sorted(root_axis_order.lower()) != ["x", "y", "z"]:
                raise MalformedAsf(f"line {no}: root axis order "
                                   f"'{root_axis_order}' is not a permutation of XYZ")
        elif key == "orientation":
            root_orientation = to_rad(_numbers(parts, 3, no))
        elif key == "position":
            root_position = np.array(_numbers(parts, 3, no))

    # --- :bonedata ---
    drafts: dict[str, _BoneDraft] = {}
    order_of_decl: list[str] = []
    bone = None
    pending_limits = 0
    for no, line in sections["bonedata"]:
        parts = line.split()
        key = parts[0].lower()
        if key == "begin":
            bone = _BoneDraft(no)
            pending_limits = 0
            continue
        if key == "end":
            if bone is None or bone.name is None:
                raise MalformedAsf(f"line {no}: bone block without a name")
            drafts[bone.name] = bone
            order_of_decl.append(bone.name)
            bone = None
            continue
        if bone is None:
            raise MalformedAsf(f"line {no}: bone data outside begin/end block")
        if pending_limits > 0 and line.startswith("("):
            lo, hi = _parse_limit_pair(line, no)
            bone.limits.append((float(to_rad(lo)), float(to_rad(hi))))
            pending_limits -= 1
            continue
        if key == "id":
            continue
        elif key == "name":
            bone.name = _word(parts, no)
        elif key == "direction":
            bone.direction = np.array(_numbers(parts, 3, no))
        elif key == "length":
            bone.length = _numbers(parts, 1, no)[0]
        elif key == "axis":
            bone.axis = to_rad(_numbers(parts, 3, no))
            if len(parts) > 4:
                bone.axis_order = parts[4].upper()
                if sorted(bone.axis_order.lower()) != ["x", "y", "z"]:
                    raise MalformedAsf(f"line {no}: bad axis order '{parts[4]}'")
        elif key == "dof":
            tokens = tuple(t.lower() for t in parts[1:])
            for t in tokens:
                if t not in _CHANNEL_COLUMN:
                    raise MalformedAsf(f"line {no}: unknown dof token '{t}'")
            bone.dof = tokens
        elif key == "limits":
            pending_limits = len(bone.dof)
            rest = line[len(parts[0]):].strip()
            if rest:
                lo, hi = _parse_limit_pair(rest, no)
                bone.limits.append((float(to_rad(lo)), float(to_rad(hi))))
                pending_limits -= 1
        elif key in ("bodymass", "cofmass"):
            continue
        else:
            raise MalformedAsf(f"line {no}: unknown bone attribute '{parts[0]}'")

    # --- :hierarchy ---
    children: dict[str, list[str]] = {"root": []}
    for n in order_of_decl:
        children[n] = []
    parent_of: dict[str, str] = {}
    in_block = False
    for no, line in sections["hierarchy"]:
        token = line.split()[0].lower()
        if token == "begin":
            in_block = True
            continue
        if token == "end":
            in_block = False
            continue
        if not in_block:
            raise MalformedAsf(f"line {no}: hierarchy data outside begin/end")
        parts = line.split()
        parent = parts[0]
        if parent != "root" and parent not in drafts:
            raise MalformedAsf(f"line {no}: hierarchy references undeclared bone '{parent}'")
        for child in parts[1:]:
            if child not in drafts:
                raise MalformedAsf(f"line {no}: hierarchy references undeclared bone '{child}'")
            if child in parent_of:
                raise MalformedAsf(f"line {no}: bone '{child}' has two parents")
            parent_of[child] = parent
            children[parent].append(child)

    for n in order_of_decl:
        if n not in parent_of:
            raise MalformedAsf(f"line {drafts[n].line_no}: bone '{n}' is declared "
                               "but never attached in :hierarchy")

    # breadth-first order from the root gives the topological joint list
    root_joint = Joint(
        name="root",
        parent=None,
        direction=np.zeros(3),
        length=0.0,
        axis=root_orientation,
        axis_order=root_axis_order,
        dof=root_order,
    )
    joints = [root_joint]
    index_of = {"root": 0}
    queue = list(children["root"])
    while queue:
        bone_name = queue.pop(0)
        draft = drafts[bone_name]
        if draft.direction is None or draft.length is None:
            raise MalformedAsf(
                f"line {draft.line_no}: bone '{bone_name}' missing direction or length")
        norm = np.linalg.norm(draft.direction)
        if norm <= 0.0:
            raise MalformedAsf(f"line {draft.line_no}: bone '{bone_name}' has zero direction")
        length = draft.length * length_scale
        if length <= 0.0:
            raise MalformedAsf(f"line {draft.line_no}: bone '{bone_name}' has non-positive length")
        joints.append(Joint(
            name=bone_name,
            parent=index_of[parent_of[bone_name]],
            direction=draft.direction / norm,
            length=length,
            axis=np.asarray(draft.axis, dtype=np.float64),
            axis_order=draft.axis_order,
            dof=draft.dof,
            limits=tuple(draft.limits),
        ))
        index_of[bone_name] = len(joints) - 1
        queue.extend(children[bone_name])

    if len(joints) != len(order_of_decl) + 1:
        missing = set(order_of_decl) - set(index_of)
        raise MalformedAsf(f"hierarchy does not reach bones: {sorted(missing)}")

    return Skeleton(
        joints=tuple(joints),
        name=name,
        length_scale=length_scale,
        angle_in_degrees=degrees,
        root_position=root_position * 1.0,
    )


def _word(parts: list[str], line_no: int) -> str:
    """The value token after a keyword token."""
    if len(parts) < 2:
        raise MalformedAsf(f"line {line_no}: '{parts[0]}' without a value")
    return parts[1]


def _numbers(parts: list[str], count: int, line_no: int) -> list[float]:
    """The ``count`` finite numbers after a keyword token."""
    try:
        values = [float(v) for v in parts[1:count + 1]]
    except ValueError:
        values = []
    if len(values) < count or not all(map(math.isfinite, values)):
        raise MalformedAsf(f"line {line_no}: '{parts[0]}' needs {count} finite "
                           f"number(s), got '{' '.join(parts[1:])}'")
    return values


def _parse_limit_pair(text: str, line_no: int) -> tuple[float, float]:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise MalformedAsf(f"line {line_no}: malformed limits '{text}'")
    parts = body[1:-1].split()
    try:
        lo, hi = (float(v) for v in parts)
    except ValueError:
        raise MalformedAsf(f"line {line_no}: malformed limits '{text}'") from None
    return lo, hi


# ---------------------------------------------------------------------------
# AMC parsing
# ---------------------------------------------------------------------------

def parse_amc(source, skeleton: Skeleton) -> RawMotion:
    """Parse an AMC document against a skeleton.

    Frames must be numbered 1..N without gaps; every listed joint must
    exist in the skeleton with a matching channel count. Rotation values
    are converted to radians when the file is in degrees (the default and
    the CMU convention; an explicit ``:RADIANS`` header disables it).
    """
    lines = _read_lines(source)
    degrees = True
    by_name = {j.name: j for j in skeleton.joints}
    rows = {j.name: ([], []) for j in skeleton.joints}   # frames, value tokens
    n = 0
    for no, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        parts = raw.split()
        if not parts:
            continue
        head = parts[0]
        if head.startswith(":"):
            header = raw.strip()[1:].strip().upper()
            if header == "DEGREES":
                degrees = True
            elif header == "RADIANS":
                degrees = False
            continue
        if len(parts) == 1 and _is_int(head):
            if int(head) != n + 1:
                raise _amc_error(lines, no - 1, f"line {no}: frame {int(head)} follows "
                                 f"frame {n} (frames must be contiguous from 1)")
            n += 1
            continue
        if n == 0:
            raise _amc_error(lines, no - 1,
                             f"line {no}: channel data before the first frame number")
        joint = by_name.get(head)
        if joint is None:
            raise _amc_error(lines, no - 1, f"line {no}: unknown joint '{head}'")
        tokens = parts[1:]
        if len(tokens) != len(joint.dof):
            raise _amc_error(lines, no, f"line {no}: joint '{head}' has "
                             f"{len(tokens)} values, expected {len(joint.dof)}")
        rows[head][0].append(n)
        rows[head][1].append(tokens)

    if not n:
        raise MalformedAmc("no frames found")

    channels: dict[str, np.ndarray] = {}
    for joint in skeleton.joints:
        if not joint.dof:
            continue
        frames, values = rows[joint.name]
        data = np.zeros((n, len(joint.dof)))
        if values:
            try:
                block = np.array(values, dtype=np.float64)
            except ValueError:
                block = None
            if block is None or not np.isfinite(block).all():
                raise _amc_error(lines, len(lines), "")
            at = np.array(frames) - 1
            last = np.append(at[1:] != at[:-1], True)   # repeats: last row wins
            data[at[last]] = block[last]
        if degrees:
            for ci, ch in enumerate(joint.dof):
                if ch in _ROTATION_DOF:
                    data[:, ci] = np.deg2rad(data[:, ci])
        channels[joint.name] = data
    return RawMotion(frame_count=n, channels=channels)


def _amc_error(lines: list[str], scanned: int, error: str) -> MalformedAmc:
    """``error``, unless one of the first ``scanned`` lines holds a
    non-numeric or non-finite channel value: the first bad line of the
    file wins."""
    for no, raw in enumerate(lines[:scanned], start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts or parts[0].startswith(":"):
            continue
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError:
            return MalformedAmc(f"line {no}: non-numeric channel value")
        if not all(map(math.isfinite, values)):
            return MalformedAmc(f"line {no}: non-finite channel value")
    return MalformedAmc(error)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Rotations and root path for forward kinematics
# ---------------------------------------------------------------------------

def local_rotations(skeleton: Skeleton, joint: Joint, raw: RawMotion) -> np.ndarray:
    """Per-frame local rotation ``C @ M @ C^-1`` for one joint, shape (N, 3, 3)."""
    n = raw.frame_count
    values = raw.channels.get(joint.name)
    rot_channels = [d for d in joint.dof if d in _ROTATION_DOF]
    if values is None or not rot_channels:
        return np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    angles = np.zeros((n, 3))
    for ci, ch in enumerate(joint.dof):
        if ch in _ROTATION_DOF:
            angles[:, _AXIS_INDEX[ch[1]]] = values[:, ci]
    ordered = angles[:, [_AXIS_INDEX[a] for a in joint.axis_order.lower()]]
    m = euler_matrix(ordered, joint.axis_order)
    c = skeleton.axis_matrix(joint)
    return c @ m @ c.T


def root_track(skeleton: Skeleton, raw: RawMotion) -> np.ndarray:
    """World root positions (N, 3) from the root translation channels."""
    root = skeleton.root
    values = raw.channels.get(root.name)
    n = raw.frame_count
    positions = np.broadcast_to(skeleton.root_position, (n, 3)).copy()
    if values is not None:
        for ci, ch in enumerate(root.dof):
            if ch in ("tx", "ty", "tz"):
                positions[:, _AXIS_INDEX[ch[1]]] += values[:, ci] * skeleton.length_scale
    return positions


# ---------------------------------------------------------------------------
# AMC export (per-bone inverse kinematics)
# ---------------------------------------------------------------------------

def export_amc(skeleton: Skeleton, directions: np.ndarray,
               root_positions: np.ndarray,
               comment: str = "") -> tuple[str, dict[str, float]]:
    """Write AMC text whose pose points every bone along the given
    world-space directions.

    ``directions`` is (N, M, 3): for each frame, the world direction of
    each bone (parent end to bone end) in ``skeleton.bone_names`` order;
    any non-zero length. ``root_positions`` is the (N, 3) root path.
    Channel angles are recovered top-down: the root rotation from its
    rigid (dof-less) children when available, otherwise by a best rigid
    fit over all children; every other joint by solving its dof rotation
    against its parent-relative direction.

    Returns the text and ``bend``: for each bone name, the largest angle
    (radians), over the frames, between its target direction and its
    direction in the written pose, by forward kinematics of the channels.
    """
    directions = np.asarray(directions, dtype=np.float64)
    root_positions = np.asarray(root_positions, dtype=np.float64)
    n, m = len(root_positions), len(skeleton.joints) - 1
    if root_positions.shape != (n, 3) or directions.shape != (n, m, 3):
        raise ValueError(f"need ({n}, {m}, 3) directions and (N, 3) root "
                         f"positions, got {directions.shape} and "
                         f"{root_positions.shape}")
    if not (np.isfinite(directions).all() and np.isfinite(root_positions).all()):
        raise ValueError("directions and root positions must be finite")
    norms = np.linalg.norm(directions, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        fi, bi = np.argwhere(norms[..., 0] == 0.0)[0]
        raise UnreachablePose(f"joint '{skeleton.bone_names[bi]}' frame {fi}: "
                              "zero-length direction")
    directions = directions / norms

    # per joint and frame: tx ty tz rx ry rz l, the columns of _CHANNEL_COLUMN
    pose = np.zeros((m + 1, n, 7))
    pose[0, :, :3] = (root_positions - skeleton.root_position) / skeleton.length_scale
    root = skeleton.root
    root_rot = _solve_root_rotation(skeleton, directions)
    if root.rotation_dof:
        c_root = skeleton.axis_matrix(root)
        for fi in range(n):
            abc = euler_from_matrix(c_root.T @ root_rot[fi] @ c_root, root.axis_order)
            for pos, axis_ch in enumerate(root.axis_order.lower()):
                pose[0, fi, 3 + _AXIS_INDEX[axis_ch]] = abc[pos]

    nodes = _build_solve_nodes(skeleton)
    tops = [idx for idx, node in enumerate(nodes) if node.parent_index is None]
    for fi in range(n):
        seen = directions[fi]
        for idx in tops:
            _, commits = _solve_subtree(nodes, idx, root_rot[fi], seen)
            for ci, rot in commits:
                committed = nodes[ci]
                abc3 = _scatter_angles(rot, committed)
                pose[ci + 1, fi, 3:6] = abc3
                if committed.twist_free:
                    committed.prev_m = _recompose(committed, abc3)

    channel_rows = {
        joint.name: values[:, [_CHANNEL_COLUMN[ch] for ch in joint.dof]]
        for joint, values in zip(skeleton.joints, pose) if joint.dof}
    # bend is measured on the pose as written: forward kinematics of the rows
    raw = RawMotion(n, channel_rows)
    world = [local_rotations(skeleton, root, raw)]
    for joint in skeleton.joints[1:]:
        world.append(world[joint.parent] @ local_rotations(skeleton, joint, raw))
    written = np.stack([rot @ joint.direction
                        for rot, joint in zip(world[1:], skeleton.joints[1:])], axis=1)
    chord = np.linalg.norm(written - directions, axis=-1).max(axis=0, initial=0.0)
    bend = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))
    return (_format_amc(skeleton, channel_rows, n, comment),
            dict(zip(skeleton.bone_names, bend.tolist())))


@dataclass
class _SolveNode:
    """Per-bone constants for the pose solve; a node's index is its bone's
    index in ``skeleton.bone_names``.

    ``twist_free`` marks joints whose own bone direction leaves a continuous
    rotation parameter open: any 3-dof joint, a 1-dof joint whose bone lies
    on its rotation axis (a pure twist joint like a wrist), or a 2-dof joint
    whose bone lies on the first rotation axis. ``cone_axis`` is set when the
    bone's reachable set is a single-axis cone, in which case the axis
    component of the target is invariant and gives the parent a closed-form
    condition on its free twist. ``bone_fixed`` joints cannot move their own
    bone at all, which pins the parent twist uniquely. ``twist_scan`` is
    False when no observation can respond to the twist (e.g. the only
    limited child is a leaf whose bone lies along this bone), making a
    search pointless. ``prev_m`` carries the previous frame's committed
    rotation as a warm start.
    """
    joint: Joint
    c: np.ndarray                 # local axis frame
    u: np.ndarray                 # rest direction in the axis frame
    ordered: tuple[str, ...]      # rotation axis letters, first applied first
    parent_index: int | None      # None when the parent is the root
    children: list[int]
    twist_free: bool = False
    cone_axis: int | None = None
    bone_fixed: bool = False
    twist_scan: bool = False
    prev_m: np.ndarray | None = None


def _build_solve_nodes(skeleton: Skeleton) -> list["_SolveNode"]:
    nodes: list[_SolveNode] = []
    for joint in skeleton.joints[1:]:
        c = skeleton.axis_matrix(joint)
        ordered = tuple(a for a in joint.axis_order.lower()
                        if f"r{a}" in joint.rotation_dof)
        node = _SolveNode(
            joint=joint, c=c, u=c.T @ joint.direction, ordered=ordered,
            parent_index=None if joint.parent == 0 else joint.parent - 1,
            children=[])
        if len(ordered) == 3:
            node.twist_free = True
        elif len(ordered) == 1:
            axis = _AXIS_INDEX[ordered[0]]
            if abs(node.u[axis]) > 1.0 - 1e-9:
                node.twist_free = True
                node.bone_fixed = True
            else:
                node.cone_axis = axis
        elif len(ordered) == 2:
            first = _AXIS_INDEX[ordered[0]]
            if abs(node.u[first]) > 1.0 - 1e-9:
                node.twist_free = True
                node.cone_axis = _AXIS_INDEX[ordered[1]]
        else:
            node.bone_fixed = True
        nodes.append(node)
        if node.parent_index is not None:
            nodes[node.parent_index].children.append(len(nodes) - 1)
    for node in nodes:
        if not node.twist_free:
            continue
        for ci in node.children:
            child = nodes[ci]
            if len(child.ordered) >= 3:
                continue
            if child.bone_fixed and not child.children:
                rest_dir = node.c.T @ (child.c @ child.u)
                if abs(float(rest_dir @ node.u)) > 1.0 - 1e-9:
                    continue
            node.twist_scan = True
    return nodes


def _solve_subtree(nodes: list["_SolveNode"], idx: int,
                   parent_rot: np.ndarray, seen: np.ndarray,
                   allow_scan: bool = True):
    """Recover the dof angles of one subtree for one frame's (M, 3) unit
    world bone directions ``seen``.

    Direction-only solving leaves free parameters (the twist of a
    ``twist_free`` joint, the two-branch ambiguity of a 2-dof joint);
    candidates are ranked by the accumulated angular residual of the whole
    subtree so the branch that keeps limited descendants reachable wins.

    The free twist of a parent only matters to children with fewer than 3
    dof (a 3-dof child absorbs it). Children whose bones live on a
    single-axis cone pin the twist in closed form; when no closed-form
    candidate lands the subtree (e.g. only generic 2-dof children constrain
    the twist) a 1-d scan runs as a fallback. Scans never nest: inner
    evaluations set ``allow_scan=False``.
    Returns (total residual, [(node index, dof rotation), ...]).
    """
    node = nodes[idx]
    t = node.c.T @ (parent_rot.T @ seen[idx])
    candidates = _dof_candidates(node.u, t, node.ordered)
    hint = None
    if node.twist_free:
        base = candidates[0]
        if node.prev_m is not None:
            hint = _twist_angle_of(node.prev_m @ base.T, t)
            candidates.append(_rodrigues(t, hint) @ base)
        for ci in node.children:
            child = nodes[ci]
            if child.bone_fixed:
                roots = _twist_from_fixed_child(nodes, idx, ci, t, base,
                                                parent_rot, seen)
            elif child.cone_axis is not None:
                roots = _twist_candidates(nodes, idx, ci, t, base,
                                          parent_rot, seen, child.cone_axis)
            else:
                continue
            candidates.extend(_rodrigues(t, psi) @ base for psi in roots)

    best = _pick_candidate(nodes, idx, parent_rot, seen, t, candidates,
                           allow_scan)
    if allow_scan and node.twist_scan and best[0] > 1e-9:
        # the twist spins the bone about itself, so the node's own residual
        # is out of the scan's reach; a branch it dooms is not worth a search
        own = _angle_between(candidates[0] @ node.u, t)
        if own < 1e-3:
            refined = _scan_twist(nodes, idx, parent_rot, seen, t,
                                  candidates[0], hint)
            if refined[0] < best[0]:
                best = refined
    return best[0], best[1]


def _pick_candidate(nodes, idx, parent_rot, seen, t, candidates,
                    allow_scan=True):
    node = nodes[idx]
    best_total = math.inf
    best_commits = None
    for m in candidates:
        residual = _angle_between(m @ node.u, t)
        total = residual
        commits = [(idx, m)]
        if node.children:
            rot = parent_rot @ node.c @ m @ node.c.T
        for ci in node.children:
            if total >= best_total:
                break
            child_total, child_commits = _solve_subtree(nodes, ci, rot, seen,
                                                        allow_scan)
            total += child_total
            commits.extend(child_commits)
        if total < best_total:
            best_total = total
            best_commits = commits
            if best_total < 1e-12:
                break
    return best_total, best_commits


def _scatter_angles(m: np.ndarray, node: "_SolveNode") -> np.ndarray:
    """Angles (indexed x, y, z) whose dof channels recompose m.

    Generic euler extraction can return the mirror branch (off-dof angles
    of pi) which breaks when non-dof channels are dropped on write, so
    joints with fewer than 3 dof read their angles off the known
    single-axis product structure instead.
    """
    out = np.zeros(3)
    ordered = node.ordered
    if len(ordered) == 3:
        abc = euler_from_matrix(m, node.joint.axis_order)
        for pos, axis_ch in enumerate(node.joint.axis_order.lower()):
            out[_AXIS_INDEX[axis_ch]] = abc[pos]
        return out
    if len(ordered) == 1:
        axis = _AXIS_INDEX[ordered[0]]
        out[axis] = _axis_angle_of(m, axis)
        return out
    if len(ordered) == 2:
        first, second = _AXIS_INDEX[ordered[0]], _AXIS_INDEX[ordered[1]]
        e_first = np.zeros(3)
        e_first[first] = 1.0
        spun = m @ e_first            # R_first leaves e_first in place
        i, j = (second + 1) % 3, (second + 2) % 3
        beta = math.atan2(e_first[i] * spun[j] - e_first[j] * spun[i],
                          e_first[i] * spun[i] + e_first[j] * spun[j])
        residue = single_axis_matrix(second, -beta) @ m
        out[first] = _axis_angle_of(residue, first)
        out[second] = beta
    return out


def _axis_angle_of(m: np.ndarray, axis: int) -> float:
    """Rotation angle of a (near) single-axis rotation matrix."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    return math.atan2(m[j, i], m[i, i])


def _recompose(node: "_SolveNode", abc3: np.ndarray) -> np.ndarray:
    m = _EYE
    for ch in node.ordered:
        axis = _AXIS_INDEX[ch]
        m = single_axis_matrix(axis, abc3[axis]) @ m
    return m


def _twist_candidates(nodes, idx, child_idx, t, m0, parent_rot, seen, axis):
    """Twist angles psi about the solved bone direction that land a child's
    target exactly on its reachable cone about coordinate ``axis``.

    With M(psi) = R_t(psi) @ m0 the child's axis-frame target component along
    the cone axis is A cos(psi) + B sin(psi) + D; matching the rest-direction
    component gives up to two closed-form solutions.
    """
    node = nodes[idx]
    child = nodes[child_idx]
    e_axis = np.zeros(3)
    e_axis[axis] = 1.0
    g = node.c.T @ (parent_rot.T @ seen[child_idx])
    w = m0 @ node.c.T @ (child.c @ e_axis)
    tg = float(t @ g)
    wt = float(w @ t)
    a = float(w @ g) - tg * wt
    b = -float(w @ _cross(t, g))
    d = tg * wt
    rhs = float(child.u[axis]) - d
    r = math.hypot(a, b)
    if r < 1e-12:
        return []
    base = math.atan2(b, a)
    span = math.acos(max(-1.0, min(1.0, rhs / r)))
    return [base + span, base - span]


def _twist_from_fixed_child(nodes, idx, child_idx, t, m0, parent_rot, seen):
    """Twist psi aligning a child bone that the child's own dof cannot
    move. Such a bone is rigid in this joint's frame, so matching its
    observed direction pins the twist uniquely."""
    node = nodes[idx]
    child = nodes[child_idx]
    g = node.c.T @ (parent_rot.T @ seen[child_idx])
    w = m0 @ (node.c.T @ (child.c @ child.u))
    cos_part = float(w @ g) - float(w @ t) * float(g @ t)
    sin_part = float(t @ _cross(w, g))
    if math.hypot(cos_part, sin_part) < 1e-12:
        return []
    return [math.atan2(sin_part, cos_part)]


def _twist_angle_of(rel: np.ndarray, t: np.ndarray) -> float:
    """Rotation angle of rel about axis t (projection when rel is only
    approximately a t-rotation, e.g. a previous-frame warm start)."""
    cos = 0.5 * (rel[0, 0] + rel[1, 1] + rel[2, 2] - 1.0)
    skew = 0.5 * np.array([rel[2, 1] - rel[1, 2],
                           rel[0, 2] - rel[2, 0],
                           rel[1, 0] - rel[0, 1]])
    return math.atan2(float(skew @ t), cos)


def _scan_twist(nodes, idx, parent_rot, seen, t, m0, hint=None):
    """Coarse grid then golden-section search of the twist angle minimizing
    the subtree residual; fallback for targets no closed-form candidate
    resolves (e.g. the twist is only pinned by 2-dof children).

    A previous-frame ``hint`` is refined locally first; the full-circle grid
    only runs when that fails to land the subtree.
    """
    def total_at(psi: float):
        return _pick_candidate(nodes, idx, parent_rot, seen, t,
                               [_rodrigues(t, float(psi)) @ m0], False)

    if hint is not None:
        local = _golden_min(total_at, hint - 0.25, hint + 0.25, 45)
        if local[0] < 1e-9:
            return local
    grid = np.linspace(-math.pi, math.pi, 48, endpoint=False)
    best_psi = min(grid, key=lambda p: total_at(p)[0])
    step = 2.0 * math.pi / 48
    return _golden_min(total_at, best_psi - step, best_psi + step, 60)


def _golden_min(fn, lo: float, hi: float, iterations: int):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = fn(c)[0], fn(d)[0]
    for _ in range(iterations):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = fn(c)[0]
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = fn(d)[0]
    return fn(0.5 * (lo + hi))


def _solve_root_rotation(skeleton: Skeleton, directions: np.ndarray) -> np.ndarray:
    """Per-frame root rotation (N, 3, 3) fitted to the unit directions of
    the root's rigid children, or of all its children when none is rigid."""
    children = [bi for bi, j in enumerate(skeleton.joints[1:]) if j.parent == 0]
    rigid = [bi for bi in children if not skeleton.joints[bi + 1].rotation_dof]
    observed = rigid or children
    if not skeleton.root.rotation_dof or not observed:
        return np.broadcast_to(_EYE, (len(directions), 3, 3)).copy()
    rest = np.stack([skeleton.joints[bi + 1].direction for bi in observed])
    return np.stack([_kabsch(rest, seen) for seen in directions[:, observed]])


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d vector by its own formula, minus the dispatch."""
    return math.sqrt(v.dot(v))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, term for term."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _unit(v: np.ndarray) -> np.ndarray:
    norm = _norm(v)
    return v / norm if norm > 0 else v


def _kabsch(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Best rotation (least squares) taking each source vector to its target."""
    h = targets.T @ sources
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _dof_candidates(u: np.ndarray, t: np.ndarray,
                    ordered: tuple[str, ...]) -> list[np.ndarray]:
    """Rotations about the dof axes taking unit u as close to unit t as
    possible, best first. One- and zero-dof joints have a unique answer;
    two-dof joints may have two branches; three-dof joints get the minimal
    rotation (their twist freedom is resolved by the caller)."""
    if not ordered:
        return [_EYE.copy()]
    if len(ordered) == 3:
        return [_minimal_rotation(u, t)]
    if len(ordered) == 1:
        return [_solve_one_axis(u, t, _AXIS_INDEX[ordered[0]])]
    first, second = _AXIS_INDEX[ordered[0]], _AXIS_INDEX[ordered[1]]
    return _solve_two_axes(u, t, first, second)


def _angle_between(a: np.ndarray, b: np.ndarray) -> float:
    # chord form: full precision near zero where acos(dot) floors at ~1e-8
    half = 0.5 * _norm(_unit(a) - _unit(b))
    return 2.0 * math.asin(min(1.0, half))


def _minimal_rotation(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Smallest rotation taking unit u to unit t (Rodrigues)."""
    axis = _cross(u, t)
    s = _norm(axis)
    c = min(1.0, max(-1.0, float(u.dot(t))))
    if s < 1e-12:
        if c > 0:
            return _EYE.copy()
        # antiparallel: rotate pi about any axis orthogonal to u
        helper = np.array([1.0, 0.0, 0.0])
        if abs(u[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = _unit(_cross(u, helper))
        return _rodrigues(axis, math.pi)
    return _rodrigues(axis / s, math.atan2(s, c))


def _rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis.tolist()
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return _EYE + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _solve_one_axis(u: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """Best rotation about one coordinate axis taking u toward t."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    up = np.array([u[i], u[j]])
    tp = np.array([t[i], t[j]])
    if _norm(up) < 1e-12 or _norm(tp) < 1e-12:
        return _EYE.copy()
    angle = math.atan2(tp[1], tp[0]) - math.atan2(up[1], up[0])
    return single_axis_matrix(axis, angle)


def _solve_two_axes(u: np.ndarray, t: np.ndarray, first: int,
                    second: int) -> list[np.ndarray]:
    """Rotations R_second(beta) @ R_first(alpha) taking u toward t, ranked
    by (residual, |alpha|).

    The component of the rotated vector along the second axis depends only
    on alpha, giving A cos(alpha) + B sin(alpha) = t[second]; beta then
    aligns the projections in the plane orthogonal to the second axis.
    """
    e_first = np.zeros(3)
    e_first[first] = 1.0
    a = u[second]
    b = _cross(e_first, u)[second]
    d = t[second]
    r = math.hypot(a, b)
    base = math.atan2(b, a)
    if r < 1e-12:
        alphas = [0.0]
    elif abs(d) <= r:
        delta = math.acos(max(-1.0, min(1.0, d / r)))
        alphas = [base + delta, base - delta]
    else:
        # unreachable axial component; best effort at the extremum
        alphas = [base if d > 0 else base + math.pi]
    ranked = []
    for alpha in alphas:
        ra = single_axis_matrix(first, alpha)
        w = ra @ u
        rb = _solve_one_axis(w, t, second)
        m = rb @ ra
        ranked.append((_angle_between(m @ u, t), abs(alpha), m))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return [m for _, _, m in ranked]


def _format_amc(skeleton: Skeleton, channel_rows: dict[str, np.ndarray],
                n: int, comment: str) -> str:
    out = io.StringIO()
    if comment:
        for line in comment.splitlines():
            out.write(f"# {line}\n")
    out.write(":FULLY-SPECIFIED\n")
    out.write(":DEGREES\n" if skeleton.angle_in_degrees else ":RADIANS\n")
    lines = []             # (name, rows as lists, degree flag per channel)
    for joint in (j for j in skeleton.joints if j.dof):
        lines.append((joint.name, channel_rows[joint.name].tolist(),
                      [skeleton.angle_in_degrees and ch in _ROTATION_DOF
                       for ch in joint.dof]))
    for fi in range(n):
        out.write(f"{fi + 1}\n")
        for name, rows, turn in lines:
            printed = " ".join(f"{math.degrees(v) if deg else v:.10g}"
                               for v, deg in zip(rows[fi], turn))
            out.write(f"{name} {printed}\n")
    return out.getvalue()
