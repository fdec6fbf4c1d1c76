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

from .errors import MalformedAsf, MalformedAmc, UnreachablePose, checked

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
_AXIS_ORDERS = frozenset({"XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"})
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
        for idx, joint in enumerate(self.joints):
            where = f"joint '{joint.name}'"
            _axis_order(joint.axis_order, where)
            _dof(list(joint.dof), where)
            if idx:     # a bone: its parent comes first (topological order)
                checked(joint.parent, f"{where} parent", int, MalformedAsf, low=0, high=idx - 1)
                checked(joint.length, f"{where} length", float, MalformedAsf, above=0)
                if abs(np.linalg.norm(joint.direction) - 1.0) > 1e-6:
                    raise MalformedAsf(f"{where} direction is not unit")

    @property
    def root(self) -> Joint:
        return self.joints[0]

    @property
    def bone_names(self) -> tuple[str, ...]:
        return tuple(j.name for j in self.joints[1:])

    @property
    def bone_parents(self) -> tuple[int, ...]:
        """Each bone's parent bone as an index into ``bone_names``; -1 is the root."""
        return tuple(j.parent - 1 for j in self.joints[1:])

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
        """The skeleton that :meth:`to_dict` gave as ``data``; raises
        MalformedAsf naming the first field that holds anything else
        (:meth:`__post_init__` checks the parents, axis orders and dof)."""
        def get(obj, key, kind, where="", default=None, **limits):  # number lists: arrays
            value = checked(obj.get(key, default), where + key, kind, MalformedAsf, **limits)
            return np.array(value, dtype=np.float64) if kind == list[float] else value

        joints = []
        for i, j in enumerate(get(checked(data, "skeleton", dict, MalformedAsf), "joints",
                                  list[dict])):
            at = f"joints[{i}] "
            joints.append(Joint(
                name=get(j, "name", str, at),
                parent=j.get("parent"),
                direction=get(j, "direction", list[float], at, size=3),
                length=get(j, "length", float, at),
                axis=get(j, "axis", list[float], at, size=3),
                axis_order=j.get("axis_order"),
                dof=tuple(get(j, "dof", list, at)),
                limits=tuple(tuple(checked(pair, f"{at}limits[{k}]", list[float],
                                           MalformedAsf, size=2, finite=False))
                             for k, pair in enumerate(get(j, "limits", list, at))),
            ))
        return cls(
            joints=tuple(joints),
            name=get(data, "name", str, default=""),
            length_scale=get(data, "length_scale", float, default=1.0, above=0),
            angle_in_degrees=get(data, "angle_in_degrees", bool, default=True),
            root_position=get(data, "root_position", list[float], default=[0, 0, 0], size=3),
        )


@dataclass(frozen=True)
class RawMotion:
    """Per-frame channel values parsed from an AMC file (rotations in radians)."""
    frame_count: int
    channels: dict[str, np.ndarray]   # joint name -> (N, n_dof)


# ---------------------------------------------------------------------------
# ASF parsing
# ---------------------------------------------------------------------------

def _read_text(source) -> str:
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    return text


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
    lines = _read_text(source).splitlines()
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    name = ""
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(":"):
            parts = line[1:].split(None, 1)
            if not parts:
                raise MalformedAsf(f"line {no}: ':' without a section name")
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
            root_order = _dof([t.lower() for t in parts[1:]], f"line {no}:")
        elif key == "axis":
            root_axis_order = _axis_order(_word(parts, no).upper(), f"line {no}:")
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
                bone.axis_order = _axis_order(parts[4].upper(), f"line {no}:")
        elif key == "dof":
            bone.dof = _dof([t.lower() for t in parts[1:]], f"line {no}:")
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


def _axis_order(order: str, where: str) -> str:    # a permutation of XYZ
    return checked(order, f"{where} axis_order", str, MalformedAsf, among=_AXIS_ORDERS)


def _dof(tokens: list[str], where: str) -> tuple[str, ...]:    # known channels
    return tuple(checked(tokens, f"{where} dof", list[str], MalformedAsf,
                         among=_CHANNEL_COLUMN))


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
    the CMU convention; an explicit ``:RADIANS`` header disables it). Each
    line is checked as it is read, so the first bad line is the one named.
    """
    text = _read_text(source)
    regular = _parse_regular_amc(text, skeleton)
    if regular is not None:
        return regular
    degrees = True
    by_name = {j.name: j for j in skeleton.joints}
    rows = {j.name: {} for j in skeleton.joints}   # frame index -> values
    n = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(":"):
            degrees = _angle_unit(line, degrees)
            continue
        head, *tokens = line.split()
        if not tokens:
            try:
                frame = int(head)
            except ValueError:
                pass
            else:
                if frame != n + 1:
                    raise MalformedAmc(f"line {no}: frame {frame} follows frame {n} "
                                       "(frames must be contiguous from 1)")
                n = frame
                continue
        if n == 0:
            raise MalformedAmc(f"line {no}: channel data before the first frame number")
        joint = by_name.get(head)
        if joint is None:
            raise MalformedAmc(f"line {no}: unknown joint '{head}'")
        try:
            values = [float(v) for v in tokens]
        except ValueError:
            raise MalformedAmc(f"line {no}: non-numeric channel value") from None
        if not all(map(math.isfinite, values)):
            raise MalformedAmc(f"line {no}: non-finite channel value")
        if len(values) != len(joint.dof):
            raise MalformedAmc(f"line {no}: joint '{head}' has "
                               f"{len(values)} values, expected {len(joint.dof)}")
        rows[head][n - 1] = values     # a joint listed twice a frame: last row wins
    if not n:
        raise MalformedAmc("no frames found")
    blocks = {name: (list(got), list(got.values())) for name, got in rows.items() if got}
    return _raw_motion(skeleton, n, degrees, blocks)


def _parse_regular_amc(text: str, skeleton: Skeleton) -> RawMotion | None:
    """``parse_amc`` in one pass over the text, for the layout that CMU
    files and the synthetic corpus write: after the header, frames "1".."N"
    each list the same joints in the same order, one joint per line, with
    single spaces, LF line ends and no comments. None for any other text,
    which the line loop then parses to the same result or error."""
    start = 0 if text.startswith("1\n") else text.find("\n1\n") + 1
    body = text[start:]
    if not body.startswith("1\n") or "#" in body:
        return None
    degrees = True
    for raw in text[:start].splitlines():
        line = raw.split("#", 1)[0].strip()
        if line and not line.startswith(":"):
            return None
        degrees = _angle_unit(line, degrees)
    tokens = body.split()
    by_name = {j.name: j for j in skeleton.joints}
    # frame 1 gives the layout: (joint, column of its first value); a name
    # starting with ':' would be a header line to the line loop
    layout = []
    width = 1
    while width < len(tokens) and tokens[width] != "2":
        joint = by_name.get(tokens[width])
        if joint is None or not joint.dof or joint.name.startswith(":"):
            return None
        layout.append((joint, width + 1))
        width += 1 + len(joint.dof)
    n = len(tokens) // width
    if (n * width != len(tokens) or len({j.name for j, _ in layout}) != len(layout)
            or tokens[::width] != [str(f) for f in range(1, n + 1)]
            or any(tokens[c - 1::width].count(j.name) != n for j, c in layout)):
        return None
    # exactly one separator after each token, and as many spaces between
    # LFs as each line of the layout has: then every separator is a space
    # or an LF, and each line holds the layout's tokens
    octets = np.frombuffer(body.encode("utf-8", "surrogatepass"), np.uint8)
    spaces = np.searchsorted(np.flatnonzero(octets == 32), np.flatnonzero(octets == 10))
    if (len(body) != len("".join(tokens)) + len(tokens)
            or not np.array_equal(np.diff(spaces, prepend=0),
                                  np.tile([0] + [len(j.dof) for j, _ in layout], n))):
        return None
    columns = {j.name: [tokens[c + k::width] for k in range(len(j.dof))]
               for j, c in layout}
    del tokens
    try:
        blocks = {name: (slice(None), np.array(cols, dtype=np.float64).T)
                  for name, cols in columns.items()}
    except ValueError:
        return None
    if not all(np.isfinite(block).all() for _, block in blocks.values()):
        return None
    return _raw_motion(skeleton, n, degrees, blocks)


def _angle_unit(line: str, degrees: bool) -> bool:
    """Whether rotation values are in degrees after the stripped header
    line ``line``: ``:DEGREES`` and ``:RADIANS`` set it, others keep it."""
    return {"DEGREES": True, "RADIANS": False}.get(line[1:].strip().upper(), degrees)


def _raw_motion(skeleton: Skeleton, n: int, degrees: bool,
                blocks: dict[str, tuple]) -> RawMotion:
    """Channels from each listed joint's (frame rows, values) block; a
    joint listed in no frame is all zeros."""
    channels: dict[str, np.ndarray] = {}
    for joint in skeleton.joints:
        if not joint.dof:
            continue
        data = np.zeros((n, len(joint.dof)))
        if joint.name in blocks:
            at, block = blocks[joint.name]
            data[at] = block
        if degrees:
            for ci, ch in enumerate(joint.dof):
                if ch in _ROTATION_DOF:
                    data[:, ci] = np.deg2rad(data[:, ci])
        channels[joint.name] = data
    return RawMotion(frame_count=n, channels=channels)


# ---------------------------------------------------------------------------
# Rotations and root path for forward kinematics
# ---------------------------------------------------------------------------

def local_rotations(skeleton: Skeleton, joint: Joint, raw: RawMotion) -> np.ndarray:
    """Per-frame local rotation ``C @ M @ C^-1`` for one joint, shape (N, 3, 3)."""
    n = raw.frame_count
    values = raw.channels.get(joint.name)
    if values is None or not joint.rotation_dof:
        return np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    angles = np.zeros((n, 3))
    for ci, ch in enumerate(joint.dof):
        if ch in _ROTATION_DOF:
            angles[:, _AXIS_INDEX[ch[1]]] = values[:, ci]
    ordered = angles[:, [_AXIS_INDEX[a] for a in joint.axis_order.lower()]]
    m = euler_matrix(ordered, joint.axis_order)
    c = skeleton.axis_matrix(joint)
    return c @ m @ c.T


def world_rotations(skeleton: Skeleton, raw: RawMotion) -> list[np.ndarray]:
    """Per-frame world rotations (N, 3, 3) of every joint, root first."""
    world = [local_rotations(skeleton, skeleton.root, raw)]
    for joint in skeleton.joints[1:]:
        world.append(world[joint.parent] @ local_rotations(skeleton, joint, raw))
    return world


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
            pose[0, fi, 3:6] = _euler_channels(c_root.T @ root_rot[fi] @ c_root,
                                               root.axis_order)

    # a 3-dof joint can take any rotation that points its bone, so its
    # subtree's best fit does not depend on the joints above it: it starts
    # a solve of its own once its parent is committed
    nodes = _build_solve_nodes(skeleton)
    tops = [idx for idx, node in enumerate(nodes)
            if node.joint.parent == 0 or len(node.ordered) == 3]
    world = [_EYE] * (m + 1)      # one frame's committed world rotations, by joint
    for fi in range(n):
        world[0] = root_rot[fi]
        for idx in tops:
            _, commits = _solve_subtree(nodes, idx, world[nodes[idx].joint.parent],
                                        directions[fi])
            for ci, rot in commits:
                node = nodes[ci]
                world[ci + 1] = world[node.joint.parent] @ node.c @ rot @ node.c.T
                pose[ci + 1, fi, 3:6] = _scatter_angles(rot, node)

    channel_rows = {
        joint.name: values[:, [_CHANNEL_COLUMN[ch] for ch in joint.dof]]
        for joint, values in zip(skeleton.joints, pose) if joint.dof}
    # bend is measured on the pose as written: forward kinematics of the rows
    world = world_rotations(skeleton, RawMotion(n, channel_rows))
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

    ``children`` lists the child bones with fewer than 3 dof: a 3-dof child
    absorbs any rotation of this joint, so it starts a solve of its own and
    does not rank this joint's candidates. ``twist_free`` marks joints whose
    own bone direction leaves a continuous rotation parameter open: any
    3-dof joint, a 1-dof joint whose bone lies on its rotation axis (a pure
    twist joint like a wrist), or a 2-dof joint whose bone lies on the first
    rotation axis. ``band`` is (axis, lo, hi) for a 1- or 2-dof joint that
    can move its bone: the joint's last rotation leaves the unit ``axis``
    fixed, and the bone lands its target exactly when the target's
    component along that axis lies in [lo, hi] (a single-axis cone is the
    band [u[axis], u[axis]]). ``bone_fixed`` joints cannot move their own
    bone at all, which pins the parent twist uniquely.
    """
    joint: Joint
    c: np.ndarray                 # local axis frame
    u: np.ndarray                 # rest direction in the axis frame
    ordered: tuple[str, ...]      # rotation axis letters, first applied first
    children: list[int]
    twist_free: bool = False
    band: tuple[int, float, float] | None = None
    bone_fixed: bool = False


def _build_solve_nodes(skeleton: Skeleton) -> list["_SolveNode"]:
    nodes: list[_SolveNode] = []
    for joint in skeleton.joints[1:]:
        c = skeleton.axis_matrix(joint)
        ordered = tuple(a for a in joint.axis_order.lower()
                        if f"r{a}" in joint.rotation_dof)
        node = _SolveNode(joint=joint, c=c, u=c.T @ joint.direction,
                          ordered=ordered, children=[])
        if len(ordered) == 3:
            node.twist_free = True
        elif len(ordered) == 1:
            axis = _AXIS_INDEX[ordered[0]]
            if abs(node.u[axis]) > 1.0 - 1e-9:
                node.twist_free = True
                node.bone_fixed = True
            else:
                v = float(node.u[axis])
                node.band = (axis, v, v)
        elif len(ordered) == 2:
            first, second = _AXIS_INDEX[ordered[0]], _AXIS_INDEX[ordered[1]]
            node.twist_free = abs(node.u[first]) > 1.0 - 1e-9
            # R_first sweeps the bone's component along the second axis
            # over [-r, r], the reach of _solve_two_axes
            r = math.hypot(node.u[second], _cross(_EYE[first], node.u)[second])
            node.band = (second, -r, r)
        else:
            node.bone_fixed = True
        nodes.append(node)
        if joint.parent != 0 and len(ordered) < 3:
            nodes[joint.parent - 1].children.append(len(nodes) - 1)
    return nodes


def _solve_subtree(nodes: list["_SolveNode"], idx: int,
                   parent_rot: np.ndarray, seen: np.ndarray):
    """Recover the dof angles of one subtree for one frame's (M, 3) unit
    world bone directions ``seen``, below a parent whose world rotation is
    ``parent_rot``.

    Direction-only solving leaves free parameters (the twist of a
    ``twist_free`` joint, the two-branch ambiguity of a 2-dof joint);
    candidates are ranked by the summed angular residual of the joint and
    of its ``children``' subtrees, the joints a candidate can move, so the
    branch that keeps limited descendants reachable wins.

    The twist turns the joint about its solved bone direction. Each child
    turns the twist into candidates in closed form: the one twist that
    points a ``bone_fixed`` child's bone along its target, or the edges of
    the twist range over which a ``band`` child lands its target.
    Returns (total residual, [(node index, dof rotation), ...]) with each
    node before its children.
    """
    node = nodes[idx]
    t = node.c.T @ (parent_rot.T @ seen[idx])
    candidates = _dof_candidates(node.u, t, node.ordered)
    if node.twist_free and node.children:
        base = candidates[0]
        spin = _unit(base @ node.u)
        for ci in node.children:
            roots = _twist_candidates(nodes, idx, ci, spin, base, parent_rot, seen)
            candidates.extend(_rodrigues(spin, psi) @ base for psi in roots)

    best_total = math.inf
    best_commits = None
    for m in candidates:
        total = _angle_between(m @ node.u, t)
        commits = [(idx, m)]
        if node.children:
            rot = parent_rot @ node.c @ m @ node.c.T
        for ci in node.children:
            if total >= best_total:
                break
            child_total, child_commits = _solve_subtree(nodes, ci, rot, seen)
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
    ordered = node.ordered
    if len(ordered) == 3:
        return _euler_channels(m, node.joint.axis_order)
    out = np.zeros(3)
    if len(ordered) == 1:
        axis = _AXIS_INDEX[ordered[0]]
        out[axis] = _axis_angle_of(m, axis)
        return out
    if len(ordered) == 2:
        first, second = _AXIS_INDEX[ordered[0]], _AXIS_INDEX[ordered[1]]
        e_first = _EYE[first]
        spun = m @ e_first            # R_first leaves e_first in place
        i, j = (second + 1) % 3, (second + 2) % 3
        beta = math.atan2(e_first[i] * spun[j] - e_first[j] * spun[i],
                          e_first[i] * spun[i] + e_first[j] * spun[j])
        residue = single_axis_matrix(second, -beta) @ m
        out[first] = _axis_angle_of(residue, first)
        out[second] = beta
    return out


def _euler_channels(m: np.ndarray, axis_order: str) -> np.ndarray:
    """Angles (indexed x, y, z) of the ``axis_order`` Euler triple of m."""
    out = np.zeros(3)
    out[[_AXIS_INDEX[a] for a in axis_order.lower()]] = euler_from_matrix(m, axis_order)
    return out


def _axis_angle_of(m: np.ndarray, axis: int) -> float:
    """Rotation angle of a (near) single-axis rotation matrix."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    return math.atan2(m[j, i], m[i, i])


def _twist_candidates(nodes, idx, child_idx, spin, m0, parent_rot, seen):
    """Twist angles psi about the unit ``spin`` axis that land a child.

    With M(psi) = R_spin(psi) @ m0, a vector w fixed in this joint's frame
    turns to M(psi) @ w, whose component along g, the child's target in
    this joint's axis frame, is A cos(psi) + B sin(psi) + D. A
    ``bone_fixed`` child's bone is such a w and must point along g: the
    maximum, one root. A ``band`` child's axis is such a w, and the child
    lands while the component lies in [lo, hi]: the roots are the edges of
    that twist range, up to four. An edge out of the component's range
    clips to its nearest extremum, the best effort when the band is missed.
    """
    node = nodes[idx]
    child = nodes[child_idx]
    local = child.u if child.bone_fixed else _EYE[child.band[0]]
    g = node.c.T @ (parent_rot.T @ seen[child_idx])
    w = m0 @ (node.c.T @ (child.c @ local))
    d = float(spin @ w) * float(spin @ g)
    a = float(w @ g) - d
    b = float(spin @ _cross(w, g))
    r = math.hypot(a, b)
    if r < 1e-12:
        return []
    base = math.atan2(b, a)
    if child.bone_fixed:
        return [base]
    roots = []
    for edge in dict.fromkeys(child.band[1:]):
        span = math.acos(max(-1.0, min(1.0, (edge - d) / r)))
        roots += [base + span, base - span]
    return roots


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
    by (residual rounded to 1e-12, |alpha|): residuals that differ only by
    rounding tie, so noise does not swap mirror branches.

    The component of the rotated vector along the second axis depends only
    on alpha, giving A cos(alpha) + B sin(alpha) = t[second]; beta then
    aligns the projections in the plane orthogonal to the second axis.
    """
    a = u[second]
    b = _cross(_EYE[first], u)[second]
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
    ranked.sort(key=lambda item: (round(item[0], 12), item[1]))
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
