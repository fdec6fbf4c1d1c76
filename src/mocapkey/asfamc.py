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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MocapKeyError, NumericError, checked

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
    angle = np.asarray(angle, dtype=np.float64)
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(angle.shape + (3, 3))
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
    """Invert :func:`euler_matrix` for proper rotations (..., 3, 3) and a
    3-axis order: angles (..., 3), first axis first."""
    rot = np.asarray(rot, dtype=np.float64)
    order = order.lower()
    i, j, k = (_AXIS_INDEX[a] for a in order)
    # parity of the axis permutation flips the sine terms
    eps = 1.0 if (j - i) % 3 == 1 else -1.0
    beta = np.arcsin(np.clip(-eps * rot[..., k, i], -1.0, 1.0))
    alpha = np.arctan2(eps * rot[..., k, j], rot[..., k, k])
    gamma = np.arctan2(eps * rot[..., j, i], rot[..., i, i])
    # gimbal lock: fix gamma = 0 and recover alpha from the remainder
    locked = np.abs(rot[..., k, i]) >= 1.0 - 1e-12
    rem = np.swapaxes(single_axis_matrix(j, beta), -1, -2) @ rot
    a2, a3 = (i + 1) % 3, (i + 2) % 3
    alpha = np.where(locked, np.arctan2(rem[..., a3, a2], rem[..., a2, a2]), alpha)
    return np.stack([alpha, beta, np.where(locked, 0.0, gamma)], axis=-1)


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
            raise MocapKeyError("skeleton must start with a parentless root")
        for idx, joint in enumerate(self.joints):
            where = f"joint '{joint.name}'"
            _axis_order(joint.axis_order, where)
            _dof(list(joint.dof), where)
            if idx:     # a bone: its parent comes first (topological order)
                checked(joint.parent, f"{where} parent", int, MocapKeyError,
                        low=0, high=idx - 1)
                checked(joint.length, f"{where} length", float, MocapKeyError, above=0)
                if abs(np.linalg.norm(joint.direction) - 1.0) > 1e-6:
                    raise MocapKeyError(f"{where} direction is not unit")

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
        MocapKeyError naming the first field that holds anything else
        (:meth:`__post_init__` checks the parents, axis orders and dof)."""
        def get(obj, key, kind, where="", default=None, **limits):  # number lists: arrays
            value = checked(obj.get(key, default), where + key, kind, MocapKeyError, **limits)
            return np.array(value, dtype=np.float64) if kind == list[float] else value

        joints = []
        for i, j in enumerate(get(checked(data, "skeleton", dict, MocapKeyError), "joints",
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
                                           MocapKeyError, size=2, finite=False))
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
    sections; raises MocapKeyError naming the offending line otherwise.
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
                raise MocapKeyError(f"line {no}: ':' without a section name")
            current = parts[0].lower()
            sections[current] = []
            if current == "name" and len(parts) > 1:
                name = parts[1].strip()
            continue
        if current is not None:
            sections[current].append((no, line))

    for required in ("units", "root", "bonedata", "hierarchy"):
        if required not in sections:
            raise MocapKeyError(f"line {len(lines)}: missing :{required} section")

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
                raise MocapKeyError(f"line {no}: bone block without a name")
            drafts[bone.name] = bone
            order_of_decl.append(bone.name)
            bone = None
            continue
        if bone is None:
            raise MocapKeyError(f"line {no}: bone data outside begin/end block")
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
            raise MocapKeyError(f"line {no}: unknown bone attribute '{parts[0]}'")

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
            raise MocapKeyError(f"line {no}: hierarchy data outside begin/end")
        parts = line.split()
        parent = parts[0]
        if parent != "root" and parent not in drafts:
            raise MocapKeyError(f"line {no}: hierarchy references undeclared bone '{parent}'")
        for child in parts[1:]:
            if child not in drafts:
                raise MocapKeyError(
                    f"line {no}: hierarchy references undeclared bone '{child}'")
            if child in parent_of:
                raise MocapKeyError(f"line {no}: bone '{child}' has two parents")
            parent_of[child] = parent
            children[parent].append(child)

    for n in order_of_decl:
        if n not in parent_of:
            raise MocapKeyError(f"line {drafts[n].line_no}: bone '{n}' is declared "
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
            raise MocapKeyError(
                f"line {draft.line_no}: bone '{bone_name}' missing direction or length")
        norm = np.linalg.norm(draft.direction)
        if norm <= 0.0:
            raise MocapKeyError(f"line {draft.line_no}: bone '{bone_name}' has zero direction")
        length = draft.length * length_scale
        if length <= 0.0:
            raise MocapKeyError(
                f"line {draft.line_no}: bone '{bone_name}' has non-positive length")
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
        raise MocapKeyError(f"hierarchy does not reach bones: {sorted(missing)}")

    return Skeleton(
        joints=tuple(joints),
        name=name,
        length_scale=length_scale,
        angle_in_degrees=degrees,
        root_position=root_position * 1.0,
    )


def _axis_order(order: str, where: str) -> str:    # a permutation of XYZ
    return checked(order, f"{where} axis_order", str, MocapKeyError, among=_AXIS_ORDERS)


def _dof(tokens: list[str], where: str) -> tuple[str, ...]:    # known channels
    return tuple(checked(tokens, f"{where} dof", list[str], MocapKeyError,
                         among=_CHANNEL_COLUMN))


def _word(parts: list[str], line_no: int) -> str:
    """The value token after a keyword token."""
    if len(parts) < 2:
        raise MocapKeyError(f"line {line_no}: '{parts[0]}' without a value")
    return parts[1]


def _numbers(parts: list[str], count: int, line_no: int) -> list[float]:
    """The ``count`` finite numbers after a keyword token."""
    try:
        values = [float(v) for v in parts[1:count + 1]]
    except ValueError:
        values = []
    if len(values) < count or not all(map(math.isfinite, values)):
        raise MocapKeyError(f"line {line_no}: '{parts[0]}' needs {count} finite "
                            f"number(s), got '{' '.join(parts[1:])}'")
    return values


def _parse_limit_pair(text: str, line_no: int) -> tuple[float, float]:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise MocapKeyError(f"line {line_no}: malformed limits '{text}'")
    parts = body[1:-1].split()
    try:
        lo, hi = (float(v) for v in parts)
    except ValueError:
        raise MocapKeyError(f"line {line_no}: malformed limits '{text}'") from None
    if math.isnan(lo) or math.isnan(hi):     # an infinite limit is allowed
        raise MocapKeyError(f"line {line_no}: NaN in limits '{text}'")
    return lo, hi


# ---------------------------------------------------------------------------
# AMC parsing
# ---------------------------------------------------------------------------

def parse_amc(source, skeleton: Skeleton) -> RawMotion:
    """Parse an AMC document against a skeleton.

    Frames must be numbered 1..N without gaps and each must list the joints
    of frame 1, each once, in any order; every listed joint must exist in
    the skeleton with a matching channel count. Rotation values are
    converted to radians when the file is in degrees (the default and the
    CMU convention; an explicit ``:RADIANS`` header disables it). Each line
    is checked as it is read, so the first bad line is the one named.
    """
    text = _read_text(source)
    regular = _parse_regular_amc(text, skeleton)
    if regular is not None:
        return regular
    degrees = True
    by_name = {j.name: j for j in skeleton.joints}
    rows: dict[str, list] = {}    # frame 1's joints -> their values, frame by frame
    seen: set[str] = set()        # the joints frame n has listed so far
    n = start = 0                 # frame n starts on line `start`
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
                    raise MocapKeyError(f"line {no}: frame {frame} follows frame {n} "
                                        "(frames must be contiguous from 1)")
                _check_listed(rows, seen, n, start)
                n, start, seen = frame, no, set()
                continue
        if n == 0:
            raise MocapKeyError(f"line {no}: channel data before the first frame number")
        joint = by_name.get(head)
        if joint is None:
            raise MocapKeyError(f"line {no}: unknown joint '{head}'")
        if head in seen:
            raise MocapKeyError(f"line {no}: joint '{head}' listed twice in frame {n}")
        if n > 1 and head not in rows:
            raise MocapKeyError(f"line {no}: joint '{head}' is not listed in frame 1")
        seen.add(head)
        try:
            values = [float(v) for v in tokens]
        except ValueError:
            raise MocapKeyError(f"line {no}: non-numeric channel value") from None
        if not all(map(math.isfinite, values)):
            raise MocapKeyError(f"line {no}: non-finite channel value")
        if len(values) != len(joint.dof):
            raise MocapKeyError(f"line {no}: joint '{head}' has "
                                f"{len(values)} values, expected {len(joint.dof)}")
        rows.setdefault(head, []).append(values)
    if not n:
        raise MocapKeyError("no frames found")
    _check_listed(rows, seen, n, start)
    return _raw_motion(skeleton, n, degrees,
                       {name: np.array(got) for name, got in rows.items()})


def _check_listed(rows: dict, seen: set, n: int, line: int) -> None:
    """Raise naming ``line`` unless frame ``n`` listed every joint of frame 1."""
    missing = [name for name in rows if name not in seen]
    if missing:
        raise MocapKeyError(f"line {line}: frame {n} does not list {missing}, "
                            "which frame 1 lists")


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
        blocks = {name: np.array(cols, dtype=np.float64).T for name, cols in columns.items()}
    except ValueError:
        return None
    if not all(np.isfinite(block).all() for block in blocks.values()):
        return None
    return _raw_motion(skeleton, n, degrees, blocks)


def _angle_unit(line: str, degrees: bool) -> bool:
    """Whether rotation values are in degrees after the stripped header
    line ``line``: ``:DEGREES`` and ``:RADIANS`` set it, others keep it."""
    return {"DEGREES": True, "RADIANS": False}.get(line[1:].strip().upper(), degrees)


def _raw_motion(skeleton: Skeleton, n: int, degrees: bool,
                blocks: dict[str, np.ndarray]) -> RawMotion:
    """Channels from each listed joint's (n, dof) block of values; a joint
    listed in no frame is all zeros."""
    channels: dict[str, np.ndarray] = {}
    for joint in skeleton.joints:
        if not joint.dof:
            continue
        data = (np.ascontiguousarray(blocks[joint.name]) if joint.name in blocks
                else np.zeros((n, len(joint.dof))))
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
    Channel angles are recovered top-down, for all N frames at once: the
    root rotation from its rigid (dof-less) children when available,
    otherwise by a best rigid fit over all children; every other joint by
    solving its dof rotation against its parent-relative direction (see
    :func:`_solve_subtree`). Each frame's channels depend on that frame's
    directions alone.

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
        raise NumericError(f"joint '{skeleton.bone_names[bi]}' frame {fi}: "
                           "zero-length direction")
    directions = directions / norms

    channel_rows, _ = _pose_channels(skeleton, directions, root_positions)
    # bend is measured on the pose as written: forward kinematics of the rows
    world = world_rotations(skeleton, RawMotion(n, channel_rows))
    written = np.stack([rot @ joint.direction
                        for rot, joint in zip(world[1:], skeleton.joints[1:])], axis=1)
    chord = np.linalg.norm(written - directions, axis=-1).max(axis=0, initial=0.0)
    bend = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))
    return (_format_amc(skeleton, channel_rows, n, comment),
            dict(zip(skeleton.bone_names, bend.tolist())))


def _pose_channels(skeleton: Skeleton, directions: np.ndarray,
                   root_positions: np.ndarray):
    """Channel rows (N, dof) by joint name for (N, M, 3) unit bone
    directions, and each bone's picked candidate (N,) by node index."""
    n, m = directions.shape[:2]
    # per joint and frame: tx ty tz rx ry rz l, the columns of _CHANNEL_COLUMN
    pose = np.zeros((m + 1, n, 7))
    pose[0, :, :3] = (root_positions - skeleton.root_position) / skeleton.length_scale
    root = skeleton.root
    world = [_solve_root_rotation(skeleton, directions)] + [_EYE] * m
    if root.rotation_dof:
        c_root = skeleton.axis_matrix(root)
        pose[0, :, 3:6] = _euler_channels(c_root.T @ world[0] @ c_root, root.axis_order)

    # a 3-dof joint can take any rotation that points its bone, so its
    # subtree's best fit does not depend on the joints above it: it starts
    # a solve of its own once its parent is committed
    nodes = _build_solve_nodes(skeleton)
    picks = {}
    tops = [idx for idx, node in enumerate(nodes)
            if node.joint.parent == 0 or len(node.ordered) == 3]
    for idx in tops:
        _, commits = _solve_subtree(nodes, idx, world[nodes[idx].joint.parent][:, None],
                                    directions)
        for ci, (pick, rot) in commits.items():
            node, rot = nodes[ci], rot[:, 0]
            world[ci + 1] = world[node.joint.parent] @ node.c @ rot @ node.c.T
            pose[ci + 1, :, 3:6] = _scatter_angles(rot, node)
            picks[ci] = pick[:, 0]

    channel_rows = {
        joint.name: values[:, [_CHANNEL_COLUMN[ch] for ch in joint.dof]]
        for joint, values in zip(skeleton.joints, pose) if joint.dof}
    return channel_rows, picks


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
            r = math.hypot(node.u[second], np.cross(_EYE[first], node.u)[second])
            node.band = (second, -r, r)
        else:
            node.bone_fixed = True
        nodes.append(node)
        if joint.parent != 0 and len(ordered) < 3:
            nodes[joint.parent - 1].children.append(len(nodes) - 1)
    return nodes


def _solve_subtree(nodes: list["_SolveNode"], idx: int,
                   parent_rot: np.ndarray, seen: np.ndarray):
    """Recover the dof rotations of one subtree below Q parent world
    rotations per frame, ``parent_rot`` of shape (N, Q, 3, 3), for the
    (N, M, 3) unit world bone directions ``seen``.

    Direction-only solving leaves free parameters (the twist of a
    ``twist_free`` joint, the two-branch ambiguity of a 2-dof joint). So
    each row gets K candidates, an (N, Q, K, 3, 3) stack in a fixed order:
    the joint's own solution (the minimal rotation, the one-axis angle, or
    the 1 or 2 ranked branches of :func:`_solve_two_axes`), then each
    child's twist roots in child order (:func:`_twist_candidates`). A slot
    a row does not fill has an infinite total. The twist turns the joint
    about its solved bone direction; each child turns it into candidates
    in closed form: the one twist that points a ``bone_fixed`` child's
    bone along its target, or the edges of the twist range over which a
    ``band`` child lands its target.

    A candidate's total is its own angular residual plus the totals of its
    ``children``' subtrees, the joints it can move, each solved for all
    N * Q * K candidate rotations. Per row the pick is the first candidate
    whose total is below 1e-12, else the least total, ties to the first,
    so the branch that keeps limited descendants reachable wins.

    Returns (total (N, Q), {node index: (pick (N, Q), dof rotation
    (N, Q, 3, 3))}) with each node before its children.
    """
    node = nodes[idx]
    n, q = parent_rot.shape[:2]
    t = _axis_frame_target(node, parent_rot, seen[:, idx])
    cands, valid = _dof_candidates(node.u, t, node.ordered)
    if node.twist_free and node.children:
        base = cands[:, :, 0]
        spin = _unit(base @ node.u)
        turns, fills = [cands], [valid]
        for ci in node.children:
            psi, ok = _twist_candidates(nodes, idx, ci, spin, base, parent_rot, seen)
            turns.append(_rodrigues(spin[:, :, None], psi) @ base[:, :, None])
            fills.append(ok)
        cands, valid = np.concatenate(turns, axis=2), np.concatenate(fills, axis=2)
    k = cands.shape[2]
    total = np.where(valid, _angle_between(cands @ node.u, t[:, :, None]), math.inf)
    below = {}
    if node.children:
        rot = (parent_rot[:, :, None] @ node.c @ cands @ node.c.T).reshape(n, q * k, 3, 3)
        for ci in node.children:
            child_total, child_commits = _solve_subtree(nodes, ci, rot, seen)
            total += child_total.reshape(n, q, k)
            below.update(child_commits)
    exact = total < 1e-12
    pick = np.where(exact.any(axis=2), exact.argmax(axis=2), total.argmin(axis=2))
    # flat row r * K + pick of the (N, Q, K) candidates, and of the
    # children's (N, Q * K) rows, is row r's picked candidate
    row = np.arange(n * q).reshape(n, q) * k + pick
    commits = {idx: (pick, cands.reshape(-1, 3, 3)[row])}
    for ci, (child_pick, child_rot) in below.items():
        commits[ci] = (child_pick.reshape(-1)[row], child_rot.reshape(-1, 3, 3)[row])
    return total.reshape(-1)[row], commits


def _axis_frame_target(node: "_SolveNode", parent_rot: np.ndarray,
                       world_dir: np.ndarray) -> np.ndarray:
    """``node.c.T @ parent_rot.T @ world_dir`` for (N, Q, 3, 3) parent
    rotations and (N, 3) world directions: (N, Q, 3)."""
    return (world_dir[:, None, None, :] @ parent_rot @ node.c)[:, :, 0]


def _scatter_angles(m: np.ndarray, node: "_SolveNode") -> np.ndarray:
    """Angles (..., 3) (indexed x, y, z) whose dof channels recompose the
    (..., 3, 3) rotations m.

    Generic euler extraction can return the mirror branch (off-dof angles
    of pi) which breaks when non-dof channels are dropped on write, so
    joints with fewer than 3 dof read their angles off the known
    single-axis product structure instead.
    """
    ordered = node.ordered
    if len(ordered) == 3:
        return _euler_channels(m, node.joint.axis_order)
    out = np.zeros(m.shape[:-2] + (3,))
    if len(ordered) == 1:
        axis = _AXIS_INDEX[ordered[0]]
        out[..., axis] = _axis_angle_of(m, axis)
    elif len(ordered) == 2:
        first, second = _AXIS_INDEX[ordered[0]], _AXIS_INDEX[ordered[1]]
        spun = m[..., first]          # R_first leaves e_first in place
        i, j = (second + 1) % 3, (second + 2) % 3
        e_first = _EYE[first]
        beta = np.arctan2(e_first[i] * spun[..., j] - e_first[j] * spun[..., i],
                          e_first[i] * spun[..., i] + e_first[j] * spun[..., j])
        residue = single_axis_matrix(second, -beta) @ m
        out[..., first] = _axis_angle_of(residue, first)
        out[..., second] = beta
    return out


def _euler_channels(m: np.ndarray, axis_order: str) -> np.ndarray:
    """Angles (..., 3) (indexed x, y, z) of the ``axis_order`` Euler
    triples of the (..., 3, 3) rotations m."""
    out = np.zeros(m.shape[:-2] + (3,))
    out[..., [_AXIS_INDEX[a] for a in axis_order.lower()]] = euler_from_matrix(m, axis_order)
    return out


def _axis_angle_of(m: np.ndarray, axis: int) -> np.ndarray:
    """Rotation angles of (near) single-axis rotation matrices (..., 3, 3)."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    return np.arctan2(m[..., j, i], m[..., i, i])


def _twist_candidates(nodes, idx, child_idx, spin, m0, parent_rot, seen):
    """Twist angles psi about the unit ``spin`` axes that land a child:
    (N, Q, R) angles and the (N, Q, R) mask of those that exist, for
    (N, Q, 3) axes, (N, Q, 3, 3) untwisted rotations ``m0`` and parent
    rotations, and (N, M, 3) world directions ``seen``.

    With M(psi) = R_spin(psi) @ m0, a vector w fixed in this joint's frame
    turns to M(psi) @ w, whose component along g, the child's target in
    this joint's axis frame, is A cos(psi) + B sin(psi) + D. A
    ``bone_fixed`` child's bone is such a w and must point along g: the
    maximum, one root. A ``band`` child's axis is such a w, and the child
    lands while the component lies in [lo, hi]: the roots are the edges of
    that twist range, base + span before base - span for each distinct
    edge, up to four. An edge out of the component's range clips to its
    nearest extremum, the best effort when the band is missed. A row whose
    component does not turn (R below 1e-12) has no root.
    """
    node = nodes[idx]
    child = nodes[child_idx]
    local = child.u if child.bone_fixed else _EYE[child.band[0]]
    g = _axis_frame_target(node, parent_rot, seen[:, child_idx])
    w = m0 @ (node.c.T @ (child.c @ local))
    d = _dot(spin, w) * _dot(spin, g)
    a = _dot(w, g) - d
    b = _dot(spin, np.cross(w, g))
    r = np.hypot(a, b)
    base = np.arctan2(b, a)[..., None]
    if child.bone_fixed:
        return base, (r >= 1e-12)[..., None]
    edges = np.array(list(dict.fromkeys(child.band[1:])))
    ratio = (edges - d[..., None]) / np.where(r < 1e-12, 1.0, r)[..., None]
    span = np.arccos(np.clip(ratio, -1.0, 1.0))
    roots = np.stack([base + span, base - span], axis=-1).reshape(r.shape + (-1,))
    return roots, np.broadcast_to((r >= 1e-12)[..., None], roots.shape)


def _solve_root_rotation(skeleton: Skeleton, directions: np.ndarray) -> np.ndarray:
    """Per-frame root rotation (N, 3, 3) fitted to the unit directions of
    the root's rigid children, or of all its children when none is rigid."""
    children = [bi for bi, j in enumerate(skeleton.joints[1:]) if j.parent == 0]
    rigid = [bi for bi in children if not skeleton.joints[bi + 1].rotation_dof]
    observed = rigid or children
    if not skeleton.root.rotation_dof or not observed:
        return np.broadcast_to(_EYE, (len(directions), 3, 3)).copy()
    rest = np.stack([skeleton.joints[bi + 1].direction for bi in observed])
    return _kabsch(rest, directions[:, observed])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of (..., 3) vectors."""
    return np.einsum("...i,...i->...", a, b)


def _unit(v: np.ndarray) -> np.ndarray:
    """Vectors (..., 3) scaled to unit length; zero vectors stay zero."""
    norm = np.sqrt(_dot(v, v))[..., None]
    return v / np.where(norm > 0, norm, 1.0)


def _kabsch(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Best rotation (least squares) taking each (B, 3) source vector to
    its target, for each (..., B, 3) stack of targets: (..., 3, 3)."""
    u, _, vt = np.linalg.svd(np.swapaxes(targets, -1, -2) @ sources)
    flip = np.ones(u.shape[:-1])
    flip[..., 2] = np.sign(np.linalg.det(u @ vt))
    return (u * flip[..., None, :]) @ vt


def _dof_candidates(u: np.ndarray, t: np.ndarray, ordered: tuple[str, ...]):
    """Rotations (..., K, 3, 3) about the dof axes taking unit u as close
    to the unit targets t (..., 3) as possible, best first, and the
    (..., K) mask of those that exist. One- and zero-dof joints have a
    unique answer; two-dof joints may have two branches; three-dof joints
    get the minimal rotation (their twist freedom is resolved by the
    caller)."""
    if len(ordered) == 2:
        return _solve_two_axes(u, t, _AXIS_INDEX[ordered[0]], _AXIS_INDEX[ordered[1]])
    if not ordered:
        m = np.broadcast_to(_EYE, t.shape[:-1] + (3, 3))
    elif len(ordered) == 3:
        m = _minimal_rotation(u, t)
    else:
        m = _solve_one_axis(u, t, _AXIS_INDEX[ordered[0]])
    return m[..., None, :, :], np.ones(t.shape[:-1] + (1,), dtype=bool)


def _angle_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # chord form: full precision near zero where acos(dot) floors at ~1e-8
    d = _unit(a) - _unit(b)
    return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * np.sqrt(_dot(d, d))))


def _minimal_rotation(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Smallest rotations (..., 3, 3) taking unit u to the unit targets t
    (..., 3) (Rodrigues); an antiparallel target turns pi about an axis
    orthogonal to u."""
    axis = np.cross(u, t)
    s = np.sqrt(_dot(axis, axis))
    c = np.clip(t @ u, -1.0, 1.0)
    still = s < 1e-12
    axis = axis / np.where(still, 1.0, s)[..., None]
    if still.any():          # a target (anti)parallel to u: any axis orthogonal to u
        helper = _EYE[1] if abs(u[0]) > 0.9 else _EYE[0]
        axis = np.where(still[..., None], _unit(np.cross(u, helper)), axis)
    angle = np.where(still, np.where(c > 0, 0.0, math.pi), np.arctan2(s, c))
    return _rodrigues(axis, angle)


def _rodrigues(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rotations (..., 3, 3) by ``angle`` (...) about unit ``axis`` (..., 3)."""
    x, y, z = axis[..., 0], axis[..., 1], axis[..., 2]
    k = np.zeros(np.broadcast_shapes(x.shape, np.shape(angle)) + (3, 3))
    k[..., 0, 1], k[..., 0, 2], k[..., 1, 2] = -z, y, -x
    k[..., 1, 0], k[..., 2, 0], k[..., 2, 1] = z, -y, x
    angle = np.asarray(angle)[..., None, None]
    return _EYE + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _solve_one_axis(u: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """Best rotations (..., 3, 3) about one coordinate axis taking u
    toward t (both (..., 3)); the identity where either has no component
    off the axis."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    ui, uj, ti, tj = u[..., i], u[..., j], t[..., i], t[..., j]
    flat = (np.sqrt(ui * ui + uj * uj) < 1e-12) | (np.sqrt(ti * ti + tj * tj) < 1e-12)
    angle = np.where(flat, 0.0, np.arctan2(tj, ti) - np.arctan2(uj, ui))
    return single_axis_matrix(axis, angle)


def _solve_two_axes(u: np.ndarray, t: np.ndarray, first: int, second: int):
    """Rotations R_second(beta) @ R_first(alpha) taking u toward the
    targets t (..., 3): a (..., K, 3, 3) stack ranked per row by (residual
    rounded to 1e-12, |alpha|), so that residuals that differ only by
    rounding tie and noise does not swap mirror branches, and the
    (..., K) mask of branches that exist. K is 1 when u lies on the first
    axis, else 2; a row reaches its target on two branches or, where it
    cannot, on one.

    The component of the rotated vector along the second axis depends only
    on alpha, giving A cos(alpha) + B sin(alpha) = t[second]; beta then
    aligns the projections in the plane orthogonal to the second axis.
    """
    a = u[second]
    b = np.cross(_EYE[first], u)[second]
    d = t[..., second]
    r = math.hypot(a, b)
    base = math.atan2(b, a)
    if r < 1e-12:
        alphas = np.zeros(d.shape + (1,))
        valid = np.ones(alphas.shape, dtype=bool)
    else:
        reach = np.abs(d) <= r
        delta = np.arccos(np.clip(d / r, -1.0, 1.0))
        # unreachable axial component; best effort at the extremum
        alphas = np.stack([np.where(reach, base + delta,
                                    np.where(d > 0, base, base + math.pi)),
                           base - delta], axis=-1)
        valid = np.stack([np.ones_like(reach), reach], axis=-1)
    ra = single_axis_matrix(first, alphas)
    t = t[..., None, :]
    m = _solve_one_axis(ra @ u, t, second) @ ra
    if alphas.shape[-1] == 2:
        key, size = np.round(_angle_between(m @ u, t), 12), np.abs(alphas)
        swap = valid[..., 1] & ((key[..., 1] < key[..., 0])
                                | ((key[..., 1] == key[..., 0]) & (size[..., 1] < size[..., 0])))
        m = np.where(swap[..., None, None, None], m[..., ::-1, :, :], m)
    return m, valid


def _format_amc(skeleton: Skeleton, channel_rows: dict[str, np.ndarray],
                n: int, comment: str) -> str:
    degrees = skeleton.angle_in_degrees
    joints = [j for j in skeleton.joints if j.dof]
    # one % template per frame: its number, then one line per dof joint
    frame = "%d\n" + "".join(j.name.replace("%", "%%") + " %.10g" * len(j.dof) + "\n"
                             for j in joints)
    values = np.hstack([np.zeros((n, 0))] + [
        np.where([degrees and ch in _ROTATION_DOF for ch in j.dof],
                 np.degrees(channel_rows[j.name]), channel_rows[j.name])
        for j in joints])
    head = "".join(f"# {line}\n" for line in comment.splitlines())
    head += ":FULLY-SPECIFIED\n" + (":DEGREES\n" if degrees else ":RADIANS\n")
    return head + "".join(frame % (fi, *row) for fi, row in enumerate(values.tolist(), 1))
