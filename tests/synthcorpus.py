"""Deterministic synthetic motion corpus on a humanoid skeleton.

Tests that need many realistic multi-joint windows use this instead of
shipping capture data. The skeleton is emitted as ASF text and parsed by
the real parser; channel tracks mix sinusoids with smooth sigmoid
transients so motion has localized events, not one global period. Tracks
can be rendered as AMC text that parses back to the same numbers.
"""

from __future__ import annotations

import io

import numpy as np

from mocapkey.asfamc import RawMotion, Skeleton, parse_amc, parse_asf
from mocapkey.dataset import write_dataset
from mocapkey.motion import (CMU_EXCLUDED_JOINTS, SOURCE_FPS, STRIDE, WINDOW_LEN,
                             filter_joints, forward_kinematics, preprocess)

# name, parent, direction, asf length, axis degrees, dof tokens
_BONES = (
    ("lhipjoint",  "root",      (0.60, -0.75, 0.28), 2.40, (0, 0, 0),      ()),
    ("lfemur",     "lhipjoint", (0.34, -0.94, 0.00), 7.00, (0, 0, 20),     ("rx", "ry", "rz")),
    ("ltibia",     "lfemur",    (0.34, -0.94, 0.00), 7.30, (0, 0, 20),     ("rx",)),
    ("lfoot",      "ltibia",    (0.06, -0.23, 0.97), 2.20, (-90, 0, 20),   ("rx", "rz")),
    ("ltoes",      "lfoot",     (0.00, -0.16, 0.99), 1.10, (-90, 0, 20),   ("rx",)),
    ("rhipjoint",  "root",      (-0.60, -0.75, 0.28), 2.40, (0, 0, 0),     ()),
    ("rfemur",     "rhipjoint", (-0.34, -0.94, 0.00), 7.00, (0, 0, -20),   ("rx", "ry", "rz")),
    ("rtibia",     "rfemur",    (-0.34, -0.94, 0.00), 7.30, (0, 0, -20),   ("rx",)),
    ("rfoot",      "rtibia",    (-0.06, -0.23, 0.97), 2.20, (-90, 0, -20), ("rx", "rz")),
    ("rtoes",      "rfoot",     (0.00, -0.16, 0.99), 1.10, (-90, 0, -20),  ("rx",)),
    ("lowerback",  "root",      (0.00, 1.00, -0.05), 2.00, (0, 0, 0),      ("rx", "ry", "rz")),
    ("upperback",  "lowerback", (0.00, 1.00, 0.02), 2.10, (0, 0, 0),       ("rx", "ry", "rz")),
    ("thorax",     "upperback", (0.00, 1.00, 0.01), 2.10, (0, 0, 0),       ("rx", "ry", "rz")),
    ("lowerneck",  "thorax",    (0.00, 1.00, -0.10), 1.60, (0, 0, 0),      ("rx", "ry", "rz")),
    ("upperneck",  "lowerneck", (0.00, 1.00, 0.05), 1.60, (0, 0, 0),       ("rx", "ry", "rz")),
    ("head",       "upperneck", (0.00, 1.00, 0.03), 1.70, (0, 0, 0),       ("rx", "ry", "rz")),
    ("lclavicle",  "thorax",    (0.90, 0.30, 0.00), 3.40, (0, 0, 0),       ("ry", "rz")),
    ("lhumerus",   "lclavicle", (1.00, 0.00, 0.00), 5.20, (180, 30, 90),   ("rx", "ry", "rz")),
    ("lradius",    "lhumerus",  (1.00, 0.00, 0.00), 3.60, (180, 30, 90),   ("rx",)),
    ("lwrist",     "lradius",   (1.00, 0.00, 0.00), 1.80, (0, 30, -90),    ("ry",)),
    ("lhand",      "lwrist",    (1.00, 0.00, 0.00), 1.20, (0, 0, 0),       ("rx", "rz")),
    ("lfingers",   "lhand",     (1.00, 0.00, 0.00), 0.90, (0, 0, 0),       ("rx",)),
    ("lthumb",     "lwrist",    (0.70, 0.00, 0.70), 1.00, (0, 0, 45),      ("rx", "rz")),
    ("rclavicle",  "thorax",    (-0.90, 0.30, 0.00), 3.40, (0, 0, 0),      ("ry", "rz")),
    ("rhumerus",   "rclavicle", (-1.00, 0.00, 0.00), 5.20, (180, -30, -90), ("rx", "ry", "rz")),
    ("rradius",    "rhumerus",  (-1.00, 0.00, 0.00), 3.60, (180, -30, -90), ("rx",)),
    ("rwrist",     "rradius",   (-1.00, 0.00, 0.00), 1.80, (0, -30, 90),   ("ry",)),
    ("rhand",      "rwrist",    (-1.00, 0.00, 0.00), 1.20, (0, 0, 0),      ("rx", "rz")),
    ("rfingers",   "rhand",     (-1.00, 0.00, 0.00), 0.90, (0, 0, 0),      ("rx",)),
    ("rthumb",     "rwrist",    (-0.70, 0.00, 0.70), 1.00, (0, 0, -45),    ("rx", "rz")),
)


def skeleton_text() -> str:
    lines = [
        "# synthetic humanoid for tests",
        ":version 1.10",
        ":name synth",
        ":units",
        "  mass 1.0",
        "  length 0.45",
        "  angle deg",
        ":documentation",
        "  generated; not captured",
        ":root",
        "  order TX TY TZ RX RY RZ",
        "  axis XYZ",
        "  position 0 0 0",
        "  orientation 0 0 0",
        ":bonedata",
    ]
    for bone_id, (name, _parent, direction, length, axis, dof) in enumerate(_BONES, 1):
        d = np.asarray(direction, dtype=np.float64)
        d = d / np.linalg.norm(d)
        lines += [
            "  begin",
            f"    id {bone_id}",
            f"    name {name}",
            f"    direction {d[0]:.10f} {d[1]:.10f} {d[2]:.10f}",
            f"    length {length:.4f}",
            f"    axis {axis[0]:g} {axis[1]:g} {axis[2]:g} XYZ",
        ]
        if dof:
            lines.append("    dof " + " ".join(dof))
            lines.append("    limits (-180.0 180.0)")
            lines.extend("           (-180.0 180.0)" for _ in dof[1:])
        lines.append("  end")
    lines.append(":hierarchy")
    lines.append("  begin")
    children: dict[str, list[str]] = {}
    for name, parent, *_ in _BONES:
        children.setdefault(parent, []).append(name)
    for parent in ["root"] + [b[0] for b in _BONES]:
        if parent in children:
            lines.append(f"    {parent} " + " ".join(children[parent]))
    lines.append("  end")
    return "\n".join(lines) + "\n"


def skeleton() -> Skeleton:
    return parse_asf(io.StringIO(skeleton_text()))


def _event_times(rng: np.random.Generator, duration: float) -> np.ndarray:
    """Whole-body event instants shared by all channels of a take."""
    count = int(rng.integers(2, 6))
    return np.sort(rng.uniform(0.1, 0.9, size=count)) * duration


def _activity_envelope(rng: np.random.Generator, t: np.ndarray,
                       events: np.ndarray) -> np.ndarray:
    """Quiet baseline with smooth bursts at the take's event instants, so
    information density varies along the take the way whole-body motion
    does."""
    env = np.full_like(t, rng.uniform(0.10, 0.25))
    for center in events:
        width = rng.uniform(0.2, 0.6)
        env = env + rng.uniform(0.6, 1.2) * np.exp(-0.5 * ((t - center) / width) ** 2)
    return env


def _smooth_jitter(rng: np.random.Generator, n: int, fps: float,
                   std: float, corr_s: float = 0.07) -> np.ndarray:
    """Fine motor texture: white noise smoothed by an exponential kernel,
    scaled to the requested standard deviation."""
    taps = max(3, int(5.0 * corr_s * fps))
    kernel = np.exp(-np.arange(taps) / (corr_s * fps))
    kernel = kernel / np.sqrt(np.sum(kernel ** 2))
    white = rng.standard_normal(n + taps)
    return std * np.convolve(white, kernel, mode="full")[taps:n + taps]


def _angle_track(rng: np.random.Generator, t: np.ndarray, env: np.ndarray,
                 events: np.ndarray, fps: float) -> np.ndarray:
    """One joint-angle channel in radians: a slow background sweep, two
    envelope-modulated mid-band sinusoids, sharp sigmoid transients pinned
    near the take's event instants, and a small jitter floor."""
    track = np.full_like(t, rng.uniform(-0.3, 0.3))
    freq = rng.uniform(0.15, 0.6)
    track = track + rng.uniform(0.10, 0.32) * np.sin(
        2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    for _ in range(2):
        freq = np.exp(rng.uniform(np.log(0.5), np.log(1.8)))
        amp = rng.uniform(0.035, 0.175) / freq
        phase = rng.uniform(0.0, 2.0 * np.pi)
        track = track + env * (amp * np.sin(2.0 * np.pi * freq * t + phase))
    if rng.random() < 0.65:
        step = rng.uniform(0.13, 0.44) * rng.choice((-1.0, 1.0))
        center = rng.choice(events) + rng.uniform(-0.15, 0.15)
        width = rng.uniform(0.04, 0.15)
        track = track + step / (1.0 + np.exp(-(t - center) / width))
    return track + _smooth_jitter(rng, t.size, fps, rng.uniform(0.008, 0.018))


def make_raw_motion(skel: Skeleton, seed: int, n_frames: int,
                    fps: float = SOURCE_FPS) -> RawMotion:
    """Channel tracks for every dof of ``skel``, radians and raw units."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames) / fps
    drift = rng.uniform(-2.0, 2.0, size=2)
    bob_f = rng.uniform(0.8, 2.0)
    root = np.empty((n_frames, 6))
    root[:, 0] = drift[0] * t + 0.3 * np.sin(2 * np.pi * rng.uniform(0.2, 0.6) * t)
    root[:, 1] = 17.0 + 0.25 * np.sin(2 * np.pi * bob_f * t + rng.uniform(0, 2 * np.pi))
    root[:, 2] = drift[1] * t + 0.3 * np.sin(2 * np.pi * rng.uniform(0.2, 0.6) * t)
    for k, amp_deg in ((3, 5.0), (4, 20.0), (5, 5.0)):
        amp = np.deg2rad(rng.uniform(0.2, 1.0) * amp_deg)
        freq = rng.uniform(0.2, 0.8)
        root[:, k] = amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    events = _event_times(rng, t[-1])
    env = _activity_envelope(rng, t, events)
    channels = {"root": root}
    for joint in skel.joints[1:]:
        if not joint.dof:
            continue
        channels[joint.name] = np.stack(
            [_angle_track(rng, t, env, events, fps) for _ in joint.dof], axis=1)
    return RawMotion(frame_count=n_frames, channels=channels)


def amc_text(skel: Skeleton, raw: RawMotion) -> str:
    """Render channel tracks as AMC text (degrees on rotation channels)."""
    out = ["# synthetic motion", ":FULLY-SPECIFIED", ":DEGREES"]
    order = ["root"] + [j.name for j in skel.joints[1:] if j.dof]
    dof_of = {"root": skel.root.dof}
    dof_of.update({j.name: j.dof for j in skel.joints[1:]})
    for fi in range(raw.frame_count):
        out.append(str(fi + 1))
        for name in order:
            row = raw.channels[name][fi]
            vals = [np.rad2deg(v) if d.startswith("r") else v
                    for d, v in zip(dof_of[name], row)]
            out.append(name + " " + " ".join(f"{v:.10g}" for v in vals))
    return "\n".join(out) + "\n"


def make_windows(skel: Skeleton, raw: RawMotion, source: str):
    """FK on the tracked-joint skeleton plus windowing for one synthetic
    take; returns the triples that dataset.write_dataset expects."""
    sub = filter_joints(skel, CMU_EXCLUDED_JOINTS)
    seq = forward_kinematics(sub, raw, dt=1.0 / SOURCE_FPS, source=source)
    return [(sub, win, i * WINDOW_LEN * STRIDE)
            for i, win in enumerate(preprocess(seq))]


def build_dataset(out_dir, n_sources: int, frames_per_source: int,
                  seed: int = 0, text_round_trip: int = 2) -> dict:
    """Write a full synthetic dataset; returns the manifest.

    The first ``text_round_trip`` sources pass through AMC text and the
    real parser, the rest go straight from channel tracks to kinematics.
    """
    skel = skeleton()
    per_source = {}
    for i in range(n_sources):
        raw = make_raw_motion(skel, seed * 100003 + i, frames_per_source)
        if i < text_round_trip:
            raw = parse_amc(io.StringIO(amc_text(skel, raw)), skel)
        source = f"take{i:03d}.amc"
        per_source[source] = make_windows(skel, raw, source)
    return write_dataset(out_dir, per_source, seed=seed)
