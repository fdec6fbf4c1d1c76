"""On-disk window datasets.

A dataset directory holds one record per preprocessed window plus a
manifest. A record is a single header line, the magic ``MKWIN2`` and then
a JSON object with ``frame_count`` N, ``dt``, ``source``, ``start_frame``
and ``skeleton``, the tracked-joint skeleton whose bones name the window's
M joints in order. Raw little-endian float64 blocks in C order follow:
positions (N, M, 3), then root positions (N, 3). The manifest carries the
preprocessing parameters and the train/test split, assigned per source
file. Records and manifest are written atomically; every stored value is
checked on load, never converted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asfamc import Skeleton
from .errors import MocapKeyError, checked
from .motion import (CMU_EXCLUDED_JOINTS, SOURCE_FPS, TARGET_FPS, WINDOW_LEN,
                     MotionSequence)
from .neural import atomic_open, read_blocks, read_header, write_blocks

MAGIC = b"MKWIN2 "
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1
TRAIN_FRACTION = 0.8     # share of sources in the training split


@dataclass(frozen=True)
class WindowRecord:
    window_id: str
    skeleton: Skeleton
    seq: MotionSequence
    split: str
    source: str
    start_frame: int


def write_window(path, skeleton: Skeleton, seq: MotionSequence,
                 start_frame: int) -> None:
    """Write ``seq`` as one record; its joints must be ``skeleton``'s bones."""
    if (seq.joint_names, seq.parents) != (skeleton.bone_names, skeleton.bone_parents):
        raise ValueError(f"window joints {list(seq.joint_names)} with parents "
                         f"{list(seq.parents)} are not the skeleton's bone tree")
    header = {
        "frame_count": seq.frame_count,
        "dt": seq.dt,
        "source": seq.source,
        "start_frame": int(start_frame),
        "skeleton": skeleton.to_dict(),
    }
    write_blocks(path, MAGIC + json.dumps(header, sort_keys=True).encode("utf-8"),
                 (seq.positions, seq.root_positions))


def read_window(path) -> tuple[Skeleton, MotionSequence, int]:
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise MocapKeyError(f"{path}: not a window record")
        header = read_header(fh)
        try:
            skeleton = Skeleton.from_dict(header.get("skeleton"))
            n = checked(header.get("frame_count"), "frame_count", int, MocapKeyError, low=2)
            dt = checked(header.get("dt"), "dt", float, MocapKeyError, above=0)
            start = checked(header.get("start_frame", 0), "start_frame", int,
                            MocapKeyError, low=0)
            source = checked(header.get("source", ""), "source", str, MocapKeyError)
        except MocapKeyError as exc:
            raise type(exc)(f"{path}: bad window header: {exc}") from None
        m = len(skeleton.bone_names)
        positions, root_positions = read_blocks(fh, [(n, m, 3), (n, 3)])
    try:
        seq = MotionSequence(
            dt=dt, positions=positions, root_positions=root_positions,
            joint_names=skeleton.bone_names, parents=skeleton.bone_parents, source=source,
        )
    except ValueError as exc:
        raise MocapKeyError(f"{path}: {exc}") from None
    return skeleton, seq, start


def split_sources(sources: list[str], seed: int) -> dict[str, str]:
    """Deterministic train/test assignment per source id.

    Shuffles the sorted source list with the seed and sends the first
    TRAIN_FRACTION share to the training split; with two or more sources
    both splits are kept nonempty.
    """
    ordered = sorted(sources)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    n_train = int(round(TRAIN_FRACTION * len(ordered)))
    if len(ordered) >= 2:
        n_train = min(max(n_train, 1), len(ordered) - 1)
    else:
        n_train = len(ordered)
    train_ids = {ordered[i] for i in perm[:n_train]}
    return {s: ("train" if s in train_ids else "test") for s in ordered}


def write_dataset(out_dir, per_source: dict[str, list[tuple[Skeleton, MotionSequence, int]]],
                  seed: int) -> dict:
    """Write all window records plus the manifest; returns the manifest.

    ``per_source`` maps a source id to that file's windows as
    (filtered skeleton, window, start frame in source frames) triples. The
    manifest records ``motion``'s one window shape as its preprocessing.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    split = split_sources(list(per_source), seed)
    rows = []
    counter = 0
    for source in sorted(per_source):
        for skeleton, seq, start in per_source[source]:
            name = f"w{counter:05d}.mkw"
            write_window(out_dir / name, skeleton, seq, start)
            rows.append({
                "file": name,
                "source": source,
                "start_frame": int(start),
                "length": seq.frame_count,
                "split": split[source],
            })
            counter += 1
    manifest = {
        "format": MANIFEST_FORMAT,
        "seed": int(seed),
        "train_fraction": TRAIN_FRACTION,
        "preprocessing": {"source_fps": SOURCE_FPS, "target_fps": TARGET_FPS,
                          "window_len": WINDOW_LEN, "velocity_scheme": "central",
                          "excluded_joints": list(CMU_EXCLUDED_JOINTS)},
        "windows": rows,
    }
    with atomic_open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_manifest(dataset_dir) -> dict:
    path = Path(dataset_dir) / MANIFEST_NAME
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise MocapKeyError(f"{path}: manifest not found") from None
    except ValueError as exc:     # bad UTF-8 or bad JSON
        raise MocapKeyError(f"{path}: bad manifest: {exc}") from None
    checked(manifest, f"{path}: manifest", dict, MocapKeyError)
    checked(manifest.get("format"), f"{path}: format", int, MocapKeyError,
            among={MANIFEST_FORMAT})
    rows = checked(manifest.get("windows"), f"{path}: windows", list[dict], MocapKeyError)
    for i, row in enumerate(rows):
        at = f"{path}: windows[{i}] "
        file = checked(row.get("file"), at + "file", str, MocapKeyError)
        checked(file, at + "file", str, MocapKeyError,      # a bare file name
                among={Path(file).name} - {"", ".", ".."})
        checked(row.get("source"), at + "source", str, MocapKeyError)
        checked(row.get("split"), at + "split", str, MocapKeyError, among={"train", "test"})
    return manifest


def manifest_digest(manifest: dict) -> str:
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def load_dataset(dataset_dir, split: str | None = None, window_id: str | None = None,
                 manifest: dict | None = None) -> list[WindowRecord]:
    """Read window records listed in the manifest (``manifest``, when the
    caller has loaded it), optionally one split or only the window
    ``window_id`` (the other records are not opened)."""
    dataset_dir = Path(dataset_dir)
    manifest = load_manifest(dataset_dir) if manifest is None else manifest
    records = []
    for row in manifest["windows"]:
        if split is not None and row["split"] != split:
            continue
        if window_id is not None and Path(row["file"]).stem != window_id:
            continue
        skeleton, seq, start = read_window(dataset_dir / row["file"])
        records.append(WindowRecord(
            window_id=Path(row["file"]).stem,
            skeleton=skeleton,
            seq=seq,
            split=row["split"],
            source=row["source"],
            start_frame=start,
        ))
    return records
