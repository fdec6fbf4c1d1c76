"""On-disk window datasets.

A dataset directory holds one record per preprocessed window plus a
manifest. A record is a single header line (magic, then JSON with shapes,
timing, names and the embedded skeleton) followed by raw little-endian
float64 blocks in C order: positions (N, M, 3), velocities, root positions
(N, 3), root velocities. The manifest carries the preprocessing parameters
and the train/test split, assigned per source file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asfamc import Skeleton
from .errors import MalformedDataset
from .motion import MotionSequence

MAGIC = b"MKWIN1 "
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1


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
    header = {
        "frame_count": seq.frame_count,
        "joint_count": seq.joint_count,
        "dt": seq.dt,
        "joint_names": list(seq.joint_names),
        "parents": list(seq.parents),
        "source": seq.source,
        "start_frame": int(start_frame),
        "skeleton": skeleton.to_dict(),
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for block in (seq.positions, seq.velocities,
                      seq.root_positions, seq.root_velocities):
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def read_window(path) -> tuple[Skeleton, MotionSequence, int]:
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.startswith(MAGIC):
            raise MalformedDataset(f"{path}: not a window record")
        try:
            header = json.loads(line[len(MAGIC):].decode("utf-8"))
            n = int(header["frame_count"])
            m = int(header["joint_count"])
            dt = float(header["dt"])
            names = tuple(header["joint_names"])
            parents = tuple(int(p) for p in header["parents"])
            skeleton = Skeleton.from_dict(header["skeleton"])
            start = int(header.get("start_frame", 0))
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedDataset(f"{path}: bad window header: {exc}") from None
        blocks = []
        for shape in ((n, m, 3), (n, m, 3), (n, 3), (n, 3)):
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise MalformedDataset(f"{path}: truncated window record")
            blocks.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
    seq = MotionSequence(
        dt=dt, positions=blocks[0], velocities=blocks[1],
        root_positions=blocks[2], root_velocities=blocks[3],
        joint_names=names, parents=parents,
        source=header.get("source", ""),
    )
    return skeleton, seq, start


def split_sources(sources: list[str], seed: int,
                  train_fraction: float = 0.8) -> dict[str, str]:
    """Deterministic train/test assignment per source id.

    Shuffles the sorted source list with the seed and sends the first
    train_fraction share to the training split; with two or more sources
    both splits are kept nonempty.
    """
    ordered = sorted(sources)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    n_train = int(round(train_fraction * len(ordered)))
    if len(ordered) >= 2:
        n_train = min(max(n_train, 1), len(ordered) - 1)
    else:
        n_train = len(ordered)
    train_ids = {ordered[i] for i in perm[:n_train]}
    return {s: ("train" if s in train_ids else "test") for s in ordered}


def write_dataset(out_dir, per_source: dict[str, list[tuple[Skeleton, MotionSequence, int]]],
                  preprocessing: dict, seed: int,
                  train_fraction: float = 0.8) -> dict:
    """Write all window records plus the manifest; returns the manifest.

    ``per_source`` maps a source id to that file's windows as
    (filtered skeleton, window, start frame in source frames) triples.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    split = split_sources(list(per_source), seed, train_fraction)
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
        "train_fraction": train_fraction,
        "preprocessing": preprocessing,
        "windows": rows,
    }
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_manifest(dataset_dir) -> dict:
    path = Path(dataset_dir) / MANIFEST_NAME
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise MalformedDataset(f"{path}: manifest not found") from None
    except json.JSONDecodeError as exc:
        raise MalformedDataset(f"{path}: bad manifest: {exc}") from None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise MalformedDataset(
            f"{path}: manifest format {manifest.get('format')}, "
            f"expected {MANIFEST_FORMAT}")
    return manifest


def manifest_digest(manifest: dict) -> str:
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def load_dataset(dataset_dir, split: str | None = None,
                 window_id: str | None = None) -> list[WindowRecord]:
    """Read window records listed in the manifest, optionally one split or
    only the window ``window_id`` (the other records are not opened)."""
    dataset_dir = Path(dataset_dir)
    manifest = load_manifest(dataset_dir)
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
