import json

import numpy as np
import pytest

import synthcorpus
from mocapkey import dataset
from mocapkey.errors import MalformedDataset
from mocapkey.motion import MotionSequence


def _random_sequence(seed, n=12, source="clip.amc"):
    """Random positions for the bones of the synthetic skeleton, which a
    record must carry in the skeleton's order."""
    skel = synthcorpus.skeleton()
    rng = np.random.default_rng(seed)
    return MotionSequence(
        dt=1.0 / 30.0,
        positions=rng.normal(size=(n, len(skel.bone_names), 3)),
        root_positions=rng.normal(size=(n, 3)),
        joint_names=skel.bone_names,
        parents=tuple(j.parent - 1 for j in skel.joints[1:]),
        source=source,
    )


def _write_mkwin1(path, skeleton, seq, start_frame):
    """A first-format record, written by hand: the header line, then
    positions, joint velocities, root positions and root velocities."""
    rng = np.random.default_rng(99)
    header = {
        "frame_count": seq.frame_count, "joint_count": seq.joint_count,
        "dt": seq.dt, "joint_names": list(seq.joint_names),
        "parents": list(seq.parents), "source": seq.source,
        "start_frame": start_frame, "skeleton": skeleton.to_dict(),
    }
    blocks = (seq.positions, rng.normal(size=seq.positions.shape),
              seq.root_positions, rng.normal(size=seq.root_positions.shape))
    path.write_bytes(b"MKWIN1 " + json.dumps(header).encode("utf-8") + b"\n"
                     + b"".join(b.astype("<f8").tobytes() for b in blocks))


# ---------------------------------------------------------------------------
# window records
# ---------------------------------------------------------------------------


def test_window_record_bitwise_round_trip(tmp_path, skeleton):
    seq = _random_sequence(0)
    n, m = seq.positions.shape[:2]
    dataset.write_window(tmp_path / "v2.mkw", skeleton, seq, start_frame=240)
    header, _, body = (tmp_path / "v2.mkw").read_bytes().partition(b"\n")
    assert header.startswith(b"MKWIN2 ")
    assert len(body) == 8 * (n * m * 3 + n * 3)   # positions, root positions
    _write_mkwin1(tmp_path / "v1.mkw", skeleton, seq, start_frame=240)
    for name in ("v2.mkw", "v1.mkw"):
        skel2, seq2, start = dataset.read_window(tmp_path / name)
        assert start == 240
        assert seq2.dt == seq.dt
        assert seq2.joint_names == seq.joint_names
        assert seq2.parents == seq.parents
        assert seq2.source == "clip.amc"
        # exact, not approximate
        assert np.array_equal(seq.positions, seq2.positions)
        assert np.array_equal(seq.root_positions, seq2.root_positions)
        assert skel2.to_dict() == skeleton.to_dict()


def test_read_window_rejects_trailing_bytes(tmp_path, skeleton):
    seq = _random_sequence(3)
    dataset.write_window(tmp_path / "v2.mkw", skeleton, seq, 0)
    _write_mkwin1(tmp_path / "v1.mkw", skeleton, seq, 0)
    for name in ("v2.mkw", "v1.mkw"):
        path = tmp_path / name
        dataset.read_window(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(MalformedDataset, match="trailing bytes"):
            dataset.read_window(path)


def test_read_window_rejects_wrong_magic(tmp_path):
    path = tmp_path / "w.mkw"
    path.write_bytes(b"NOTMKW {}\n")
    with pytest.raises(MalformedDataset, match="not a window record"):
        dataset.read_window(path)


def test_read_window_rejects_bad_header(tmp_path, skeleton):
    seq = _random_sequence(1)
    path = tmp_path / "w.mkw"
    dataset.write_window(path, skeleton, seq, 0)
    data = path.read_bytes()
    header, _, body = data.partition(b"\n")
    bad = tmp_path / "bad.mkw"
    bad.write_bytes(header.replace(b'"frame_count"', b'"fr_count"') + b"\n" + body)
    with pytest.raises(MalformedDataset, match="bad window header"):
        dataset.read_window(bad)


def test_read_window_rejects_names_other_than_the_bones(tmp_path, skeleton):
    seq = _random_sequence(4)
    renamed = dict(zip(seq.joint_names, reversed(seq.joint_names)))
    dataset.write_window(tmp_path / "v2.mkw", skeleton, seq, 0)
    _write_mkwin1(tmp_path / "v1.mkw", skeleton, seq, 0)
    for name in ("v2.mkw", "v1.mkw"):
        path = tmp_path / name
        header, _, body = path.read_bytes().partition(b"\n")
        magic, blob = header[:7], json.loads(header[7:])
        for key, value in (("joint_names", seq.joint_names[:-1]),
                           ("joint_names", [renamed[n] for n in seq.joint_names]),
                           ("parents", [-1, *seq.parents[1:-1], 0])):
            edited = {**blob, key: list(value)}
            path.write_bytes(magic + json.dumps(edited).encode("utf-8") + b"\n" + body)
            with pytest.raises(MalformedDataset, match="the skeleton's bone"):
                dataset.read_window(path)


def test_read_window_rejects_truncation(tmp_path, skeleton):
    seq = _random_sequence(2)
    dataset.write_window(tmp_path / "v2.mkw", skeleton, seq, 0)
    _write_mkwin1(tmp_path / "v1.mkw", skeleton, seq, 0)
    for name in ("v2.mkw", "v1.mkw"):
        data = (tmp_path / name).read_bytes()
        (tmp_path / "short.mkw").write_bytes(data[:-16])
        with pytest.raises(MalformedDataset, match="truncated"):
            dataset.read_window(tmp_path / "short.mkw")


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_sources_deterministic_and_nonempty():
    sources = [f"take{i:02d}.amc" for i in range(10)]
    split = dataset.split_sources(sources, seed=3)
    assert split == dataset.split_sources(list(reversed(sources)), seed=3)
    counts = {"train": 0, "test": 0}
    for v in split.values():
        counts[v] += 1
    assert counts["train"] == 8 and counts["test"] == 2
    assert dataset.split_sources(sources, seed=4) != split  # seed matters


def test_split_sources_edge_counts():
    assert dataset.split_sources(["only.amc"], seed=0) == {"only.amc": "train"}
    two = dataset.split_sources(["a", "b"], seed=0, train_fraction=0.99)
    assert sorted(two.values()) == ["test", "train"]
    two = dataset.split_sources(["a", "b"], seed=0, train_fraction=0.01)
    assert sorted(two.values()) == ["test", "train"]


# ---------------------------------------------------------------------------
# full datasets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    manifest = synthcorpus.build_dataset(out, n_sources=4,
                                         frames_per_source=480, seed=9,
                                         text_round_trip=1)
    return out, manifest


def test_write_dataset_manifest_layout(small_dataset):
    out, manifest = small_dataset
    assert manifest == dataset.load_manifest(out)
    rows = manifest["windows"]
    assert len(rows) == 8  # 4 sources x (480 / 4 / 60) windows
    assert [r["file"] for r in rows] == [f"w{i:05d}.mkw" for i in range(8)]
    by_source = {}
    for r in rows:
        by_source.setdefault(r["source"], set()).add(r["split"])
    # the split is per source: every window of a source lands on one side
    assert all(len(v) == 1 for v in by_source.values())
    assert {s for v in by_source.values() for s in v} == {"train", "test"}
    assert manifest["preprocessing"]["window_len"] == 60


def test_load_dataset_reads_records(small_dataset):
    out, manifest = small_dataset
    records = dataset.load_dataset(out)
    assert len(records) == 8
    for rec, row in zip(records, manifest["windows"]):
        assert rec.window_id == row["file"].removesuffix(".mkw")
        assert rec.split == row["split"]
        assert rec.source == row["source"]
        assert rec.seq.frame_count == 60
        assert rec.seq.joint_count == 22
    train = dataset.load_dataset(out, split="train")
    test = dataset.load_dataset(out, split="test")
    assert len(train) + len(test) == 8
    assert {r.split for r in train} == {"train"}
    assert {r.split for r in test} == {"test"}


def test_load_manifest_failures(tmp_path):
    with pytest.raises(MalformedDataset, match="not found"):
        dataset.load_manifest(tmp_path)
    (tmp_path / dataset.MANIFEST_NAME).write_text("{not json")
    with pytest.raises(MalformedDataset, match="bad manifest"):
        dataset.load_manifest(tmp_path)
    (tmp_path / dataset.MANIFEST_NAME).write_text(json.dumps({"format": 99}))
    with pytest.raises(MalformedDataset, match="format 99"):
        dataset.load_manifest(tmp_path)


def test_manifest_digest_tracks_content(small_dataset):
    _, manifest = small_dataset
    d1 = dataset.manifest_digest(manifest)
    assert d1 == dataset.manifest_digest(json.loads(json.dumps(manifest)))
    changed = dict(manifest, seed=manifest["seed"] + 1)
    assert dataset.manifest_digest(changed) != d1


def test_failed_write_dataset_keeps_earlier_files(tmp_path, skeleton):
    out = tmp_path / "ds"
    per_source = {"a.amc": [(skeleton, _random_sequence(i), 240 * i) for i in range(2)]}
    dataset.write_dataset(out, per_source, preprocessing={}, seed=0)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["manifest.json", "w00000.mkw", "w00001.mkw"]
    # the second record's root block cannot become float64: its write fails
    # after the header and positions went to disk, before the manifest
    broken = _random_sequence(7)
    object.__setattr__(broken, "root_positions",
                       np.full((12, 3), "not a number", dtype=object))
    per_source = {"a.amc": [(skeleton, _random_sequence(5), 0),
                            (skeleton, broken, 240)]}
    with pytest.raises(ValueError):
        dataset.write_dataset(out, per_source, preprocessing={}, seed=0)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(after) == sorted(before)          # no temp file left
    assert after["w00001.mkw"] == before["w00001.mkw"]
    assert after["manifest.json"] == before["manifest.json"]
    assert after["w00000.mkw"] != before["w00000.mkw"]   # that write finished
    # a manifest that fails to serialize halfway leaves the earlier one
    with pytest.raises(TypeError):
        dataset.write_dataset(out, per_source={"a.amc": per_source["a.amc"][:1]},
                              preprocessing={"fps": object()}, seed=0)
    assert (out / "manifest.json").read_bytes() == before["manifest.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
