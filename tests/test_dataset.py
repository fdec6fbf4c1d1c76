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
        parents=skel.bone_parents,
        source=source,
    )


# ---------------------------------------------------------------------------
# window records
# ---------------------------------------------------------------------------


def test_window_record_bitwise_round_trip(tmp_path, skeleton):
    seq = _random_sequence(0)
    n, m = seq.positions.shape[:2]
    path = tmp_path / "w.mkw"
    dataset.write_window(path, skeleton, seq, start_frame=240)
    header, _, body = path.read_bytes().partition(b"\n")
    assert header.startswith(b"MKWIN2 ")
    # each fact once: names, parents and M come from the embedded skeleton
    assert sorted(json.loads(header[7:])) == ["dt", "frame_count", "skeleton",
                                              "source", "start_frame"]
    assert len(body) == 8 * (n * m * 3 + n * 3)   # positions, root positions
    # records written with the keys that repeated the skeleton still load
    older = tmp_path / "older.mkw"
    older.write_bytes(header[:7] + json.dumps({
        **json.loads(header[7:]), "joint_count": m, "joint_names": list(seq.joint_names),
        "parents": list(seq.parents)}).encode() + b"\n" + body)
    old_seq = dataset.read_window(older)[1]
    assert np.array_equal(old_seq.positions, seq.positions)
    assert old_seq.parents == seq.parents
    skel2, seq2, start = dataset.read_window(path)
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
    path = tmp_path / "w.mkw"
    dataset.write_window(path, skeleton, _random_sequence(3), 0)
    dataset.read_window(path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(MalformedDataset, match="trailing bytes"):
        dataset.read_window(path)


def test_read_window_rejects_wrong_magic(tmp_path, skeleton):
    path = tmp_path / "w.mkw"
    dataset.write_window(path, skeleton, _random_sequence(5), 0)
    # the first record format, MKWIN1, is no longer read
    for data in (b"NOTMKW {}\n", b"MKWIN1 " + path.read_bytes()[7:]):
        path.write_bytes(data)
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


def test_write_window_rejects_names_other_than_the_bones(tmp_path, skeleton):
    seq = _random_sequence(4)
    renamed = dict(zip(seq.joint_names, reversed(seq.joint_names)))
    for key, value in (("joint_names", seq.joint_names[:-1]),
                       ("joint_names", [renamed[n] for n in seq.joint_names]),
                       ("parents", [-1, *seq.parents[1:-1], 0])):
        edited = _random_sequence(4)
        object.__setattr__(edited, key, tuple(value))
        with pytest.raises(ValueError, match="the skeleton's bone tree"):
            dataset.write_window(tmp_path / "w.mkw", skeleton, edited, 0)
    assert not (tmp_path / "w.mkw").exists()


def test_read_window_rejects_truncation(tmp_path, skeleton):
    dataset.write_window(tmp_path / "w.mkw", skeleton, _random_sequence(2), 0)
    data = (tmp_path / "w.mkw").read_bytes()
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
    # round(0.8 * 2) = 2 training sources, clipped to keep a test source
    for seed in range(4):
        two = dataset.split_sources(["a", "b"], seed=seed)
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
    with pytest.raises(MalformedDataset, match="format is 99"):
        dataset.load_manifest(tmp_path)


def test_manifest_digest_tracks_content(small_dataset):
    _, manifest = small_dataset
    d1 = dataset.manifest_digest(manifest)
    assert d1 == dataset.manifest_digest(json.loads(json.dumps(manifest)))
    changed = dict(manifest, seed=manifest["seed"] + 1)
    assert dataset.manifest_digest(changed) != d1


def test_failed_write_dataset_keeps_earlier_files(tmp_path, skeleton, monkeypatch):
    out = tmp_path / "ds"
    per_source = {"a.amc": [(skeleton, _random_sequence(i), 240 * i) for i in range(2)]}
    dataset.write_dataset(out, per_source, seed=0)
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
        dataset.write_dataset(out, per_source, seed=0)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(after) == sorted(before)          # no temp file left
    assert after["w00001.mkw"] == before["w00001.mkw"]
    assert after["manifest.json"] == before["manifest.json"]
    assert after["w00000.mkw"] != before["w00000.mkw"]   # that write finished
    # a manifest write that fails halfway leaves the earlier manifest
    def dump_half(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:40])
        raise OSError("disk full")
    monkeypatch.setattr(dataset.json, "dump", dump_half)
    with pytest.raises(OSError, match="disk full"):
        dataset.write_dataset(out, per_source={"a.amc": per_source["a.amc"][:1]}, seed=0)
    assert (out / "manifest.json").read_bytes() == before["manifest.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
