import csv
import json
import shutil

import pytest

import synthcorpus
from mocapkey import cli
from mocapkey.asfamc import parse_amc, parse_asf
from mocapkey.dataset import load_manifest, read_window
from mocapkey.motion import CMU_EXCLUDED_JOINTS, finite_difference

TINY_TRAIN_CONFIG = {
    "keyframe_count": 4,
    "episodes": 20,
    "batch_size": 16,
    "memory_capacity": 200,
    "train_interval": 4,
    "target_interval": 5,
    "hidden1": 16,
    "hidden2": 8,
    "seed": 3,
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Three synthetic takes sharing one skeleton file."""
    root = tmp_path_factory.mktemp("corpus")
    (root / "synth.asf").write_text(synthcorpus.skeleton_text())
    skel = synthcorpus.skeleton()
    for i in range(3):
        raw = synthcorpus.make_raw_motion(skel, 900 + i, 500)
        (root / f"synth_{i:02d}.amc").write_text(synthcorpus.amc_text(skel, raw))
    return root


@pytest.fixture(scope="module")
def prepped(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("ds")
    code = cli.main(["prep", "--asf", str(corpus_dir / "synth.asf"),
                     "--amc", str(corpus_dir), "--out", str(out)])
    assert code == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, prepped):
    out = tmp_path_factory.mktemp("model")
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN_CONFIG))
    ckpt = out / "agent.ckpt"
    code = cli.main(["train", "--data", str(prepped), "--out", str(ckpt),
                     "--config", str(cfg_path)])
    assert code == cli.EXIT_OK
    return ckpt


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------


def test_prep_builds_dataset(prepped):
    manifest = load_manifest(prepped)
    rows = manifest["windows"]
    # 500 source frames -> 125 at 30 fps -> 2 windows per take
    assert len(rows) == 6
    assert {r["split"] for r in rows} == {"train", "test"}
    assert manifest["preprocessing"]["excluded_joints"] == list(CMU_EXCLUDED_JOINTS)
    assert all((prepped / r["file"]).exists() for r in rows)


def test_train_writes_checkpoint_and_log(trained):
    assert trained.exists()
    log_path = trained.parent / (trained.name + ".log.csv")
    with open(log_path, newline="") as fh:
        log_rows = list(csv.DictReader(fh))
    assert log_rows, "training log is empty"
    episode_rows = [r for r in log_rows if r["episode_reward"]]
    assert len(episode_rows) == TINY_TRAIN_CONFIG["episodes"]
    assert any(r["loss"] for r in log_rows)


def test_eval_reports_all_methods(tmp_path, prepped, trained, capsys):
    report = tmp_path / "report.csv"
    code = cli.main(["eval", "--data", str(prepped), "--model", str(trained),
                     "--k", "4,6", "--out", str(report), "--split", "test"])
    assert code == cli.EXIT_OK
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 test windows x 2 budgets x 4 methods
    assert len(rows) == 16
    assert {r["method"] for r in rows} == {"rc", "uc", "greedy", "sidql"}
    assert all(float(r["q_error"]) >= 0.0 for r in rows)
    summary = json.loads((tmp_path / "report.csv.summary.json").read_text())
    assert summary["split"] == "test"
    assert summary["windows"] == 2
    for method in ("rc", "uc", "greedy", "sidql"):
        for k in ("4", "6"):
            cell = summary["table"][method][k]
            assert cell["count"] == 2 and cell["mean_q"] >= 0.0
    out = capsys.readouterr().out
    assert "greedy" in out and "W=4" in out


def test_eval_without_model_skips_agent(tmp_path, prepped):
    report = tmp_path / "baselines.csv"
    code = cli.main(["eval", "--data", str(prepped), "--methods", "rc,uc",
                     "--k", "5", "--out", str(report)])
    assert code == cli.EXIT_OK
    with open(report, newline="") as fh:
        methods = {r["method"] for r in csv.DictReader(fh)}
    assert methods == {"rc", "uc"}


def test_reconstruct_writes_parseable_amc(tmp_path, prepped, corpus_dir):
    out = tmp_path / "rebuilt.amc"
    code = cli.main(["reconstruct", "--data", str(prepped), "--seq", "w00000",
                     "--keyframes", "0,14,29,44,59", "--out", str(out)])
    assert code == cli.EXIT_OK
    manifest = load_manifest(prepped)
    with open(corpus_dir / "synth.asf") as fh:
        skeleton = parse_asf(fh)
    from mocapkey.motion import filter_joints
    sub = filter_joints(skeleton, CMU_EXCLUDED_JOINTS)
    with open(out) as fh:
        raw = parse_amc(fh, sub)
    assert raw.frame_count == manifest["windows"][0]["length"]


def test_reconstruct_with_method_selector(tmp_path, prepped, trained):
    out = tmp_path / "agentpick.amc"
    code = cli.main(["reconstruct", "--data", str(prepped), "--seq", "w00001",
                     "--method", "sidql", "--k", "4", "--model", str(trained),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.exists()


def test_train_env_var_config(tmp_path, prepped, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_TRAIN_CONFIG, "episodes": 4}))
    monkeypatch.setenv("MOCAPKEY_CONFIG", str(cfg_path))
    ckpt = tmp_path / "envagent.ckpt"
    code = cli.main(["train", "--data", str(prepped), "--out", str(ckpt)])
    assert code == cli.EXIT_OK
    from mocapkey.agent import load_agent
    result, cfg = load_agent(ckpt)
    assert cfg.episodes == 4 and result.episodes_done == 4


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(tmp_path, prepped):
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["prep", "--asf", "x"]) == cli.EXIT_USAGE  # missing args
    assert cli.main(["eval", "--data", str(prepped), "--methods", "psychic",
                     "--out", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE
    assert cli.main(["eval", "--data", str(prepped), "--methods", "sidql",
                     "--out", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE
    assert cli.main(["eval", "--data", str(prepped), "--k", "five",
                     "--out", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE
    assert cli.main(["reconstruct", "--data", str(prepped), "--seq", "w00000",
                     "--out", str(tmp_path / "o.amc")]) == cli.EXIT_USAGE
    assert cli.main(["reconstruct", "--data", str(prepped), "--seq", "w00000",
                     "--keyframes", "0,x,59",
                     "--out", str(tmp_path / "o.amc")]) == cli.EXIT_USAGE


def test_data_errors_exit_two(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["prep", "--asf", str(empty), "--amc", str(empty),
                     "--out", str(tmp_path / "ds")]) == cli.EXIT_DATA
    assert cli.main(["train", "--data", str(empty),
                     "--out", str(tmp_path / "a.ckpt")]) == cli.EXIT_DATA
    assert cli.main(["eval", "--data", str(empty), "--methods", "rc",
                     "--out", str(tmp_path / "r.csv")]) == cli.EXIT_DATA


def test_reconstruct_unknown_window_exits_two(tmp_path, prepped):
    assert cli.main(["reconstruct", "--data", str(prepped), "--seq", "w99999",
                     "--out", str(tmp_path / "o.amc")]) == cli.EXIT_DATA


def test_reconstruct_reads_only_the_requested_window(tmp_path, prepped):
    data = tmp_path / "ds"
    shutil.copytree(prepped, data)
    record = data / "w00001.mkw"
    record.write_bytes(record.read_bytes()[:-8])
    assert cli.main(["reconstruct", "--data", str(data), "--seq", "w00000",
                     "--keyframes", "0,29,59",
                     "--out", str(tmp_path / "o.amc")]) == cli.EXIT_OK
    assert cli.main(["reconstruct", "--data", str(data), "--seq", "w00001",
                     "--keyframes", "0,29,59",
                     "--out", str(tmp_path / "o.amc")]) == cli.EXIT_DATA


def test_older_records_give_the_same_outputs(tmp_path, prepped, trained):
    # Rewrite every record in the first format, which also stores joint and
    # root velocity blocks; eval and reconstruct must not notice.
    old = tmp_path / "old"
    shutil.copytree(prepped, old)
    for path in old.glob("*.mkw"):
        _, seq, _ = read_window(path)
        header = path.read_bytes().partition(b"\n")[0]
        assert header.startswith(b"MKWIN2 ")
        blocks = (seq.positions, finite_difference(seq.positions, seq.dt),
                  seq.root_positions, finite_difference(seq.root_positions, seq.dt))
        path.write_bytes(b"MKWIN1 " + header[7:] + b"\n"
                         + b"".join(b.astype("<f8").tobytes() for b in blocks))
    outputs = []
    for data in (prepped, old):
        out = tmp_path / data.name
        out.mkdir(exist_ok=True)
        assert cli.main(["eval", "--data", str(data), "--model", str(trained),
                         "--k", "4,6", "--out", str(out / "r.csv")]) == cli.EXIT_OK
        assert cli.main(["reconstruct", "--data", str(data), "--seq", "w00001",
                         "--method", "greedy", "--k", "5",
                         "--out", str(out / "r.amc")]) == cli.EXIT_OK
        with open(out / "r.csv", newline="") as fh:
            rows = [{k: v for k, v in r.items() if k != "decision_time_s"}
                    for r in csv.DictReader(fh)]
        outputs.append((rows, (out / "r.amc").read_bytes()))
    assert outputs[0] == outputs[1]


def test_prep_skips_unmatched_amc(tmp_path, corpus_dir, capsys):
    # two skeletons, neither matching the amc stem: the take is skipped
    conflicted = tmp_path / "conflicted"
    conflicted.mkdir()
    (conflicted / "a.asf").write_text(synthcorpus.skeleton_text())
    (conflicted / "b.asf").write_text(synthcorpus.skeleton_text())
    skel = synthcorpus.skeleton()
    raw = synthcorpus.make_raw_motion(skel, 1, 500)
    (conflicted / "other_01.amc").write_text(synthcorpus.amc_text(skel, raw))
    code = cli.main(["prep", "--asf", str(conflicted), "--amc", str(conflicted),
                     "--out", str(tmp_path / "ds")])
    assert code == cli.EXIT_DATA
    assert "no skeleton" in capsys.readouterr().err


def test_prep_skips_source_with_malformed_skeleton(tmp_path, capsys):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "good.asf").write_text(synthcorpus.skeleton_text())
    (tree / "bad.asf").write_text(
        synthcorpus.skeleton_text().replace("name lfemur", "name", 1))
    skel = synthcorpus.skeleton()
    for stem in ("good", "bad"):
        raw = synthcorpus.make_raw_motion(skel, 1, 500)
        (tree / f"{stem}.amc").write_text(synthcorpus.amc_text(skel, raw))
    code = cli.main(["prep", "--asf", str(tree), "--amc", str(tree),
                     "--out", str(tmp_path / "ds")])
    assert code == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "prep: warning: bad.amc: line" in err
    assert [w["source"] for w in load_manifest(tmp_path / "ds")["windows"]] \
        == ["good.amc", "good.amc"]
