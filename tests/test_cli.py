import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import synthcorpus
from mocapkey import cli, neural
from mocapkey.agent import TrainConfig, load_agent
from mocapkey.asfamc import RawMotion, parse_amc, parse_asf
from mocapkey.dataset import load_dataset, load_manifest
from mocapkey.motion import CMU_EXCLUDED_JOINTS

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
    assert all((prepped / r["file"]).exists() for r in rows)
    # the one window shape, with the value types the manifest digest covers
    block = manifest["preprocessing"]
    assert block == {"source_fps": 120.0, "target_fps": 30.0, "window_len": 60,
                     "excluded_joints": list(CMU_EXCLUDED_JOINTS),
                     "velocity_scheme": "central"}
    assert [type(block[k]) for k in ("source_fps", "target_fps", "window_len")] == [
        float, float, int]
    assert sorted(r["start_frame"] for r in rows) == [0, 0, 0, 240, 240, 240]
    record = load_dataset(prepped, window_id=Path(rows[0]["file"]).stem)[0]
    assert record.seq.dt == 4 * (1 / 120) == 1 / 30


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


def test_eval_jobs_match_a_single_process(tmp_path, prepped, trained):
    outputs = []
    for jobs in ("1", "2"):
        report = tmp_path / f"jobs{jobs}.csv"
        assert cli.main(["eval", "--data", str(prepped), "--model", str(trained),
                         "--k", "4,6", "--split", "train", "--jobs", jobs,
                         "--out", str(report)]) == cli.EXIT_OK
        with open(report, newline="") as fh:
            rows = [{k: v for k, v in r.items() if k != "decision_time_s"}
                    for r in csv.DictReader(fh)]
        summary = json.loads((tmp_path / f"jobs{jobs}.csv.summary.json").read_text())
        for cells in summary["table"].values():
            for cell in cells.values():
                del cell["mean_decision_time_s"]
        outputs.append((rows, summary))
    assert len(outputs[0][0]) == 4 * 4 * 2  # train windows x methods x budgets
    assert outputs[0] == outputs[1]


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


def test_train_flags_override_the_config_file(tmp_path, prepped):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN_CONFIG))
    ckpt = tmp_path / "flagged.ckpt"
    code = cli.main(["train", "--data", str(prepped), "--out", str(ckpt),
                     "--config", str(cfg_path), "--episodes", "4",
                     "--keyframes", "5", "--seed", "9"])
    assert code == cli.EXIT_OK
    result, cfg = load_agent(ckpt)
    assert cfg == TrainConfig.from_dict(
        {**TINY_TRAIN_CONFIG, "episodes": 4, "keyframe_count": 5, "seed": 9})
    assert result.episodes_done == 4 and result.global_step == 4 * 3


def test_train_resume_continues_the_counters(tmp_path, prepped, trained):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN_CONFIG))
    ckpt = tmp_path / "resumed.ckpt"
    code = cli.main(["train", "--data", str(prepped), "--out", str(ckpt),
                     "--config", str(cfg_path), "--resume", str(trained),
                     "--episodes", "5"])
    assert code == cli.EXIT_OK
    before, _ = load_agent(trained)
    result, cfg = load_agent(ckpt)
    assert cfg.episodes == 5
    assert before.episodes_done == 20 and before.global_step == 40
    assert result.episodes_done == 25 and result.global_step == 50
    assert result.updates >= before.updates > 0


def test_train_resume_without_config_keeps_the_checkpoint_config(tmp_path, prepped,
                                                                  trained):
    ckpt = tmp_path / "resumed.ckpt"
    code = cli.main(["train", "--data", str(prepped), "--out", str(ckpt),
                     "--resume", str(trained), "--episodes", "5"])
    assert code == cli.EXIT_OK
    result, cfg = load_agent(ckpt)
    assert cfg == TrainConfig.from_dict({**TINY_TRAIN_CONFIG, "episodes": 5})
    assert result.episodes_done == 25 and result.global_step == 50


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(tmp_path, corpus_dir, prepped, capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["prep", "--asf", "x"]) == cli.EXIT_USAGE  # missing args
    # the window shape is fixed: prep has no flags for it
    for flag, value in (("--window", "30"), ("--fps", "60")):
        assert cli.main(["prep", "--asf", str(corpus_dir), "--amc", str(corpus_dir),
                         "--out", str(tmp_path / "ds"), flag, value]) == cli.EXIT_USAGE
    assert not (tmp_path / "ds").exists()
    assert cli.main(["eval", "--data", str(prepped), "--methods", "psychic",
                     "--out", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE
    assert cli.main(["eval", "--data", str(prepped), "--methods", "sidql",
                     "--out", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE
    assert cli.main(["eval", "--data", str(prepped), "--k", "five",
                     "--out", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE
    # a value listed twice would evaluate, or pick, the same thing twice
    for repeated in (["--methods", "uc,uc"], ["--k", "5,5"],
                     ["--methods", "uc", "--k", "5,10,5"]):
        assert cli.main(["eval", "--data", str(prepped), *repeated,
                         "--out", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE
    for jobs in ("0", "-2"):
        assert cli.main(["eval", "--data", str(prepped), "--methods", "rc",
                         "--jobs", jobs, "--out", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE
    assert not (tmp_path / "r.csv").exists()
    assert cli.main(["reconstruct", "--data", str(prepped), "--seq", "w00000",
                     "--out", str(tmp_path / "o.amc")]) == cli.EXIT_USAGE
    for keyframes in ("0,x,59", "0,29,29,59", "-1,29,59"):
        assert cli.main(["reconstruct", "--data", str(prepped), "--seq", "w00000",
                         "--keyframes", keyframes,
                         "--out", str(tmp_path / "o.amc")]) == cli.EXIT_USAGE
    # a flag value that no data makes valid fails before any is read, naming the flag
    prep = ["prep", "--asf", str(corpus_dir), "--amc", str(corpus_dir),
            "--out", str(tmp_path / "ds")]
    train = ["train", "--data", str(prepped), "--out", str(tmp_path / "a.ckpt")]
    evaluate = ["eval", "--data", str(prepped), "--methods", "rc",
                "--out", str(tmp_path / "r.csv")]
    rebuild = ["reconstruct", "--data", str(prepped), "--seq", "w00000",
               "--out", str(tmp_path / "o.amc")]
    for argv in ([*prep, "--seed", "-1"], [*train, "--keyframes", "1"],
                 [*train, "--episodes", "0"], [*train, "--seed", "-1"],
                 [*evaluate, "--k", "1"], [*evaluate, "--k", "0,5"],
                 [*evaluate, "--seed", "-1"], [*rebuild, "--method", "uc", "--k", "1"],
                 [*rebuild, "--method", "rc", "--k", "5", "--seed", "-1"]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_USAGE, argv
        assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err, argv
    # a flag that another flag needs is missing: the parser says so, and no
    # data is read, so a missing dataset does not make it a data error
    missing = str(tmp_path / "missing")
    for argv, message in (
            (["reconstruct", "--data", missing, "--seq", "w00000", "--method", "uc"],
             "--method requires --k"),
            (["reconstruct", "--data", missing, "--seq", "w00000", "--method", "sidql",
              "--k", "5"], "sidql requires --model"),
            (["eval", "--data", missing, "--methods", "sidql"], "sidql requires --model")):
        capsys.readouterr()
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: mocapkey") and message in err, argv
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_takes_keyframes_or_a_method_not_both(tmp_path, prepped, capsys):
    # neither is silently ignored: giving both is a usage error
    capsys.readouterr()
    assert cli.main(["reconstruct", "--data", str(prepped), "--seq", "w00000",
                     "--keyframes", "0,59", "--method", "greedy", "--k", "5",
                     "--out", str(tmp_path / "o.amc")]) == cli.EXIT_USAGE
    assert "not allowed with" in capsys.readouterr().err
    assert not (tmp_path / "o.amc").exists()


def test_data_errors_exit_two(tmp_path, prepped, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["prep", "--asf", str(empty), "--amc", str(empty),
                     "--out", str(tmp_path / "ds")]) == cli.EXIT_DATA
    assert cli.main(["train", "--data", str(empty),
                     "--out", str(tmp_path / "a.ckpt")]) == cli.EXIT_DATA
    assert cli.main(["eval", "--data", str(empty), "--methods", "rc",
                     "--out", str(tmp_path / "r.csv")]) == cli.EXIT_DATA

    # malformed JSON: a manifest, a checkpoint header and a training config
    for i, manifest in enumerate([[], {"format": 1},
                                  {"format": 1, "windows": [
                                      {"file": "w00000.mkw", "source": "a"}]}]):
        data = tmp_path / f"ds{i}"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["eval", "--data", str(data), "--methods", "rc",
                         "--out", str(tmp_path / "r.csv")]) == cli.EXIT_DATA
    adam = {"learning_rate": 0.01, "beta2": 0.999, "eps": 1e-8, "step": 0}
    for header in ([], {"format_version": 1, "shapes": [2, 2, 2, 2],
                        "adam": adam}):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(json.dumps(header).encode() + b"\n")
        assert cli.main(["eval", "--data", str(empty), "--methods", "sidql",
                         "--model", str(ckpt),
                         "--out", str(tmp_path / "r.csv")]) == cli.EXIT_DATA
    # a readable checkpoint whose extra, counters or a counter is malformed
    net = neural.init([2, 2, 2, 2], seed=0)
    adam = neural.AdamState.for_network(net, learning_rate=0.01)
    for extra in (["config"], {"config": {}, "counters": []},
                  {"config": {}, "counters": {"global_step": [1]}},
                  {"config": {}, "counters": {"updates": "many"}}):
        ckpt = tmp_path / "extra.ckpt"
        neural.checkpoint_save(net, adam, ckpt, extra=extra)
        assert cli.main(["eval", "--data", str(empty), "--methods", "sidql",
                         "--model", str(ckpt),
                         "--out", str(tmp_path / "r.csv")]) == cli.EXIT_DATA
    # header values no run writes, in front of well-formed blocks
    neural.checkpoint_save(net, adam, tmp_path / "good.ckpt", extra={"config": {}})
    head, blocks = (tmp_path / "good.ckpt").read_bytes().split(b"\n", 1)
    for key, value in (("shapes", "2222"), ("shapes", [2.0, 2, 2, 2]),
                       ("shapes", [True, 2, 2, 2]), ("step", -1), ("step", 1.0),
                       ("learning_rate", 0), ("learning_rate", -1.0),
                       ("learning_rate", float("nan")), ("learning_rate", float("inf")),
                       ("learning_rate", "0.01"), ("learning_rate", True)):
        header = json.loads(head)
        (header if key == "shapes" else header["adam"])[key] = value
        ckpt = tmp_path / "header.ckpt"
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blocks)
        capsys.readouterr()
        assert cli.main(["eval", "--data", str(empty), "--methods", "sidql",
                         "--model", str(ckpt),
                         "--out", str(tmp_path / "r.csv")]) == cli.EXIT_DATA
        assert "malformed header" in capsys.readouterr().err, (key, value)
    config = tmp_path / "cfg.json"
    for bad in ({"episodes": "ten"}, {"epsilon_end": 0.1}):
        config.write_text(json.dumps(bad))
        capsys.readouterr()
        assert cli.main(["train", "--data", str(empty), "--config", str(config),
                         "--out", str(tmp_path / "a.ckpt")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert next(iter(bad)) in err and str(config) in err
    # a config or a manifest that is not JSON, or not UTF-8, is named
    data = tmp_path / "undecodable"
    data.mkdir()
    for blob in (b'{"episodes": 5', b'{"episodes": 5\xff}'):
        config.write_bytes(blob)
        (data / "manifest.json").write_bytes(blob)
        for argv, named in (
                (["train", "--data", str(empty), "--config", str(config)], config),
                (["eval", "--data", str(data), "--methods", "rc"], data / "manifest.json")):
            capsys.readouterr()
            assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_DATA
            assert str(named) in capsys.readouterr().err, (argv, blob)
    # a network for other windows names the checkpoint and the dataset
    small = neural.init([10, 4, 4, 10], seed=0)
    ckpt = tmp_path / "small.ckpt"
    neural.checkpoint_save(small, neural.AdamState.for_network(small, learning_rate=0.01),
                           ckpt, extra={"config": {}})
    for argv in (["eval", "--methods", "sidql", "--out", str(tmp_path / "r.csv")],
                 ["reconstruct", "--seq", "w00000", "--method", "sidql", "--k", "5",
                  "--out", str(tmp_path / "o.amc")]):
        capsys.readouterr()
        assert cli.main([*argv, "--data", str(prepped), "--model", str(ckpt)]) == cli.EXIT_DATA
        assert (f"{ckpt}: network [10, 4, 4, 10] does not fit a (60, 22) window of {prepped}"
                in capsys.readouterr().err), argv
    # keyframes past the window's end name the window and --keyframes
    assert cli.main(["reconstruct", "--data", str(prepped), "--seq", "w00000",
                     "--keyframes", "0,70", "--out", str(tmp_path / "o.amc")]) == cli.EXIT_DATA
    assert (f"{prepped}: --keyframes do not fit window 'w00000': set must span frames "
            "0..59, got (0, 70)") in capsys.readouterr().err
    assert not (tmp_path / "o.amc").exists()


def test_numeric_failure_exits_three(tmp_path, capsys):
    # a still take: every frame repeats the first, so no window has an
    # endpoint-only error for greedy to reduce
    tree = tmp_path / "still"
    tree.mkdir()
    (tree / "still.asf").write_text(synthcorpus.skeleton_text())
    skel = synthcorpus.skeleton()
    raw = synthcorpus.make_raw_motion(skel, 1, 500)
    still = RawMotion(raw.frame_count, {
        name: np.repeat(values[:1], raw.frame_count, axis=0)
        for name, values in raw.channels.items()})
    (tree / "still.amc").write_text(synthcorpus.amc_text(skel, still))
    data = tmp_path / "ds"
    assert cli.main(["prep", "--asf", str(tree), "--amc", str(tree),
                     "--out", str(data)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["reconstruct", "--data", str(data), "--seq", "w00000",
                     "--method", "greedy", "--k", "3",
                     "--out", str(tmp_path / "o.amc")]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err


def _capped_main(args, limit=2 << 30):
    """Exit code and stderr of ``cli.main(args)`` in a child process whose
    address space is capped at ``limit`` bytes, so a file that names a huge
    size cannot make any host allocate it."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from mocapkey import cli; "
                               "sys.exit(cli.main(sys.argv[1:]))", *args],
        preexec_fn=cap, env=env, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr


def test_oversize_headers_exit_two_without_allocating(tmp_path, prepped):
    # a checkpoint header naming a 300000 x 300000 layer, with no blocks
    adam = {"learning_rate": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": 0}
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(json.dumps({"format_version": 1, "shapes": [300000, 300000, 1, 1],
                                 "adam": adam}).encode() + b"\n")
    code, err = _capped_main(["eval", "--data", str(prepped), "--methods", "sidql",
                              "--model", str(ckpt), "--out", str(tmp_path / "r.csv")])
    assert (code, "truncated float64 blocks" in err, "Traceback" in err) == (
        cli.EXIT_DATA, True, False), err
    # a window record naming 10**9 frames
    data = tmp_path / "ds"
    shutil.copytree(prepped, data)
    record = data / "w00000.mkw"
    header, _, body = record.read_bytes().partition(b"\n")
    blob = json.loads(header[7:])
    blob["frame_count"] = 10 ** 9
    record.write_bytes(header[:7] + json.dumps(blob).encode() + b"\n" + body)
    code, err = _capped_main(["reconstruct", "--data", str(data), "--seq", "w00000",
                              "--keyframes", "0,29,59", "--out", str(tmp_path / "o.amc")])
    assert (code, "truncated float64 blocks" in err, "Traceback" in err) == (
        cli.EXIT_DATA, True, False), err


def test_reconstruct_unknown_window_exits_two(tmp_path, prepped):
    assert cli.main(["reconstruct", "--data", str(prepped), "--seq", "w99999",
                     "--keyframes", "0,59",
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


# A string, a float where an int belongs, a bool, NaN, inf and a negative
# value, each kept where the field's kind and range forbid it
_BAD = {"int": ["7", 7.5, True, math.nan, math.inf, -7],
        "positive": ["0.5", True, math.nan, math.inf, -0.5],
        "number": ["0.5", True, math.nan, math.inf],
        "limit": ["0.5", True, math.nan],       # ASF limits may be infinite
        "str": [7.5, True, math.nan, math.inf, -7],
        "bool": ["false", 0.5, 1, math.nan, math.inf, -1]}


def _set(obj, path, value):
    """A deep copy of the JSON ``obj`` with ``value`` at ``path``."""
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


def test_bad_stored_values_exit_two_and_name_the_field(tmp_path, prepped, trained, capsys):
    # each stored field of a record, a manifest row, a checkpoint header and a
    # config, given each bad value of its kind in turn (and some of its own)
    data = tmp_path / "ds"
    shutil.copytree(prepped, data)
    record = data / "w00000.mkw"
    head, _, body = record.read_bytes().partition(b"\n")
    header = json.loads(head[7:])
    k = next(i for i, j in enumerate(header["skeleton"]["joints"])
             if j["dof"] and j["limits"])
    joint = ("skeleton", "joints", k)
    record_fields = [
        (("frame_count",), "int"), (("dt",), "positive"), (("start_frame",), "int"),
        (("source",), "str"), (("skeleton", "name"), "str"),
        (("skeleton", "length_scale"), "positive"),
        (("skeleton", "angle_in_degrees"), "bool"),
        (("skeleton", "root_position", 0), "number"),
        ((*joint, "name"), "str"), ((*joint, "parent"), "int"),
        ((*joint, "direction", 0), "number"), ((*joint, "length"), "positive"),
        ((*joint, "axis", 0), "number"), ((*joint, "axis_order"), "str", "XQZ", "xyz"),
        ((*joint, "dof", 0), "str", "rq"), ((*joint, "limits", 0, 1), "limit")]
    manifest = json.loads((data / "manifest.json").read_text())
    manifest_fields = [
        (("format",), "int"),
        (("windows", 0, "file"), "str", "../w00000.mkw", "sub/w00000.mkw", ".."),
        (("windows", 0, "source"), "str"), (("windows", 0, "split"), "str", "dev")]
    ckpt_head, _, ckpt_body = trained.read_bytes().partition(b"\n")
    checkpoint_fields = [
        (("format_version",), "int"), (("shapes", 1), "int"), (("seed",), "int"),
        (("adam", "learning_rate"), "positive"), (("adam", "step"), "int"),
        (("adam", "beta1"), "positive"), (("adam", "beta2"), "positive"),
        (("adam", "eps"), "positive"), (("extra", "counters", "global_step"), "int"),
        (("extra", "counters", "episodes_done"), "int"),
        (("extra", "counters", "updates"), "int")]
    config = TrainConfig(**TINY_TRAIN_CONFIG).to_dict()
    config_fields = [((key,), "positive" if type(value) is float else "int")
                     for key, value in config.items()]
    out = ["--out", str(tmp_path / "out")]
    reconstruct = ["reconstruct", "--data", str(data), "--seq", "w00000",
                   "--keyframes", "0,29,59", *out]
    targets = [
        (header, record_fields, reconstruct, lambda h: record.write_bytes(
            b"MKWIN2 " + json.dumps(h).encode() + b"\n" + body)),
        (manifest, manifest_fields, reconstruct,
         lambda m: (data / "manifest.json").write_text(json.dumps(m))),
        (json.loads(ckpt_head), checkpoint_fields,
         ["eval", "--data", str(prepped), "--methods", "sidql",
          "--model", str(tmp_path / "c.ckpt"), *out],
         lambda c: (tmp_path / "c.ckpt").write_bytes(
             json.dumps(c).encode() + b"\n" + ckpt_body)),
        (config, config_fields,
         ["train", "--data", str(prepped), "--config", str(tmp_path / "c.json"), *out],
         lambda c: (tmp_path / "c.json").write_text(json.dumps(c)))]
    failures = []
    for original, fields, argv, write in targets:
        for path, kind, *own in fields:
            for value in _BAD[kind] + own:
                write(_set(original, path, value))
                capsys.readouterr()
                code = cli.main(argv)
                err = capsys.readouterr().err
                name = [key for key in path if isinstance(key, str)][-1]
                if code != cli.EXIT_DATA or name not in err or "Traceback" in err:
                    failures.append((path, value, code, err))
        write(original)
    assert not failures, failures


def test_skeleton_without_tracked_bones_fails_cleanly(tmp_path, corpus_dir, prepped,
                                                      capsys):
    # a root-only skeleton tracks no joint: prep skips its takes with a warning
    text = synthcorpus.skeleton_text()
    text = text[:text.index(":bonedata")] + ":bonedata\n:hierarchy\n  begin\n  end\n"
    tree = tmp_path / "rootonly"
    tree.mkdir()
    (tree / "rootonly.asf").write_text(text)
    skel = parse_asf(text)
    (tree / "rootonly.amc").write_text(
        synthcorpus.amc_text(skel, synthcorpus.make_raw_motion(skel, 1, 500)))
    (tree / "synth.asf").write_text(synthcorpus.skeleton_text())
    shutil.copy(corpus_dir / "synth_00.amc", tree / "synth_00.amc")
    capsys.readouterr()
    assert cli.main(["prep", "--asf", str(tree), "--amc", str(tree),
                     "--out", str(tmp_path / "ds")]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert "1 sources (1 skipped)" in out
    assert err.splitlines() == [
        f"prep: warning: {tree / 'rootonly.asf'}: no tracked joints: "
        "the skeleton has no bones to track",
        "prep: warning: rootonly.amc: skeleton rootonly.asf unusable, skipped"]
    # stored records without bones fail to load, naming the record
    data = tmp_path / "boneless"
    shutil.copytree(prepped, data)
    for record in data.glob("*.mkw"):
        head, _, body = record.read_bytes().partition(b"\n")
        header = json.loads(head[7:])
        header["skeleton"]["joints"] = header["skeleton"]["joints"][:1]
        record.write_bytes(b"MKWIN2 " + json.dumps(header).encode() + b"\n"
                           + body[-24 * header["frame_count"]:])
    out = ["--out", str(tmp_path / "out")]
    for argv in (["train", "--data", str(data), *out],
                 ["eval", "--data", str(data), "--methods", "rc", *out],
                 ["reconstruct", "--data", str(data), "--seq", "w00000",
                  "--keyframes", "0,29,59", *out]):
        assert cli.main(argv) == cli.EXIT_DATA, argv
        err = capsys.readouterr().err
        assert "w0" in err and "no tracked joints" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_prep_skips_source_with_malformed_skeleton(tmp_path, capsys, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "good.asf").write_text(synthcorpus.skeleton_text())
    (tree / "bad.asf").write_text(
        synthcorpus.skeleton_text().replace("name lfemur", "name", 1))
    skel = synthcorpus.skeleton()
    for stem in ("good", "bad", "bad_2"):     # bad_2.amc also uses bad.asf
        raw = synthcorpus.make_raw_motion(skel, 1, 500)
        (tree / f"{stem}.amc").write_text(synthcorpus.amc_text(skel, raw))
    read = []
    monkeypatch.setattr(cli, "parse_asf",
                        lambda fh: read.append(fh.name) or parse_asf(fh))
    code = cli.main(["prep", "--asf", str(tree), "--amc", str(tree),
                     "--out", str(tmp_path / "ds")])
    assert code == cli.EXIT_OK
    assert sorted(read) == [str(tree / "bad.asf"), str(tree / "good.asf")]
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    # the skeleton is read and reported once, naming the ASF and its line;
    # each take on it is reported and skipped
    assert err.splitlines() == [
        f"prep: warning: {tree / 'bad.asf'}: line 25: 'name' without a value",
        "prep: warning: bad.amc: skeleton bad.asf unusable, skipped",
        "prep: warning: bad_2.amc: skeleton bad.asf unusable, skipped"]
    assert "1 sources (2 skipped)" in out
    assert [w["source"] for w in load_manifest(tmp_path / "ds")["windows"]] \
        == ["good.amc", "good.amc"]


def test_non_finite_stored_floats_exit_two_and_name_the_file(tmp_path, prepped, trained,
                                                             capsys):
    # the first float of a record, and of a checkpoint's weights, made NaN or inf
    data = tmp_path / "ds"
    shutil.copytree(prepped, data)
    record = data / "w00000.mkw"
    head, _, body = record.read_bytes().partition(b"\n")
    split = load_manifest(data)["windows"][0]["split"]
    ckpt = tmp_path / "agent.ckpt"
    ckpt_head, _, ckpt_body = trained.read_bytes().partition(b"\n")
    out = ["--out", str(tmp_path / "out")]
    for value in (math.nan, math.inf):
        first = np.array([value], "<f8").tobytes()
        record.write_bytes(head + b"\n" + first + body[8:])
        ckpt.write_bytes(ckpt_head + b"\n" + first + ckpt_body[8:])
        for argv, named in (
                (["eval", "--data", str(data), "--methods", "uc", "--k", "5",
                  "--split", split, *out], record),
                (["reconstruct", "--data", str(data), "--seq", "w00000",
                  "--keyframes", "0,29,59", *out], record),
                (["eval", "--data", str(prepped), "--methods", "sidql", "--k", "4",
                  "--model", str(ckpt), *out], ckpt)):
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_DATA, (value, argv)
            err = capsys.readouterr().err
            assert f"{named}: non-finite float64 value" in err, (value, argv)
    assert not (tmp_path / "out").exists()


def _raise_value_error(*args, **kwargs):
    raise ValueError("operands could not be broadcast together")


@pytest.mark.parametrize("name, command", [("q_error", "eval"),
                                           ("forward_kinematics", "prep"),
                                           ("parse_asf", "prep")])
def test_a_value_error_is_a_bug_not_a_data_error(tmp_path, corpus_dir, prepped,
                                                 monkeypatch, name, command):
    # only typed errors become exit codes: a ValueError keeps its traceback
    monkeypatch.setattr(cli, name, _raise_value_error)
    argv = {"eval": ["eval", "--data", str(prepped), "--methods", "uc", "--k", "5"],
            "prep": ["prep", "--asf", str(corpus_dir), "--amc", str(corpus_dir)]}[command]
    with pytest.raises(ValueError, match="broadcast"):
        cli.main([*argv, "--out", str(tmp_path / "out")])


# Replacement tokens for ASF and AMC text, and replacement values for the
# JSON header of a record or a checkpoint
_TOKENS = ("", "x", "nan", "inf", "-inf", "-1", "0", "1e308", "(", ")", ":", "#",
           "begin", "end", "root", "lfemur", "rx", "XQZ", "limits", "(-180.0 abc)")
_VALUES = (None, True, "x", -1, 0, 0.5, 1e-300, 1e308, math.nan, math.inf, [], {},
           10 ** 9, [0.0, 0.0, 0.0])


def _mutate_text(text: str, draw) -> str:
    """``text`` with one of its lines deleted, doubled, swapped with the
    next, or with one of its tokens replaced."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("token", "delete", "double", "swap")))
    if how == "token":
        tokens = lines[i].split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
        lines[i] = " ".join(tokens) + "\n"
    elif how == "delete":
        del lines[i]
    elif how == "double":
        lines.insert(i, lines[i])
    else:
        lines[i:i + 2] = lines[i:i + 2][::-1]
    return "".join(lines)


def _paths(obj, path=()):
    """The key paths of every value inside the JSON ``obj``."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield (*path, key)
        yield from _paths(value, (*path, key))


def _mutate_json(obj, draw):
    """A copy of the JSON ``obj`` with one value inside it replaced or removed."""
    obj = json.loads(json.dumps(obj))
    path = draw(st.sampled_from(list(_paths(obj))))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    if draw(st.booleans()):
        del inner[path[-1]]
    else:
        inner[path[-1]] = draw(st.sampled_from(_VALUES))
    return obj


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_exit_cleanly_and_name_the_file(corpus_dir, prepped, trained, data):
    # one token or line of an ASF or AMC file, or one header value of a record
    # or a checkpoint, is changed; the command that reads it either works or
    # exits 2 naming that file (3 for a numeric failure), never with another
    # exception
    target = data.draw(st.sampled_from(("asf", "amc", "record", "checkpoint")))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = ["--out", str(tmp / "out")]
        if target in ("asf", "amc"):
            (tmp / "synth.asf").write_text(synthcorpus.skeleton_text())
            shutil.copy(corpus_dir / "synth_00.amc", tmp / "synth_00.amc")
            mutated = tmp / ("synth.asf" if target == "asf" else "synth_00.amc")
            mutated.write_text(_mutate_text(mutated.read_text(), data.draw))
            argv = ["prep", "--asf", str(tmp), "--amc", str(tmp), *out]
        elif target == "record":
            shutil.copytree(prepped, tmp / "ds")
            mutated = tmp / "ds" / "w00000.mkw"
            head, _, body = mutated.read_bytes().partition(b"\n")
            header = _mutate_json(json.loads(head[7:]), data.draw)
            mutated.write_bytes(head[:7] + json.dumps(header).encode() + b"\n" + body)
            argv = ["reconstruct", "--data", str(tmp / "ds"), "--seq", "w00000",
                    "--method", "uc", "--k", "5", *out]
        else:
            mutated = tmp / "agent.ckpt"
            head, _, body = trained.read_bytes().partition(b"\n")
            header = _mutate_json(json.loads(head), data.draw)
            mutated.write_bytes(json.dumps(header).encode() + b"\n" + body)
            argv = ["eval", "--data", str(prepped), "--methods", "sidql", "--k", "4",
                    "--model", str(mutated), *out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    err = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERIC), (code, err)
    if code == cli.EXIT_NUMERIC:
        assert "numeric failure" in err, err
    if code == cli.EXIT_DATA:
        assert mutated.name in err, err
