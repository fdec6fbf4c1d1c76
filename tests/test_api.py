import argparse
import importlib.util
import re
from pathlib import Path

import mocapkey
import synthcorpus
from mocapkey import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_resolve_and_are_listed_once():
    names = mocapkey.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mocapkey, n)] == []
    # an exception class exists only where some code catches it by name
    assert {n for n in names if isinstance(getattr(mocapkey, n), type)
            and issubclass(getattr(mocapkey, n), BaseException)} == {
        "MocapKeyError", "NumericError", "DegenerateSequence"}


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    skel = synthcorpus.skeleton()
    raw = synthcorpus.make_raw_motion(skel, 3, 250)
    (tmp_path / "subject.asf").write_text(synthcorpus.skeleton_text())
    (tmp_path / "take01.amc").write_text(synthcorpus.amc_text(skel, raw))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["seq"].joint_count == 22
    assert len(scope["windows"]) == 1 and scope["windows"][0].frame_count == 60
    assert len(scope["keys"]) == 5
    assert isinstance(scope["rebuilt"], mocapkey.SphericalSequence)
    assert capsys.readouterr().out.startswith("remaining error: ")


def test_bench_span_targets_exist():
    # the benchmark's tracer wraps these by name; a rename must fail here
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, func) for module, func, _ in spans.TARGETS
               if not hasattr(importlib.import_module(f"mocapkey.{module}"), func)]
    assert len(spans.TARGETS) > 0 and missing == []


def test_readme_commands_name_only_existing_flags():
    # a flag removed from the CLI must not linger in the documented commands
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    used = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            match = re.match(r"\s*mocapkey (\S+)(.*)", line)
            if match:
                used += [(match[1], flag) for flag in re.findall(r"--[\w-]+", match[2])]
    assert {command for command, _ in used} == set(commands)
    assert [(command, flag) for command, flag in used
            if flag not in commands[command]._option_string_actions] == []
