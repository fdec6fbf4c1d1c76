"""Tiny-size self-test of the benchmark: every workload, every check.

    python3 bench/selftest.py

For each workload it runs ``bench/run.py --size tiny`` untraced once and
traced twice at the same seed, and requires: exit code 0, a last stdout
line with exactly the result keys, ``correct`` true with no failures,
metric names and units equal to ``BENCHMARK.json``, every time and count
non-zero. The second traced run fails its own ``correct`` flag if its
call counts differ from the first's. It then runs the benchmark from a directory holding only ``BENCHMARK.json``
and ``bench/`` and requires a non-zero exit without a result line.
Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
TIME_UNITS = {"s", "ms", "us"}


def _run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def _result(lines: list[str], expected: list[dict], label: str) -> list[str]:
    errors = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failed = [line for line in lines if "FAILED" in line]
        errors.append(f"{label}: correct={result['correct']} "
                      f"failed={result['failed']} {failed}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        errors.append(f"{label}: metric names or units differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        positive = metric["unit"] in TIME_UNITS | {"count"} and not name.startswith("trace.")
        if not isinstance(value, (int, float)) or (positive and value <= 0):
            errors.append(f"{label}: {name} = {value!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        code, plain = _run(ROOT, workload, 0)
        errors += [f"{workload} trace 0: exit {code}"] if code else []
        errors += _result(plain, spec["end_to_end"], f"{workload} trace 0")
        for _ in range(2):
            code, lines = _run(ROOT, workload, 1)
            errors += [f"{workload} trace 1: exit {code}"] if code else []
            errors += _result(lines, spec["per_layer"], f"{workload} trace 1")
        print(f"selftest: {workload} done", flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        errors.append(f"bare directory: exit {code}, printed {lines[-1:]}")

    for error in errors:
        print(f"selftest: FAILED {error}")
    print(f"selftest: {'ok' if not errors else f'{len(errors)} failures'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
