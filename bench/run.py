"""Benchmark of the mocapkey CLI stages on a synthetic capture tree.

    python3 bench/run.py --workload {ingest,select,train} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Builds nothing: it imports ``src/mocapkey`` and the corpus generator and
reference oracle in ``tests/`` from the tree this file sits in, and works
in ``.bench_work/`` there. With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead. The lines before it are a
human-readable report: environment, every op, every check and every
metric. See ``bench/README.md`` for the workloads and metrics.
"""

import os

# One BLAS thread: the benchmark runs one op at a time on a small machine, and
# a pinned count keeps runs comparable. Set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_BLAS = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("ingest", "select", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed focus loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="corpus and episode sizes; tiny is for the self-test")
    return p.parse_args(argv)


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def _environment(args, workloads, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status", encoding="utf-8") as fh:
        threads = next((line.split()[1] for line in fh if line.startswith("Threads:")),
                       None)
    size = workloads.SIZES[args.size][args.workload]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_inherited": INHERITED_BLAS,
        "os_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(ROOT),
        "code_digest": workloads.code_digest(ROOT)[:16],
        "seed": args.seed,
        "corpus": {"takes": size.takes, "frames_per_take": size.frames,
                   "source_fps": 120, "window": workloads.WINDOW},
        "size": args.size,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    src, tests = ROOT / "src", ROOT / "tests"
    needed = (src / "mocapkey" / "__init__.py", tests / "synthcorpus.py",
              tests / "oracle_reference.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from a mocapkey checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(tests)]
    import numpy as np
    import mocapkey
    import spans
    import workloads
    if not Path(mocapkey.__file__).resolve().is_relative_to(src):
        print(f"bench: imported mocapkey from {mocapkey.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED

    size = workloads.SIZES[args.size][args.workload]
    tracer = spans.Tracer() if args.trace else None
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(args.workload, args.seed, size, workdir, tracer)
    metrics: dict = {}
    unscaled: dict = {}
    counts = None
    outputs = None
    quality: dict = {}
    try:
        completed = workloads.execute(run, args.seconds, bool(args.trace))
        if completed:
            if args.trace:
                metrics, counts = workloads.per_layer(run)
            else:
                metrics = workloads.end_to_end(run, import_s)
                unscaled = workloads.end_to_end(run, import_s, scaled=False)
            outputs = run.outputs_digest()
            quality = run.quality()
            digest = workloads.code_digest(ROOT)
            workloads.compare_record(
                run, WORK / "records" /
                f"{args.workload}-{args.size}-seed{args.seed}-{digest[:16]}.json",
                outputs, counts)
    except Exception:  # a check that cannot read an output fails the run
        traceback.print_exc()
        completed = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = _environment(args, workloads, np)

    print(f"bench: workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"bench: environment {json.dumps(env, sort_keys=True)}")
    print(f"bench: {len(run.pace)} pace samples, median "
          f"{run.pace_median():.5f} s "
          f"(reference {workloads.NOMINAL_PACE_S} s)")
    print("bench: ops (phase rep stage wall_s scaled_s units traced ok)")
    for op in run.ops:
        print(f"bench:   {op.phase:<5s} {op.rep:2d} {op.stage:<11s} {op.seconds:9.4f} "
              f"{run.scaled(op):9.4f} {op.units:6g} {int(op.traced)} "
              f"{'ok' if op.ok else 'FAILED'}")
    failed_checks = [c for c in run.checks if not c[1]]
    print(f"bench: {len(run.checks)} checks, {len(failed_checks)} failed")
    for name, _, detail, _ in failed_checks:
        print(f"bench:   FAILED {name}: {detail}")
    if outputs is not None:
        print(f"bench: selector outputs digest {outputs}")
    for name, value in sorted(quality.items()):
        print(f"bench: quality {name} {value:.9g}")
    if counts is not None:
        print(f"bench: call counts {json.dumps(counts, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        raw = f" (unscaled {unscaled[name][0]:.6g})" if name in unscaled else ""
        print(f"bench: metric {name:<48s} {value:12.6g} {unit}{raw}")

    # error_rate = failed / attempted: every CLI op (with its output checks)
    # and every run-level check is one attempt
    cli_ops = [op for op in run.ops if op.stage != "generate"]
    run_checks = [c for c in run.checks if c[3]]
    attempted = len(cli_ops) + len(run_checks)
    failed = (sum(1 for op in cli_ops if not op.ok)
              + sum(1 for c in run_checks if not c[1]))
    if not completed:
        failed = max(failed, 1)
        attempted = max(attempted, failed)
    print(f"bench: error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": completed and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
