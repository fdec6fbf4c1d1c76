"""The three benchmark workloads and their output checks.

Every workload drives the real ``mocapkey`` CLI in-process (``cli.main``)
through the whole user pipeline, ``prep`` -> ``train`` -> ``eval`` ->
``reconstruct``, on a capture tree generated from the seed by
``tests/synthcorpus.py``. The workloads differ in which stage is repeated
for the measured seconds; the other stages run in set-up (inputs the
focus stage needs) or in a tail after the loop, so every metric exists on
every workload:

========  ==========================  ====================  =================================
workload  set-up (repeated)           focus (timed loop)    tail (repeated; * first tail only)
========  ==========================  ====================  =================================
ingest    generate tree               prep + reconstructs   train, eval*
select    generate, prep, train       eval                  prep, train, reconstructs*
train     generate, prep              train                 prep, eval*, reconstructs*
========  ==========================  ====================  =================================

``ingest`` preps six takes of the acceptance-test length (2640 frames at
120 Hz, 11 windows each). ``select`` and ``train`` prep three takes of
half that length (5 windows each), two train and one held out, so that an
eval pass is 5 windows and ``select`` repeats it within its seconds.
``reconstruct`` rebuilds a window from uniform W=5 keyframes; a pass
rebuilds the same fixed subset of the dataset's windows every time.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle_reference
import spans
import synthcorpus
from mocapkey import agent, baselines, cli, dataset
from mocapkey.asfamc import parse_amc
from mocapkey.spherical import sequence_to_spherical

METHODS = ("rc", "uc", "greedy", "sidql")
BUDGETS = (5, 10, 15)
WINDOW = 60        # prep default frames per window at 30 Hz
STRIDE = 4         # 120 Hz source -> 30 Hz
RECON_BUDGET = 5   # uniform keyframes per reconstructed window
RECON_WINDOWS = 11  # windows rebuilt per pass, evenly spaced over the dataset

# Host pace: a shared host's speed can drift by 20-60 % over tens of
# seconds (other tenants share its cores), and CPU time drifts with it. Every op
# is bracketed by a fixed calibration sample; op seconds are rescaled by
# NOMINAL_PACE_S / (median calibration time within PACE_WINDOW_S of the op),
# i.e. reported at the reference pace, where the sample takes
# NOMINAL_PACE_S (about the median of 1200 samples on a 2-vCPU x86-64
# host, Python 3.11, numpy 2.4, one BLAS thread; their deciles spanned
# 0.013-0.023 s). The calibration runs no mocapkey code.
NOMINAL_PACE_S = 0.018
PACE_WINDOW_S = 10.0
PACE_ITERATIONS = 400
_PACE_A = tuple(np.random.default_rng(0).uniform(-3.0, 3.0, size=(4, 60, 25)))
_PACE_U = (np.arange(60) / 59.0)[:, None]
_PACE_B = np.empty((60, 25))
_PACE_D = np.empty((60, 25))
_PACE_SUM = np.zeros(())


def pace_sample() -> float:
    """Seconds for a fixed run of small numpy ops on 60 x 25 arrays, the
    shape of a window's angle block. It writes into preallocated buffers
    and runs with the garbage collector off, so the program's heap does not
    change its time."""
    a0, a1, a2, a3 = _PACE_A
    u, b, d = _PACE_U, _PACE_B, _PACE_D
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(PACE_ITERATIONS):
            np.multiply(a3, u, out=b)
            np.add(b, a2, out=b)
            np.multiply(b, u, out=b)
            np.add(b, a1, out=b)
            np.multiply(b, u, out=b)
            np.add(b, a0, out=b)
            np.subtract(b, a0, out=d)
            np.abs(d, out=d)
            np.mod(d, 2 * np.pi, out=d)
            np.subtract(2 * np.pi, d, out=b)
            np.minimum(d, b, out=d)
            np.add.reduce(d, axis=None, out=_PACE_SUM)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


FOCUS_STAGES = {"ingest": ("cli.prep", "cli.reconstruct"),
                "select": ("cli.eval",),
                "train": ("cli.train",)}


@dataclass(frozen=True)
class Size:
    takes: int            # AMC files in the generated tree
    frames: int           # 120 Hz frames per take
    episodes: int         # training episodes per train op
    reps: int             # set-ups per run (setup_s is their median) and
                          # repeats of the tail


SIZES = {
    "full": {
        # prep holds out one take: 11 windows on ingest, 5 on the others
        "ingest": Size(takes=6, frames=2640, episodes=300, reps=3),
        "select": Size(takes=3, frames=1320, episodes=300, reps=3),
        "train": Size(takes=3, frames=1320, episodes=300, reps=3),
    },
    "tiny": {workload: Size(takes=2, frames=480, episodes=120, reps=2)
             for workload in ("ingest", "select", "train")},
}


@dataclass
class Op:
    phase: str                        # setup | focus | tail
    rep: int
    stage: str                        # generate | prep | train | eval | reconstruct
    start: float                      # perf_counter at the start
    seconds: float                    # wall time
    units: float                      # frames, episodes or windows processed
    ok: bool
    traced: bool
    span_range: tuple[int, int] | None


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run: a work directory, the ops done in it and their
    checks. Stage methods return False when the op or its check failed."""

    def __init__(self, workload: str, seed: int, size: Size, workdir: Path,
                 tracer: spans.Tracer | None):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = workdir
        self.tracer = tracer
        self.ops: list[Op] = []
        self.checks: list[tuple[str, bool, str, bool]] = []
        self.phase = "setup"
        self.rep = 0
        self.traced = tracer is not None
        self.asf_dir = workdir / "asf"
        self.amc_dir = workdir / "amc"
        self.data = workdir / "data"
        self.model = workdir / "model.ckpt"
        self.recon_ids: list[str] = []
        self.eval_digests: set[str] = set()
        self.model_digests: set[str] = set()
        self.eval_csv: Path | None = None
        self.eval_model: str | None = None
        self.train_eval_q: float | None = None
        self.pace: list[tuple[float, float]] = []   # (perf_counter, sample s)

    # -- bookkeeping --------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "", run_level: bool = False) -> bool:
        """Records an output check. Op-level checks fail their op; run-level
        checks (oracle, repeats) count as attempts of their own."""
        self.checks.append((name, bool(ok), detail, run_level))
        return bool(ok)

    def _sample_pace(self, reuse: bool = False) -> None:
        """Takes a pace sample; with ``reuse``, only if none was taken in
        the last quarter second."""
        if reuse and self.pace and time.perf_counter() - self.pace[-1][0] < 0.25:
            return
        self.pace.append((time.perf_counter(), pace_sample()))

    def pace_median(self) -> float:
        return statistics.median(p for _, p in self.pace)

    def scaled(self, op: Op) -> float:
        """Op seconds at the reference pace."""
        local = [p for t, p in self.pace
                 if op.start - PACE_WINDOW_S <= t <= op.start + op.seconds + PACE_WINDOW_S]
        return op.seconds * NOMINAL_PACE_S / statistics.median(local)

    def _cli(self, stage: str, argv: list[str], units: float) -> bool:
        tracer = self.tracer if self.traced else None
        first = len(tracer.spans) if tracer else None
        out = io.StringIO()
        error = ""
        self._sample_pace(reuse=True)
        with tracer if tracer else contextlib.nullcontext():
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        (tracer.span(f"cli.{stage}") if tracer
                         else contextlib.nullcontext()):
                    code = cli.main([stage, *argv])
            except Exception as exc:  # a crashing stage is a failed op
                code, error = None, repr(exc)
            seconds = time.perf_counter() - started
        self._sample_pace()
        ok = self.check(f"{stage} exit", code == cli.EXIT_OK,
                        error or f"exit code {code}")
        self.ops.append(Op(self.phase, self.rep, stage, started, seconds, units, ok,
                           tracer is not None,
                           (first, len(tracer.spans)) if tracer else None))
        return ok

    def _mark_failed(self) -> None:
        self.ops[-1].ok = False

    # -- stages -------------------------------------------------------------

    def generate(self) -> bool:
        """Writes the seed's capture tree: one ASF and ``takes`` AMC files."""
        self._sample_pace(reuse=True)
        started = time.perf_counter()
        for d in (self.asf_dir, self.amc_dir):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        (self.asf_dir / "synth.asf").write_text(synthcorpus.skeleton_text(),
                                                encoding="utf-8")
        skel = synthcorpus.skeleton()
        for i in range(self.size.takes):
            raw = synthcorpus.make_raw_motion(skel, self.seed * 100003 + i,
                                              self.size.frames)
            (self.amc_dir / f"take{i:03d}.amc").write_text(
                synthcorpus.amc_text(skel, raw), encoding="utf-8")
        self.ops.append(Op(self.phase, self.rep, "generate", started,
                           time.perf_counter() - started, self.size.takes,
                           True, False, None))
        self._sample_pace()
        return True

    def prep(self) -> bool:
        shutil.rmtree(self.data, ignore_errors=True)
        frames = self.size.takes * self.size.frames
        if not self._cli("prep", ["--asf", str(self.asf_dir), "--amc", str(self.amc_dir),
                                  "--out", str(self.data), "--seed", str(self.seed)],
                         frames):
            return False
        per_take = len(range(0, self.size.frames, STRIDE)) // WINDOW
        expected = self.size.takes * per_take
        windows = dataset.load_manifest(self.data)["windows"]
        if not self.check("prep window count", len(windows) == expected,
                          f"{len(windows)} windows, expected {expected}"):
            self._mark_failed()
            return False
        ids = [Path(w["file"]).stem for w in windows]
        picks = np.linspace(0, len(ids) - 1, min(RECON_WINDOWS, len(ids)))
        self.recon_ids = [ids[int(i)] for i in picks.round()]
        return True

    def train(self) -> bool:
        episodes = self.size.episodes
        if not self._cli("train", ["--data", str(self.data), "--out", str(self.model),
                                   "--episodes", str(episodes)], episodes):
            return False
        try:
            agent.load_agent(self.model)
            loaded = ""
        except Exception as exc:  # the check reports any load failure
            loaded = repr(exc)
        losses, evals = [], []
        with open(f"{self.model}.log.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["loss"]:
                    losses.append(float(row["loss"]))
                if row["eval_q"]:
                    evals.append(float(row["eval_q"]))
        ok = self.check("train checkpoint loads", not loaded, loaded)
        ok &= self.check("train losses finite",
                         bool(losses) and all(math.isfinite(v) for v in losses),
                         f"{len(losses)} losses")
        ok &= self.check("train evaluated", bool(evals), f"{len(evals)} evaluations")
        if not ok:
            self._mark_failed()
            return False
        self.train_eval_q = min(evals)
        self.model_digests.add(_sha256_file(self.model))
        return True

    def eval(self) -> bool:
        out = self.work / "eval.csv"
        test = sum(1 for w in dataset.load_manifest(self.data)["windows"]
                   if w["split"] == "test")
        if not self._cli("eval", ["--data", str(self.data), "--model", str(self.model),
                                  "--methods", ",".join(METHODS),
                                  "--k", ",".join(map(str, BUDGETS)),
                                  "--out", str(out), "--jobs", "1"], test):
            return False
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(f"{out}.summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        usable = test - summary["degenerate_skipped"]
        self.ops[-1].units = usable
        if not self.check("eval row count",
                          len(rows) == usable * len(METHODS) * len(BUDGETS)
                          and summary["windows"] == usable,
                          f"{len(rows)} rows for {usable} windows"):
            self._mark_failed()
            return False
        blob = "\n".join(",".join(r[c] for c in r if c != "decision_time_s")
                         for r in rows)
        self.eval_digests.add(hashlib.sha256(blob.encode()).hexdigest())
        self.eval_csv = out
        self.eval_model = _sha256_file(self.model)
        return True

    def reconstruct(self, window_id: str) -> bool:
        out = self.work / "recon" / f"{window_id}.amc"
        out.parent.mkdir(exist_ok=True)
        if not self._cli("reconstruct", ["--data", str(self.data), "--seq", window_id,
                                         "--method", "uc", "--k", str(RECON_BUDGET),
                                         "--out", str(out)], 1):
            return False
        skeleton, _, _ = dataset.read_window(self.data / f"{window_id}.mkw")
        try:
            with open(out, encoding="utf-8") as fh:
                frames = parse_amc(fh, skeleton).frame_count
        except Exception as exc:  # the check reports any parse failure
            frames = repr(exc)
        if not self.check("reconstruct re-parses", frames == WINDOW,
                          f"{window_id}: {frames} frames"):
            self._mark_failed()
            return False
        return True

    # -- run-level checks ---------------------------------------------------

    def check_oracle_sample(self) -> None:
        """One held-out window: greedy W=5 equals the reference selector and
        eval's q_error equals the reference metric on that set."""
        with open(self.eval_csv, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["method"] == "greedy" and r["keyframes"] == "5"]
        ids = sorted(r["sequence"] for r in rows)
        window_id = ids[int(np.random.default_rng(self.seed).integers(len(ids)))]
        _, seq, _ = dataset.read_window(self.data / f"{window_id}.mkw")
        sph = sequence_to_spherical(seq)
        lists = (sph.theta.tolist(), sph.phi.tolist(),
                 sph.theta_dot.tolist(), sph.phi_dot.tolist(), sph.dt)
        ref = oracle_reference.greedy_reference(*lists, 5)
        ours = list(baselines.select_greedy(sph, 5).indices)
        self.check("greedy W=5 matches reference", ours == ref,
                   f"{window_id}: {ours} vs {ref}", run_level=True)
        q_ref = oracle_reference.mean_angle_error_reference(*lists, ref)
        q_eval = float(next(r["q_error"] for r in rows if r["sequence"] == window_id))
        self.check("eval q_error matches reference", abs(q_eval - q_ref) <= 1e-9,
                   f"{window_id}: {q_eval!r} vs {q_ref!r}", run_level=True)

    def check_repeats(self) -> None:
        self.check("eval output repeats", len(self.eval_digests) == 1,
                   f"{len(self.eval_digests)} distinct eval tables", run_level=True)
        self.check("checkpoint repeats", len(self.model_digests) == 1,
                   f"{len(self.model_digests)} distinct checkpoints", run_level=True)

    def outputs_digest(self) -> str:
        """Selector outputs: the eval table without timings, plus the bytes
        of the checkpoint it was run with."""
        blob = "".join(sorted(self.eval_digests)) + (self.eval_model or "")
        return hashlib.sha256(blob.encode()).hexdigest()

    def quality(self) -> dict[str, float]:
        with open(self.eval_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        out = {f"eval_mean_q.{m}": statistics.fmean(
            float(r["q_error"]) for r in rows if r["method"] == m)
            for m in ("greedy", "sidql")}
        out["train_eval_q"] = self.train_eval_q
        return out


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------

def _setup(run: Run) -> bool:
    ok = run.generate()
    if run.workload in ("select", "train"):
        ok = ok and run.prep()
    if run.workload == "select":
        ok = ok and run.train()
    return ok


def _focus(run: Run) -> bool:
    if run.workload == "ingest":
        return run.prep() and all(run.reconstruct(w) for w in run.recon_ids)
    if run.workload == "select":
        return run.eval()
    return run.train()


def _tail(run: Run) -> bool:
    """Every stage but the focus one. eval and the reconstruct pass run in
    the first tail only: each is several seconds of work."""
    ok = True
    if run.workload != "ingest":
        ok = run.prep()
    if ok and run.workload != "train":
        ok = run.train()
    if ok and run.workload != "select" and run.rep == 0:
        ok = run.eval()
    if ok and run.workload != "ingest" and run.rep == 0:
        ok = all(run.reconstruct(w) for w in run.recon_ids)
    return ok


def execute(run: Run, seconds: float, trace: bool) -> bool:
    """Runs set-up, the timed focus loop and the tail; returns whether
    every op succeeded.

    With tracing, each focus rep runs twice, untraced then traced, so the
    tracing overhead is a paired difference.
    """
    for rep in range(run.size.reps):
        run.phase, run.rep, run.traced = "setup", rep, trace
        if not _setup(run):
            return False
    run.phase = "focus"
    loop_start = time.perf_counter()
    rep = 0
    while rep < 1 or time.perf_counter() - loop_start < seconds:
        for traced in ((False, True) if trace else (False,)):
            run.rep, run.traced = rep, traced
            if not _focus(run):
                return False
        rep += 1
    for rep in range(run.size.reps):
        run.phase, run.rep, run.traced = "tail", rep, trace
        if not _tail(run):
            return False
    run.check_oracle_sample()
    run.check_repeats()
    return True


def _median_rate(run: Run, stage: str, scaled: bool) -> float:
    """Median over a stage's ops of units per second. Every op of a stage
    does the same work in every rep; a reconstruct op is one window of the
    fixed subset, so its rate is that of the run's median window. Export
    cost is heavy-tailed over windows (a few take 1.5-5.5 times the median),
    and a mean over 11 windows would follow how many slow windows the seed
    drew; the mean over all windows is ``asfamc.export_amc.ms_per_window``."""
    return statistics.median(op.units / (run.scaled(op) if scaled else op.seconds)
                             for op in run.ops if op.stage == stage)


def end_to_end(run: Run, import_s: float, scaled: bool = True) -> dict:
    """End-to-end metrics, at the reference pace unless ``scaled`` is false.
    Set-up is the imports plus the median over set-up reps of their ops'
    time."""
    reps = [sum(run.scaled(op) if scaled else op.seconds
                for op in run.ops if op.phase == "setup" and op.rep == r)
            for r in range(run.size.reps)]
    imports = import_s * NOMINAL_PACE_S / run.pace_median() if scaled else import_s
    return {
        "setup_s": (imports + statistics.median(reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "prep_frames_per_s": (_median_rate(run, "prep", scaled), "frames/s"),
        "reconstruct_windows_per_s": (_median_rate(run, "reconstruct", scaled), "windows/s"),
        "eval_windows_per_s": (_median_rate(run, "eval", scaled), "windows/s"),
        "train_episodes_per_s": (_median_rate(run, "train", scaled), "episodes/s"),
    }


def _canonical_ops(run: Run) -> list[Op]:
    """One pass of the workload: the last set-up, the first traced focus
    rep and the first tail."""
    last_setup = run.size.reps - 1
    return [op for op in run.ops if op.traced and (
        (op.phase == "setup" and op.rep == last_setup)
        or op.rep == 0 and op.phase in ("focus", "tail"))]


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics of the canonical pass, and its exact call counts."""
    for stage in ("prep", "train", "eval", "reconstruct"):
        counts = [spans.call_counts(spans.LayerStats(run.tracer.spans, [op.span_range]))
                  for op in run.ops if op.stage == stage and op.traced]
        run.check(f"{stage} call counts repeat", all(c == counts[0] for c in counts),
                  f"{len(counts)} traced ops", run_level=True)
    canonical = _canonical_ops(run)
    stats = spans.LayerStats(run.tracer.spans, [op.span_range for op in canonical])
    data_bytes = sum(p.stat().st_size for p in run.data.iterdir())
    takes_prepped = run.size.takes * sum(1 for op in canonical if op.stage == "prep")
    metrics = spans.layer_metrics(stats, FOCUS_STAGES[run.workload],
                                  takes_prepped, data_bytes)
    metrics.update({k: (v, "share" if k == "train_eval_q" else "rad")
                    for k, v in run.quality().items()})
    plain, extra = [], []
    for rep in sorted({op.rep for op in run.ops if op.phase == "focus"}):
        walls = [sum(run.scaled(op) for op in run.ops
                     if op.phase == "focus" and op.rep == rep and op.traced == traced)
                 for traced in (False, True)]
        plain.append(walls[0])
        extra.append(walls[1] - walls[0])
    overhead = statistics.median(extra)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / statistics.median(plain), "share")
    return metrics, spans.call_counts(stats)


def code_digest(root: Path) -> str:
    """Digest of everything that decides the outputs: package, corpus
    generator, reference oracle and this benchmark."""
    files = sorted((root / "src" / "mocapkey").glob("*.py"))
    files += [root / "tests" / "synthcorpus.py", root / "tests" / "oracle_reference.py"]
    files += sorted((root / "bench").glob("*.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_record(run: Run, record_path: Path, outputs: str,
                   counts: dict | None) -> None:
    """Checks this run against an earlier run of the same code, workload,
    size and seed, then stores what this run adds."""
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        record = {}
    if "outputs" in record:
        run.check("outputs match earlier run", record["outputs"] == outputs,
                  f"{outputs[:12]} vs {record['outputs'][:12]}", run_level=True)
    if counts is not None and "counts" in record:
        diff = sorted(k for k in set(counts) | set(record["counts"])
                      if counts.get(k) != record["counts"].get(k))
        run.check("call counts match earlier run", not diff, ", ".join(diff),
                  run_level=True)
    record["outputs"] = outputs
    if counts is not None:
        record["counts"] = counts
    record_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = record_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, record_path)
