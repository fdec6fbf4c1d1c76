"""Command line interface.

Subcommands: ``prep`` (ASF/AMC tree -> window dataset), ``train`` (DQN
agent on the train split), ``eval`` (selector comparison table on a
split), ``reconstruct`` (one window back to AMC from chosen keyframes).

Exit codes, set by ``main`` alone: 0 success, 1 usage error (found before any
file is read), 2 data error (a ``MocapKeyError`` or ``OSError`` naming the file
at fault), 3 numeric failure (any ``NumericError``: degenerate metrics,
singularities, non-finite gradients, unreachable poses). Any other exception,
a ``ValueError`` too, is a bug and keeps its traceback.

``train`` reads its config from ``--config`` (JSON), else from the
``--resume`` checkpoint, else uses the defaults; its ``--episodes``,
``--keyframes`` and ``--seed`` flags win over it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import agent, baselines, dataset, neural
from .asfamc import export_amc, parse_amc, parse_asf
from .errors import DegenerateSequence, MocapKeyError, NumericError
from .keyframes import KeyframeSet, check_keyframe_count
from .metrics import (REPORT_COLUMNS, q_baseline, q_error, root_rmse,
                      section_error_table)
from .motion import (CMU_EXCLUDED_JOINTS, STRIDE, TARGET_FPS, WINDOW_LEN, downsample,
                     filter_joints, forward_kinematics, preprocess)
from .reconstruct import reconstruct_full
from .spherical import sequence_to_spherical, sph_to_cart

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

METHODS = ("rc", "uc", "greedy", "sidql")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _listed(item, choices=None):
    """argparse type: a non-empty comma-separated list of distinct ``item``
    values, each one of ``choices`` when given."""
    def parse(text: str) -> tuple:
        values = tuple(item(t) for t in text.split(",") if t)
        if (not values or len(set(values)) < len(values)
                or (choices and not set(values) <= set(choices))):
            raise ValueError(text)
        return values
    parse.__name__ = "comma-separated"     # argparse names it in its error
    return parse


def _at_least(low: int):
    """argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value
    parse.__name__ = f"integer >= {low}"     # argparse names it in its error
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="mocapkey",
                     description="Keyframe extraction and cubic motion "
                                 "reconstruction for ASF/AMC motion capture.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", parents=[], help="build a window dataset from "
                       "an ASF/AMC tree", add_help=True)
    p.add_argument("--asf", required=True,
                   help="skeleton file or directory searched for *.asf")
    p.add_argument("--amc", required=True,
                   help="motion file or directory searched for *.amc")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--seed", type=_at_least(0), default=0, help="split assignment seed")

    p = sub.add_parser("train", help="train the keyframe agent")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--config", default=None, help="training config JSON")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--episodes", type=_at_least(1), default=None,
                   help="override the configured episode count")
    p.add_argument("--keyframes", type=_at_least(2), default=None,
                   help="override the configured keyframe budget")
    p.add_argument("--seed", type=_at_least(0), default=None,
                   help="override the configured seed")

    p = sub.add_parser("eval", help="compare selectors on a dataset split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", default=None, help="checkpoint for sidql")
    p.add_argument("--methods", type=_listed(str, METHODS),
                   default="rc,uc,greedy,sidql",
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--k", type=_listed(_at_least(2)), default="5,10,15",
                   help="comma-separated keyframe budgets")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--seed", type=_at_least(0), default=0,
                   help="seed for the random selector")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="worker processes for evaluation (at least 1)")

    p = sub.add_parser("reconstruct", help="rebuild one window as AMC")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--seq", required=True, help="window id, e.g. w00003")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--keyframes", type=_listed(_at_least(0)), default=None,
                     help="explicit comma-separated frame indices")
    how.add_argument("--method", default=None, choices=METHODS,
                     help="selector to choose keyframes")
    p.add_argument("--k", type=_at_least(2), default=None,
                   help="keyframe budget for --method")
    p.add_argument("--model", default=None, help="checkpoint for sidql")
    p.add_argument("--seed", type=_at_least(0), default=0,
                   help="seed for the random selector")
    p.add_argument("--out", required=True, help="AMC output path")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # the flags that only other flags make valid, checked before any file is read
        if args.command == "reconstruct" and args.method and args.k is None:
            parser.error("reconstruct: --method requires --k")
        sidql = ("sidql" in args.methods if args.command == "eval"
                 else args.command == "reconstruct" and args.method == "sidql")
        if sidql and not args.model:
            parser.error(f"{args.command}: sidql requires --model")
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {"prep": cmd_prep, "train": cmd_train, "eval": cmd_eval,
               "reconstruct": cmd_reconstruct}[args.command]
    try:
        return handler(args)
    except NumericError as exc:
        print(f"mocapkey {args.command}: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MocapKeyError, OSError) as exc:
        print(f"mocapkey {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


# ---------------------------------------------------------------------------
# prep
# ---------------------------------------------------------------------------

def _find_skeleton(amc_path: Path, asf_by_stem: dict[str, Path]) -> Path | None:
    stem = amc_path.stem
    subject = stem.split("_")[0]
    if subject in asf_by_stem:
        return asf_by_stem[subject]
    if stem in asf_by_stem:
        return asf_by_stem[stem]
    if len(asf_by_stem) == 1:
        return next(iter(asf_by_stem.values()))
    return None


def _read_skeleton(asf_path: Path):
    """(skeleton, skeleton without the CMU_EXCLUDED_JOINTS it has) from one
    ASF file; MocapKeyError when the second has no bone left to track."""
    with open(asf_path, "r", encoding="utf-8", errors="replace") as fh:
        skeleton = parse_asf(fh)
    present = tuple(n for n in CMU_EXCLUDED_JOINTS
                    if n in {j.name for j in skeleton.joints})
    tracked = filter_joints(skeleton, present)
    if not tracked.bone_names:
        raise MocapKeyError("no tracked joints: the skeleton has no bones to track")
    return skeleton, tracked


def cmd_prep(args) -> int:
    asf_root = Path(args.asf)
    amc_root = Path(args.amc)
    asf_files = [asf_root] if asf_root.is_file() else sorted(asf_root.rglob("*.asf"))
    amc_files = [amc_root] if amc_root.is_file() else sorted(amc_root.rglob("*.amc"))
    if not asf_files or not amc_files:
        raise MocapKeyError(f"no ASF/AMC files found under {args.asf} and {args.amc}")
    asf_by_stem = {p.stem: p for p in asf_files}

    skeletons: dict[Path, tuple | None] = {}   # each ASF file read once; None if bad
    per_source: dict[str, list] = {}
    failures = 0
    for amc_path in amc_files:
        source = (amc_path.name if amc_root.is_file()
                  else amc_path.relative_to(amc_root).as_posix())
        asf_path = _find_skeleton(amc_path, asf_by_stem)
        if asf_path is not None and asf_path not in skeletons:
            try:
                skeletons[asf_path] = _read_skeleton(asf_path)
            except (MocapKeyError, OSError) as exc:
                print(f"prep: warning: {asf_path}: {exc}", file=sys.stderr)
                skeletons[asf_path] = None
        if skeletons.get(asf_path) is None:
            why = "no skeleton" if asf_path is None else f"skeleton {asf_path.name} unusable"
            print(f"prep: warning: {source}: {why}, skipped", file=sys.stderr)
            failures += 1
            continue
        skeleton, tracked = skeletons[asf_path]
        try:
            with open(amc_path, "r", encoding="utf-8", errors="replace") as fh:
                raw = parse_amc(fh, skeleton)
            seq = forward_kinematics(tracked, downsample(raw), dt=1.0 / TARGET_FPS,
                                     source=source)
            windows = preprocess(seq)
        except (MocapKeyError, OSError) as exc:     # the take, or how it fits its ASF
            print(f"prep: warning: {source} (skeleton {asf_path.name}): {exc}",
                  file=sys.stderr)
            failures += 1
            continue
        per_source[source] = [(tracked, win, i * WINDOW_LEN * STRIDE)
                              for i, win in enumerate(windows)]

    if not per_source:
        raise MocapKeyError(f"{args.amc}: no usable takes")
    manifest = dataset.write_dataset(args.out, per_source, seed=args.seed)
    windows = manifest["windows"]
    n_train = sum(1 for wdw in windows if wdw["split"] == "train")
    print(f"prep: {len(per_source)} sources ({failures} skipped), "
          f"{len(windows)} windows ({n_train} train, "
          f"{len(windows) - n_train} test)")
    print(f"prep: manifest digest {dataset.manifest_digest(manifest)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_config(args, resumed: agent.TrainConfig | None) -> agent.TrainConfig:
    """The ``--config`` file, else the resumed checkpoint's config, else the
    defaults, with the given flags over it."""
    base = agent.TrainConfig.from_file(args.config) if args.config else resumed
    cfg = base.to_dict() if base else {}
    flags = {"episodes": args.episodes, "keyframe_count": args.keyframes,
             "seed": args.seed}
    return agent.TrainConfig.from_dict(
        {**cfg, **{k: v for k, v in flags.items() if v is not None}})


def _check_budget(data, windows, w: int, what: str) -> None:
    """Raise MocapKeyError naming the dataset and ``what`` unless a budget
    of w keyframes fits every window."""
    shortest = min(sph.frame_count for sph in windows)
    try:
        check_keyframe_count(shortest, w)
    except MocapKeyError as exc:
        raise type(exc)(f"{data}: {what} does not fit its {shortest}-frame "
                        f"windows: {exc}") from None


def cmd_train(args) -> int:
    initial, resumed = agent.load_agent(args.resume) if args.resume else (None, None)
    cfg = _load_config(args, resumed)
    manifest = dataset.load_manifest(args.data)
    records = dataset.load_dataset(args.data, split="train", manifest=manifest)
    if not records:
        raise MocapKeyError(f"{args.data}: no training windows")
    windows = [sequence_to_spherical(rec.seq) for rec in records]
    _check_budget(args.data, windows, cfg.keyframe_count, "keyframe_count")

    started = time.perf_counter()
    last_print = [started]

    def progress(done, total):
        now = time.perf_counter()
        if now - last_print[0] >= 30.0 or done == total:
            print(f"train: episode {done}/{total} "
                  f"({now - started:.0f}s elapsed)")
            last_print[0] = now

    result = agent.train(windows, cfg, initial=initial, progress=progress)
    agent.save_agent(args.out, result, cfg)
    log_path = str(args.out) + ".log.csv"
    with neural.atomic_open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("global_step", "episode", "loss", "episode_reward",
                         "eval_q", "epsilon"))
        for row in result.log:
            writer.writerow((
                row.global_step, row.episode,
                "" if row.loss is None else f"{row.loss:.12g}",
                "" if row.episode_reward is None else f"{row.episode_reward:.12g}",
                "" if row.eval_q is None else f"{row.eval_q:.12g}",
                f"{row.epsilon:.6g}",
            ))
    losses = [row.loss for row in result.log if row.loss is not None]
    if losses:
        print(f"train: {result.episodes_done} episodes total, "
              f"{result.updates} updates, {len(windows)} windows, "
              f"last loss {losses[-1]:.6g}")
    else:
        print(f"train: {result.episodes_done} episodes total, no updates ran")
    if result.best_eval_q is not None:
        print(f"train: kept the episode {result.best_episode} policy "
              f"(mean remaining error share {result.best_eval_q:.4f} "
              f"on {len(result.eval_indices)} training windows)")
    print(f"train: config digest {cfg.digest()}")
    print(f"train: dataset digest {dataset.manifest_digest(manifest)}")
    print(f"train: checkpoint {args.out} (log {log_path})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _run_selector(method: str, sph, w: int, net, seed: int, table=None):
    """Returns (keyframes, selection seconds) for one window and method;
    greedy reads ``table`` when given."""
    if method == "sidql":
        return agent.infer_keyframes(net, sph, w)
    t0 = time.perf_counter()
    if method == "rc":
        keys = baselines.select_random(sph.frame_count, w, seed)
    elif method == "uc":
        keys = baselines.select_uniform(sph.frame_count, w)
    else:      # greedy: the parser's choices allow no other method
        keys = baselines.select_greedy(sph, w, table)
    return keys, time.perf_counter() - t0


def _check_model(net, model, data, windows) -> None:
    """Raise naming the checkpoint ``model`` and the dataset ``data`` unless
    ``net`` takes the state of each of ``windows``."""
    for n, m in sorted({(sph.frame_count, sph.joint_count) for sph in windows}):
        try:
            agent._check_fits(net, n, m)
        except MocapKeyError as exc:
            raise type(exc)(f"{model}: {exc} of {data}") from None


def _eval_window(payload):
    """Rows for one window across all methods and budgets (worker-safe)."""
    window_id, sph, methods, ks, net, seed = payload
    try:
        q_baseline(sph)
    except DegenerateSequence:
        return window_id, None
    table, table_s = None, 0.0
    if "greedy" in methods:
        t0 = time.perf_counter()
        table = section_error_table(sph)
        table_s = time.perf_counter() - t0
    rows = []
    for w in ks:
        for method in methods:
            keys, seconds = _run_selector(method, sph, w, net, seed, table)
            if method == "greedy":
                seconds += table_s    # every budget counts the whole search
            rows.append({
                "sequence": window_id,
                "keyframes": w,
                "method": method,
                "q_error": q_error(sph, keys),
                "root_rmse": root_rmse(sph, keys),
                "decision_time_s": seconds,
            })
    return window_id, rows


def cmd_eval(args) -> int:
    methods, ks = args.methods, args.k
    net = None
    model_digest = None
    if "sidql" in methods:
        state, model_cfg = agent.load_agent(args.model)
        net = state.net
        model_digest = model_cfg.digest()

    manifest = dataset.load_manifest(args.data)
    records = dataset.load_dataset(args.data, split=args.split, manifest=manifest)
    if not records:
        raise MocapKeyError(f"{args.data}: no '{args.split}' windows")
    payloads = [
        (rec.window_id, sequence_to_spherical(rec.seq), methods, ks, net,
         args.seed + i)
        for i, rec in enumerate(sorted(records, key=lambda r: r.window_id))
    ]
    _check_budget(args.data, [p[1] for p in payloads], max(ks), "--k")
    if net is not None:
        _check_model(net, args.model, args.data, [p[1] for p in payloads])

    if args.jobs > 1:
        import concurrent.futures as futures
        with futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_eval_window, payloads))
    else:
        results = [_eval_window(p) for p in payloads]

    rows = []
    degenerate = 0
    for _, window_rows in results:
        if window_rows is None:
            degenerate += 1
        else:
            rows.extend(window_rows)
    if not rows:
        raise DegenerateSequence("every evaluated window is degenerate")
    rows.sort(key=lambda r: (r["sequence"], r["keyframes"], r["method"]))

    with neural.atomic_open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({
                **row,
                "q_error": f"{row['q_error']:.12g}",
                "root_rmse": f"{row['root_rmse']:.12g}",
                "decision_time_s": f"{row['decision_time_s']:.6g}",
            })

    summary = _summarize(rows, methods, ks)
    report = {
        "split": args.split,
        "windows": len(records) - degenerate,
        "degenerate_skipped": degenerate,
        "seed": args.seed,
        "model_config_digest": model_digest,
        "dataset_digest": dataset.manifest_digest(manifest),
        "table": summary,
    }
    summary_path = str(args.out) + ".summary.json"
    with neural.atomic_open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"eval: {len(records) - degenerate} windows "
          f"({degenerate} degenerate skipped), split '{args.split}'")
    header = "method  " + "".join(f"  W={w:<10d}" for w in ks)
    print(header)
    for method in methods:
        cells = "".join(f"  {summary[method][str(w)]['mean_q']:<12.4f}" for w in ks)
        print(f"{method:<8s}{cells}")
    print(f"eval: report {args.out} (summary {summary_path})")
    return EXIT_OK


def _summarize(rows, methods, ks) -> dict:
    out: dict = {}
    for method in methods:
        out[method] = {}
        for w in ks:
            cell = [r for r in rows if r["method"] == method and r["keyframes"] == w]
            out[method][str(w)] = {
                "mean_q": float(np.mean([r["q_error"] for r in cell])),
                "mean_root_rmse": float(np.mean([r["root_rmse"] for r in cell])),
                "mean_decision_time_s": float(np.mean([r["decision_time_s"]
                                                       for r in cell])),
                "count": len(cell),
            }
    return out


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def cmd_reconstruct(args) -> int:
    records = dataset.load_dataset(args.data, window_id=args.seq)
    if not records:
        raise MocapKeyError(f"{args.data}: window '{args.seq}' not in the dataset")
    rec = records[0]
    sph = sequence_to_spherical(rec.seq)
    if args.keyframes:
        try:
            keys = KeyframeSet.from_indices(args.keyframes, sph.frame_count)
        except MocapKeyError as exc:
            raise type(exc)(f"{args.data}: --keyframes do not fit window "
                            f"'{rec.window_id}': {exc}") from None
    else:
        try:
            check_keyframe_count(sph.frame_count, args.k)
        except MocapKeyError as exc:
            raise type(exc)(f"{args.data}: --k does not fit window "
                            f"'{rec.window_id}': {exc}") from None
        net = None
        if args.method == "sidql":
            net = agent.load_agent(args.model)[0].net
            _check_model(net, args.model, args.data, [sph])
        keys, _ = _run_selector(args.method, sph, args.k, net, args.seed)

    recon = reconstruct_full(sph, keys)
    text, bend = export_amc(
        rec.skeleton, sph_to_cart(1.0, recon.theta, recon.phi),
        recon.root_positions,
        comment=(f"window {rec.window_id} ({rec.source}) rebuilt from "
                 f"keyframes {','.join(str(i) for i in keys.indices)}"))
    with neural.atomic_open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"reconstruct: {rec.window_id} -> {args.out} "
          f"(keyframes {list(keys.indices)}, "
          f"mean angle error {q_error(sph, keys):.6g}, "
          f"largest IK bend {max(bend.values(), default=0.0):.3g} rad)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
