"""Spans around the public entry points of the mocapkey modules.

The tracer wraps functions from outside the package: it replaces every
binding of a traced function in every loaded ``mocapkey`` module, so the
cross-module imports (``cli.parse_amc``, ``baselines.q_error``,
``metrics.reconstruct_full``, ...) are traced too. Spans are kept in memory
as ``[name, start, end, parent, tag]`` lists; ``parent`` is the index of the
enclosing span (-1 at the top) and ``tag`` an optional number read from the
call (frames parsed, keyframe budget, records loaded).

Helpers that run inside inner loops (``euler_matrix``, ``angle_distance``,
``reconstruct_section``, ...) are not wrapped: a span costs about a
microsecond, which would distort the layers being measured.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function, tag read from (args, result) or None)
TARGETS = (
    ("asfamc", "parse_asf", None),
    ("asfamc", "parse_amc", lambda args, r: r.frame_count),
    ("asfamc", "export_amc", None),
    ("motion", "forward_kinematics", lambda args, r: r.frame_count),
    ("motion", "preprocess", None),
    ("motion", "filter_joints", None),
    ("dataset", "write_dataset", None),
    ("dataset", "load_dataset", lambda args, r: len(r)),
    ("dataset", "load_manifest", None),
    ("spherical", "sequence_to_spherical", None),
    ("spherical", "spherical_to_sequence", None),
    ("reconstruct", "reconstruct_full", None),
    ("metrics", "q_error", None),
    ("metrics", "q_baseline", None),
    ("metrics", "root_rmse", None),
    ("baselines", "select_random", None),
    ("baselines", "select_uniform", None),
    ("baselines", "select_greedy", lambda args, r: len(r)),
    ("agent", "train", None),
    ("agent", "act", None),
    ("agent", "infer_keyframes", lambda args, r: len(r[0])),
    ("agent", "save_agent", None),
    ("agent", "load_agent", None),
    ("neural", "init", None),
    ("neural", "forward", None),
    ("neural", "backward_and_step", None),
)

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    the original functions on exit; spans accumulate across entries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        wrappers = {}
        for module, func, tag in TARGETS:
            original = getattr(importlib.import_module(f"mocapkey.{module}"), func)
            wrappers[id(original)] = (original,
                                      self._wrap(f"{module}.{func}", original, tag))
        for name, mod in list(sys.modules.items()):
            if name != "mocapkey" and not name.startswith("mocapkey."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        return False

    def _wrap(self, name, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one CLI stage)."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()


class LayerStats:
    """Aggregates over a set of span index ranges (one canonical pass)."""

    def __init__(self, spans: list[list], ranges: list[tuple[int, int]]):
        index = sorted({i for lo, hi in ranges for i in range(lo, hi)})
        self.spans = spans
        self.index = index
        child_time: dict[int, float] = {}
        for i in index:
            s = spans[i]
            if s[PARENT] >= 0:
                child_time[s[PARENT]] = (child_time.get(s[PARENT], 0.0)
                                         + s[END] - s[START])
        self._child_time = child_time
        # top-level stage of every span and whether it runs inside greedy
        self.stage: dict[int, str] = {}
        self.in_greedy: dict[int, bool] = {}
        for i in index:
            s = spans[i]
            p = s[PARENT]
            self.stage[i] = s[NAME] if p < 0 else self.stage[p]
            self.in_greedy[i] = p >= 0 and (
                spans[p][NAME] == "baselines.select_greedy" or self.in_greedy[p])

    def of(self, name: str) -> list[int]:
        return [i for i in self.index if self.spans[i][NAME] == name]

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def duration(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def total_s(self, name: str) -> float:
        return sum(self.duration(i) for i in self.of(name))

    def self_s(self, name: str) -> float:
        return sum(self.duration(i) - self._child_time.get(i, 0.0)
                   for i in self.of(name))

    def tags(self, name: str) -> list:
        return [self.spans[i][TAG] for i in self.of(name)]

    def p50_ms_by_tag(self, name: str, tag) -> float:
        values = [self.duration(i) for i in self.of(name)
                  if self.spans[i][TAG] == tag]
        return 1e3 * statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: LayerStats, focus_stages: tuple[str, ...],
                  takes_prepped: int, dataset_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one canonical pass, name -> (value, unit)."""
    s = stats
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("asfamc.parse_amc.calls", s.calls("asfamc.parse_amc"), "count")
    put("asfamc.parse_amc.self_s", s.self_s("asfamc.parse_amc"), "s")
    put("asfamc.parse_amc.frames_per_s",
        _ratio(sum(s.tags("asfamc.parse_amc")), s.total_s("asfamc.parse_amc")),
        "frames/s")
    put("asfamc.parse_asf.calls", s.calls("asfamc.parse_asf"), "count")
    put("asfamc.parse_asf.self_s", s.self_s("asfamc.parse_asf"), "s")
    put("asfamc.parse_asf.calls_per_take",
        _ratio(s.calls("asfamc.parse_asf"), takes_prepped), "ratio")
    put("asfamc.export_amc.calls", s.calls("asfamc.export_amc"), "count")
    put("asfamc.export_amc.self_s", s.self_s("asfamc.export_amc"), "s")
    put("asfamc.export_amc.ms_per_window",
        1e3 * _ratio(s.total_s("asfamc.export_amc"), s.calls("asfamc.export_amc")),
        "ms")

    put("motion.forward_kinematics.self_s", s.self_s("motion.forward_kinematics"), "s")
    put("motion.forward_kinematics.frames_per_s",
        _ratio(sum(s.tags("motion.forward_kinematics")),
               s.total_s("motion.forward_kinematics")), "frames/s")
    put("motion.preprocess.self_s", s.self_s("motion.preprocess"), "s")

    put("dataset.write_dataset.self_s", s.self_s("dataset.write_dataset"), "s")
    put("dataset.write_dataset.bytes", dataset_bytes, "bytes")
    loads = s.of("dataset.load_dataset")
    read = sum(s.spans[i][TAG] or 0 for i in loads)
    # reconstruct loads every window to rebuild one; train and eval use all
    used = sum(1 if s.stage[i] == "cli.reconstruct" else (s.spans[i][TAG] or 0)
               for i in loads)
    put("dataset.load_dataset.calls", len(loads), "count")
    put("dataset.load_dataset.self_s", s.self_s("dataset.load_dataset"), "s")
    put("dataset.load_dataset.windows_read", read, "count")
    put("dataset.load_dataset.used_ratio", _ratio(used, read), "ratio")

    put("spherical.sequence_to_spherical.calls",
        s.calls("spherical.sequence_to_spherical"), "count")
    put("spherical.sequence_to_spherical.self_s",
        s.self_s("spherical.sequence_to_spherical"), "s")
    put("spherical.spherical_to_sequence.self_s",
        s.self_s("spherical.spherical_to_sequence"), "s")

    put("reconstruct.reconstruct_full.calls", s.calls("reconstruct.reconstruct_full"),
        "count")
    put("reconstruct.reconstruct_full.self_s", s.self_s("reconstruct.reconstruct_full"),
        "s")
    put("reconstruct.reconstruct_full.us_per_call",
        1e6 * _ratio(s.total_s("reconstruct.reconstruct_full"),
                     s.calls("reconstruct.reconstruct_full")), "us")
    q_spans = s.of("metrics.q_error")
    put("metrics.q_error.calls", len(q_spans), "count")
    put("metrics.q_error.self_s", s.self_s("metrics.q_error"), "s")
    put("metrics.q_error.us_per_call",
        1e6 * _ratio(s.total_s("metrics.q_error"), len(q_spans)), "us")
    focus_wall = sum(s.duration(i) for i in s.index
                     if s.spans[i][PARENT] < 0 and s.spans[i][NAME] in focus_stages)
    focus_q = sum(s.duration(i) for i in q_spans if s.stage[i] in focus_stages)
    put("metrics.q_error.share", _ratio(focus_q, focus_wall), "share")
    put("metrics.q_baseline.calls", s.calls("metrics.q_baseline"), "count")

    for w in (5, 10, 15):
        put(f"baselines.select_greedy.ms_p50.W{w}",
            s.p50_ms_by_tag("baselines.select_greedy", w), "ms")
    picks = sum(w - 2 for w in s.tags("baselines.select_greedy"))
    put("baselines.select_greedy.q_error_calls_per_pick",
        _ratio(sum(1 for i in q_spans if s.in_greedy[i]), picks), "ratio")

    for w in (5, 10, 15):
        put(f"agent.infer_keyframes.ms_p50.W{w}",
            s.p50_ms_by_tag("agent.infer_keyframes", w), "ms")
    put("agent.decision_ratio.W5",
        _ratio(s.p50_ms_by_tag("baselines.select_greedy", 5),
               s.p50_ms_by_tag("agent.infer_keyframes", 5)), "ratio")
    put("agent.train.self_s", s.self_s("agent.train"), "s")
    put("agent.act.calls", s.calls("agent.act"), "count")
    put("agent.act.self_s", s.self_s("agent.act"), "s")

    put("neural.backward_and_step.calls", s.calls("neural.backward_and_step"), "count")
    put("neural.backward_and_step.ms_per_update",
        1e3 * _ratio(s.total_s("neural.backward_and_step"),
                     s.calls("neural.backward_and_step")), "ms")
    put("neural.forward.calls", s.calls("neural.forward"), "count")
    put("neural.forward.self_s", s.self_s("neural.forward"), "s")

    for stage in ("prep", "train", "eval", "reconstruct"):
        put(f"cli.{stage}.self_s", s.self_s(f"cli.{stage}"), "s")
    return out


def call_counts(stats: LayerStats) -> dict[str, int]:
    """Calls per span name; must repeat exactly for identical inputs."""
    counts: dict[str, int] = {}
    for i in stats.index:
        name = stats.spans[i][NAME]
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))
