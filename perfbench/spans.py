"""Spans around the public functions of each trajformer module.

The program carries no instrumentation of its own, so the traced run
replaces module-level functions with timing wrappers from here. A function
is replaced in every trajformer namespace that holds it (``cli`` and
``pipeline`` import many names directly), so calls are caught wherever
they come from. Spans nest on a stack; a span's self time is its duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _count_tracks(tracer, args, kwargs, result):
    tracer.counts["data.tracks"] += sum(len(scene.tracks) for scene in result)


def _count_windows(tracer, args, kwargs, result):
    tracer.counts["data.windows"] += len(result)


def _count_steps(tracer, args, kwargs, result):
    window = args[0]
    times = window.t_obs[1:]  # features sit at the later end of each offset
    tracer.counts["features.window_steps"] += len(times)
    tracer.build_steps.update((window.scene_id, window.ego_id, float(t)) for t in times)


def _close_build(tracer, args, kwargs, result):
    tracer.counts["features.agent_steps"] += len(tracer.build_steps)
    tracer.build_steps = set()


# (module, function, hook run after each call); the span is named module.function
TARGETS = [
    ("data", "load_dataset_root", _count_tracks),
    ("data", "resample", None),
    ("data", "extract_windows", _count_windows),
    ("data", "write_tracks", None),
    ("pipeline", "resample_scene", None),
    ("pipeline", "build_feature_set", _close_build),
    ("pipeline", "save_feature_cache", None),
    ("pipeline", "load_feature_cache", None),
    ("features", "build_features", _count_steps),
    ("features", "polar_occupancy", None),
    ("features", "semantic_histogram", None),
    ("model", "teacher_forced_offsets", None),
    ("model", "predict_autoregressive", None),
    ("model", "save_checkpoint", None),
    ("model", "load_checkpoint", None),
    ("autodiff", "backward", None),
    ("training", "train", None),
    ("training", "adam_step", None),
    ("training", "_eval_mean_loss", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "cv_kalman_predict", None),
    ("evaluation", "emit_report", None),
    ("plots", "render_window_svg", None),
]


class Tracer:
    """In-memory spans: [name, start, end, parent index] in open order."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.build_steps: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trajformer" or n.startswith("trajformer."))]
        for mod_name, fn_name, hook in TARGETS:
            original = getattr(sys.modules[f"trajformer.{mod_name}"], fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ queries

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        return end - start

    def indices(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.indices(name))

    def mean(self, name: str) -> float:
        idx = self.indices(name)
        return self.total(name) / len(idx) if idx else float("nan")

    def count(self, name: str) -> int:
        return len(self.indices(name))

    def children(self) -> dict[int, list[int]]:
        kids = defaultdict(list)
        for i, span in enumerate(self.spans):
            kids[span[3]].append(i)
        return kids

    def self_time(self, idx: int, kids: dict[int, list[int]] | None = None) -> float:
        kids = self.children() if kids is None else kids
        return self.duration(idx) - sum(self.duration(k) for k in kids.get(idx, []))

    def child_total(self, parent_name: str, child_name: str) -> float:
        parents = set(self.indices(parent_name))
        return sum(self.duration(i) for i, s in enumerate(self.spans)
                   if s[0] == child_name and s[3] in parents)
