"""Span recording around the library's public functions, from the outside.

Tracer.install() replaces each function at the place its callers look it up:
a module that did `from .x import y` holds its own binding of y, so the
wrapper is installed in every such module.  Spans stay in memory until the
run ends.  A span is (name, start, end, parent, rollout, info): parent is the
index of the enclosing span or -1, rollout the id shared by the spans of one
rollout (-1 outside any), and info a small per-call fact (steps, cells, ...).
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from time import perf_counter

import numpy as np

from splatsynth import alignment, metrics, obstacles, splats, synthesis
from splatsynth.geometry import Trajectory


def _rollout_info(result, args, kwargs):
    coupled = kwargs.get("coupling", args[4] if len(args) > 4 else None) is not None
    return (len(result) - 1, coupled)


def _dtw_info(result, args, kwargs):
    return len(args[0]) * len(args[1])


# (span name, owners holding a binding, attribute, info extractor)
TARGETS = [
    ("splats.load_scene", [splats], "load_scene", lambda r, a, k: (len(r), r.rejected_count)),
    ("splats.density", [splats, obstacles, metrics], "density", lambda r, a, k: r),
    ("splats.density_gradient", [obstacles], "density_gradient", None),
    ("alignment.icp_align", [alignment], "icp_align", lambda r, a, k: len(r.residuals)),
    ("alignment.apply_transform", [alignment], "apply_transform", None),
    ("dmp.fit_dmp", [synthesis], "fit_dmp", None),
    ("dmp.rollout", [synthesis], "rollout", _rollout_info),
    ("obstacles.make_coupling", [synthesis], "make_coupling", None),
    ("metrics.trajectory_dtw", [synthesis, metrics], "trajectory_dtw", None),
    ("metrics.dtw", [metrics], "dtw", _dtw_info),
    ("metrics.collision_check", [metrics], "collision_check", lambda r, a, k: len(a[0])),
    ("metrics.writing_error", [metrics], "writing_error", None),
    ("metrics.evaluate_rollout", [metrics], "evaluate_rollout", None),
    ("synthesis.fit_segments", [synthesis], "fit_segments", None),
    ("synthesis.synthesize", [synthesis], "synthesize", None),
    ("synthesis.synthesize_one", [synthesis], "synthesize_one", None),
    ("synthesis.export_dataset", [synthesis], "export_dataset", None),
    ("geometry.Trajectory.save_csv", [Trajectory], "save_csv", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = defaultdict(int)
        self.rollout = -1
        self.hook_info = None
        self._saved = []

    def span(self, name, fn, info=None):
        """Wrap fn so that each call records one span named name."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            self.calls[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.rollout, None)
            if info is not None:
                self.spans[idx] = self.spans[idx][:5] + (info(result, args, kwargs),)
            return result
        return wrapper

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, owners, attr, info in TARGETS:
            wrapped = self.span(name, getattr(owners[0], attr), info)
            for owner in owners:
                self._patch(owner, attr, wrapped)
        load_csv = Trajectory.__dict__["load_csv"].__func__
        self._patch(Trajectory, "load_csv",
                    classmethod(self.span("geometry.Trajectory.load_csv", load_csv)))
        self._wrap_rollout_ids()
        self._wrap_hooks()

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap_rollout_ids(self):
        """Spans below synthesize_one carry an id of their own rollout.  A
        batch runs as several jobs, so ids count rollouts across the jobs."""
        inner = synthesis.synthesize_one
        ids = itertools.count()

        def synthesize_one(job, models, rollout_index):
            self.rollout = next(ids)
            try:
                return inner(job, models, rollout_index)
            finally:
                self.rollout = -1
        self._patch(synthesis, "synthesize_one", synthesize_one)

    def _wrap_hooks(self):
        """The coupling hook is a closure made per rollout: wrap each one made.

        info is (gradient branch ran, density calls made inside the hook).
        """
        make = synthesis.make_coupling
        calls = self.calls

        def make_coupling(*args, **kwargs):
            hook = make(*args, **kwargs)
            if hook is None:
                return None

            def counted(step, y, v):
                grads = calls["splats.density_gradient"]
                dens = calls["splats.density"]
                out = hook(step, y, v)
                self.hook_info = (calls["splats.density_gradient"] > grads,
                                  calls["splats.density"] - dens)
                return out
            return self.span("obstacles.hook", counted, lambda r, a, k: self.hook_info)
        self._patch(synthesis, "make_coupling", make_coupling)

    # ---- aggregation ----------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-name totals: calls, total_s, self_s, infos; plus root coverage."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "durations": [], "infos": []})
        root_s = 0.0
        for i, (name, start, end, parent, _, info) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
            agg["durations"].append(end - start)
            agg["infos"].append(info)
            if parent < 0:
                root_s += end - start
        return {"names": dict(out), "attributed_ratio": root_s / wall_s}

    def dump(self, path) -> None:
        """Write the spans as CSV: name,start_s,end_s,parent,rollout."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent,rollout\n")
            for name, start, end, parent, rollout, _ in self.spans:
                f.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{rollout}\n")
