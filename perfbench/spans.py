"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from the benchmark's side of each layer boundary: the
wrappers replace the module attributes the pipeline looks up at call
time, so the program itself carries no tracing code.  Each span has a
name, start, end, parent and run id, plus the process CPU time spent
while it was open (every thread counts); spans stay in memory until
:meth:`SpanRecorder.dump` writes them out.

Solver runs execute on executor threads when ``jobs > 1``.  A span
opened on a thread with no open span of its own takes as parent the
innermost span open on the main thread, so solver spans nest under the
campaign that scheduled them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def process_cpu() -> float:
    """CPU seconds of this process and its waited-for children, all threads."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        # a slice is taken atomically even while the main thread pushes or pops
        innermost = stack[-1:] or self._main_stack[-1:]
        parent = innermost[0] if innermost else None
        with self._lock:
            span_id = next(self._ids)
        record = {"id": span_id, "name": name, "parent": parent, "run": self.run_id}
        record.update(attrs)
        stack.append(span_id)
        cpu0 = process_cpu()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu"] = process_cpu() - cpu0
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: dict, spans: list[dict]) -> float:
    """Duration of ``span`` minus the part its direct children cover."""
    children = [
        (max(s["start"], span["start"]), min(s["end"], span["end"]))
        for s in spans
        if s["parent"] == span["id"]
    ]
    return span["end"] - span["start"] - covered(children)


def _wrap(recorder: SpanRecorder, module, attr: str, name: str, observe=None):
    original = getattr(module, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name) as record:
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                record["error"] = type(exc).__name__
                if observe is not None:
                    observe(record, None, args)
                raise
            if observe is not None:
                observe(record, result, args)
            return result

    setattr(module, attr, traced)


def install(recorder: SpanRecorder, tiers: dict[str, str]) -> None:
    """Wrap every layer entry point the pipeline calls.

    ``tiers`` maps instance ids to the workload tier they belong to, so
    feature time can be split by tier.
    """
    import cliquespace.bench as bench
    import cliquespace.pipeline as pipeline
    import cliquespace.report as report
    import cliquespace.selector.model as model
    import cliquespace.selector.svm as svm

    def parsed(record, result, args):
        if result is not None:
            record["edges"] = result.graph.edge_count

    for module in (pipeline, bench):
        _wrap(recorder, module, "parse_path", "graph.parse", parsed)

    def featured(record, result, args):
        record["tier"] = tiers.get(args[0].name, "")
        if result is not None:
            record["timings"] = dict(result.timings)

    _wrap(recorder, pipeline, "compute_features", "features.compute", featured)
    _wrap(recorder, pipeline, "run_campaign", "bench.run_campaign")

    make_builtin = pipeline.make_builtin

    @functools.wraps(make_builtin)
    def traced_make_builtin(solver_id, *args, **kwargs):
        solve = make_builtin(solver_id, *args, **kwargs)

        def traced_solve(g, budget):
            with recorder.span(f"solvers.{solver_id}") as record:
                result = solve(g, budget)
                record["budget_exhausted"] = bool(result.budget_exhausted)
                return result

        return traced_solve

    pipeline.make_builtin = traced_make_builtin

    for attr in ("fit_normalization", "apply_normalization", "sifted_select", "fit_projection"):
        _wrap(recorder, pipeline, attr, "isa.fit")
    _wrap(recorder, pipeline, "project_many", "isa.project")
    for attr in ("cloister_boundary", "footprint", "polygon_area"):
        _wrap(recorder, pipeline, attr, "isa.footprint")
    _wrap(recorder, pipeline, "train", "selector.train")
    _wrap(recorder, pipeline, "evaluate_topk", "selector.evaluate")
    _wrap(recorder, model, "train_svm", "selector.svm_fit")

    rbf_kernel = svm.rbf_kernel

    @functools.wraps(rbf_kernel)
    def counted_rbf_kernel(a, b, gamma):
        recorder.count("selector.kernel_entries", len(a) * len(b))
        return rbf_kernel(a, b, gamma)

    svm.rbf_kernel = counted_rbf_kernel
    _wrap(recorder, report, "render_scatter", "report.render")
