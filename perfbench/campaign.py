"""One campaign in a fresh process: the unit every end-to-end number times.

    python3 perfbench/campaign.py --config W/campaign.ini --stages ingest,bench \
        --jobs 2 --result W/result.json [--trace W/spans.jsonl --tiers W/tiers.json]

It drives only the public pipeline API (`load_config`, then
`run_pipeline(config, [stage])` once per stage) and writes the wall and
CPU time of each stage and the process's peak RSS to ``--result``.
With ``--trace`` the layer wrappers are installed first, the spans are
written to the given file, and the result also holds a second, cached
run of the stage list and the retained size of the largest instance's
`Graph`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

from spans import process_cpu


def _run_stages(run_pipeline, config, stages, recorder=None) -> dict:
    walls, cpus, statuses = {}, {}, {}
    for stage in stages:
        c0, t0 = process_cpu(), time.perf_counter()
        if recorder is None:
            status = run_pipeline(config, [stage])
        else:
            with recorder.span(f"stage.{stage}"):
                status = run_pipeline(config, [stage])
        walls[stage] = time.perf_counter() - t0
        cpus[stage] = process_cpu() - c0
        statuses[stage] = status[0][1]
    return {"walls": walls, "cpu": cpus, "status": statuses}


def _retained_bytes(root) -> int:
    """Sum of sys.getsizeof over every object reachable from ``root``, each once."""
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        else:
            slots = getattr(type(obj), "__slots__", ())
            stack.extend(getattr(obj, s) for s in slots if hasattr(obj, s))
            if hasattr(obj, "__dict__"):
                stack.append(vars(obj))
    return total


def _largest_graph_mb(config) -> float:
    """Retained size of the Graph parsed from the largest corpus file.

    tracemalloc would count the same objects (99.3 MB against 93.4 MB
    here for hamming10-2, allocator overhead included) but slows that
    parse from 3 s to 46 s.
    """
    from cliquespace.graph import parse_path
    from cliquespace.pipeline import resolve_corpus

    largest = max(resolve_corpus(config), key=lambda p: p.stat().st_size)
    return _retained_bytes(parse_path(largest).graph) / 2**20


def main() -> int:
    parser = argparse.ArgumentParser(description="run one campaign")
    parser.add_argument("--config", required=True)
    parser.add_argument("--stages", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--tiers")
    args = parser.parse_args()
    stages = args.stages.split(",")

    recorder = None
    if args.trace:
        from spans import SpanRecorder, install

        recorder = SpanRecorder(run_id=f"{os.getpid()}")
        install(recorder, json.loads(Path(args.tiers).read_text()))

    from cliquespace.pipeline import load_config, run_pipeline

    config = load_config(args.config)
    # load_config reads no job count, so --jobs is its only source
    if config.jobs != args.jobs:
        config = replace(config, jobs=args.jobs)
    result = _run_stages(run_pipeline, config, stages, recorder)
    self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(self_ru, child_ru) / 1024.0

    if recorder is not None:
        rerun = _run_stages(run_pipeline, config, stages)
        result["rerun_s"] = sum(rerun["walls"].values())
        result["rerun_status"] = rerun["status"]
        result["graph_mb"] = _largest_graph_mb(config)
        result["counters"] = dict(recorder.counters)
        recorder.dump(args.trace)

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
