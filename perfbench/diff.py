"""Compare two result files written by `run.py --out`.

    python3 perfbench/diff.py before.jsonl after.jsonl

Each file holds one JSON record per workload run.  For every workload
and metric, the two sides are printed next to each other as median,
first and third quartile and sample count (one sample per run), with
the change of the medians as a share of the earlier one and the
metric's bound and direction from BENCHMARK.json.  A change worse than
the bound is marked ``WORSE``; the marking says nothing about whether
the run-to-run spread resolves the difference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the file's runs."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            for section in ("end_to_end", "per_layer"):
                for name, value in record.get(section, {}).items():
                    values.setdefault((record["workload"], name), []).append(value)
    return values


def summary(values: list[float]) -> tuple[float, float, float, int]:
    if len(values) < 2:
        v = values[0]
        return v, v, v, 1
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(args.before), load(args.after)
    workloads = sorted({w for w, _ in before} | {w for w, _ in after})
    cell = "{:>11.5g} [{:.5g}, {:.5g}] n={}"
    for workload in workloads:
        print(f"== {workload}")
        print(f"  {'metric':40s} {'before: median [q1, q3] n':>36s}   {'after':>36s}  change")
        for name, m in metrics.items():
            old, new = before.get((workload, name)), after.get((workload, name))
            if not old and not new:
                continue
            left = cell.format(*summary(old)) if old else "-"
            right = cell.format(*summary(new)) if new else "-"
            change = ""
            if old and new and summary(old)[0]:
                share = summary(new)[0] / summary(old)[0] - 1.0
                change = f"{share:+.1%}"
                worse = share if m["better"] == "lower" else -share
                if "bound" in m and worse > m["bound"]:
                    change += f" WORSE (bound {m['bound']:.0%})"
            print(f"  {name:40s} {left:>36s}   {right:>36s}  {change} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
