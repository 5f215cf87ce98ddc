"""Campaign benchmark: seeded workloads timed stage by stage from outside.

Run from the repository root:

    python3 perfbench/run.py --workload smoke --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1 --out results.jsonl

Each workload's corpus is generated from ``--seed`` (see workloads.py);
the program sees only the `.clq` files and an INI.  A run:

1. runs whole campaigns, each in a fresh process with an empty output
   directory, until ``--seconds`` have passed (at least one);
2. times ``SETUP_PROBES`` fresh interpreters that import the package and
   load the config, half before the campaigns and half after them
   (``setup_s`` is their median);
3. with ``--trace 1``, runs one more campaign with every layer wrapped
   in spans (spans.py) and derives the per-layer metrics from it;
4. checks every campaign's outputs (checks.py).

The load is closed-loop with a single client: one campaign at a time.
Human-readable tables go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones, as
listed in BENCHMARK.json).  ``attempted`` counts pipeline stage runs and
``failed`` those that raised.  Instance-level failures, such as a
feature extraction that raises, are not benchmark failures: they are
measured by ``ok_frac`` and ``features.failed``.

The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from layers import median  # noqa: E402
from checks import CHECKS, has_reference, read_runs, read_features, usable_ids  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_config, write_corpus  # noqa: E402

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170.0


class CampaignError(RuntimeError):
    pass


class Runner:
    """One benchmark run of one workload inside a private work directory."""

    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name](seed)
        self.work = HERE / "work" / f"{name}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _spawn(self, argv: list[str]) -> tuple[float, float]:
        """Run a child to completion; returns its wall and CPU time.

        Children run one at a time, so the growth of this process's
        children CPU time over the call is that child's CPU time.
        """
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise CampaignError(f"{argv[0]} ran over {CHILD_TIMEOUT_S:.0f} s") from None
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime
        if proc.returncode != 0:
            tail = "\n".join(err.strip().splitlines()[-5:])
            raise CampaignError(f"{argv[0]} exited {proc.returncode}: {tail}")
        return wall, cpu

    def _config(self, label: str) -> Path:
        ini = self.work / f"{label}.ini"
        write_config(self.workload, ini, "corpus/*.clq", f"out-{label}")
        return ini

    def setup_samples(self, count: int) -> list[tuple[float, float]]:
        ini = self._config("probe")
        return [self._spawn([str(HERE / "probe.py"), str(ini)]) for _ in range(count)]

    def campaign(self, label: str, traced: bool = False) -> dict:
        ini = self._config(label)
        result = self.work / f"{label}.json"
        argv = [
            str(HERE / "campaign.py"),
            "--config", str(ini),
            "--stages", ",".join(self.workload.stages),
            "--jobs", str(self.workload.jobs),
            "--result", str(result),
        ]
        if traced:
            tiers = self.work / "tiers.json"
            tiers.write_text(json.dumps(self.workload.tiers()))
            argv += ["--trace", str(self.work / "spans.jsonl"), "--tiers", str(tiers)]
        self._spawn(argv)
        data = json.loads(result.read_text())
        out = self.work / f"out-{label}"
        data["out"] = out
        data["problems"] = CHECKS[self.name](self.workload, out, self.seed)
        ran = [stage for stage, status in data.get("rerun_status", {}).items() if status != "skipped"]
        if ran:
            data["problems"].append(f"re-run with every stage up to date ran {', '.join(ran)}")
        data.update(_operations(out, self.workload.stages))
        return data


def _operations(out: Path, stages) -> dict:
    """Feature extractions and solver runs: attempted, failed, proven."""
    attempted = failed = solver_runs = proven = 0
    if "features" in stages:
        usable = usable_ids(out)
        rows = read_features(out)[1]
        attempted += len(usable)
        failed += sum(1 for iid in usable if iid not in rows)
    if "bench" in stages:
        runs = read_runs(out)
        attempted += len(runs)
        failed += sum(1 for r in runs if r["status"] != "ok")
        solver_runs = len(runs)
        proven = sum(1 for r in runs if r["proven_optimal"] == "true")
    return {
        "ops_attempted": attempted,
        "ops_failed": failed,
        "solver_runs": solver_runs,
        "proven_runs": proven,
    }


def end_to_end(campaigns: list[dict], setup: list[float]) -> dict[str, float]:
    """Medians over the run's campaigns and set-up probes."""
    return {
        "run_s": median([sum(c["walls"].values()) for c in campaigns]),
        "setup_s": median(setup),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in campaigns]),
        "ok_frac": median(
            [1.0 - c["ops_failed"] / c["ops_attempted"] for c in campaigns]
        ),
    }


def provenance(root: Path, seed: int) -> dict:
    import numpy as np

    sha = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == root.resolve():
            sha = git[1]
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _print_table(title: str, metrics: dict[str, float], specs: list[dict], counts: dict) -> None:
    print(f"== {title}")
    for spec in specs:
        name = spec["name"]
        count = f"n={counts[name]}" if name in counts else ""
        print(f"  {name:42s} {metrics[name]:>14.6g} {spec['unit']:<8s} {count}")


def _measure(runner: Runner, seconds: float, trace: bool) -> dict:
    write_corpus(runner.workload, runner.work / "corpus")
    # set-up probes go before and after the campaigns, so that a short
    # slow spell of the host reaches only some of them
    probes = runner.setup_samples(SETUP_PROBES - SETUP_PROBES // 2)
    campaigns = []
    t0 = time.perf_counter()
    while not campaigns or time.perf_counter() - t0 < seconds:
        campaigns.append(runner.campaign(f"c{len(campaigns)}"))
    probes += runner.setup_samples(SETUP_PROBES // 2)
    setup = [wall for wall, _ in probes]
    traced = runner.campaign("traced", traced=True) if trace else None
    everything = campaigns + ([traced] if traced else [])
    problems = [p for c in everything for p in c["problems"]]
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(len(c["walls"]) for c in everything),
        "failed": 0,
        "campaigns": len(campaigns),
        "end_to_end": end_to_end(campaigns, setup),
        "per_layer": (
            layers.per_layer(runner.workload, campaigns, traced, runner.work / "spans.jsonl")
            if traced
            else {}
        ),
        "samples": {
            "setup_s": setup,
            "setup_cpu_s": [cpu for _, cpu in probes],
            "stage_walls": [c["walls"] for c in campaigns],
            "stage_cpu": [c["cpu"] for c in campaigns],
            "peak_rss_mb": [c["peak_rss_mb"] for c in campaigns],
        },
        "recorded_reference": has_reference(runner.name, runner.seed),
    }


def run_one(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(root, name, seed)
    record = {"workload": name, "seed": seed, "trace": int(trace)}
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    try:
        record.update(_measure(runner, seconds, trace))
    except CampaignError as exc:
        # a stage raised or a child died: no metrics, one failed operation
        record.update(correct=False, problems=[str(exc)], attempted=1, failed=1,
                      end_to_end={}, per_layer={})
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    spec = _spec()
    if record["end_to_end"]:
        counts = {m["name"]: record["campaigns"] for m in spec["end_to_end"]}
        counts["setup_s"] = SETUP_PROBES
        _print_table(f"{name} seed={seed} end-to-end (untraced)", record["end_to_end"],
                     spec["end_to_end"], counts)
    if record["per_layer"]:
        _print_table(f"{name} seed={seed} per-layer (traced)", record["per_layer"],
                     spec["per_layer"], {})
    for problem in record["problems"]:
        print(f"CHECK FAILED [{name}]: {problem}")
    return record


def _result_line(record: dict, trace: bool) -> dict:
    spec = _spec()
    metrics_spec = spec["per_layer"] if trace else spec["end_to_end"]
    values = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics_spec
            if m["name"] in values
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="campaign benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON record per workload run to this file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cliquespace" / "pipeline.py").is_file():
        print(f"perfbench: no program source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    info = provenance(root, args.seed)
    print("provenance: " + json.dumps(info))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_one(root, name, args.seed, args.seconds, bool(args.trace))
        record["provenance"] = info
        records.append(record)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")

    if len(records) == 1:
        line = _result_line(records[0], bool(args.trace))
    else:
        line = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
