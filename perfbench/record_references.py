"""Record the reference values the output checks compare against.

Run from the repository root, on the commit whose outputs are to be the
reference:

    PYTHONPATH=src python3 perfbench/record_references.py --seeds 0-63

It writes `perfbench/references.json` holding, per workload seed, the
clique number of every `solve_scale` instance (proved by `exact`), and,
for the default seed only, all 35 features of every `features_scale`
instance (or the name of the exception extraction raised).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFERENCES = HERE / "references.json"


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def omegas(seed: int) -> dict[str, int]:
    from cliquespace.graph import Graph
    from cliquespace.solvers import solve_exact_bb

    out = {}
    for spec in workloads.solve_scale(seed).graphs:
        result = solve_exact_bb(Graph(spec.node_count, spec.edges, name=spec.stem))
        if not result.proven_optimal:
            raise RuntimeError(f"exact did not prove {spec.stem}")
        out[spec.stem] = result.clique_size
    return out


def features(seed: int) -> dict[str, object]:
    from cliquespace.errors import CliquespaceError
    from cliquespace.features import compute_features
    from cliquespace.graph import Graph

    out: dict[str, object] = {}
    for spec in workloads.features_scale(seed).graphs:
        try:
            fv = compute_features(Graph(spec.node_count, spec.edges, name=spec.stem), 600)
        except CliquespaceError as exc:
            out[spec.stem] = type(exc).__name__
        else:
            out[spec.stem] = fv.as_dict()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="inclusive range such as 0-63")
    args = parser.parse_args()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    solve = refs.setdefault("solve_scale", {})
    for seed in _seed_range(args.seeds):
        solve[str(seed)] = omegas(seed)
        print(f"solve_scale seed {seed}: {solve[str(seed)]}", flush=True)
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    refs["features_scale"] = {str(workloads.DEFAULT_SEED): features(workloads.DEFAULT_SEED)}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
