"""Output checks for each workload; every failure is a message.

Artifacts are read as plain CSV here rather than through the package,
so a change to the package's readers cannot hide a wrong output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, GraphSpec, Workload

REFERENCES = Path(__file__).resolve().parent / "references.json"
FEATURE_RTOL = 1e-6
FEATURE_ATOL = 1e-9
FEATURE_COUNT = 35


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def read_runs(out: Path) -> list[dict]:
    rows = _rows(out / "runs.csv")
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


def read_features(out: Path) -> tuple[list[str], dict[str, list[float]]]:
    rows = _rows(out / "features.csv")
    return rows[0][1:], {row[0]: [float(x) for x in row[1:]] for row in rows[1:]}


def usable_ids(out: Path) -> list[str]:
    rows = _rows(out / "corpus.csv")
    header = rows[0]
    return [r[0] for r in rows[1:] if dict(zip(header, r))["usable"] == "true"]


def _references() -> dict:
    return json.loads(REFERENCES.read_text())


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=FEATURE_RTOL, abs_tol=FEATURE_ATOL)


def oracle_features(spec: GraphSpec) -> dict[str, float]:
    """Features recomputed here with dense numpy algebra, for any seed."""
    n = spec.node_count
    adj = np.zeros((n, n))
    for u, v in spec.edges:
        adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1)
    eva = np.linalg.eigvalsh(adj)
    evl = np.linalg.eigvalsh(np.diag(deg) - adj)
    wedges = float((deg * (deg - 1) / 2).sum())
    triangles3 = float(np.einsum("ij,ji->", adj @ adj, adj)) / 2
    dist = np.full((n, n), -1)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(n, dtype=bool)
    level = 0
    while frontier.any():
        level += 1
        frontier = ((frontier.astype(np.float32) @ adj.astype(np.float32)) > 0) & (dist < 0)
        dist[frontier] = level
    pairs = dist[np.triu_indices(n, 1)].astype(float)
    return {
        "node_count": float(n),
        "edge_count": float(len(spec.edges)),
        "density": 2.0 * len(spec.edges) / (n * (n - 1)),
        "median_degree": float(np.median(deg)),
        "std_degree": float(np.std(deg)),
        "diameter": float(pairs.max()),
        "median_geodesic_distance": float(np.median(pairs)),
        "std_geodesic_distance": float(np.std(pairs)),
        "global_clustering_coefficient": triangles3 / wedges if wedges else 0.0,
        "spectral_radius": float(eva[-1]),
        "laplacian_spectral_radius": float(evl[-1]),
        "energy": float(np.abs(eva).sum()),
        "std_adjacency_eigenvalues": float(np.std(eva)),
    }


def _check_feature_table(out: Path, expected_rows: int | None) -> tuple[list[str], dict, list[str]]:
    problems = []
    names, table = read_features(out)
    if len(names) != FEATURE_COUNT:
        problems.append(f"features.csv has {len(names)} feature columns, want {FEATURE_COUNT}")
    if expected_rows is not None and len(table) != expected_rows:
        problems.append(f"features.csv has {len(table)} rows, want {expected_rows}")
    for iid, values in table.items():
        if len(values) != len(names) or not all(math.isfinite(x) for x in values):
            problems.append(f"features.csv row {iid} is short or not finite")
    return names, table, problems


def check_smoke(workload: Workload, out: Path, seed: int) -> list[str]:
    problems = []
    runs = read_runs(out)
    instances = [g.stem for g in workload.graphs]
    if len(runs) != 3 * len(instances):
        problems.append(f"runs.csv has {len(runs)} runs, want {3 * len(instances)}")
    bad = [r for r in runs if r["status"] != "ok"]
    if bad:
        problems.append(f"{len(bad)} runs not ok, first {bad[0]['instance_id']}/{bad[0]['solver_id']}")
    exact = {r["instance_id"]: r for r in runs if r["solver_id"] == "exact"}
    unproven = [i for i in instances if exact.get(i, {}).get("proven_optimal") != "true"]
    if unproven:
        problems.append(f"exact not proven on {len(unproven)} instances, first {unproven[0]}")
    for r in runs:
        best = exact.get(r["instance_id"])
        if best is not None and int(r["clique_size"]) > int(best["clique_size"]):
            problems.append(f"{r['solver_id']} beats proven exact on {r['instance_id']}")
    problems += _check_feature_table(out, len(instances))[2]
    for name in ("projection.isa", "selector.isa", "scatter.svg"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    return problems


def check_features_scale(workload: Workload, out: Path, seed: int) -> list[str]:
    """Rows match the recorded reference where one exists, else the oracle.

    An instance whose extraction failed when the reference was recorded
    and succeeds now is checked against the oracle instead, so a fix
    adds rows to the check without tripping it.
    """
    names, table, problems = _check_feature_table(out, None)
    refs = _references()["features_scale"]
    # the long-diameter tier does not depend on the seed
    recorded = {s: r for s, r in refs[str(DEFAULT_SEED)].items() if s.startswith("long_")}
    recorded.update(refs.get(str(seed), {}))
    specs = {g.stem: g for g in workload.graphs}
    if not table:
        problems.append("features.csv has no rows")
    for iid, values in table.items():
        got = dict(zip(names, values))
        ref = recorded.get(iid)
        if not isinstance(ref, dict):
            ref = oracle_features(specs[iid])
        for name, want in ref.items():
            if not _close(got[name], want):
                problems.append(f"{iid}.{name} = {got[name]!r}, reference {want!r}")
    return problems


def check_solve_scale(workload: Workload, out: Path, seed: int) -> list[str]:
    problems = []
    runs = read_runs(out)
    instances = [g.stem for g in workload.graphs]
    want_runs = len(instances) * len(workload.portfolio)
    if len(runs) != want_runs:
        problems.append(f"runs.csv has {len(runs)} runs, want {want_runs}")
    bad = [r for r in runs if r["status"] != "ok"]
    if bad:
        problems.append(f"{len(bad)} runs not ok, first {bad[0]['instance_id']}/{bad[0]['solver_id']}")
    exact = {r["instance_id"]: r for r in runs if r["solver_id"] == "exact"}
    reference = _references()["solve_scale"].get(str(seed), {})
    for iid in instances:
        run = exact.get(iid)
        if run is None or run["proven_optimal"] != "true":
            problems.append(f"exact did not prove {iid}")
            continue
        omega = int(run["clique_size"])
        want = 512 if iid == "hamming10-2" else reference.get(iid)
        if want is not None and omega != want:
            problems.append(f"omega({iid}) = {omega}, reference {want}")
    for r in runs:
        best = exact.get(r["instance_id"])
        if best is not None and int(r["clique_size"]) > int(best["clique_size"]):
            problems.append(f"{r['solver_id']} beats proven exact on {r['instance_id']}")
    return problems


CHECKS = {
    "smoke": check_smoke,
    "features_scale": check_features_scale,
    "solve_scale": check_solve_scale,
}


def has_reference(workload: str, seed: int) -> bool:
    """Whether recorded references cover this seed beyond the oracle."""
    return str(seed) in _references().get(workload, {})
