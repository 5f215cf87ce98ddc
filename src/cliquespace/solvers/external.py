"""Adapter running an external maximum-clique binary on one graph.

The graph is written as a DIMACS .clq file into a private temp
directory, the command template's ``{instance}`` placeholder is replaced
with that path, and the process is supervised with a hard kill at the
budget.  Two output dialects are understood:

``generic``
    ``clique <int>`` lines report incumbent sizes (the largest wins),
    an optional ``time <float>`` line reports solve seconds, and an
    optional ``v <id> <id> ...`` line lists the clique's vertices
    1-based.  Without a ``time`` line the measured wall time is used.

``ts_tr_tp``
    Like ``generic`` but the solve time is reported as separate
    ``ts``/``tr``/``tp`` values (search, reduction, preprocessing),
    joined by ``=`` or whitespace; their sum becomes ``wall_seconds``.

A budget kill is not an error: whatever incumbent was printed before
the kill is returned with ``budget_exhausted`` set.  When the process
reports vertices they are validated as a real clique of the input
graph; size-only output cannot be cross-checked and is taken as
reported.
"""

from __future__ import annotations

import math
import re
import shlex
import subprocess
import tempfile
import time
from pathlib import Path

from ..errors import SolverOutputError, SolverSpawnError
from ..graph import Graph, GraphFormat, serialize

_CLIQUE_RE = re.compile(r"\bclique[\s=:]+(\d+)\b", re.IGNORECASE)
_TIME_RE = re.compile(r"\btime[\s=:]+([0-9.eE+-]+)", re.IGNORECASE)
_VERTS_RE = re.compile(r"^\s*v((?:\s+\d+)+)\s*$", re.MULTILINE)
_COMPONENT_RE = {
    key: re.compile(rf"\b{key}[\s=:]+([0-9.eE+-]+)", re.IGNORECASE)
    for key in ("ts", "tr", "tp")
}

PARSERS = ("generic", "ts_tr_tp")


def _parse_output(text: str, parser: str):
    """Returns (clique vertices 0-based or None, size or None, reported seconds or None)."""
    sizes = [int(m) for m in _CLIQUE_RE.findall(text)]
    size = max(sizes) if sizes else None
    verts = None
    vm = _VERTS_RE.findall(text)
    if vm:
        verts = sorted(int(tok) - 1 for tok in vm[-1].split())
    if parser == "generic":
        tm = _TIME_RE.findall(text)
        reported = float(tm[-1]) if tm else None
    else:
        parts = []
        for key, rx in _COMPONENT_RE.items():
            found = rx.findall(text)
            if found:
                parts.append(float(found[-1]))
        reported = sum(parts) if parts else None
    return verts, size, reported


def run_external(
    cmd_template: str,
    g: Graph,
    budget: float,
    parser: str = "generic",
    solver_id: str = "external",
):
    """Run one external solver process on ``g`` under a wall-clock budget."""
    from . import SolveResult, verify_clique

    if "{instance}" not in cmd_template:
        raise ValueError("command template must contain the {instance} placeholder")
    if parser not in PARSERS:
        raise ValueError(f"parser must be one of {PARSERS}, got {parser!r}")
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget!r}")

    with tempfile.TemporaryDirectory(prefix="cliquespace-ext-") as tmp:
        instance_path = Path(tmp) / f"{g.name or 'instance'}.clq"
        instance_path.write_text(serialize(g, GraphFormat.DIMACS_CLQ))
        argv = [
            arg.replace("{instance}", str(instance_path))
            for arg in shlex.split(cmd_template)
        ]
        # instance conversion above is excluded from the measured wall time
        start = time.perf_counter()
        killed = False
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=budget
            )
            stdout = proc.stdout
            returncode = proc.returncode
        except subprocess.TimeoutExpired as exc:
            killed = True
            raw = exc.stdout or b""
            stdout = raw.decode(errors="replace") if isinstance(raw, bytes) else raw
            returncode = 0
        except OSError as exc:
            raise SolverSpawnError(f"cannot run {argv[0]!r}: {exc}") from exc
        measured = time.perf_counter() - start

    verts, size, reported = _parse_output(stdout, parser)
    if not killed and returncode != 0:
        raise SolverOutputError(
            f"{solver_id} exited with status {returncode}: {stdout[-500:]!r}"
        )
    if verts is not None:
        verify_clique(g, verts)
        if size is None:
            size = len(verts)
        elif size != len(verts):
            raise SolverOutputError(
                f"{solver_id} reported size {size} but listed {len(verts)} vertices"
            )
    if size is None:
        if killed:
            return SolveResult(
                clique=(),
                clique_size=0,
                proven_optimal=False,
                wall_seconds=measured,
                solver_id=solver_id,
                budget_exhausted=True,
            )
        raise SolverOutputError(f"{solver_id} printed no clique size: {stdout[-500:]!r}")
    return SolveResult(
        clique=tuple(verts) if verts is not None else (),
        clique_size=size,
        proven_optimal=False,
        wall_seconds=measured if reported is None else reported,
        solver_id=solver_id,
        budget_exhausted=killed,
    )
