"""Adapter running an external maximum-clique binary on one graph.

The graph is written as a DIMACS .clq file into a private temp
directory, the command template's ``{instance}`` placeholder is replaced
with that path, and the process is supervised with a hard kill at the
budget.  Its stdout goes to a file in the same directory, not a pipe, so
the wait ends when the process exits, even when a process it started
still holds that file open.  The output is read, line by line, once the
process has exited or been killed:

- ``clique <int>`` reports an incumbent size; the largest wins.
- ``v <id> <id> ...`` lists the clique's vertices, 1-based; the last
  such line wins.
- ``time <float>`` reports the solve seconds.
- ``ts``, ``tr`` and ``tp`` (search, reduction and preprocessing
  seconds, joined to their value by ``=``, ``:`` or whitespace) are
  summed when no ``time`` value is printed.

``wall_seconds`` is the ``time`` value if there is one, otherwise the
sum of the ``ts``/``tr``/``tp`` values, otherwise the measured wall
time.  The process runs in its own process group, which is killed at the
budget and again once the process exits, so nothing it started outlives
it.  A budget kill is not an error: whatever incumbent was printed
before the kill is returned with ``budget_exhausted`` set, with size 0
when none was.  When the process reports vertices they are validated as
a real clique of the input graph; size-only output cannot be
cross-checked and is taken as reported.
"""

from __future__ import annotations

import os
import re
import shlex
import signal
import subprocess
import tempfile
from pathlib import Path

from ..errors import SolverOutputError, SolverSpawnError
from ..graph import Budget, Graph, GraphFormat, serialize
from . import SolveResult, verify_clique

_CLIQUE_RE = re.compile(r"\bclique[\s=:]+(\d+)\b", re.IGNORECASE)
_SECONDS_RE = re.compile(
    r"\b(time|ts|tr|tp)[\s=:]+([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)", re.IGNORECASE
)
_VERTS_RE = re.compile(r"^\s*v((?:\s+\d+)+)\s*$", re.MULTILINE)


def check_template(cmd_template: str) -> str:
    """``cmd_template`` itself; raises ValueError unless it holds ``{instance}``."""
    if "{instance}" not in cmd_template:
        raise ValueError("external command needs an {instance} placeholder")
    return cmd_template


def _parse_output(text: str):
    """Returns (clique vertices 0-based or None, size or None, reported seconds or None)."""
    sizes = [int(m) for m in _CLIQUE_RE.findall(text)]
    size = max(sizes) if sizes else None
    verts = None
    vm = _VERTS_RE.findall(text)
    if vm:
        verts = sorted(int(tok) - 1 for tok in vm[-1].split())
    last = {key.lower(): float(value) for key, value in _SECONDS_RE.findall(text)}
    parts = [last[key] for key in ("ts", "tr", "tp") if key in last]
    reported = last.get("time", sum(parts) if parts else None)
    return verts, size, reported


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # every process of the group has exited
        pass


def run_external(
    cmd_template: str,
    g: Graph,
    budget: float,
    solver_id: str = "external",
):
    """Run one external solver process on ``g`` under a wall-clock budget;
    any outcome but an error is one SolveResult, timed by the module's rule.
    ``solver_id`` only names the solver in error messages."""
    check_template(cmd_template)
    with tempfile.TemporaryDirectory(prefix="cliquespace-ext-") as tmp:
        # a fixed name: a file stem may hold a space or, from a library Graph, a "/"
        instance_path = Path(tmp) / "instance.clq"
        instance_path.write_text(serialize(g, GraphFormat.DIMACS_CLQ))
        argv = [
            arg.replace("{instance}", str(instance_path))
            for arg in shlex.split(cmd_template)
        ]
        output = Path(tmp) / "stdout.txt"
        # checked and started here: instance conversion is not measured
        clock = Budget(budget)
        killed = False
        with output.open("wb") as out:
            try:
                # its own process group, so a kill reaches the processes it starts
                proc = subprocess.Popen(
                    argv, stdout=out, stderr=subprocess.DEVNULL, start_new_session=True
                )
            except OSError as exc:
                raise SolverSpawnError(f"cannot run {argv[0]!r}: {exc}") from exc
        try:
            proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            killed = True
            _kill_group(proc.pid)
            proc.wait()
        finally:
            # what it left running; on an interrupt too, as a session of its
            # own gets no Ctrl-C from the terminal
            _kill_group(proc.pid)
        measured = clock.elapsed()
        stdout = output.read_text(errors="replace")  # what it printed before any kill

    verts, size, reported = _parse_output(stdout)
    if not killed and proc.returncode != 0:
        raise SolverOutputError(
            f"{solver_id} exited with status {proc.returncode}: {stdout[-500:]!r}"
        )
    if verts is not None:
        verify_clique(g, verts)
        if size is None:
            size = len(verts)
        elif size != len(verts):
            raise SolverOutputError(
                f"{solver_id} reported size {size} but listed {len(verts)} vertices"
            )
    if size is None and not killed:
        raise SolverOutputError(f"{solver_id} printed no clique size: {stdout[-500:]!r}")
    return SolveResult(
        clique=tuple(verts) if verts is not None else (),
        clique_size=size or 0,
        proven_optimal=False,
        wall_seconds=measured if reported is None else reported,
        budget_exhausted=killed,
    )
