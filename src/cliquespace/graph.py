"""Graph representation, file ingestion, generators, and :class:`Budget`.

The :class:`Graph` type is the universe every other module computes on:
an immutable, undirected, simple graph with dense 0-based node ids and
one neighbor bitmask per node.  Parsers canonicalize real-world benchmark
files (DIMACS ``.clq``, edge lists, Matrix Market symmetric patterns),
dropping self-loops and duplicate edges with warnings instead of failing,
because published benchmark files do contain them.  They read a text or
stream a file a block of lines at a time and set each edge's two bits as
its line is read, through the edge sink of ``Graph(n, edges)``, so no
whole file, list of all lines or list of all edges is held.  :class:`Budget`
is the one clock and positive-and-finite rule of every budgeted computation.
"""

from __future__ import annotations

import math
import random
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path

from .errors import GraphFormatError

__all__ = [
    "Graph",
    "GraphFormat",
    "IngestReport",
    "parse_graph",
    "parse_path",
    "detect_format",
    "serialize",
    "generate",
    "validate_connected",
    "iter_bits",
    "iter_edges",
    "most_connected",
    "greedy_clique",
    "peel_below",
    "Budget",
]


class GraphFormat(Enum):
    DIMACS_CLQ = "dimacs"
    EDGE_LIST = "edgelist"
    MATRIX_MARKET = "matrixmarket"


_EXTENSION_FORMATS = {
    ".clq": GraphFormat.DIMACS_CLQ,
    ".dimacs": GraphFormat.DIMACS_CLQ,
    ".col": GraphFormat.DIMACS_CLQ,
    ".mtx": GraphFormat.MATRIX_MARKET,
    ".mm": GraphFormat.MATRIX_MARKET,
}


class Graph:
    """Immutable undirected simple graph.

    Node ids are dense in ``[0, node_count)``.  The only stored adjacency
    is one neighbor bitmask per node (``adj_bits``); ``neighbors()``,
    ``edges`` and :func:`iter_edges` derive from it on demand, so
    instances hold no caches and are safe to share across threads.
    """

    __slots__ = ("node_count", "name", "adj_bits", "degrees", "edge_count")

    def __init__(self, node_count: int, edges, name: str = "") -> None:
        if node_count < 1:
            raise GraphFormatError("a graph needs at least one node")
        self._fill(_edge_bits(node_count, edges), name)

    def _fill(self, bits: list[int], name: str) -> None:
        self.node_count = len(bits)
        self.name = name
        self.adj_bits = tuple(bits)
        self.degrees = tuple(mask.bit_count() for mask in bits)
        self.edge_count = sum(self.degrees) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The canonical ``(u, v)``, ``u < v`` edge set, built on each access."""
        return frozenset(iter_edges(self))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj_bits[v]))

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj_bits[u] >> v) & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj_bits == other.adj_bits

    def __hash__(self) -> int:
        return hash(self.adj_bits)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.node_count} m={self.edge_count}>"


def _edge_bits(node_count: int | None, edges, warnings: list[str] | None = None) -> list[int]:
    """Neighbor bitmasks of ``edges``, each edge checked once.  An endpoint
    out of range raises ``ValueError``; so do a self-loop and a duplicate,
    unless ``warnings`` is given, which counts them as dropped instead.
    With ``node_count`` None, the list grows as ids appear, to the largest
    id + 1 (a self-loop's id included), which is an edge list's node count."""
    grow = node_count is None
    n = 0 if grow else node_count
    bits = [0] * n
    loops = dupes = 0
    for u, v in edges:
        if grow and (u >= n or v >= n):
            n = max(u, v) + 1
            bits += [0] * (n - len(bits))
        if u == v:
            if warnings is None:
                raise ValueError(f"self-loop at node {u}")
            loops += 1
            continue
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside [0, {n})")
        if (bits[u] >> v) & 1:
            if warnings is None:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            dupes += 1
            continue
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    if loops:
        warnings.append(f"dropped {loops} self-loop(s)")
    if dupes:
        warnings.append(f"dropped {dupes} duplicate edge(s)")
    return bits


def iter_bits(mask: int):
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def iter_edges(g: Graph):
    """Every edge once as ``(u, v)`` with ``u < v``, in lexicographic order."""
    for u, mask in enumerate(g.adj_bits):
        for v in iter_bits(mask >> (u + 1) << (u + 1)):
            yield u, v


def most_connected(cand: int, adj) -> int:
    """Vertex of ``cand`` with most neighbors inside ``cand`` (lowest id wins ties)."""
    pick, pick_score = -1, -1
    for v in iter_bits(cand):
        score = (adj[v] & cand).bit_count()
        if score > pick_score:
            pick_score, pick = score, v
    return pick


def greedy_clique(g: Graph) -> list[int]:
    """Deterministic greedy clique, sorted: starting from every node as
    candidate, repeatedly add the candidate with the most neighbors among
    the candidates, so the first pick is the highest-degree node."""
    adj = g.adj_bits
    cand = (1 << g.node_count) - 1
    clique = []
    while cand:
        v = most_connected(cand, adj)
        clique.append(v)
        cand &= adj[v]
    return sorted(clique)


def peel_below(adj, alive: int, degree: list[int], k: int) -> int:
    """The live vertices left once every vertex of degree below ``k`` in
    the live graph is removed, cascading.  ``degree`` holds the live
    degrees of ``alive`` and is kept up to date.  A vertex is stacked
    only when its degree first drops below ``k``, so at most once."""
    stack = [v for v in iter_bits(alive) if degree[v] < k]
    while stack:
        v = stack.pop()
        alive ^= 1 << v
        for w in iter_bits(adj[v] & alive):
            degree[w] -= 1
            if degree[w] == k - 1:
                stack.append(w)
    return alive


class Budget:
    """Wall-clock ``seconds``, positive and finite (a nan or inf limit never
    fires), started when made; None means no limit if ``unlimited`` allows
    it.  ``clock`` times every budget and every run measured against one."""

    clock = staticmethod(time.perf_counter)

    def __init__(self, seconds: float | None, unlimited: bool = False) -> None:
        if not (unlimited if seconds is None else 0 < seconds < math.inf):
            raise ValueError(f"budget must be positive and finite, got {seconds!r}")
        self.start = Budget.clock()
        self.limit = math.inf if seconds is None else self.start + seconds

    def elapsed(self) -> float:
        return Budget.clock() - self.start

    def expired(self) -> bool:
        return Budget.clock() > self.limit


@dataclass(frozen=True)
class IngestReport:
    """Outcome of parsing one graph file.

    ``connected`` is the result of a full traversal from node 0;
    disconnected graphs parse fine but distance-based features refuse
    them later, mirroring the benchmark-exclusion policy.
    """

    graph: Graph
    format: GraphFormat
    warnings: tuple[str, ...] = field(default=())
    connected: bool = True


def validate_connected(g: Graph) -> bool:
    """True iff a frontier sweep from node 0 reaches every node."""
    adj = g.adj_bits
    seen = frontier = 1
    while frontier:
        reach = 0
        for u in iter_bits(frontier):
            reach |= adj[u]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.node_count) - 1


# Text is read this many characters at a time, extended to the next line break.
_BLOCK_CHARS = 1 << 16
# every line break of str.splitlines, "\r\n" first so that it is never split
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _blocks(text: str):
    r"""Consecutive slices of ``text`` that each end just after a line
    break (the last one excepted), so no line, and no ``"\r\n"``, is split
    between two of them."""
    start = 0
    while start < len(text):
        found = _LINE_BREAK.search(text, start + _BLOCK_CHARS)
        end = found.end() if found else len(text)
        yield text[start:end]
        start = end


def _numbered_lines(blocks):
    """``enumerate(text.splitlines(), start=1)`` of the text that ``blocks``,
    each ending at a line break, make up, one block's lines at a time."""
    return enumerate(chain.from_iterable(map(str.splitlines, blocks)), start=1)


def _parse_dimacs(lines, warnings: list[str]):
    """The node count from the problem line, and the 0-based edges of the
    lines after it, checked as they are read."""
    for lineno, line in lines:
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "e":
            raise GraphFormatError(f"line {lineno}: edge before problem line")
        if fields[0] == "p":
            if len(fields) < 4 or fields[1] not in ("edge", "col"):
                raise GraphFormatError(f"line {lineno}: malformed problem line {line!r}")
            try:
                node_count = int(fields[2])
                declared_edges = int(fields[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer counts in {line!r}") from None
            if node_count < 1:
                raise GraphFormatError(f"line {lineno}: graph declares {node_count} nodes")
            return node_count, _dimacs_edges(lines, node_count, declared_edges, warnings)
        # other directives (n, d, x, ...) are ignored
    raise GraphFormatError("missing DIMACS problem line")


def _dimacs_edges(lines, node_count: int, declared_edges: int, warnings: list[str]):
    edges = 0
    for lineno, line in lines:
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "e":
            if len(fields) < 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line {line.strip()!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: non-integer endpoint in {line.strip()!r}"
                ) from None
            if not (1 <= u <= node_count and 1 <= v <= node_count):
                raise GraphFormatError(
                    f"line {lineno}: edge ({u}, {v}) references a node outside 1..{node_count}"
                )
            edges += 1
            yield u - 1, v - 1
        elif fields[0] == "p":
            raise GraphFormatError(f"line {lineno}: repeated problem line")
        # comments (a first field starting with "c") and other directives
        # (n, d, x, ...) are ignored
    if declared_edges != edges:
        warnings.append(f"header declares {declared_edges} edges, file has {edges}")


def _parse_edge_list(lines):
    """The edges as written; the node count is the largest id + 1."""
    for lineno, line in lines:
        line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line.strip()!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: non-integer endpoint in {line.strip()!r}"
            ) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative node id in {line.strip()!r}")
        yield u, v


_MM_HEADER = re.compile(r"^%%MatrixMarket\s+matrix\s+coordinate\s+(\w+)\s+(\w+)\s*$", re.I)


def _parse_matrix_market(lines, warnings: list[str]):
    """The node count from the size line, and the 0-based edges of the
    entries after it, checked as they are read."""
    try:
        _, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty Matrix Market file") from None
    m = _MM_HEADER.match(header.strip())
    if not m:
        raise GraphFormatError(f"malformed Matrix Market header {header!r}")
    value_field, symmetry = m.group(1).lower(), m.group(2).lower()
    if symmetry != "symmetric":
        raise GraphFormatError(f"only symmetric matrices describe undirected graphs, got {symmetry!r}")
    if value_field not in ("pattern", "integer", "real"):
        raise GraphFormatError(f"unsupported Matrix Market field {value_field!r}")
    if value_field != "pattern":
        warnings.append(f"ignoring {value_field} values; graph treated as unweighted pattern")

    for lineno, line in lines:
        line = line.strip()
        if line and not line.startswith("%"):
            break
    else:
        raise GraphFormatError("missing Matrix Market size line")
    fields = line.split()
    if len(fields) != 3:
        raise GraphFormatError(f"line {lineno}: malformed size line {line!r}")
    try:
        rows, cols, nnz = (int(f) for f in fields)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer size in {line!r}") from None
    if rows != cols:
        raise GraphFormatError(f"adjacency matrix must be square, got {rows}x{cols}")
    if rows < 1:
        raise GraphFormatError("empty graph: zero-dimensional matrix")
    return rows, _matrix_market_edges(lines, rows, nnz, warnings)


def _matrix_market_edges(lines, rows: int, nnz: int, warnings: list[str]):
    entries = 0
    for lineno, line in lines:
        fields = line.split()
        if not fields or fields[0].startswith("%"):
            continue
        if len(fields) < 2:
            raise GraphFormatError(f"line {lineno}: malformed entry {line.strip()!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: non-integer entry in {line.strip()!r}"
            ) from None
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise GraphFormatError(f"line {lineno}: entry ({i}, {j}) outside 1..{rows}")
        entries += 1
        yield i - 1, j - 1
    if entries != nnz:
        warnings.append(f"size line declares {nnz} entries, file has {entries}")


def parse_graph(data: bytes | str, fmt: GraphFormat, name: str = "") -> IngestReport:
    """Parse one graph from ``data`` in the given format, a block of lines
    at a time.  Self-loops and duplicate edges are dropped and recorded as
    warnings.  Raises :class:`GraphFormatError` for malformed headers,
    out-of-range node ids, or empty graphs.
    """
    text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
    return _parse_blocks(_blocks(text), fmt, name)


def _parse_blocks(blocks, fmt: GraphFormat, name: str) -> IngestReport:
    lines = _numbered_lines(blocks)
    warnings: list[str] = []
    if fmt is GraphFormat.DIMACS_CLQ:
        node_count, edges = _parse_dimacs(lines, warnings)
    elif fmt is GraphFormat.EDGE_LIST:
        node_count, edges = None, _parse_edge_list(lines)
    elif fmt is GraphFormat.MATRIX_MARKET:
        node_count, edges = _parse_matrix_market(lines, warnings)
    else:
        raise GraphFormatError(f"unsupported format {fmt!r}")
    # the header warnings come first, then the stream's own count check
    # (appended when it runs out), then the sink's loop and duplicate counts
    bits = _edge_bits(node_count, edges, warnings)
    if not bits:
        raise GraphFormatError("edge list contains no edges; empty graph")
    graph = Graph.__new__(Graph)
    graph._fill(bits, name)
    return IngestReport(
        graph=graph,
        format=fmt,
        warnings=tuple(warnings),
        connected=validate_connected(graph),
    )


def detect_format(path: str | Path) -> GraphFormat:
    """Map a file extension to a format; anything unknown is an edge list."""
    return _EXTENSION_FORMATS.get(Path(path).suffix.lower(), GraphFormat.EDGE_LIST)


def parse_path(path: str | Path) -> IngestReport:
    r"""Parse a graph file in the format its extension names (see detect_format)
    as :func:`parse_graph` does, streamed in blocks ending at ``"\n"`` or ``"\r"``."""
    path = Path(path)
    with path.open(encoding="utf-8", errors="replace", newline=None) as fh:
        blocks = iter(lambda: fh.read(_BLOCK_CHARS) + fh.readline(), "")
        return _parse_blocks(blocks, detect_format(path), path.stem)


def serialize(g: Graph, fmt: GraphFormat) -> str:
    """Render a graph in any supported format with byte-stable edge order."""
    ordered = iter_edges(g)
    if fmt is GraphFormat.DIMACS_CLQ:
        lines = [f"p edge {g.node_count} {g.edge_count}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in ordered)
    elif fmt is GraphFormat.EDGE_LIST:
        lines = [f"{u} {v}" for u, v in ordered]
        if not lines:
            raise GraphFormatError("edge lists cannot represent edgeless graphs")
    elif fmt is GraphFormat.MATRIX_MARKET:
        lines = ["%%MatrixMarket matrix coordinate pattern symmetric"]
        lines.append(f"{g.node_count} {g.node_count} {g.edge_count}")
        # symmetric storage keeps the lower triangle: row > column
        lines.extend(f"{v + 1} {u + 1}" for u, v in ordered)
    else:
        raise GraphFormatError(f"unsupported format {fmt!r}")
    return "\n".join(lines) + "\n"


def generate(kind: str, n: int, p: float = 0.0, seed: int = 0, name: str = "") -> Graph:
    """Deterministic synthetic graphs for fixtures and tests.

    ``kind`` is one of ``complete``, ``cycle``, ``path``, ``star``, ``gnp``.
    For ``gnp``, node pairs are visited in lexicographic order and each is
    kept when ``random.Random(seed).random() < p``; the Mersenne Twister
    stream makes identical (n, p, seed) reproduce identical edge sets on
    every platform.  ``star`` places the hub at node 0 with ``n - 1`` leaves.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    edges: list[tuple[int, int]] = []
    if kind == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif kind == "cycle":
        if n < 3:
            raise ValueError("a cycle needs at least 3 nodes")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "gnp":
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        rng = random.Random(seed)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    if not name:
        name = f"{kind}_{n}" if kind != "gnp" else f"gnp_{n}_{p:g}_s{seed}"
    return Graph(n, edges, name=name)
