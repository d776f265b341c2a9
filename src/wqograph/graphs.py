"""Immutable finite simple graphs with bitset adjacency, a construction
catalog, and graph6/JSON codecs.

Vertices are dense integers ``0..n-1``.  Adjacency is one Python int per
vertex (bit ``w`` set on row ``v`` iff ``vw`` is an edge), which keeps
neighbourhood intersection cheap for the sizes this library targets.  A fixed
cap of ``MAX_VERTICES`` (64) vertices keeps rows word-sized.  Graph values are
immutable after construction and safe for concurrent reads.

Graphs are validated where they enter: the public constructor (at O(n + m)
cost, as symmetry is tested edge by edge), the catalog, the parser and both
codecs.  ``from_edges`` stays validated on purpose: its edges mostly come
from outside, and ``perfbench``'s tracer counts constructions at the
constructor.  Operations that derive a graph from a valid one (complement,
induced subgraphs, subgraph and bipartite complementation, and the doubled
class graphs of ``uniform``, whose order is checked first) build it with
the unchecked ``_graph``.

Catalog expression grammar (EBNF)::

    expr  = term , { "+" , term } ;
    term  = [ integer ] , atom ;
    atom  = base | "co(" , expr , ")" | "(" , expr , ")" ;
    base  = "P" int | "C" int | "K" int [ "," int ] | "S" int "," int "," int ;

Examples: ``P4``, ``C5``, ``K5``, ``K2,2``, ``S1,1,2``, ``2P1+P2``,
``co(2P1+P2)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

MAX_VERTICES = 64


class GraphSpecError(ValueError):
    """A catalog expression is malformed or violates a parameter constraint."""


class Graph6Error(ValueError):
    """graph6 text is malformed; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices ``0..n-1``."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        """Every row's range and self-loop checks, then symmetry at edge
        cost (``_mirrored``); only a failure runs the pair scan, which names
        the first asymmetric pair."""
        _check_order(self.n)
        rows = self.rows
        if len(rows) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        mask = (1 << self.n) - 1
        for v, row in enumerate(rows):
            if row & ~mask:
                raise ValueError(f"row {v} references vertices outside 0..n-1")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        if _mirrored(rows):
            return
        for v in range(self.n):
            for w in range(v + 1, self.n):
                if (rows[v] >> w & 1) != (rows[w] >> v & 1):
                    raise ValueError(f"adjacency not symmetric at pair ({v},{w})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on ``n`` vertices with ``edges``; ``n`` is checked,
        with the constructor's messages, before anything is allocated."""
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.rows[v] >> (v + 1) << (v + 1)
            out.extend((v, w) for w in _bits(row))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def _check_order(n: int) -> None:
    """Refuse a vertex count outside ``0..MAX_VERTICES``."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"graph on {n} vertices exceeds the cap of {MAX_VERTICES}")


def _mirrored(rows: tuple[int, ...]) -> bool:
    """Whether rows free of self-loops and of bits outside ``0..n-1`` are
    symmetric: each bit above the diagonal has its mirror, and the rows hold
    twice as many bits as lie above it, so no bit below lacks one."""
    above = total = 0
    for v, row in enumerate(rows):
        total += row.bit_count()
        up = row >> v + 1
        above += up.bit_count()
        bit = 1 << v
        while up:
            low = up & -up
            if not rows[low.bit_length() + v] & bit:
                return False
            up ^= low
    return total == 2 * above


def _graph(n: int, rows: tuple[int, ...]) -> Graph:
    """A Graph built without the checks of ``__post_init__``; only for
    results derived from a valid graph, on at most ``MAX_VERTICES``."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> tuple[int, ...]:
    """Vertices of a bitmask in ascending order."""
    return tuple(_bits(mask))


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# Catalog constructors


def path_graph(r: int) -> Graph:
    if r < 1:
        raise GraphSpecError(f"P{r}: a path needs at least 1 vertex")
    return Graph.from_edges(r, [(i, i + 1) for i in range(r - 1)])


def cycle_graph(r: int) -> Graph:
    if r < 3:
        raise GraphSpecError(f"C{r}: a cycle needs at least 3 vertices")
    return Graph.from_edges(r, [(i, (i + 1) % r) for i in range(r)])


def complete_graph(r: int) -> Graph:
    if r < 1:
        raise GraphSpecError(f"K{r}: a complete graph needs at least 1 vertex")
    full = (1 << r) - 1
    return Graph(r, tuple(full ^ (1 << v) for v in range(r)))


def empty_graph(r: int) -> Graph:
    return Graph.empty(r)


def biclique(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise GraphSpecError(f"K{r},{s}: both parts must be non-empty")
    edges = [(i, r + j) for i in range(r) for j in range(s)]
    return Graph.from_edges(r + s, edges)


def subdivided_claw(h: int, i: int, j: int) -> Graph:
    """Tree with one degree-3 vertex and leaves at distances h <= i <= j."""
    if not (1 <= h <= i <= j):
        raise GraphSpecError(
            f"S{h},{i},{j}: subdivided claw requires 1 <= h <= i <= j"
        )
    edges = []
    base = 1
    for leg in (h, i, j):
        prev = 0
        for step in range(leg):
            edges.append((prev, base + step))
            prev = base + step
        base += leg
    return Graph.from_edges(h + i + j + 1, edges)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    n = sum(g.n for g in graphs)
    rows: list[int] = []
    shift = 0
    for g in graphs:
        rows.extend(row << shift for row in g.rows)
        shift += g.n
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    mask = g.mask
    return _graph(g.n, tuple((row ^ mask) & ~(1 << v) for v, row in enumerate(g.rows)))


def induced(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, renumbered in ascending order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(vs)}
    keep = mask_of(vs)
    rows = []
    for v in vs:
        row = 0
        for w in _bits(g.rows[v] & keep):
            row |= 1 << pos[w]
        rows.append(row)
    return _graph(len(vs), tuple(rows))


def delete_vertices(g: Graph, vertices: Iterable[int]) -> Graph:
    """``g`` without ``vertices``, the rest renumbered in ascending order;
    vertices outside ``0..n-1`` are ignored.  Each deleted bit is squeezed
    out of every row, highest vertex first, so the lower ones keep their
    positions."""
    rows = list(g.rows)
    for v in sorted({v for v in vertices if 0 <= v < g.n}, reverse=True):
        del rows[v]
        low = (1 << v) - 1
        rows = [r & low | r >> (v + 1) << v for r in rows]
    return _graph(len(rows), tuple(rows))


# ---------------------------------------------------------------------------
# Basic predicates


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest vertex."""
    seen = 0
    out = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = 1 << start
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g.rows[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(bits_of(comp))
    return out


def is_bipartite(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A 2-colouring (side0, side1) or None.  BFS from the lowest vertex of
    each component; that vertex is coloured 0, so the result is deterministic.
    """
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in _bits(g.rows[v]):
                if colour[w] == -1:
                    colour[w] = colour[v] ^ 1
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return None
    side0 = tuple(v for v in range(g.n) if colour[v] == 0)
    side1 = tuple(v for v in range(g.n) if colour[v] == 1)
    return side0, side1


# ---------------------------------------------------------------------------
# Catalog expression parser


_DIGITS = frozenset("0123456789")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise GraphSpecError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        """An ASCII digit run.  Every integer of the grammar bounds the
        vertex count from below, so one above the cap is refused before
        anything is built, and a run with more significant digits than the
        cap is refused before it is converted."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        digits = self.text[start : self.pos].lstrip("0") or "0"
        if len(digits) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
            self.error(f"{digits} exceeds the cap of {MAX_VERTICES} vertices")
        return int(digits)

    def expr(self) -> Graph:
        parts = [self.term()]
        while self.peek() == "+":
            self.take("+")
            parts.append(self.term())
        return disjoint_union(parts)

    def term(self) -> Graph:
        count = 1
        if self.peek() in _DIGITS:
            count = self.integer()
            if count < 1:
                self.error("multiplier must be at least 1")
        g = self.atom()
        return disjoint_union([g] * count) if count > 1 else g

    def atom(self) -> Graph:
        ch = self.peek()
        if self.text.startswith("co(", self.pos):
            self.pos += 3
            g = self.expr()
            self.take(")")
            return complement(g)
        if ch == "(":
            self.take("(")
            g = self.expr()
            self.take(")")
            return g
        if ch in "PCKS":
            self.pos += 1
            first = self.integer()
            if ch == "P":
                return path_graph(first)
            if ch == "C":
                return cycle_graph(first)
            if ch == "K":
                if self.peek() == ",":
                    self.take(",")
                    return biclique(first, self.integer())
                return complete_graph(first)
            self.take(",")
            second = self.integer()
            self.take(",")
            return subdivided_claw(first, second, self.integer())
        self.error("expected P/C/K/S atom, 'co(' or '('")


def build(spec: str | Graph) -> Graph:
    """Construct the graph denoted by a catalog expression.

    Passing a Graph through unchanged is allowed so call sites can accept
    either form.
    """
    if isinstance(spec, Graph):
        return spec
    parser = _Parser(spec)
    g = parser.expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.error("trailing input")
    return g


@lru_cache(maxsize=None)
def pattern(expr: str) -> Graph:
    """The graph of one of the library's own fixed catalog expressions,
    parsed once per process.  Text from users goes through :func:`build`,
    so it never enters this cache."""
    return build(expr)


# ---------------------------------------------------------------------------
# graph6 codec (McKay's format: 6-bit packing of the upper triangle)


def encode_graph6(g: Graph) -> str:
    if g.n <= 62:
        head = chr(g.n + 63)
    elif g.n <= 258047:
        head = chr(126) + "".join(
            chr(((g.n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    else:
        raise ValueError("graph too large for graph6")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.rows[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(sum(b << (5 - k) for k, b in enumerate(bits[p : p + 6])) + 63)
        for p in range(0, len(bits), 6)
    )
    return head + body


def decode_graph6(text: str) -> Graph:
    base = 0
    if text.startswith(">>graph6<<"):
        base = len(">>graph6<<")
    data = text[base:].rstrip("\n")
    if not data:
        raise Graph6Error("empty graph6 string", base)
    pos = 0
    if ord(data[0]) == 126:
        if len(data) < 4:
            raise Graph6Error("truncated extended vertex count", base + len(data))
        n = 0
        for k in range(1, 4):
            c = ord(data[k]) - 63
            if not 0 <= c <= 63:
                raise Graph6Error("vertex-count byte out of range", base + k)
            n = n << 6 | c
        pos = 4
    else:
        n = ord(data[0]) - 63
        if not 0 <= n <= 62:
            raise Graph6Error("vertex-count byte out of range", base)
        pos = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph on {n} vertices exceeds the cap of {MAX_VERTICES}", base)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos < need:
        raise Graph6Error("truncated edge data", base + len(data))
    if len(data) - pos > need:
        raise Graph6Error("trailing bytes after edge data", base + pos + need)
    bits = []
    for k in range(need):
        c = ord(data[pos + k]) - 63
        if not 0 <= c <= 63:
            raise Graph6Error("edge byte out of range", base + pos + k)
        bits.extend(c >> (5 - s) & 1 for s in range(6))
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    if any(bits[idx:]):
        raise Graph6Error("nonzero padding bits", base + pos + need - 1)
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# JSON codec


def to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def from_json_dict(obj: dict) -> Graph:
    """Read ``{"n": n, "edges": [[u, v], ...]}``; the shape and the types
    are checked before anything is allocated (``bool`` is not an int here)."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    n, edges = obj["n"], obj["edges"]
    if type(n) is not int or not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"graph JSON 'n' must be an integer in 0..{MAX_VERTICES}")
    if not isinstance(edges, list):
        raise ValueError("graph JSON 'edges' must be a list")
    for i, e in enumerate(edges):
        pair = isinstance(e, (list, tuple)) and len(e) == 2
        if not pair or any(type(v) is not int for v in e):
            raise ValueError(f"graph JSON edge {i} is not a pair of integers")
    return Graph.from_edges(n, [tuple(e) for e in edges])
