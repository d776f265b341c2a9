"""The induced-subgraph quasi-order and its labelled refinement: finite
quasi-orders on labels, the induced embedding search (plain and
label-respecting), forbidden-subgraph freeness, and the two special classes
the classifier names (linear forests and the path-or-subdivided-claw class).

The embedding search is a backtracking solver over pattern vertices in
descending-degree order with forward checking: every unassigned pattern
vertex keeps a candidate bitmask that is intersected with the neighbourhood
(or non-neighbourhood) of each newly placed vertex.  Candidates are tried in
ascending host-vertex order, so the first embedding found is deterministic
and tests can pin exact witnesses.

Once only the last two pattern vertices S and L are left, the search looks
ahead on that pair: it keeps a candidate w of S only if some candidate
x != w of L is adjacent to w exactly when S is adjacent to L.  The test is
bit-parallel over L's candidates (the union of their rows, or the
intersection of their closed neighbourhoods).  A candidate it drops could
only have led to a dead end, so the search returns the same first
embedding as without the look-ahead and never visits more nodes.

The set-up that depends on the pattern alone (the search order, the degrees
in that order, each position's adjacency to the later ones) is a plan held
in a bounded cache keyed by the pattern graph.  The degree filter on the
host is built from one pass over its rows: a pattern vertex of degree d
keeps the host vertices whose degree leaves room for d neighbours and
n(h) - 1 - d non-neighbours.

Long searches accept an optional :class:`SearchBudget`; one node is one
host vertex tried for one pattern vertex.  Exhausting it raises
:class:`SearchBudgetExceeded`, which callers must treat as "unknown", never
as "no embedding".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, NamedTuple, Sequence

from .graphs import Graph, connected_components


class SearchBudgetExceeded(RuntimeError):
    """The node budget ran out before the search completed."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass
class SearchBudget:
    """Node-count limit shared across one logical search."""

    limit: int
    used: int = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.used)


@dataclass(frozen=True)
class QuasiOrder:
    """A reflexive transitive relation on a finite label set.

    ``pairs`` holds every related pair ``(a, b)`` meaning ``a <= b``.
    Reflexivity and transitivity are checked at construction by comparing
    against the transitive closure.
    """

    elements: tuple[Hashable, ...]
    pairs: frozenset

    def __post_init__(self):
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate elements in quasi-order")
        for a, b in self.pairs:
            if a not in elems or b not in elems:
                raise ValueError(f"pair ({a!r},{b!r}) uses unknown element")
        for a in self.elements:
            if (a, a) not in self.pairs:
                raise ValueError(f"relation not reflexive at {a!r}")
        if self.pairs != _transitive_closure(self.pairs):
            raise ValueError("relation not transitive")

    def leq(self, a, b) -> bool:
        return (a, b) in self.pairs

    def __contains__(self, element) -> bool:
        return element in self.elements

    @staticmethod
    def equality(elements: Iterable[Hashable]) -> "QuasiOrder":
        elems = tuple(elements)
        return QuasiOrder(elems, frozenset((e, e) for e in elems))

    @staticmethod
    def total(elements: Sequence[Hashable]) -> "QuasiOrder":
        """Chain in the given element order."""
        elems = tuple(elements)
        pairs = frozenset(
            (elems[i], elems[j]) for i in range(len(elems)) for j in range(i, len(elems))
        )
        return QuasiOrder(elems, pairs)

    @staticmethod
    def from_pairs(elements: Iterable[Hashable], pairs: Iterable[tuple]) -> "QuasiOrder":
        """The reflexive transitive closure of ``pairs``."""
        elems = tuple(elements)
        rel = set(tuple(p) for p in pairs)
        rel.update((e, e) for e in elems)
        return QuasiOrder(elems, _transitive_closure(frozenset(rel)))

    def doubled(self) -> "QuasiOrder":
        """Two incomparable copies: (t, a) <= (t', b) iff t == t' and a <= b."""
        elems = tuple((t, e) for t in (0, 1) for e in self.elements)
        pairs = frozenset(((t, a), (t, b)) for t in (0, 1) for a, b in self.pairs)
        return QuasiOrder(elems, pairs)


def _transitive_closure(pairs: frozenset) -> frozenset:
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


@dataclass(frozen=True)
class LabelledGraph:
    """A graph whose vertices carry labels (one per vertex, in index order)."""

    graph: Graph
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.graph.n:
            raise ValueError("one label per vertex required")


# ---------------------------------------------------------------------------
# Embedding search


def _with_partner(cs: int, cl: int, rows, adjacent: bool) -> int:
    """The host vertices w in ``cs`` that have some x != w in ``cl`` which
    is adjacent to w iff ``adjacent``.

    Bit-parallel over ``cl``: the union of the x's rows when adjacent, else
    the complement of the intersection of the x's closed neighbourhoods
    (stopping once that intersection no longer meets ``cs``)."""
    if adjacent:
        reach = 0
        while cl:
            low = cl & -cl
            cl ^= low
            reach |= rows[low.bit_length() - 1]
        return cs & reach
    blocked = -1
    while cl:
        low = cl & -cl
        cl ^= low
        blocked &= rows[low.bit_length() - 1] | low
        if not blocked & cs:
            return cs
    return cs & ~blocked


@lru_cache(maxsize=256)
def _plan(h: Graph):
    """The search plan of pattern ``h``: its vertices in search order, their
    degrees in that order, each position's adjacency to the later ones, and
    the adjacency of the last two."""
    nh = h.n
    order = sorted(range(nh), key=lambda v: (-h.degree(v), v))
    degrees = [h.degree(v) for v in order]
    later = [
        [h.adjacent(order[p], order[q]) for q in range(p + 1, nh)] for p in range(nh)
    ]
    last_pair_adjacent = nh >= 2 and h.adjacent(order[-2], order[-1])
    return order, degrees, later, last_pair_adjacent


def _embed(h: Graph, g: Graph, base_candidates, budget: SearchBudget | None):
    """Core backtracking search; returns an assignment tuple or None."""
    nh, ng = h.n, g.n
    if nh > ng:
        return None
    if nh == 0:
        return ()
    order, degrees, later, last_pair_adjacent = _plan(h)
    # at_least[d]: host vertices of degree d or more.  A pattern vertex of
    # degree dv needs a host degree in dv .. dv + ng - nh, so that it has
    # enough neighbours and enough non-neighbours.
    at_least = [0] * (ng + 1)
    for w, row in enumerate(g.rows):
        at_least[row.bit_count()] |= 1 << w
    for d in range(ng - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    cand = []
    for v, dv in zip(order, degrees):
        allowed = base_candidates[v] & at_least[dv] & ~at_least[dv + ng - nh + 1]
        if not allowed:
            return None
        cand.append(allowed)
    gmask = g.mask
    look_ahead = nh - 3
    rows = g.rows
    assign = [0] * nh

    def rec(pos: int, m: int, rest: list[int]) -> bool:
        # m: candidates of pattern position pos; rest: those of pos+1, ...
        adj = later[pos]
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            if budget is not None:
                budget.spend()
            nbr = rows[w]
            non = gmask ^ nbr ^ low
            nxt = []
            for a, cm in zip(adj, rest):
                nm = cm & (nbr if a else non)
                if not nm:
                    break
                nxt.append(nm)
            else:
                assign[pos] = w
                if not nxt:
                    return True
                if pos == look_ahead:
                    nxt[0] = _with_partner(nxt[0], nxt[1], rows, last_pair_adjacent)
                    if not nxt[0]:
                        continue
                if rec(pos + 1, nxt[0], nxt[1:]):
                    return True
        return False

    if not rec(0, cand[0], cand[1:]):
        return None
    out = [0] * nh
    for p, v in enumerate(order):
        out[v] = assign[p]
    return tuple(out)


def induced_embed(
    h: Graph, g: Graph, budget: SearchBudget | None = None
) -> tuple[int, ...] | None:
    """First induced embedding of ``h`` into ``g`` under the fixed search
    order, or None.  The search is complete: None means no embedding exists.
    """
    full = [g.mask] * h.n
    return _embed(h, g, full, budget)


def labelled_embed(
    h: LabelledGraph,
    g: LabelledGraph,
    order: QuasiOrder,
    budget: SearchBudget | None = None,
) -> tuple[int, ...] | None:
    """Induced embedding that is also non-decreasing on labels."""
    for lab in (*h.labels, *g.labels):
        if lab not in order:
            raise ValueError(f"label {lab!r} not in the quasi-order")
    cands = []
    for v in range(h.graph.n):
        m = 0
        for w in range(g.graph.n):
            if order.leq(h.labels[v], g.labels[w]):
                m |= 1 << w
        cands.append(m)
    return _embed(h.graph, g.graph, cands, budget)


class FreeResult(NamedTuple):
    free: bool
    pattern_index: int | None
    witness: tuple[int, ...] | None


def is_free(
    g: Graph, forbidden: Sequence[Graph], budget: SearchBudget | None = None
) -> FreeResult:
    """True iff no forbidden graph induced-embeds; otherwise the witness
    vertex set (sorted image) and the index of the pattern found."""
    for idx, pattern in enumerate(forbidden):
        emb = induced_embed(pattern, g, budget)
        if emb is not None:
            return FreeResult(False, idx, tuple(sorted(emb)))
    return FreeResult(True, None, None)


# ---------------------------------------------------------------------------
# Special families


def _is_tree(g: Graph, comp: tuple[int, ...]) -> bool:
    edges = sum(g.degree(v) for v in comp) // 2
    return edges == len(comp) - 1


def is_linear_forest(g: Graph) -> bool:
    """Disjoint union of paths: acyclic with maximum degree at most 2."""
    if any(g.degree(v) > 2 for v in range(g.n)):
        return False
    return all(_is_tree(g, comp) for comp in connected_components(g))


def in_class_S(g: Graph) -> bool:
    """Every component is a path or a subdivided claw (tree with exactly one
    degree-3 vertex, three leaves, every other vertex of degree <= 2)."""
    for comp in connected_components(g):
        if not _is_tree(g, comp):
            return False
        degs = sorted(g.degree(v) for v in comp)
        if degs[-1] <= 2:
            continue  # path component
        if degs[-1] != 3 or degs.count(3) != 1 or degs.count(1) != 3:
            return False
    return True
