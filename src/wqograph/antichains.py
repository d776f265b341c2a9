"""Generators for the infinite antichain families and batch verification of
their defining properties (freeness from the forbidden patterns, pairwise
incomparability, and rigidity of the second family).

Families
--------
``thm51``
    Start from the cycle on 4n vertices x_1..x_4n (n >= 2), partition into
    X = {x_i : i = 0 or 2 mod 4}, Y = {x_i : i = 1 mod 4},
    Z = {x_i : i = 3 mod 4}, and join every Y vertex to every Z vertex.
``thm52``
    Start from the cycle on 4n vertices (n >= 3), partition into
    X = {x_i : i = 0 or 1 mod 4} and Y = {x_i : i = 2 or 3 mod 4}, and
    complement inside each of X and Y; each side becomes a clique minus a
    perfect matching and every vertex keeps exactly one cross neighbour.
``cycles``
    Plain cycles C_n for n >= 4.

The 1-based positions x_1..x_4n map to 0-based vertices as x_i -> i - 1,
consistently in reports and reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .graphs import (
    MAX_VERTICES,
    Graph,
    _components,
    bits_of,
    build,
    cycle_graph,
    encode_graph6,
    mask_of,
)
from .order import SearchBudget, SearchBudgetExceeded, induced_embed, is_free


def gen_thm51(n: int) -> Graph:
    """Cycle on 4n vertices with the two odd classes joined completely."""
    if n < 2:
        raise ValueError("thm51 requires n >= 2")
    m = 4 * n
    edges = [(v, (v + 1) % m) for v in range(m)]
    _, y, z = thm51_parts(n)
    edges.extend((u, v) for u in y for v in z)
    return Graph.from_edges(m, edges)


def thm51_parts(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(X, Y, Z) as 0-based vertex tuples."""
    m = 4 * n
    x = tuple(v for v in range(m) if (v + 1) % 4 in (0, 2))
    y = tuple(v for v in range(m) if (v + 1) % 4 == 1)
    z = tuple(v for v in range(m) if (v + 1) % 4 == 3)
    return x, y, z


def gen_thm52(n: int) -> Graph:
    """Cycle on 4n vertices with both even/odd pair-classes complemented."""
    if n < 3:
        raise ValueError("thm52 requires n >= 3")
    m = 4 * n
    g = cycle_graph(m)
    x, y = thm52_parts(n)
    from .ops import subgraph_complement

    g = subgraph_complement(g, x)
    g = subgraph_complement(g, y)
    return g


def thm52_parts(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(X, Y) as 0-based vertex tuples."""
    m = 4 * n
    x = tuple(v for v in range(m) if (v + 1) % 4 in (0, 1))
    y = tuple(v for v in range(m) if (v + 1) % 4 in (2, 3))
    return x, y


def gen_cycle(n: int) -> Graph:
    if n < 4:
        raise ValueError("cycles family requires n >= 4")
    return cycle_graph(n)


@dataclass(frozen=True)
class FamilySpec:
    min_n: int
    forbidden: tuple[str, ...]
    generate: Callable[[int], Graph]


FAMILIES: dict[str, FamilySpec] = {
    "thm51": FamilySpec(2, ("co(2P1+P2)", "P2+P4", "P6"), gen_thm51),
    "thm52": FamilySpec(3, ("co(P1+P4)", "P1+2P2"), gen_thm52),
    "cycles": FamilySpec(4, (), gen_cycle),
}


def family_member(family: str, n: int) -> Graph:
    """Member n of a family; every member has at least n vertices, so an n
    above the vertex cap is refused before anything is built."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    if n > MAX_VERTICES:
        raise ValueError(
            f"{family}({n}) has at least {n} vertices, over the cap of {MAX_VERTICES}"
        )
    return FAMILIES[family].generate(n)


def reconstruct_thm52(g: Graph, x1: int) -> tuple[int, ...] | None:
    """Recover the full vertex order of a thm52 member from the choice of x_1.

    Two adjacent vertices lie on the same side iff they share a neighbour, so
    the sides are the components of the "adjacent with a common neighbour"
    graph.  From x_1 the walk alternates: odd steps follow the unique
    cross-side neighbour, even steps the unique same-side non-neighbour.
    Returns None whenever a step is not forced or the walk does not close
    into a full ordering; on actual members every starting vertex succeeds.
    """
    m = g.n
    if m % 4 or m < 12 or not 0 <= x1 < m:
        return None
    sides = _side_masks(g)
    if sides is None:
        return None
    rows = g.rows
    walk = [x1]
    seen = cur = 1 << x1
    for step in range(1, m):
        same = sides[0] if sides[0] & cur else sides[1]
        row = rows[cur.bit_length() - 1]
        step_to = row & ~same if step % 2 else same & ~row & ~cur
        if not step_to or step_to & (step_to - 1) or step_to & seen:
            return None
        cur = step_to
        walk.append(cur.bit_length() - 1)
        seen |= cur
    return tuple(walk)


@lru_cache(maxsize=1)
def _side_masks(g: Graph) -> tuple[int, int] | None:
    """The vertex masks of the two components of the graph linking adjacent
    vertices with a common neighbour, the one holding vertex 0 first; None
    unless there are exactly two.  Every start of a reconstruction shares
    them, so the split of the most recent graph is memoised, keyed by the
    graph's value."""
    link = [mask_of(v for v in bits_of(row) if row & g.rows[v]) for row in g.rows]
    comps = _components(link, g.mask)
    return (comps[0], comps[1]) if len(comps) == 2 else None


# ---------------------------------------------------------------------------
# Batch verification


@dataclass(frozen=True)
class FreenessCell:
    n: int
    pattern: str
    free: bool
    witness: tuple[int, ...] | None
    exhausted: bool = False


@dataclass(frozen=True)
class ComparabilityCell:
    n_small: int
    n_large: int
    comparable: bool
    embedding: tuple[int, ...] | None
    exhausted: bool = False


@dataclass(frozen=True)
class FamilyReport:
    family: str
    ns: tuple[int, ...]
    forbidden: tuple[str, ...]
    members_g6: tuple[str, ...]
    freeness: tuple[FreenessCell, ...]
    incomparability: tuple[ComparabilityCell, ...]

    @property
    def ok(self) -> bool:
        return all(c.free and not c.exhausted for c in self.freeness) and all(
            not c.comparable and not c.exhausted for c in self.incomparability
        )

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "ns": list(self.ns),
            "forbidden": list(self.forbidden),
            "members_g6": list(self.members_g6),
            "freeness": [
                {
                    "n": c.n,
                    "pattern": c.pattern,
                    "free": c.free,
                    "witness": list(c.witness) if c.witness else None,
                    "exhausted": c.exhausted,
                }
                for c in self.freeness
            ],
            "incomparability": [
                {
                    "n_small": c.n_small,
                    "n_large": c.n_large,
                    "comparable": c.comparable,
                    "embedding": list(c.embedding) if c.embedding else None,
                    "exhausted": c.exhausted,
                }
                for c in self.incomparability
            ],
            "ok": self.ok,
        }


DEFAULT_CELL_BUDGET = 10**8


def verify_family(
    family: str,
    ns: Iterable[int],
    forbidden: Sequence[str] | None = None,
    node_budget: int | None = DEFAULT_CELL_BUDGET,
) -> FamilyReport:
    """Freeness and pairwise-incomparability report over a parameter range.

    Every (member, pattern) and member pair is checked independently; a
    budget exhaustion is reported in the affected cell rather than aborting
    the whole report.  ``node_budget`` is per cell; ``None`` means
    unlimited.  Cells are emitted in sorted order, so the report is
    deterministic for fixed inputs.  A range and pattern list that leave no
    cell raise ``ValueError``, so that no report passes with nothing checked.
    """
    spec = FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    ns = tuple(sorted(set(ns)))
    for n in ns:
        if n < spec.min_n:
            raise ValueError(f"family {family} requires n >= {spec.min_n}")
    patterns = tuple(forbidden) if forbidden is not None else spec.forbidden
    if len(ns) < 2 and not (ns and patterns):
        raise ValueError(f"family {family} over n={list(ns)} has no cell to check")
    members = {n: family_member(family, n) for n in ns}
    parsed = [build(p) for p in patterns]
    freeness = []
    for n in ns:
        for pat, h in zip(patterns, parsed):
            try:
                budget = None if node_budget is None else SearchBudget(node_budget)
                res = is_free(members[n], [h], budget)
                freeness.append(FreenessCell(n, pat, res.free, res.witness))
            except SearchBudgetExceeded:
                freeness.append(FreenessCell(n, pat, False, None, exhausted=True))
    incomparability = []
    for i, ni in enumerate(ns):
        for nj in ns[i + 1 :]:
            try:
                budget = None if node_budget is None else SearchBudget(node_budget)
                emb = induced_embed(members[ni], members[nj], budget)
                incomparability.append(
                    ComparabilityCell(ni, nj, emb is not None, emb)
                )
            except SearchBudgetExceeded:
                incomparability.append(
                    ComparabilityCell(ni, nj, False, None, exhausted=True)
                )
    return FamilyReport(
        family,
        ns,
        patterns,
        tuple(encode_graph6(members[n]) for n in ns),
        tuple(freeness),
        tuple(incomparability),
    )
