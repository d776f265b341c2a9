"""k-uniform graph templates, membership witnesses, bounded uniformicity
search, and template doubling under complementation.

A template is a pair (F, K): a graph F on k classes and a symmetric 0/1
matrix K of order k.  Expanding the template with m copies yields the graph
on slots (copy, class) where (c, i) and (d, j) are adjacent iff

    [c == d and ij is an edge of F]  XOR  [K(i, j) == 1].

A witness assigns every vertex of a graph an injective slot so that the
adjacency law holds pairwise; a graph admitting a witness over some order-k
template is k-uniform, and uniformicity is the least such k.

``complement_template`` doubles a template so that flipping the adjacency
inside any vertex set of a witnessed graph stays witnessable: each class i
gains a primed twin i+k with the same F-neighbourhoods (a false twin, not
adjacent to i), while K extends by K'[i,j] = K'[i,j'] = K'[i',j] = K[i,j]
and K'[i',j'] = 1 - K[i,j].  Moving exactly the flipped vertices to their
primed classes (same copies) is then again a valid witness: pairs with at
most one flipped vertex read the unchanged K and F entries, flipped pairs in
different copies read the flipped K entry, and flipped pairs sharing a copy
read the doubled F edge together with the flipped K entry, which combine to
the required flip.

The bounded search (``is_k_uniform``, ``uniformicity``) tries the canonical
templates of order k in a fixed order and, for each, places vertices
0..n-1 in turn on the free slots (c, i) in ascending order, opening copies in
first-use order, so the first witness found is canonical.  After each
placement a forward check asks whether every later vertex still fits some
free slot given the placed ones, and abandons the placement if one does not.
The check only cuts subtrees that hold no witness, so the first witness is
that of the plain slot search and the slots tried are a subset of its.  One
search node, one ``SearchBudget.spend()``, is one free slot tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable

from .graphs import Graph
from .order import SearchBudget


class SearchRefused(RuntimeError):
    """The requested search exceeds the configured bounds; no verdict."""


@dataclass(frozen=True)
class UniformTemplate:
    """Order-k template: class graph ``f`` plus symmetric 0/1 matrix ``matrix``."""

    k: int
    f: Graph
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.f.n != self.k:
            raise ValueError("class graph must have exactly k vertices")
        if len(self.matrix) != self.k or any(len(r) != self.k for r in self.matrix):
            raise ValueError("matrix must be k x k")
        for i in range(self.k):
            for j in range(self.k):
                if self.matrix[i][j] not in (0, 1):
                    raise ValueError("matrix entries must be 0 or 1")
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValueError("matrix must be symmetric")

    def law(self, ci: tuple[int, int], dj: tuple[int, int]) -> bool:
        """Adjacency of two distinct slots."""
        (c, i), (d, j) = ci, dj
        same_copy_edge = c == d and self.f.adjacent(i, j) if i != j else False
        return same_copy_edge != bool(self.matrix[i][j])

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "F_edges": [[u, v] for u, v in self.f.edges()],
            "K": [list(row) for row in self.matrix],
        }

    @staticmethod
    def from_json(obj: dict) -> "UniformTemplate":
        k = int(obj["k"])
        f = Graph.from_edges(k, [tuple(e) for e in obj["F_edges"]])
        matrix = tuple(tuple(int(x) for x in row) for row in obj["K"])
        return UniformTemplate(k, f, matrix)


@dataclass(frozen=True)
class UniformWitness:
    """Slot assignment certifying template membership of a graph."""

    template: UniformTemplate
    assign: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        out = self.template.to_json()
        out["assign"] = [list(slot) for slot in self.assign]
        return out


@dataclass(frozen=True)
class WitnessCheck:
    ok: bool
    violation: tuple[int, int] | None = None


def expand_template(template: UniformTemplate, copies: int) -> Graph:
    """The graph on ``copies * k`` vertices; vertex c*k + i is slot (c, i)."""
    if copies < 1:
        raise ValueError("at least one copy required")
    k = template.k
    n = copies * k
    slots = [(v // k, v % k) for v in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if template.law(slots[u], slots[v])
    ]
    return Graph.from_edges(n, edges)


def verify_witness(g: Graph, witness: UniformWitness) -> WitnessCheck:
    """Check the adjacency law on every vertex pair.

    Malformed assignments (wrong length, slot out of range, slot reuse)
    raise; a law violation is reported as the first offending pair.
    """
    t = witness.template
    if len(witness.assign) != g.n:
        raise ValueError("assignment must cover every vertex")
    seen = set()
    for v, (c, i) in enumerate(witness.assign):
        if c < 0 or not 0 <= i < t.k:
            raise ValueError(f"vertex {v} assigned invalid slot ({c},{i})")
        if (c, i) in seen:
            raise ValueError(f"slot ({c},{i}) assigned twice")
        seen.add((c, i))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacent(u, v) != t.law(witness.assign[u], witness.assign[v]):
                return WitnessCheck(False, (u, v))
    return WitnessCheck(True)


def restrict_witness(witness: UniformWitness, vertices: Iterable[int]) -> UniformWitness:
    """Witness for the induced subgraph on ``vertices`` (hereditarity)."""
    vs = sorted(set(vertices))
    return UniformWitness(witness.template, tuple(witness.assign[v] for v in vs))


# ---------------------------------------------------------------------------
# Bounded uniformicity search

MAX_SEARCH_K = 3
MAX_SEARCH_N = 10


@lru_cache(maxsize=None)
def _canonical_templates(k: int) -> list[UniformTemplate]:
    """All (K, F) pairs up to simultaneous class permutation, in search order
    (K packed bits ascending, then F edge sets ascending)."""
    kpairs = [(i, j) for i in range(k) for j in range(i, k)]
    fpairs = list(combinations(range(k), 2))
    perms = list(permutations(range(k)))
    seen = set()
    out = []
    for kbits in range(1 << len(kpairs)):
        matrix = [[0] * k for _ in range(k)]
        for idx, (i, j) in enumerate(kpairs):
            if kbits >> idx & 1:
                matrix[i][j] = matrix[j][i] = 1
        for fbits in range(1 << len(fpairs)):
            edges = [fpairs[idx] for idx in range(len(fpairs)) if fbits >> idx & 1]
            key = min(_template_key(k, matrix, edges, p) for p in perms)
            if key in seen:
                continue
            seen.add(key)
            out.append(
                UniformTemplate(
                    k,
                    Graph.from_edges(k, edges),
                    tuple(tuple(row) for row in matrix),
                )
            )
    return out


def _template_key(k, matrix, edges, perm):
    kvals = tuple(matrix[perm[i]][perm[j]] for i in range(k) for j in range(i, k))
    eset = frozenset(
        (min(perm.index(u), perm.index(v)), max(perm.index(u), perm.index(v)))
        for u, v in edges
    )
    fvals = tuple(
        1 if (i, j) in eset else 0 for i in range(k) for j in range(i + 1, k)
    )
    return kvals, fvals


@lru_cache(maxsize=None)
def _class_lists(template: UniformTemplate) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each class i, the classes j with K(i, j) = 1 and the F-neighbours
    of i.  Only the canonical templates (134 for k <= 3) reach this cache."""
    k = template.k
    return (
        tuple(tuple(j for j in range(k) if template.matrix[i][j]) for i in range(k)),
        tuple(tuple(j for j in range(k) if template.f.adjacent(i, j)) for i in range(k)),
    )


def _find_assignment(
    g: Graph, template: UniformTemplate, budget: SearchBudget | None
) -> tuple[tuple[int, int], ...] | None:
    """First slot assignment in search order, or None.

    Placed vertices are kept as bitmasks: ``across[i]`` holds those that a
    class-i vertex in another copy must be adjacent to (their class j has
    K(i, j) = 1), ``flips[i]`` those whose adjacency to class i flips when
    they share its copy (their class j is an F-neighbour of i), and
    ``members[c]`` the vertices of copy c.  A vertex whose neighbourhood
    among the placed vertices is N fits the free slot (c, i) iff
    ``N ^ across[i] == flips[i] & members[c]``.
    """
    n, k = g.n, template.k
    rows = g.rows
    spend = None if budget is None else budget.spend
    k_classes, f_classes = _class_lists(template)
    across = [0] * k
    flips = [0] * k
    members = [0] * n
    taken = [0] * n  # classes used in each copy, as a bitmask
    copy_of = [0] * n
    assign: list[tuple[int, int]] = []

    def viable(v: int) -> bool:
        """Every vertex after v still fits some slot.  With D = N ^ across[j]
        zero, class j of a fresh copy fits; otherwise only the copy of D's
        lowest vertex can."""
        placed = (2 << v) - 1
        for w in range(v + 1, n):
            nw = rows[w] & placed
            if nw in across:
                continue
            for j in range(k):
                d = nw ^ across[j]
                c = copy_of[(d & -d).bit_length() - 1]
                if flips[j] & members[c] == d and not taken[c] >> j & 1:
                    break
            else:
                return False
        return True

    def place(v: int, copies: int) -> bool:
        if v == n:
            return True
        nv = rows[v] & ((1 << v) - 1)
        bit = 1 << v
        for c in range(copies + 1):  # copies <= v, so a fresh copy exists
            cm = members[c]
            tk = taken[c]
            for i in range(k):
                if tk >> i & 1:
                    continue
                if spend is not None:
                    spend()
                if nv ^ across[i] != flips[i] & cm:
                    continue
                for j in k_classes[i]:
                    across[j] |= bit
                for j in f_classes[i]:
                    flips[j] |= bit
                members[c] = cm | bit
                taken[c] = tk | 1 << i
                copy_of[v] = c
                assign.append((c, i))
                if viable(v) and place(v + 1, max(copies, c + 1)):
                    return True
                assign.pop()
                for j in k_classes[i]:
                    across[j] ^= bit
                for j in f_classes[i]:
                    flips[j] ^= bit
                members[c] = cm
                taken[c] = tk
        return False

    if place(0, 0):
        return tuple(assign)
    return None


def is_k_uniform(
    g: Graph,
    k: int,
    *,
    max_k: int = MAX_SEARCH_K,
    max_n: int = MAX_SEARCH_N,
    budget: SearchBudget | None = None,
) -> UniformWitness | None:
    """Search for an order-k witness.  Complete within the configured bounds;
    out-of-bounds requests raise :class:`SearchRefused` so "too big to try"
    is never confused with "not k-uniform".
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > max_k or g.n > max_n:
        raise SearchRefused(
            f"uniformicity search bounded to k <= {max_k}, n <= {max_n}"
        )
    for template in _canonical_templates(k):
        assign = _find_assignment(g, template, budget)
        if assign is not None:
            return UniformWitness(template, assign)
    return None


def uniformicity(
    g: Graph,
    kmax: int,
    *,
    max_k: int = MAX_SEARCH_K,
    max_n: int = MAX_SEARCH_N,
    budget: SearchBudget | None = None,
) -> tuple[int, UniformWitness] | None:
    """Smallest k <= kmax admitting a witness, with the witness; else None."""
    if kmax < 1:
        raise ValueError("kmax must be positive")
    for k in range(1, kmax + 1):
        witness = is_k_uniform(g, k, max_k=max_k, max_n=max_n, budget=budget)
        if witness is not None:
            return k, witness
    return None


# ---------------------------------------------------------------------------
# Template doubling under complementation


def complement_template(template: UniformTemplate) -> UniformTemplate:
    """Order-2k template accommodating one subgraph complementation."""
    k = template.k
    edges = []
    for u, v in template.f.edges():
        edges.append((u, v))
        edges.append((u, v + k))
        edges.append((v, u + k))
        edges.append((u + k, v + k))
    matrix = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for j in range(k):
            base = template.matrix[i][j]
            matrix[i][j] = base
            matrix[i][j + k] = base
            matrix[i + k][j] = base
            matrix[i + k][j + k] = 1 - base
    return UniformTemplate(
        2 * k, Graph.from_edges(2 * k, edges), tuple(tuple(r) for r in matrix)
    )


def transport_complement(
    witness: UniformWitness, flipped: Iterable[int]
) -> UniformWitness:
    """Witness for the graph with adjacency flipped inside ``flipped``, over
    the doubled template: flipped vertices move to their primed classes."""
    k = witness.template.k
    flip = set(flipped)
    assign = tuple(
        (c, i + k) if v in flip else (c, i)
        for v, (c, i) in enumerate(witness.assign)
    )
    return UniformWitness(complement_template(witness.template), assign)


def transport_bipartite(
    witness: UniformWitness, x: Iterable[int], y: Iterable[int]
) -> UniformWitness:
    """Witness for the graph with the edges between ``x`` and ``y`` flipped."""
    xs = set(x)
    ys = set(y)
    if xs & ys:
        raise ValueError("bipartite complementation requires disjoint sets")
    w = transport_complement(witness, xs)
    w = transport_complement(w, ys)
    return transport_complement(w, xs | ys)


def witness_for_expansion(template: UniformTemplate, copies: int) -> UniformWitness:
    """The identity witness for ``expand_template(template, copies)``."""
    k = template.k
    assign = tuple((v // k, v % k) for v in range(copies * k))
    return UniformWitness(template, assign)
