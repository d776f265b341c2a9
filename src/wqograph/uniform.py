"""k-uniform graph templates, membership witnesses, uniformicity search,
and template doubling under complementation.

A template is a pair (F, K): a graph F on k classes and a symmetric 0/1
matrix K of order k.  Expanding the template with m copies yields the graph
on slots (copy, class) where (c, i) and (d, j) are adjacent iff

    [c == d and ij is an edge of F]  XOR  [K(i, j) == 1].

A witness assigns every vertex of a graph an injective slot so that the
adjacency law holds pairwise; a graph admitting a witness over some order-k
template is k-uniform, and uniformicity is the least such k.  One row-mask
law, ``_law_rows``, gives the row each slot expects: ``expand_template``
takes its rows from it, and ``verify_witness`` compares every row with it.

``complement_template`` doubles a template so that flipping the adjacency
inside any vertex set of a witnessed graph stays witnessable: each class i
gains a primed twin i+k with the same F-neighbourhoods (a false twin, not
adjacent to i), while K extends by K'[i,j] = K'[i,j'] = K'[i',j] = K[i,j]
and K'[i',j'] = 1 - K[i,j].  Moving exactly the flipped vertices to their
primed classes (same copies) is then again a valid witness: pairs with at
most one flipped vertex read the unchanged K and F entries, flipped pairs in
different copies read the flipped K entry, and flipped pairs sharing a copy
read the doubled F edge together with the flipped K entry, which combine to
the required flip.  The doubling works on row masks (F's row ``r`` becomes
``r | r << k`` for both twins), so it costs O(k) big-integer operations and
O(k²) matrix entries.

``UniformTemplate(...)`` checks its class graph and matrix, as templates
may come from outside.  Templates derived from a valid one (the doubling)
or built symmetric by construction (the search's witness, and the
structure certificates) skip those checks through ``_template``.

The search (``is_k_uniform``, ``uniformicity``) asks whether the classes
and copies of an order-k witness can be laid out at all.  Two vertices of
one class i sit in different copies, so they are adjacent iff K(i, i) = 1:
every class is a clique or an independent set.  Between
classes i and j, call the pairs whose adjacency differs from K(i, j) the
deviation: it holds exactly the pairs in one copy if ij is an edge of F and
no pair otherwise, and since a copy holds at most one vertex of each class
it is a matching.  The check therefore looks for a split of the vertices
into at most k parts, each a clique or an independent set, with the edges
(K = 0) or the non-edges (K = 1) between any two parts a matching, and a
copy relation that fits it: no copy holds two vertices of one part, and
between two parts with a non-empty deviation (which forces the F-edge) the
pairs in one copy are exactly the deviation.  An empty deviation imposes
nothing (take no F-edge).  Any relation that fits contains every deviation
pair, and joining more pairs can only break the two conditions, so the
least relation, the closure of the deviation pairs, fits whenever any
relation does; where both the edges and the non-edges between two parts
form a non-empty matching (parts of at most two vertices), both are tried
depth first, K = 0 first in part order; joining more pairs never mends a
misfit, so a choice that misfits is dropped with all the choices after it.

Two vertices of one class sit in different copies, so they agree on the
rest of their class and, in each other class, on every vertex outside
their two copies: they differ on at most 2(k - 1) vertices besides
themselves, exactly 2(k - 1) when F is complete and the copies are full.
The search never places a vertex beside one further off; this only
prunes, so the witness found is the same.

A split with a fitting relation is itself a witness, so the check is exact,
and the first such split the search reaches is the witness it returns.
Part p is class p, with K(p, p) = 1 iff the part holds an edge (it is then
a clique); between two parts, K is 0 if the deviation taken is the edges
and 1 if it is the non-edges, and F has an edge exactly where that
deviation is non-empty.  The copies are the components of the closure,
numbered in order of their lowest vertex, and classes beyond the parts pad
the template to order k with K = 0 and no F-edge.  One search node is one
part tried for one vertex, or one K = 1 tried: between two of these the
copy test tries K = 0 at most once per pair, so the nodes bound all the
work.  The search counts its nodes locally, charges them to the
budget on the way out, and raises :class:`SearchBudgetExceeded` at the node
where spending them one by one would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import MAX_VERTICES, Graph, _check_order, _graph, bits_of
from .order import SearchBudget, SearchBudgetExceeded


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

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "F_edges": [[u, v] for u, v in self.f.edges()],
            "K": [list(row) for row in self.matrix],
        }


def _template(k: int, f: Graph, matrix: tuple[tuple[int, ...], ...]) -> UniformTemplate:
    """A UniformTemplate built without the checks of ``__post_init__``; only
    for templates derived from a valid one, or built with a class graph on k
    vertices and a symmetric 0/1 matrix of order k by construction."""
    t = object.__new__(UniformTemplate)
    object.__setattr__(t, "k", k)
    object.__setattr__(t, "f", f)
    object.__setattr__(t, "matrix", matrix)
    return t


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


def _law_rows(t: UniformTemplate, assign) -> list[int]:
    """Each slot's row: its K-classes' members, flipped on its F-neighbour
    classes' members in its own copy (its own bit set iff K(i, i) = 1).

    Class members are masks in a list of length k (k is F's order, at most
    ``MAX_VERTICES``); copy members are masks in a dict, as copy ids are
    unbounded and a list sized by the largest would allocate that much.
    The first vertex, in assignment order, whose slot is out of range or
    already held raises, the range checked first."""
    k = t.k
    in_class = [0] * k
    in_copy: dict[int, int] = {}
    for v, (c, i) in enumerate(assign):
        if c < 0 or not 0 <= i < k:
            raise ValueError(f"vertex {v} assigned invalid slot ({c},{i})")
        held = in_copy.get(c, 0)
        if in_class[i] & held:  # an earlier vertex holds (c, i)
            raise ValueError(f"slot ({c},{i}) assigned twice")
        in_class[i] |= 1 << v
        in_copy[c] = held | 1 << v
    used = [(i, members) for i, members in enumerate(in_class) if members]
    across = [0] * k
    flips = [0] * k
    f_rows, matrix = t.f.rows, t.matrix
    for i, _ in used:  # only the classes in use: k may far exceed n
        entries, f_row = matrix[i], f_rows[i]
        row = flip = 0
        for j, members in used:
            if entries[j]:
                row |= members
            if f_row >> j & 1:
                flip |= members
        across[i], flips[i] = row, flip
    return [across[i] ^ flips[i] & in_copy[c] for c, i in assign]


def expand_template(template: UniformTemplate, copies: int) -> Graph:
    """The graph on ``copies * k`` vertices; vertex c*k + i is slot (c, i)."""
    if copies < 1:
        raise ValueError("at least one copy required")
    k = template.k
    n = copies * k
    _check_order(n)
    rows = _law_rows(template, [(v // k, v % k) for v in range(n)])
    return Graph(n, tuple(row & ~(1 << v) for v, row in enumerate(rows)))


def verify_witness(g: Graph, witness: UniformWitness) -> WitnessCheck:
    """Check the adjacency law on every vertex pair.

    Malformed assignments (wrong length, slot out of range, slot reuse)
    raise; a law violation is reported as the first offending pair (u, v),
    u < v, in lexicographic order, from the rows the slots expect.
    """
    if len(witness.assign) != g.n:
        raise ValueError("assignment must cover every vertex")
    for u, row in enumerate(_law_rows(witness.template, witness.assign)):
        wrong = (g.rows[u] ^ row) >> u + 1
        if wrong:
            return WitnessCheck(False, (u, u + (wrong & -wrong).bit_length()))
    return WitnessCheck(True)


def restrict_witness(witness: UniformWitness, vertices: Iterable[int]) -> UniformWitness:
    """Witness for the induced subgraph on ``vertices`` (hereditarity)."""
    vs = sorted(set(vertices))
    return UniformWitness(witness.template, tuple(witness.assign[v] for v in vs))


# ---------------------------------------------------------------------------
# Uniformicity search

MAX_SEARCH_N = 10  # sizes perfbench's uniform expansions; no search reads it


def is_k_uniform(
    g: Graph,
    k: int,
    *,
    budget: SearchBudget | None = None,
) -> UniformWitness | None:
    """The witness of the first split into at most k parts with a copy
    relation that fits, as the module docstring sets out, or None: exactly
    when no order-k template has a witness.  ``k`` must lie in 1..64, the
    vertex cap of the template's class graph.

    Vertices are placed 0..n-1 on the open parts and then on a fresh one
    (parts open in first-use order); one search node is one part p tried
    for one vertex v, charged before any test, or one K = 1 tried in a copy
    test.  ``modes[p][q]`` holds what the placed vertices still allow
    between parts p and q: bit 1 a matching, bit 2 a co-matching.  A node
    tests on v's row that p stays a clique or an independent set, then the
    modes v leaves with each other open part q in turn, and stops at the
    first q left with none.  The modes that narrow are written both ways as
    v joins p and restored as it leaves.  Each complete split is tested for
    copies, and the search goes on when none fit.  A node first refuses p
    if it holds a vertex not near v: ``near[v]`` masks the u < v whose rows
    differ from v's outside u and v on at most 2(k - 1) vertices, worked
    out when the search first reaches v (all u when 2(k - 1) >= n - 2).
    """
    if not 1 <= k <= MAX_VERTICES:
        raise ValueError(f"k must be in 1..{MAX_VERTICES}, got {k}")
    n = g.n
    rows = g.rows
    cap = 1 << 62 if budget is None else budget.limit - budget.used
    spent = 0
    parts = [0] * k
    modes = [[3] * k for _ in range(k)]
    room = 2 * (k - 1)
    near: list[int | None] = [None] * n if room < n - 2 else [-1] * n  # every pair is near

    def witness(opened: int) -> UniformWitness | None:
        """The witness of the complete split if the closure of the deviation
        pairs fits it, for the first choice of K, 0 before 1 in part order,
        between parts whose edges and non-edges both form a non-empty
        matching.  A deviation is kept as ``(p, q, K(p, q), devs)``: for
        each vertex u of part p, ``devs`` pairs u with the mask of its
        partner in part q (0 if none).

        The closure fits iff no component holds a cross pair of a non-empty
        deviation's parts that is not a deviation pair.  That keeps two
        vertices of one part apart too: if u and u' of part p share a
        component, one of them, say u, was joined to a partner v in some
        part q, and (u', v) is then such a cross pair."""
        nonlocal spent
        matrix = [[0] * k for _ in range(k)]
        fixed = []  # the deviations with one option
        pairs = []  # (K = 0, K = 1) where both deviations are non-empty
        for p in range(opened):
            pm = parts[p]
            matrix[p][p] = int(bool(rows[(pm & -pm).bit_length() - 1] & pm))
            members = bits_of(pm)
            for q in range(p + 1, opened):
                options = []
                for kpq, flip in ((0, 0), (1, -1)):  # K = 0: edges; K = 1: non-edges
                    if modes[p][q] >> kpq & 1:
                        devs = [(u, (rows[u] ^ flip) & parts[q]) for u in members]
                        if not any(d for _, d in devs):
                            matrix[p][q] = matrix[q][p] = kpq
                            break  # an empty deviation imposes nothing
                        options.append((p, q, kpq, devs))
                else:
                    if len(options) == 2:
                        pairs.append(options)
                    else:
                        fixed += options
        todo = [(0, fixed, 0)]  # pairs decided, deviations taken, nodes
        while todo:
            i, chosen, nodes = todo.pop()
            spent += nodes
            if spent > cap:
                raise SearchBudgetExceeded(budget.used + spent)
            comp = [1 << v for v in range(n)]
            for _, _, _, devs in chosen:
                for u, d in devs:
                    if d and not comp[u] & d:
                        joined = comp[u] | comp[d.bit_length() - 1]
                        for w in bits_of(joined):
                            comp[w] = joined
            if not all(
                not comp[u] & parts[q] or comp[u] & parts[q] == d
                for _, q, _, devs in chosen
                for u, d in devs
            ):
                continue
            if i < len(pairs):  # K = 0 on top, and K = 1 costs a node
                todo += [(i + 1, chosen + [opt], opt[2]) for opt in pairs[i][::-1]]
                continue
            for p, q, kpq, _ in chosen:
                matrix[p][q] = matrix[q][p] = kpq
            f = Graph.from_edges(k, [(p, q) for p, q, _, _ in chosen])
            template = _template(k, f, tuple(map(tuple, matrix)))
            part_of = [0] * n
            for p in range(opened):
                for v in bits_of(parts[p]):
                    part_of[v] = p
            copies: dict[int, int] = {}  # component mask -> copy
            assign = [(copies.setdefault(comp[v], len(copies)), part_of[v]) for v in range(n)]
            return UniformWitness(template, tuple(assign))
        return None

    def place(v: int, opened: int) -> UniformWitness | None:
        nonlocal spent
        if v == n:
            return witness(opened)
        nv = rows[v]
        nearv = near[v]
        if nearv is None:
            nearv = near[v] = sum(
                1 << u for u in range(v) if ((rows[u] ^ nv) & ~(1 << u | 1 << v)).bit_count() <= room
            )
        for p in range(opened + (opened < k)):
            spent += 1
            if spent > cap:
                raise SearchBudgetExceeded(budget.used + spent)
            pm = parts[p]
            if pm & ~nearv:
                continue
            if pm & (pm - 1) and nv & pm != (pm if rows[pm.bit_length() - 1] & pm else 0):
                continue
            mp = modes[p]
            changes = ()
            for q in range(opened):
                if q == p:
                    continue
                qm = parts[q]
                old = mp[q]
                mode = 0
                # a matching lets v have one neighbour in q, with none in p yet
                hit = nv & qm
                if old & 1 and not hit & (hit - 1):
                    if not hit or not rows[hit.bit_length() - 1] & pm:
                        mode = 1
                # a co-matching lets v miss one vertex of q, adjacent to all of p
                miss = qm & ~nv
                if old & 2 and not miss & (miss - 1):
                    if not miss or rows[miss.bit_length() - 1] & pm == pm:
                        mode |= 2
                if not mode:
                    break
                if mode != old:
                    changes += ((q, old, mode),)
            else:
                for q, _, mode in changes:
                    mp[q] = modes[q][p] = mode
                parts[p] |= 1 << v
                found = place(v + 1, opened + (p == opened))
                if found is not None:
                    return found
                parts[p] ^= 1 << v
                for q, old, _ in changes:
                    mp[q] = modes[q][p] = old
        return None

    try:
        return place(0, 0)
    finally:
        if budget is not None:
            budget.used += spent


def uniformicity(
    g: Graph,
    kmax: int,
    *,
    budget: SearchBudget | None = None,
) -> tuple[int, UniformWitness] | None:
    """Smallest k <= kmax admitting a witness, with the witness; else None.
    It stops by k = max(n, 1), as the split into singletons is a witness."""
    if kmax < 1:
        raise ValueError("kmax must be positive")
    for k in range(1, kmax + 1):
        witness = is_k_uniform(g, k, budget=budget)
        if witness is not None:
            return k, witness
    return None


# ---------------------------------------------------------------------------
# Template doubling under complementation


def complement_template(template: UniformTemplate) -> UniformTemplate:
    """Order-2k template accommodating one subgraph complementation, built
    from row masks: class i and its primed twin i + k both get F's row i
    doubled, ``r | r << k``, and K's rows become ``K_i + K_i`` and ``K_i``
    followed by its flip.  Both are valid because ``template`` is, so the
    result is built unchecked once 2k is within the vertex cap."""
    k = template.k
    _check_order(2 * k)
    rows = tuple(r | r << k for r in template.f.rows)
    matrix = template.matrix
    doubled = tuple(row + row for row in matrix) + tuple(
        row + tuple(1 - x for x in row) for row in matrix
    )
    return _template(2 * k, _graph(2 * k, rows + rows), doubled)


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
