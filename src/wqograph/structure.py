"""Decomposers and certifiers for graphs that are free of the diamond
(``co(2P1+P2)``) and of ``P2+P3``.

Members of that class split by which dense anchor they contain, with
precedence K5 > C5 > C4 > Sparse (:func:`_branch`).  Each dense branch has a
decomposer that finds the anchor, names the vertex sets the analysis uses,
checks every structural claim as an executable predicate (reporting a
counterexample on failure), and emits a replayable certificate: an operation
script plus per-part checkers (bipartite / star forest / clique union /
uniform-template witness).  Claim failures signal an input outside the
class; on class members every claim holds and every certificate replays.
A Sparse member is named by ``route`` only; it has no decomposer yet.

Vertex sets are masks in all three decomposers: the cycle decomposers
derive every set from the off-cycle neighbourhood mask of each cycle vertex
(:func:`_cycle_split`), the K5 decomposer's outside cliques and the paw
layout's classes and copies are component masks
(:func:`~wqograph.graphs._components`), and a claim tests a vertex against
a whole set with one AND.  The reports list each set as an ascending tuple.

Membership in the class is decided without an embedding search, by the
freeness decider in :mod:`wqograph.order`:

- G is diamond-free iff, for every edge uv, N(u) & N(v) is a clique;
- G is P2+P3-free iff, for every edge uv, G - N[u] - N[v] is a disjoint
  union of cliques.

The search for a forbidden pattern runs only when one of them fails, to name
the witness that :class:`RouteError` carries.  The anchors of the most
recently searched graph are memoised behind :func:`find_clique` and
:func:`find_induced_cycle`, so the decomposer that :func:`route` selects
does not search again for what ``route`` found.

Claim identifiers are stable strings ("L4.1-C1", "L4.2-C3", "L4.3-C4", ...)
used in JSON reports and by the mutation tests.

The fixed parts of a certificate are shared values, built once at import:
the check of each claim that holds (one per claim id, in ``_HELD``), the
``del`` step of each vertex id (below ``MAX_VERTICES``, in ``_DELETE``) and
the template of each C5 case and of the C4 triangle kernel.  This is safe
because all of them are frozen, so no report can change another's, and
every table is bounded by construction: a fixed set of claim ids, 64 vertex
ids and eight templates.  A failed claim is a fresh check with its witness,
and every claim is still evaluated and every witness still verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import count
from operator import or_
from typing import Iterable, Sequence

from .graphs import (
    MAX_VERTICES,
    Graph,
    _components,
    _reach,
    bits_of,
    complement,
    induced,
    is_bipartite,
    mask_of,
    pattern,
)
from .order import _split_free, induced_embed, is_free
from .ops import (
    BipartiteComplement,
    DeleteVertex,
    OpScript,
    SubgraphComplement,
    apply_script,
    bipartite_complement,
)
from .uniform import UniformTemplate, UniformWitness, _template, verify_witness

CLASS_FORBIDDEN_EXPRS = ("co(2P1+P2)", "P2+P3")


class RouteError(ValueError):
    """Input violates the class the decomposers are defined for."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ClaimCheck:
    id: str
    ok: bool
    witness: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        out = {"id": self.id, "ok": self.ok}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass(frozen=True)
class Part:
    """One piece of a certificate: a vertex set (original ids) plus the
    structural property it was checked against."""

    kind: str
    vertices: tuple[int, ...]
    ok: bool
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        detail = {}
        for key, value in self.detail.items():
            if isinstance(value, UniformWitness):
                detail[key] = value.to_json()
            elif isinstance(value, tuple):
                detail[key] = list(value)
            else:
                detail[key] = value
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "ok": self.ok,
            "detail": detail,
        }


@dataclass(frozen=True)
class DecompositionReport:
    branch: str
    anchor: tuple[int, ...]
    case: int | None
    sets: dict[str, tuple[int, ...]]
    claims: tuple[ClaimCheck, ...]
    deletions: tuple[int, ...]
    script: OpScript
    parts: tuple[Part, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims) and all(p.ok for p in self.parts)

    def failed_claims(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.claims if not c.ok)

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "anchor": list(self.anchor),
            "case": self.case,
            "sets": {k: sorted(v) for k, v in self.sets.items()},
            "claims": [c.to_json() for c in self.claims],
            "deletions": sorted(self.deletions),
            "script": self.script.to_json(),
            "parts": [p.to_json() for p in self.parts],
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Shared certificate parts
#
# Each claim that holds is one shared check per claim id, and each deletion
# one shared step per vertex id: both are frozen values, so every report can
# hold the same object, and both tables are fixed at import (the claim ids
# below; vertex ids below ``MAX_VERTICES``).  A failed claim is a fresh check
# with its witness.


def _numbered(stem: str, n: int) -> tuple[str, ...]:
    return tuple(f"{stem}{i}" for i in range(1, n + 1))


_YS, _WS, _VS = (_numbered(name, 5) for name in "YWV")  # set names
_C5_Y, _C5_W, _C5_IND_V = (_numbered(f"L4.2-{stem}", 5) for stem in ("Y", "W", "ind-V"))
_C4_Y, _C4_B2 = _numbered("L4.3-Y", 4), _numbered("L4.3-B2-W", 4)
_HELD = {
    claim_id: ClaimCheck(claim_id, True)
    for claim_id in (
        *("L4.1-C1", "L4.1-P3", "L4.1-C2", "L4.1-C3-DEL", "L4.1-C4-DEL"),
        *_C5_Y, *_C5_W, *_C5_IND_V, "L4.2-ind-X", *_numbered("L4.2-C", 7), "L4.2-paw",
        *_C4_Y, "L4.3-C5", "L4.3-B1-V1", "L4.3-B1-V2", *_C4_B2, "L4.3-B3", "L4.3-B4",
        *_numbered("L4.3-C", 4), "L4.3-DEL",
    )
}
_DELETE = tuple(DeleteVertex(v) for v in range(MAX_VERTICES))


# ---------------------------------------------------------------------------
# Anchors
#
# ``route`` and the decomposer it selects look for the same anchors in the
# same graph.  The anchors of the most recently searched graph are held in a
# memo keyed by the graph's value, so the second look is a dictionary hit;
# a search in any other graph replaces it.


@lru_cache(maxsize=1)
def _anchors(g: Graph) -> dict[str, tuple[int, ...] | None]:
    return {}


def find_clique(g: Graph, size: int) -> tuple[int, ...] | None:
    memo = _anchors(g)
    key = f"K{size}"
    if key not in memo:
        memo[key] = is_free(g, [pattern(key)]).witness
    return memo[key]


def find_induced_cycle(g: Graph, length: int) -> tuple[int, ...] | None:
    """First induced cycle in search order, the vertices in cycle order.

    The search returns the least embedding in position order, and the
    cycle's rotations and reflections are embeddings too, so it starts at
    its smallest vertex and runs towards the smaller of its two
    neighbours."""
    memo = _anchors(g)
    key = f"C{length}"
    if key not in memo:
        memo[key] = induced_embed(pattern(key), g)
    return memo[key]


def _branch(g: Graph) -> str:
    """The branch of ``g`` by its anchors alone; membership is not checked."""
    if find_clique(g, 5) is not None:
        return "K5"
    if find_induced_cycle(g, 5) is not None:
        return "C5"
    if find_induced_cycle(g, 4) is not None:
        return "C4"
    return "Sparse"


def route(g: Graph) -> str:
    """Branch selection with class validation: the :func:`_branch` of a member.

    Membership is decided by :func:`~wqograph.order.is_free`, whose decider
    knows both forbidden patterns and needs no search for them; the embedding
    search runs only when one of them is found, to name the witness.  Raises
    :class:`RouteError` when the input contains one of the class's forbidden
    patterns, the diamond first.  A Sparse input is then free of K5 and of
    C4 (= K2,2) by the checks before it, and of P6 because P6 contains an
    induced P2+P3.  The anchors found here are memoised for the decomposer
    that runs next on the same graph.
    """
    found = is_free(g, [pattern(expr) for expr in CLASS_FORBIDDEN_EXPRS])
    if not found.free:
        expr = CLASS_FORBIDDEN_EXPRS[found.pattern_index]
        raise RouteError(f"input contains {expr}", found.witness)
    return _branch(g)


def _caller_anchor(g: Graph, given: Sequence[int], size: int, shape: str):
    """A caller's anchor as a tuple, once it is ``size`` distinct vertices
    of ``g``; checked before any bit operation uses it."""
    anchor = tuple(given)
    if (
        len(anchor) != size
        or len(set(anchor)) != size
        or not all(type(v) is int and 0 <= v < g.n for v in anchor)
    ):
        raise ValueError(
            f"anchor {anchor} is not {shape}: "
            f"it needs {size} distinct vertices in 0..{g.n - 1}"
        )
    return anchor


# ---------------------------------------------------------------------------
# Claim predicates: each takes vertex sets as masks, reads them in ascending
# order and returns the first counterexample, or None.  A vertex is tested
# against a whole set with one mask AND.  ``edge`` says which relation is
# the counterexample: an edge (True) or a non-edge (False).


def _least(m: int) -> int:
    return (m & -m).bit_length() - 1


def _first_pair(g: Graph, a: int, b: Sequence[int], edge: bool):
    """First (u, v), u from ``a`` and v from the list whose ascending parts
    are the masks ``b``, that is an edge iff ``edge``: a counterexample to
    ``a`` anticomplete (True) or complete (False) to that list.  The
    partner is the least hit in the first part with one, so a list such as
    V_(i-1) + V_(i+1) is read in its order."""
    rows = g.rows
    whole = 0
    for part in b:
        whole |= part
    while a:
        low = a & -a
        a ^= low
        u = low.bit_length() - 1
        hit = (rows[u] if edge else ~rows[u]) & whole
        if hit:
            return u, next(_least(hit & part) for part in b if hit & part)
    return None


def _first_inside(g: Graph, vs: int, edge: bool):
    """First (u, v), u < v in ``vs``, that is an edge iff ``edge``: a
    counterexample to ``vs`` independent (True) or a clique (False)."""
    rows = g.rows
    while vs:
        low = vs & -vs
        vs ^= low
        u = low.bit_length() - 1
        hit = (rows[u] if edge else ~rows[u]) & vs
        if hit:
            return u, _least(hit)
    return None


def _first_two(g: Graph, a: int, b: int, edge: bool):
    """First u in ``a`` with two or more vertices of ``b`` adjacent to it iff
    ``edge``, as (u, v, w) with v < w the least two: a counterexample to
    each vertex of ``a`` having at most one neighbour (True) or
    non-neighbour (False) in ``b``."""
    rows = g.rows
    while a:
        low = a & -a
        a ^= low
        u = low.bit_length() - 1
        hit = (rows[u] if edge else ~rows[u]) & b
        if hit & (hit - 1):
            v = hit & -hit
            return u, v.bit_length() - 1, _least(hit ^ v)
    return None


def _claim(claims: list[ClaimCheck], claim_id: str, found: Iterable) -> None:
    """Record a claim that holds iff ``found`` yields no counterexample; the
    first one it yields is the witness, and a generator is not run past it.
    A claim that holds is its shared check in ``_HELD``."""
    worst = next(filter(None, found), None)
    claims.append(_HELD[claim_id] if worst is None else ClaimCheck(claim_id, False, worst))


def _deletion_script(deletions: Sequence[int]) -> OpScript:
    """The ``del`` steps of ascending ``deletions``, highest first."""
    return OpScript(tuple(_DELETE[v] for v in reversed(deletions)))


def _local(within: int, subset: int) -> int:
    """The mask of the positions that the vertices of ``subset`` take among
    the vertices of ``within``, renumbered in ascending order."""
    out = 0
    for v in bits_of(subset):
        out |= 1 << (within & ((1 << v) - 1)).bit_count()
    return out


def _cycle_split(
    g: Graph,
    cyc: Sequence[int],
    y_ids: Sequence[str],
    claims: list[ClaimCheck],
    sets: dict[str, tuple[int, ...]],
) -> tuple[int, list[int], list[int], int]:
    """Split the off-cycle vertices of an induced cycle, on vertex masks.

    Every set is a few mask operations on A_i, the mask of the off-cycle
    neighbours of cycle vertex i.  The junk set Y_i = A_i & A_(i+1) holds
    the common neighbours of cycle vertices i and i + 1; each is claimed a
    clique of at most two.  Outside Y no vertex sees two consecutive cycle
    vertices, so it sees one (W_i, the vertices that see only i), two
    opposite ones (V_i, those that see i - 1 and i + 1; on a 4-cycle V_i is
    V_(i+2)) or none (X).  Returns (Y, [W_i], [V_i], X), Y the union of the
    Y_i.
    """
    n = len(cyc)
    off = g.mask & ~mask_of(cyc)
    nbrs = [g.rows[c] & off for c in cyc]
    junk = once = twice = 0
    for i in range(n):
        yi = nbrs[i] & nbrs[(i + 1) % n]
        sets[_YS[i]] = bits_of(yi)
        big = sets[_YS[i]] if yi.bit_count() > 2 else None
        _claim(claims, y_ids[i], [_first_inside(g, yi, False), big])
        junk |= yi
        twice |= once & nbrs[i]
        once |= nbrs[i]
    rest = off & ~junk
    w = [m & ~twice for m in nbrs]
    v = [rest & nbrs[i - 1] & nbrs[(i + 1) % n] for i in range(n)]
    return junk, w, v, rest & ~once


def _uniform_template(
    k: int, f_edges: Iterable[tuple[int, int]], k_ones: Iterable[tuple[int, int]]
) -> UniformTemplate:
    """The order-k template with F's ``f_edges`` and K = 1 on ``k_ones``.
    The matrix is symmetric 0/1 by construction and F comes from
    ``Graph.from_edges``, so the template is built unchecked."""
    matrix = [[0] * k for _ in range(k)]
    for i, j in k_ones:
        matrix[i][j] = matrix[j][i] = 1
    return _template(k, Graph.from_edges(k, f_edges), tuple(map(tuple, matrix)))


def _template_witness(
    template: UniformTemplate, classes: Sequence[int], groups: Sequence[int]
) -> tuple[UniformWitness, tuple[int, ...]]:
    """Witness of ``template`` over its classes, given as vertex masks: the
    vertices of each copy group (a mask inside the classes) share a copy, in
    group order (a later group wins), and every other vertex gets a fresh
    copy in ascending order.  Returns the witness and the ascending vertex
    set it covers; assignments are indexed by position in that set.  Each
    vertex's class and copy are read from lists indexed by vertex."""
    covered = reduce(or_, classes, 0)
    cls = [0] * covered.bit_length()
    copy = [-1] * len(cls)
    for c, m in enumerate(classes):
        for v in bits_of(m):
            cls[v] = c
    for c, m in enumerate(groups):
        for v in bits_of(m):
            copy[v] = c
    vertices = bits_of(covered)
    fresh = count(len(groups))
    assign = tuple((copy[v] if copy[v] >= 0 else next(fresh), cls[v]) for v in vertices)
    return UniformWitness(template, assign), vertices


# ---------------------------------------------------------------------------
# K5 branch


def decompose_k5(g: Graph, clique: Sequence[int] | None = None) -> DecompositionReport:
    """Certify the structure of a class member containing a 5-clique.

    The anchor clique is greedily extended to a maximal clique X; everything
    outside must fall apart into disjoint cliques touching X in at most one
    vertex each.  The four cases by the number and size of outside cliques
    each emit a certificate: a complementation whose image is bipartite
    (single outside clique), a complementation whose image is a star forest
    (no large outside clique), or at most two deletions reaching one of
    those forms (one / several large outside cliques).
    """
    if clique is not None:
        anchor = tuple(sorted(_caller_anchor(g, clique, 5, "a 5-clique")))
    else:
        anchor = find_clique(g, 5)
    if anchor is None:
        raise ValueError("no 5-clique present")
    if _first_inside(g, mask_of(anchor), False):
        raise ValueError(f"anchor {anchor} is not a 5-clique")
    # greedy growth: the lowest vertex adjacent to the whole clique joins it;
    # one ascending pass suffices because the clique only grows
    xmask = mask_of(anchor)
    common = g.mask
    for u in anchor:
        common &= g.rows[u]
    while common:
        low = common & -common
        xmask |= low
        common &= g.rows[low.bit_length() - 1]
    x = bits_of(xmask)
    outside = g.mask & ~xmask

    claims: list[ClaimCheck] = []
    _claim(claims, "L4.1-C1", [_first_two(g, outside, xmask, True)])

    # the outside cliques, as masks in order of least vertex
    comps = _components(g.rows, outside)
    _claim(claims, "L4.1-P3", (_first_inside(g, m, False) for m in comps))

    large = [m for m in comps if m & (m - 1)]
    touched = [[j for j, m in enumerate(comps) if g.rows[xv] & m] for xv in x]
    _claim(
        claims,
        "L4.1-C2",
        (
            _first_two(g, 1 << xv, m, False)
            for xv, hit in zip(x, touched)
            if hit
            for j, m in enumerate(comps)
            if m & (m - 1) and hit != [j]
        ),
    )

    sets = {"X": x}
    for i, comp in enumerate(comps, start=1):
        sets[f"X{i}"] = bits_of(comp)

    # the case hypotheses overlap; the effective precedence keeps them
    # disjoint: a lone small outside clique belongs to the star-forest case
    if not comps or (len(comps) == 1 and len(large) == 1):
        case = 1
    elif not large:
        case = 2
    elif len(large) == 1:
        case = 3
    else:
        case = 4

    parts: list[Part] = []
    deletions: tuple[int, ...] = ()
    if case == 1:
        script = OpScript((SubgraphComplement(tuple(range(g.n))),))
        image = apply_script(g, script)
        parts.append(
            Part(
                "complement-bipartite",
                tuple(range(g.n)),
                is_bipartite(image) is not None,
            )
        )
    elif case == 2:
        script = OpScript((SubgraphComplement(x),))
        image = apply_script(g, script)
        parts.append(
            Part("star-forest", tuple(range(g.n)), _is_star_forest(image))
        )
    else:
        # delete the X vertices touching a small outside clique (3) or any outsider (4)
        singles = reduce(or_, (m for m in comps if not m & (m - 1)), 0)
        deletions = bits_of(xmask & _reach(g.rows, singles if case == 3 else outside))
        _claim(claims, f"L4.1-C{case}-DEL", [deletions if len(deletions) > 2 else None])
        script = _deletion_script(deletions)
        image = apply_script(g, script)
        survivors = bits_of(g.mask & ~mask_of(deletions))
        if case == 3:
            keep = [v for v in range(image.n) if image.degree(v) > 0]
            parts.append(
                Part(
                    "complement-bipartite",
                    survivors,
                    is_bipartite(complement(induced(image, keep))) is not None,
                    {"dropped_isolated": image.n - len(keep)},
                )
            )
        else:
            parts.append(
                Part("clique-union", survivors, is_free(image, [pattern("P3")]).free)
            )
    if deletions:
        sets["D"] = deletions
    return DecompositionReport(
        "K5", anchor, case, sets, tuple(claims), deletions, script, tuple(parts)
    )


def _is_star_forest(g: Graph) -> bool:
    """Every component is an isolated vertex or a star: no edge joins two
    vertices of degree 2 or more, which also rules out every cycle."""
    hubs = mask_of(v for v, row in enumerate(g.rows) if row & (row - 1))
    return not _reach(g.rows, hubs) & hubs


# ---------------------------------------------------------------------------
# C5 branch

# The template of cases 4 and 5 over the classes that ``_paw_layout`` lays
# out: F is the paw between the classes of any two sets, and K = 1 exactly
# between A-classes and B-classes.  Case 4's X is class 12, with K = 0.
_PAW = pattern("co(P1+P3)")
_PAW_TEMPLATE = (
    tuple(
        (4 * s + p, 4 * t + q)
        for p, q in _PAW.edges()
        for s in range(3)
        for t in range(3)
    ),
    tuple((4 + p, 8 + q) for p in range(4) for q in range(4)),
)
# The seven cases of the largeness pattern: the canonical large positions,
# the stated witness order, and the template.  A template gives the F edges
# and the class pairs with K = 1; in cases 1-3, 6 and 7 its classes are the
# large V sets in position order, with X the class after them.
C5_CASES = {
    1: ((0, 1, 2, 3, 4), 6, ((), ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))),
    2: ((0, 1, 2, 3), 5, (((0, 3),), ((0, 1), (1, 2), (2, 3)))),
    3: ((0, 1, 2), 4, (((1, 3),), ((0, 1), (1, 2)))),
    4: ((0, 2, 3), 13, _PAW_TEMPLATE),
    5: ((2, 3), 12, _PAW_TEMPLATE),
    6: ((0, 2), 3, (((0, 1),), ())),
    7: ((0,), 2, (((0, 1),), ())),
}
# Each case's template, built once; its order is the case's stated order.
_C5_TEMPLATES = {
    case: _uniform_template(stated, f_edges, k_ones)
    for case, (_, stated, (f_edges, k_ones)) in C5_CASES.items()
}
# Built in reverse, so that the first case and its smallest rotation win.
_C5_CASE_OF = {
    frozenset((p + rot) % 5 for p in positions): (case, rot)
    for case, (positions, *_) in reversed(C5_CASES.items())
    for rot in reversed(range(5))
}


def c5_case_of(large: set[int]) -> tuple[int, int]:
    """(case, rotation) for a largeness pattern over cycle positions 0..4.

    The rotation r maps canonical position p to original position (p + r) % 5
    and is the smallest one placing the pattern at the canonical positions of
    the first matching case in ``C5_CASES``; a pattern with no large set is
    case 7 at rotation 0.
    """
    return _C5_CASE_OF.get(frozenset(large), (7, 0))


def decompose_c5(g: Graph, cycle: Sequence[int] | None = None) -> DecompositionReport:
    """Certify a K5-free class member containing an induced 5-cycle.

    Bounded junk is identified and scheduled for deletion: vertices with two
    consecutive neighbours on the cycle (a clique of at most two per cycle
    edge), then vertices with exactly one cycle neighbour (at most one per
    cycle vertex).  The remaining off-cycle vertices split into X (no cycle
    neighbours) and V_1..V_5 (two opposite neighbours).  After checking the
    claim battery, the cycle and all small sets are deleted and the
    surviving sets receive a uniform-template witness whose shape depends on
    the largeness pattern.  In cases 4 and 5 the template's classes refine
    the paw that covers each component once the edges between one set pair
    are complemented; every witness has the case's stated order.
    """
    if cycle is not None:
        cyc = _caller_anchor(g, cycle, 5, "an induced 5-cycle")
    else:
        cyc = find_induced_cycle(g, 5)
    if cyc is None:
        raise ValueError("no induced 5-cycle present")
    if not _is_induced_cycle(g, cyc):
        raise ValueError(f"anchor {cyc} is not an induced 5-cycle")
    claims: list[ClaimCheck] = []
    sets: dict[str, tuple[int, ...]] = {}
    junk, wm, vm, xm = _cycle_split(g, cyc, _C5_Y, claims, sets)
    for i in range(5):
        sets[_WS[i]] = bits_of(wm[i])
        _claim(claims, _C5_W[i], [sets[_WS[i]] if wm[i].bit_count() > 1 else None])
        junk |= wm[i]
    for i in range(5):
        sets[_VS[i]] = bits_of(vm[i])
        _claim(claims, _C5_IND_V[i], [_first_inside(g, vm[i], True)])
    sets["X"] = bits_of(xm)
    _claim(claims, "L4.2-ind-X", [_first_inside(g, xm, True)])

    large = {i for i in range(5) if vm[i].bit_count() >= 3}
    x_large = xm.bit_count() >= 3

    # the seven claims
    def vs(i: int) -> int:
        return vm[i % 5]

    def at_most_one(a: int, b: int, edge: bool):
        return _first_two(g, a, b, edge) or _first_two(g, b, a, edge)

    def split(i: int, j: int):
        """Non-adjacent y in V_i, z in V_j and the first w in X + V_{i+3}
        adjacent to exactly one of them."""
        ws = (xm, vs(i + 3))
        wmask = xm | vs(i + 3)
        rows = g.rows
        for y in bits_of(vs(i)):
            for z in bits_of(vs(j) & ~rows[y]):
                hit = (rows[y] ^ rows[z]) & wmask
                if hit:
                    return next(_least(hit & w) for w in ws if hit & w), y, z
        return None

    _claim(claims, "L4.2-C1", (at_most_one(vs(i), xm, True) for i in range(5)))
    _claim(claims, "L4.2-C2", (at_most_one(vs(i), vs(i + 2), True) for i in range(5)))
    _claim(claims, "L4.2-C3", (at_most_one(vs(i), vs(i + 1), False) for i in range(5)))
    _claim(
        claims,
        "L4.2-C4",
        (_first_pair(g, xm, (vs(i - 2), vs(i + 2)), True) for i in sorted(large)),
    )
    _claim(
        claims,
        "L4.2-C5",
        (_first_pair(g, vs(i - 1), (vs(i + 1),), True) for i in sorted(large)),
    )
    _claim(
        claims,
        "L4.2-C6",
        (
            _first_pair(g, vs(i), (vs(i - 1), vs(i + 1)), False)
            for i in range(5)
            if {(i - 1) % 5, i, (i + 1) % 5} <= large
        ),
    )
    _claim(
        claims,
        "L4.2-C7",
        (split(i, (i + 1) % 5) for i in range(5) if {i, (i + 1) % 5} <= large),
    )

    # delete cycle, junk and all small sets; survivors carry the witness
    small = 0 if x_large else xm
    for i in range(5):
        if i not in large:
            small |= vm[i]
    deletions = bits_of(junk | mask_of(cyc) | small)
    script = _deletion_script(deletions)

    case, rot = c5_case_of(large)
    vr = [vm[(p + rot) % 5] if (p + rot) % 5 in large else 0 for p in range(5)]
    part = _c5_witness_part(g, case, vr, xm if x_large else 0, claims)
    return DecompositionReport(
        "C5", cyc, case, sets, tuple(claims), deletions, script, (part,)
    )


def _is_induced_cycle(g: Graph, cyc: Sequence[int]) -> bool:
    n = len(cyc)
    if len(set(cyc)) != n:
        return False
    on = mask_of(cyc)
    return all(
        g.rows[v] & on == (1 << cyc[i - 1]) | (1 << cyc[(i + 1) % n])
        for i, v in enumerate(cyc)
    )


def _c5_witness_part(
    g: Graph,
    case: int,
    vr: list[int],
    xs: int,
    claims: list[ClaimCheck],
) -> Part:
    """The uniform part over the surviving sets, given as masks: ``vr`` the
    V sets at their canonical positions (0 where small) and ``xs`` X (0
    where small)."""
    positions, stated, (f_edges, _) = C5_CASES[case]
    if case in (4, 5):
        single = vr[0] if case == 4 else xs
        classes, groups, bad = _paw_layout(g, single, vr[2], vr[3])
        _claim(claims, "L4.2-paw", [bad])
        if case == 4:
            classes.append(xs)
    else:
        classes = [vr[p] for p in positions] + [xs]
        # the edges between an F-linked class pair share copies
        groups = [
            1 << u | 1 << v
            for a, b in f_edges
            for u in bits_of(classes[a])
            for v in bits_of(g.rows[u] & classes[b])
        ]
        bad = None
    witness = check = None
    if bad is None:
        witness, vertices = _template_witness(_C5_TEMPLATES[case], classes, groups)
        check = verify_witness(induced(g, vertices), witness)
    else:
        vertices = bits_of(reduce(or_, classes))
    return Part(
        "uniform",
        vertices,
        bool(check and check.ok),
        {
            "witness": witness,
            "order": witness.template.k if witness else None,
            "stated_order": stated,
            "violation": None if not check or check.ok else check.violation,
        },
    )


def _paw_layout(
    g: Graph, single: int, pair_a: int, pair_b: int
) -> tuple[list[int], list[int], tuple[int, ...] | None]:
    """Classes and copy groups (masks) of ``_PAW_TEMPLATE`` over three set masks.

    Complementing the edges between A and B must leave components that
    each induced-embed into the paw; each component is one copy, and class
    4 s + p holds the vertices of set s (single, A, B) at paw vertex p.
    Complementing A x B back flips exactly the K entries between A-classes
    and B-classes.  Returns (classes, groups, violation): the violation is
    None, or the first component that does not embed, and the classes are
    then the three sets themselves.
    """
    sets = (single, pair_a, pair_b)
    flipped = bipartite_complement(g, bits_of(pair_a), bits_of(pair_b))
    at = [0] * 4  # the vertices at each paw vertex
    groups = _components(flipped.rows, single | pair_a | pair_b)
    for comp in groups:
        emb = induced_embed(induced(flipped, bits_of(comp)), _PAW)
        if emb is None:
            return list(sets), [], bits_of(comp)
        for v, p in zip(bits_of(comp), emb):
            at[p] |= 1 << v
    return [at[p] & s for s in sets for p in range(4)], groups, None


# ---------------------------------------------------------------------------
# C4 branch

# The order-3 template of the triangle kernel over V10, X0, V20: F is the
# path 0-1-2 and K = 1 between V10 and V20, so each copy is one triangle.
_TRIANGLES = _uniform_template(3, ((0, 1), (1, 2)), ((0, 2),))


def decompose_c4(g: Graph, cycle: Sequence[int] | None = None) -> DecompositionReport:
    """Certify a (K5, C5)-free class member containing an induced 4-cycle.

    Deletions: consecutive-neighbour junk (at most two per cycle edge),
    singleton one-neighbour sets, at most one vertex regularizing the
    triangle kernel, and the four cycle vertices (at most 17 in total on
    class members).  At most two bipartite complementations then split off
    the triangle kernel V10 + V20 + X0, which carries an order-3 template
    witness (one triangle per copy); the remainder must be bipartite and
    free of P2+P3.
    """
    if cycle is not None:
        cycle = _caller_anchor(g, cycle, 4, "an induced 4-cycle")
    if find_clique(g, 5) is not None:
        raise ValueError("decompose_c4 requires a K5-free input")
    if find_induced_cycle(g, 5) is not None:
        raise ValueError("decompose_c4 requires a C5-free input")
    cyc = cycle if cycle is not None else find_induced_cycle(g, 4)
    if cyc is None:
        raise ValueError("no induced 4-cycle present")
    if not _is_induced_cycle(g, cyc):
        raise ValueError(f"anchor {cyc} is not an induced 4-cycle")

    claims: list[ClaimCheck] = []
    sets: dict[str, tuple[int, ...]] = {}
    deletions, wm, (v1, v2, _, _), xm = _cycle_split(g, cyc, _C4_Y, claims, sets)
    for i in range(4):
        if wm[i].bit_count() == 1:
            deletions |= wm[i]
            wm[i] = 0

    _claim(
        claims,
        "L4.3-C5",
        ((_least(wm[i]), _least(wm[i + 2])) for i in (0, 1) if wm[i] and wm[i + 2]),
    )
    # rotate so the nonempty one-neighbour sets sit at cycle positions 0, 1
    rot = 0
    for r in range(4):
        if not wm[(2 + r) % 4] and not wm[(3 + r) % 4]:
            rot = r
            break
    cyc = tuple(cyc[(p + rot) % 4] for p in range(4))
    wm = [wm[(p + rot) % 4] for p in range(4)]
    if rot % 2 == 1:
        v1, v2 = v2, v1

    for name, claim_id, vs in (("V1", "L4.3-B1-V1", v1), ("V2", "L4.3-B1-V2", v2)):
        sets[name] = bits_of(vs)
        _claim(claims, claim_id, [_first_inside(g, vs, True)])
    for i in range(4):
        sets[_WS[i]] = bits_of(wm[i])
        _claim(claims, _C4_B2[i], [_first_inside(g, wm[i], True)])
    sets["X"] = bits_of(xm)
    _claim(claims, "L4.3-B3", [_first_inside(g, xm, True)])
    _claim(claims, "L4.3-B4", (_first_pair(g, w, (xm,), True) for w in wm))

    # the live sets and the triangle kernel X0 + V10 + V20; a kernel side of
    # at most one vertex is regularised by deleting it, and computed again
    rows = g.rows
    for regularised in (False, True):
        live_x, live_v1, live_v2 = xm & ~deletions, v1 & ~deletions, v2 & ~deletions
        touches_v1 = live_x & _reach(rows, live_v1)
        x0 = touches_v1 & _reach(rows, live_v2)
        reach_x0 = _reach(rows, x0)
        v10, v20 = live_v1 & reach_x0, live_v2 & reach_x0
        if regularised or not x0 or (v10.bit_count() > 1 and v20.bit_count() > 1):
            break
        deletions |= v10 & -v10 if v10.bit_count() <= 1 else v20 & -v20
    sets["X0"] = bits_of(x0)
    sets["V10"] = bits_of(v10)
    sets["V20"] = bits_of(v20)
    x1 = live_x & ~touches_v1
    x2 = touches_v1 & ~x0
    sets["X1"] = bits_of(x1)
    sets["X2"] = bits_of(x2)

    # kernel claims; each x in X0 forms a triangle with its one neighbour in
    # each of V10 and V20, one mask per triangle
    worst = None
    triangles = []
    for x in bits_of(x0):
        n10, n20 = rows[x] & v10, rows[x] & v20
        if n10.bit_count() != 1 or n20.bit_count() != 1 or not rows[_least(n10)] & n20:
            worst = (x,) + bits_of(n10)[:2] + bits_of(n20)[:2]
            break
        triangles.append(n10 | 1 << x | n20)
    _claim(claims, "L4.3-C1", [worst])

    def one_in_x0(u: int):
        nx = rows[u] & x0
        return None if nx.bit_count() == 1 else (u,) + bits_of(nx)[:2]

    _claim(claims, "L4.3-C2", (one_in_x0(u) for vi0 in (v10, v20) for u in bits_of(vi0)))
    _claim(
        claims,
        "L4.3-C3",
        [_first_pair(g, v10, (live_v2,), False) or _first_pair(g, v20, (live_v1,), False)],
    )

    def mixed(w: int, vi0: int):
        """w with a neighbour and a non-neighbour in vi0, and the first of each."""
        nbr, non = rows[w] & vi0, ~rows[w] & vi0
        return (w, _least(nbr), _least(non)) if nbr and non else None

    _claim(
        claims,
        "L4.3-C4",
        (
            mixed(w, vi0)
            for part in (wm[0], wm[1], x1, x2)
            for w in bits_of(part)
            for vi0 in (v10, v20)
        ),
    )

    deletions |= mask_of(cyc)
    deletions_t = bits_of(deletions)
    alive = g.mask & ~deletions
    in_kernel = x0 | v10 | v20
    kernel = bits_of(in_kernel)
    rest = alive & ~in_kernel

    # separation: flip each kernel side against its complete outsiders
    steps: list = list(_deletion_script(deletions_t).steps)
    n_complementations = 0
    for vi0 in (v10, v20):
        if not vi0:
            continue
        side = 0
        for w in bits_of(rest):
            if rows[w] & vi0 == vi0:
                side |= 1 << w
        if side:
            steps.append(
                BipartiteComplement(
                    bits_of(_local(alive, side)), bits_of(_local(alive, vi0))
                )
            )
            n_complementations += 1
    script = OpScript(tuple(steps))
    final = apply_script(g, script)

    rest_local = _local(alive, rest)
    separated = _first_pair(final, _local(alive, in_kernel), (rest_local,), True) is None

    parts: list[Part] = []
    # part A: bipartite and P2+P3-free
    rest_graph = induced(final, bits_of(rest_local))
    side1 = (x1 | live_v1 | wm[0]) & rest
    side2 = (x2 | live_v2 | wm[1]) & rest
    named_ok = (
        side1 | side2 == rest
        and not side1 & side2
        and _first_inside(rest_graph, _local(rest, side1), True) is None
        and _first_inside(rest_graph, _local(rest, side2), True) is None
    )
    bip = is_bipartite(rest_graph)
    p2p3_free = _split_free(pattern("P2+P3"), rest_graph)
    parts.append(
        Part(
            "bipartite-p2p3-free",
            bits_of(rest),
            bip is not None and p2p3_free and separated,
            {
                "sides": "named" if named_ok else "recomputed",
                "separated": separated,
                "p2p3_free": p2p3_free,
            },
        )
    )

    # part B: order-3 template over V10, X0, V20, one triangle per copy
    tri_ok = all(c.ok for c in claims if c.id in ("L4.3-C1", "L4.3-C2", "L4.3-C3"))
    if kernel and tri_ok:
        wit, _ = _template_witness(_TRIANGLES, (v10, x0, v20), triangles)
        check = verify_witness(induced(g, kernel), wit)
        parts.append(
            Part(
                "uniform",
                kernel,
                check.ok,
                {"witness": wit, "order": 3, "violation": check.violation},
            )
        )
    elif kernel:
        parts.append(Part("uniform", kernel, False, {"reason": "kernel claims failed"}))

    del_ok = len(deletions_t) <= 17 and n_complementations <= 2
    claims.append(_HELD["L4.3-DEL"] if del_ok else ClaimCheck("L4.3-DEL", False, None))
    return DecompositionReport(
        "C4", cyc, None, sets, tuple(claims), deletions_t, script, tuple(parts)
    )
