"""Decomposers and certifiers for graphs that are free of the diamond
(``co(2P1+P2)``) and of ``P2+P3``.

Members of that class split by which dense anchor they contain, with
precedence K5 > C5 > C4 > Sparse (:func:`route`).  Each dense branch has a
decomposer that finds the anchor, names the vertex sets the analysis uses,
checks every structural claim as an executable predicate (reporting a
counterexample on failure), and emits a replayable certificate: an operation
script plus per-part checkers (bipartite / star forest / clique union /
uniform-template witness).  Claim failures signal an input outside the
class; on class members every claim holds and every certificate replays.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .graphs import (
    Graph,
    bits_of,
    complement,
    connected_components,
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
from .uniform import UniformWitness, _template, verify_witness

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


def route(g: Graph) -> str:
    """Branch selection with class validation.

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
    if find_clique(g, 5) is not None:
        return "K5"
    if find_induced_cycle(g, 5) is not None:
        return "C5"
    if find_induced_cycle(g, 4) is not None:
        return "C4"
    return "Sparse"


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
# Claim predicates: each returns the first counterexample in list order, or
# None.  A vertex is tested against a whole list with one mask AND; the
# partner is the first listed vertex in the hit, because some lists (such as
# V_{i-1} + V_{i+1}) are not ascending.  ``edge`` says which relation is the
# counterexample: an edge (True) or a non-edge (False).


def _first_pair(g: Graph, a: Sequence[int], b: Sequence[int], edge: bool):
    """First (u, v), u from ``a`` and v from ``b``, that is an edge iff
    ``edge``: a counterexample to ``a`` anticomplete (True) or complete
    (False) to ``b``."""
    bmask = mask_of(b)
    for u in a:
        hit = (g.rows[u] if edge else ~g.rows[u]) & bmask
        if hit:
            return u, next(v for v in b if hit >> v & 1)
    return None


def _first_inside(g: Graph, vs: Sequence[int], edge: bool):
    """First (u, v), u listed before v in ``vs``, that is an edge iff
    ``edge``: a counterexample to ``vs`` independent (True) or a clique
    (False)."""
    later = [0] * len(vs)
    for i in range(len(vs) - 1, 0, -1):
        later[i - 1] = later[i] | 1 << vs[i]
    for i, u in enumerate(vs):
        hit = (g.rows[u] if edge else ~g.rows[u]) & later[i]
        if hit:
            return u, next(v for v in vs[i + 1 :] if hit >> v & 1)
    return None


def _first_two(g: Graph, a: Sequence[int], b: Sequence[int], edge: bool):
    """First u in ``a`` with two or more vertices of ``b`` adjacent to it iff
    ``edge``, as (u, v, w) with v, w the first two: a counterexample to each
    vertex of ``a`` having at most one neighbour (True) or non-neighbour
    (False) in ``b``.  The vertices of ``b`` are distinct."""
    bmask = mask_of(b)
    for u in a:
        hit = (g.rows[u] if edge else ~g.rows[u]) & bmask
        if hit & (hit - 1):
            v, w = [v for v in b if hit >> v & 1][:2]
            return u, v, w
    return None


def _claim(claims: list[ClaimCheck], claim_id: str, found: Iterable) -> None:
    """Record a claim that holds iff ``found`` yields no counterexample; the
    first one it yields is the witness, and a generator is not run past it."""
    worst = next(filter(None, found), None)
    claims.append(ClaimCheck(claim_id, worst is None, worst))


def _components_within(g: Graph, vertices: Iterable[int]) -> list[tuple[int, ...]]:
    vs = sorted(set(vertices))
    sub = induced(g, vs)
    return [tuple(vs[i] for i in comp) for comp in connected_components(sub)]


def _deletion_script(deletions: Iterable[int]) -> OpScript:
    steps = tuple(DeleteVertex(v) for v in sorted(deletions, reverse=True))
    return OpScript(steps)


def _local_ids(survivors: Sequence[int], subset: Iterable[int]) -> tuple[int, ...]:
    pos = {v: i for i, v in enumerate(sorted(survivors))}
    return tuple(sorted(pos[v] for v in subset))


def _cycle_split(
    g: Graph,
    cyc: Sequence[int],
    prefix: str,
    claims: list[ClaimCheck],
    sets: dict[str, tuple[int, ...]],
) -> tuple[set[int], dict[int, int]]:
    """Split the off-cycle vertices of an induced cycle.

    The junk set Y_i holds the common neighbours of cycle vertices i and
    i + 1; each is claimed a clique of at most two.  Returns the junk and,
    for every other off-cycle vertex in ascending order, its cycle-neighbour
    pattern: bit i is set iff the vertex is adjacent to ``cyc[i]``.
    """
    n = len(cyc)
    off = [v for v in range(g.n) if v not in cyc]
    junk: set[int] = set()
    for i in range(n):
        both = g.rows[cyc[i]] & g.rows[cyc[(i + 1) % n]]
        yi = tuple(v for v in off if both >> v & 1)
        sets[f"Y{i + 1}"] = yi
        big = yi if len(yi) > 2 else None
        _claim(claims, f"{prefix}-Y{i + 1}", [_first_inside(g, yi, False), big])
        junk.update(yi)
    cycle_rows = [g.rows[c] for c in cyc]
    return junk, {
        v: sum((row >> v & 1) << i for i, row in enumerate(cycle_rows))
        for v in off
        if v not in junk
    }


def _template_witness(
    class_lists: Sequence[Sequence[int]],
    f_edges: Sequence[tuple[int, int]],
    k_ones: Sequence[tuple[int, int]],
    groups: Sequence[Sequence[int]],
) -> tuple[UniformWitness, tuple[int, ...]]:
    """Witness over the listed classes: the vertices of each copy group
    share a copy, in group order, and every other vertex gets a fresh copy
    in ascending order.  Returns the witness and the sorted vertex set it
    covers; assignments are indexed by position in that sorted set.  The
    matrix is symmetric 0/1 by construction and F comes from
    ``Graph.from_edges``, so the template is built unchecked."""
    k = len(class_lists)
    matrix = [[0] * k for _ in range(k)]
    for i, j in k_ones:
        matrix[i][j] = matrix[j][i] = 1
    template = _template(k, Graph.from_edges(k, f_edges), tuple(map(tuple, matrix)))
    cls = {v: c for c, lst in enumerate(class_lists) for v in lst}
    vertices = sorted(cls)
    copy_of = {v: c for c, group in enumerate(groups) for v in group}
    fresh = [v for v in vertices if v not in copy_of]
    copy_of.update((v, c) for c, v in enumerate(fresh, start=len(groups)))
    assign = tuple((copy_of[v], cls[v]) for v in vertices)
    return UniformWitness(template, assign), tuple(vertices)


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
    if _first_inside(g, anchor, False):
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
    outside = bits_of(g.mask & ~xmask)

    claims: list[ClaimCheck] = []
    _claim(claims, "L4.1-C1", [_first_two(g, outside, x, True)])

    comps = _components_within(g, outside)
    _claim(claims, "L4.1-P3", (_first_inside(g, comp, False) for comp in comps))

    large = [c for c in comps if len(c) >= 2]
    comp_masks = [mask_of(c) for c in comps]
    touched = [[j for j, m in enumerate(comp_masks) if g.rows[xv] & m] for xv in x]
    _claim(
        claims,
        "L4.1-C2",
        (
            _first_two(g, (xv,), comp, False)
            for xv, hit in zip(x, touched)
            if hit
            for j, comp in enumerate(comps)
            if len(comp) >= 2 and hit != [j]
        ),
    )

    sets = {"X": x}
    for i, comp in enumerate(comps, start=1):
        sets[f"X{i}"] = comp

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
    elif case == 3:
        small = mask_of(v for c in comps if len(c) == 1 for v in c)
        dels = [xv for xv in x if g.rows[xv] & small]
        _claim(claims, "L4.1-C3-DEL", [tuple(dels) if len(dels) > 2 else None])
        deletions = tuple(dels)
        script = _deletion_script(deletions)
        image = apply_script(g, script)
        keep = [v for v in range(image.n) if image.degree(v) > 0]
        parts.append(
            Part(
                "complement-bipartite",
                tuple(v for v in range(g.n) if v not in set(deletions)),
                is_bipartite(complement(induced(image, keep))) is not None,
                {"dropped_isolated": image.n - len(keep)},
            )
        )
    else:
        dels = [xv for xv in x if g.rows[xv] & ~xmask]
        _claim(claims, "L4.1-C4-DEL", [tuple(dels) if len(dels) > 2 else None])
        deletions = tuple(dels)
        script = _deletion_script(deletions)
        image = apply_script(g, script)
        parts.append(
            Part(
                "clique-union",
                tuple(v for v in range(g.n) if v not in set(deletions)),
                is_free(image, [pattern("P3")]).free,
            )
        )
    if deletions:
        sets["D"] = deletions
    return DecompositionReport(
        "K5", anchor, case, sets, tuple(claims), deletions, script, tuple(parts)
    )


def _is_star_forest(g: Graph) -> bool:
    """Every component is an isolated vertex or a star."""
    for comp in connected_components(g):
        edges = sum(g.degree(v) for v in comp) // 2
        if edges != len(comp) - 1 and len(comp) > 1:
            return False
        if sum(1 for v in comp if g.degree(v) > 1) > 1:
            return False
    return True


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
    on_cycle = set(cyc)

    claims: list[ClaimCheck] = []
    sets: dict[str, tuple[int, ...]] = {}
    junk, cycle_bits = _cycle_split(g, cyc, "L4.2", claims, sets)

    for i in range(5):
        wi = tuple(v for v, bits in cycle_bits.items() if bits == 1 << i)
        sets[f"W{i + 1}"] = wi
        _claim(claims, f"L4.2-W{i + 1}", [wi if len(wi) > 1 else None])
        junk.update(wi)

    vsets: dict[int, list[int]] = {i: [] for i in range(5)}
    xset: list[int] = []
    # two opposite neighbours {i-1, i+1} name the set V_i
    opposite = {1 << (i - 1) % 5 | 1 << (i + 1) % 5: i for i in range(5)}
    for v, bits in cycle_bits.items():
        if v in junk:
            continue
        if not bits:
            xset.append(v)
        else:
            vsets[opposite[bits]].append(v)
    for i in range(5):
        sets[f"V{i + 1}"] = tuple(vsets[i])
        _claim(claims, f"L4.2-ind-V{i + 1}", [_first_inside(g, vsets[i], True)])
    sets["X"] = tuple(xset)
    _claim(claims, "L4.2-ind-X", [_first_inside(g, xset, True)])

    large = {i for i in range(5) if len(vsets[i]) >= 3}
    x_large = len(xset) >= 3

    # the seven claims
    def vs(i: int) -> list[int]:
        return vsets[i % 5]

    def at_most_one(a, b, edge: bool):
        return _first_two(g, a, b, edge) or _first_two(g, b, a, edge)

    def split(i: int, j: int):
        """Non-adjacent y in V_i, z in V_j and the first w in X + V_{i+3}
        adjacent to exactly one of them."""
        ws = xset + vs(i + 3)
        wmask = mask_of(ws)
        for y in vs(i):
            for z in vs(j):
                hit = (g.rows[y] ^ g.rows[z]) & wmask
                if hit and not g.adjacent(y, z):
                    return next(w for w in ws if hit >> w & 1), y, z
        return None

    _claim(claims, "L4.2-C1", (at_most_one(vs(i), xset, True) for i in range(5)))
    _claim(claims, "L4.2-C2", (at_most_one(vs(i), vs(i + 2), True) for i in range(5)))
    _claim(claims, "L4.2-C3", (at_most_one(vs(i), vs(i + 1), False) for i in range(5)))
    _claim(
        claims,
        "L4.2-C4",
        (_first_pair(g, xset, vs(i - 2) + vs(i + 2), True) for i in sorted(large)),
    )
    _claim(
        claims,
        "L4.2-C5",
        (_first_pair(g, vs(i - 1), vs(i + 1), True) for i in sorted(large)),
    )
    _claim(
        claims,
        "L4.2-C6",
        (
            _first_pair(g, vs(i), vs(i - 1) + vs(i + 1), False)
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
    small_vertices = [v for i in range(5) if i not in large for v in vsets[i]]
    if not x_large:
        small_vertices.extend(xset)
    deletions = tuple(sorted(junk | on_cycle | set(small_vertices)))
    script = _deletion_script(deletions)

    case, rot = c5_case_of(large)
    vr = [vsets[(p + rot) % 5] if (p + rot) % 5 in large else [] for p in range(5)]
    xs = xset if x_large else []
    part = _c5_witness_part(g, case, vr, xs, claims)
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
    vr: list[list[int]],
    xs: list[int],
    claims: list[ClaimCheck],
) -> Part:
    positions, stated, (f_edges, k_ones) = C5_CASES[case]
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
            (u, v)
            for a, b in f_edges
            for u in sorted(classes[a])
            for v in sorted(classes[b])
            if g.adjacent(u, v)
        ]
        bad = None
    witness = check = None
    if bad is None:
        witness, vertices = _template_witness(classes, f_edges, k_ones, groups)
        check = verify_witness(induced(g, vertices), witness)
    else:
        vertices = tuple(sorted(v for cls in classes for v in cls))
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
    g: Graph, single: list[int], pair_a: list[int], pair_b: list[int]
) -> tuple[list[list[int]], list[tuple[int, ...]], tuple[int, ...] | None]:
    """Classes and copy groups of ``_PAW_TEMPLATE`` over the three sets.

    Complementing the edges between A and B must leave components that
    each induced-embed into the paw; each component is one copy, and class
    4 s + p holds the vertices of set s (single, A, B) at paw vertex p.
    Complementing A x B back flips exactly the K entries between A-classes
    and B-classes.  Returns (classes, groups, violation): the violation is
    None, or the first component that does not embed, and the classes are
    then the three sets themselves.
    """
    sets = (single, pair_a, pair_b)
    set_of = {v: s for s, vs in enumerate(sets) for v in vs}
    base = sorted(set_of)
    flipped = induced(bipartite_complement(g, pair_a, pair_b), base)
    classes: list[list[int]] = [[] for _ in range(12)]
    groups = []
    for comp in connected_components(flipped):
        group = tuple(base[v] for v in comp)
        emb = induced_embed(induced(flipped, comp), _PAW)
        if emb is None:
            return [list(vs) for vs in sets], [], group
        for v, p in zip(group, emb):
            classes[4 * set_of[v] + p].append(v)
        groups.append(group)
    return classes, groups, None


# ---------------------------------------------------------------------------
# C4 branch


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
    on_cycle = set(cyc)
    deletions, cycle_bits = _cycle_split(g, cyc, "L4.3", claims, sets)

    wlists: dict[int, list[int]] = {i: [] for i in range(4)}
    v1: list[int] = []
    v2: list[int] = []
    xset: list[int] = []
    for v, bits in cycle_bits.items():
        if not bits:
            xset.append(v)
        elif not bits & (bits - 1):
            wlists[bits.bit_length() - 1].append(v)
        elif bits == 0b1010:
            v1.append(v)
        elif bits == 0b0101:
            v2.append(v)
        else:  # unreachable once consecutive-neighbour junk is removed
            raise AssertionError("unclassifiable vertex after junk removal")

    for i in range(4):
        if len(wlists[i]) == 1:
            deletions.update(wlists[i])
            wlists[i] = []

    _claim(
        claims,
        "L4.3-C5",
        (
            (wlists[i][0], wlists[i + 2][0])
            for i in (0, 1)
            if wlists[i] and wlists[i + 2]
        ),
    )
    # rotate so the nonempty one-neighbour sets sit at cycle positions 0, 1
    occupied = {i for i in range(4) if wlists[i]}
    rot = 0
    for r in range(4):
        if all(((p + r) % 4) not in occupied for p in (2, 3)):
            rot = r
            break
    cyc = tuple(cyc[(p + rot) % 4] for p in range(4))
    wlists = {p: wlists[(p + rot) % 4] for p in range(4)}
    if rot % 2 == 1:
        v1, v2 = v2, v1

    w1, w2 = wlists[0], wlists[1]
    for name, vs in (("V1", v1), ("V2", v2)):
        sets[name] = tuple(vs)
        _claim(claims, f"L4.3-B1-{name}", [_first_inside(g, vs, True)])
    for i in range(4):
        sets[f"W{i + 1}"] = tuple(wlists[i])
        _claim(claims, f"L4.3-B2-W{i + 1}", [_first_inside(g, wlists[i], True)])
    sets["X"] = tuple(xset)
    _claim(claims, "L4.3-B3", [_first_inside(g, xset, True)])
    _claim(
        claims, "L4.3-B4", [_first_pair(g, w1 + w2 + wlists[2] + wlists[3], xset, True)]
    )

    def recompute_kernel():
        live1 = mask_of(u for u in v1 if u not in deletions)
        live2 = mask_of(u for u in v2 if u not in deletions)
        x0 = [
            v
            for v in xset
            if v not in deletions and g.rows[v] & live1 and g.rows[v] & live2
        ]
        near = mask_of(x0)
        v10 = [u for u in v1 if u not in deletions and g.rows[u] & near]
        v20 = [u for u in v2 if u not in deletions and g.rows[u] & near]
        return x0, v10, v20

    x0, v10, v20 = recompute_kernel()
    if x0 and (len(v10) <= 1 or len(v20) <= 1):
        deletions.add(v10[0] if len(v10) <= 1 else v20[0])
        x0, v10, v20 = recompute_kernel()
    sets["X0"] = tuple(x0)
    sets["V10"] = tuple(v10)
    sets["V20"] = tuple(v20)

    live_x = [v for v in xset if v not in deletions]
    live_v1 = [u for u in v1 if u not in deletions]
    live_v2 = [u for u in v2 if u not in deletions]
    x0set = set(x0)
    touches_v1 = mask_of(live_v1)
    x1 = [v for v in live_x if v not in x0set and not g.rows[v] & touches_v1]
    x2 = [v for v in live_x if v not in x0set and v not in set(x1)]
    sets["X1"] = tuple(x1)
    sets["X2"] = tuple(x2)

    # kernel claims; each x in X0 forms a triangle with its one neighbour in
    # each of V10 and V20
    worst = None
    triangles = []
    for x in x0:
        n10 = [u for u in v10 if g.adjacent(x, u)]
        n20 = [u for u in v20 if g.adjacent(x, u)]
        if len(n10) != 1 or len(n20) != 1 or not g.adjacent(n10[0], n20[0]):
            worst = tuple([x] + n10[:2] + n20[:2])
            break
        triangles.append((n10[0], x, n20[0]))
    _claim(claims, "L4.3-C1", [worst])

    worst = None
    for u in v10 + v20:
        nx = [v for v in x0 if g.adjacent(u, v)]
        if len(nx) != 1:
            worst = tuple([u] + nx[:2])
            break
    _claim(claims, "L4.3-C2", [worst])
    _claim(
        claims,
        "L4.3-C3",
        [_first_pair(g, v10, live_v2, False) or _first_pair(g, v20, live_v1, False)],
    )

    def mixed(w: int, vi0: list[int]):
        """w with a neighbour and a non-neighbour in vi0, and the first of each."""
        nbr = _first_pair(g, (w,), vi0, True)
        non = _first_pair(g, (w,), vi0, False)
        return (w, nbr[1], non[1]) if nbr and non else None

    _claim(
        claims,
        "L4.3-C4",
        (mixed(w, vi0) for w in w1 + w2 + x1 + x2 for vi0 in (v10, v20)),
    )

    deletions |= on_cycle
    deletions_t = tuple(sorted(deletions))
    survivors = tuple(v for v in range(g.n) if v not in deletions)
    kernel = tuple(sorted(set(x0) | set(v10) | set(v20)))
    rest = tuple(v for v in survivors if v not in set(kernel))

    # separation: flip each kernel side against its complete outsiders
    steps: list = list(_deletion_script(deletions_t).steps)
    n_complementations = 0
    for vi0 in (v10, v20):
        if not vi0:
            continue
        complete = mask_of(vi0)
        side = [w for w in rest if g.rows[w] & complete == complete]
        if side:
            steps.append(
                BipartiteComplement(
                    _local_ids(survivors, side), _local_ids(survivors, vi0)
                )
            )
            n_complementations += 1
    script = OpScript(tuple(steps))
    final = apply_script(g, script)

    kernel_local = _local_ids(survivors, kernel)
    rest_local = _local_ids(survivors, rest)
    separated = _first_pair(final, kernel_local, rest_local, True) is None

    parts: list[Part] = []
    # part A: bipartite and P2+P3-free
    rest_graph = induced(final, rest_local)
    rest_set = set(rest)
    named_side1 = _local_ids(rest, [v for v in x1 + live_v1 + w1 if v in rest_set])
    named_side2 = _local_ids(rest, [v for v in x2 + live_v2 + w2 if v in rest_set])
    named_ok = (
        set(named_side1) | set(named_side2) == set(range(rest_graph.n))
        and not set(named_side1) & set(named_side2)
        and _first_inside(rest_graph, named_side1, True) is None
        and _first_inside(rest_graph, named_side2, True) is None
    )
    bip = is_bipartite(rest_graph)
    p2p3_free = _split_free(pattern("P2+P3"), rest_graph)
    parts.append(
        Part(
            "bipartite-p2p3-free",
            rest,
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
        wit, _ = _template_witness(
            (v10, x0, v20), [(0, 1), (1, 2)], [(0, 2)], triangles
        )
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

    claims.append(
        ClaimCheck(
            "L4.3-DEL",
            len(deletions_t) <= 17 and n_complementations <= 2,
            None,
        )
    )
    return DecompositionReport(
        "C4", cyc, None, sets, tuple(claims), deletions_t, script, tuple(parts)
    )
