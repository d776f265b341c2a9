"""The induced-subgraph quasi-order and its labelled refinement: finite
quasi-orders on labels, the induced embedding search (plain and
label-respecting), forbidden-subgraph freeness (decided without a search
for small cliques, P3, the diamond and P2+P3), and the two special
classes the classifier names (linear forests and the path-or-subdivided-claw
class).

The embedding search is a backtracking solver over pattern vertices in
descending-degree order with forward checking: every unassigned pattern
vertex keeps a candidate bitmask that is intersected with the neighbourhood
(or non-neighbourhood) of each newly placed vertex.  Candidates are tried in
ascending host-vertex order, so the first embedding found is deterministic
and tests can pin exact witnesses.

The candidate masks of all later positions are packed into one integer,
so that a node costs a fixed number of big-integer operations and none
loops over positions (bit-parallel domains, as in San Segundo et al., 2011,
and McCreesh, Prosser & Trimble, 2020).  On a host of ng vertices, field j
holds the mask of the j-th later position and is ng + 1 bits wide; its top
bit is a spare bit, clear in every packed mask.  Placing host vertex w
narrows all fields at once to rest & (N(w)*R ^ ((V - w)*R & ~A)), where R
has a one at the foot of each field, so that m*R copies mask m into every
field, and A covers the fields of the positions adjacent to the placed one.
A field's value is below 2**ng, so adding 2**ng - 1 to it carries into its
spare bit exactly when it is not empty, and never into the next field: with
F that value in every field and H the spare bits, the wipe-out test is
(nxt + F) & H == H.  The next position takes the lowest field, and the word
shifted down by one field is the rest.  These words depend only on the
pattern and ng and are kept in the plan per host size.  They are built
from the plan's one adjacency mask per position, over the later positions,
which takes one pass over the pattern's rows.  R over k fields is
(2**(k*w) - 1) // (2**w - 1) with w = ng + 1.  A's feet are R & (a*S),
with a the position's adjacency mask and S the sum of 2**(j*ng) over the
fields: the j-th partial product puts bit j of a on field j's foot, j*w,
and as every later index is below ng, no two overlap, so nothing carries.
A position's words thus cost O(1) big-integer operations.  The fields hold
the masks a list of one mask per position would, and the candidates are
tried and dropped in the same order, so nodes, first embeddings and the
node at which a budget runs out are those of the per-position loop.

Once only the last two pattern vertices S and L are left, the search looks
ahead on that pair: it keeps a candidate w of S only if some candidate
x != w of L is adjacent to w exactly when S is adjacent to L.  The test is
bit-parallel over L's candidates (the union of their rows, or the
intersection of their closed neighbourhoods).  A candidate it drops could
only have led to a dead end, so the search returns the same first
embedding as without the look-ahead and never visits more nodes.

The search also breaks the pattern's symmetry with lex-leader constraints
(Crawford, Ginsberg, Luks & Roy, 1996) taken along the search order's
stabiliser chain.  Let p_0, p_1, ... be the pattern vertices in search order
and G_i the automorphisms of the pattern that fix p_0 .. p_{i-1}; for every
q != p_i in the orbit of p_i under G_i, the image of p_i must be less than
the image of q.  If an embedding f breaks this, some s in G_i gives an
embedding f.s that agrees with f before position i and is smaller at i, so
f is not the least embedding in position order.  The search tries host
vertices in ascending order, so the first embedding it finds is that least
one, which keeps every constraint: the constraints change no answer, and
since they only narrow candidate masks (one AND that clears the host
vertices up to the one placed in the constrained fields), the pruned tree
is a subtree of the plain one, visited in the same order, and never has
more nodes.  Labels can break the symmetry, so only plain
:func:`induced_embed` applies them, never :func:`labelled_embed`.

The constraints are applied only once a root candidate has failed, another
is left, and the search is projected to spend n(h)**2 nodes, the most that
their detection may take: with t roots failed, r left and s nodes spent,
once s * (t + r) >= n(h)**2 * t, that is once the nodes per failed root so
far, over all the roots, reach n(h)**2.  Having spent n(h)**2 nodes passes
this test, so the projection starts no later than a count of n(h)**2 would.
From then on they apply to every node.  Pruning that starts partway is
still sound, since every assignment it drops is not the least.  Calls that
succeed at once, and searches projected too small to repay the detection,
never pay for it.  The detection keeps only automorphisms it has checked.
A pattern's constraints cost its own detection only, at most n**2 + n + 1
refinements of a partition of its n vertices (see :attr:`_Record.chain`),
and a test that runs out only drops constraints.  It is not charged to the
caller's budget and never raises.

At that same point the search drops roots by the host's symmetry.  No
embedding sends p_0 to a root that has failed.  Before the constraints
start this is plain; after, suppose one did.  Every earlier root failed
too, or was dropped as having no embedding, so the least embedding in
position order sends p_0 to that root, and it keeps every constraint, so
the search would have found it.  Nor does any embedding f send p_0 to the
image of a failed root under an automorphism s of the host, since s^-1 . f
would send p_0 to that root.  So the roots left in the host orbits of the
roots failed so far are dropped when the constraints start, and from then
on the roots left in the orbit of each root that fails; once none is left,
the search returns None, and if none is left at the start the pattern's
constraints are never worked out.  It drops only roots without an
embedding, so the first embedding is unchanged, and the pruned tree is a
subtree of the plain one, so nodes never rise.  Nor do they rise against
starting at n(h)**2 spent nodes and dropping the orbits of the roots failed
by then only: the constraints start at the same root or earlier, and the
roots dropped include those, so every root searched is searched there too,
under the same constraints or more.  A host with twins (two
vertices with equal rows or equal closed rows, which an automorphism
swaps) takes its twin classes as the orbits, read off in one pass over its
rows; a host without twins takes the orbits of its class (below), not
charged either.  Twin-rich hosts, such as the blown-up members of the
structure pipeline, are where detection costs most and where small
patterns' searches are short.  :attr:`_Record.host_orbits` holds these
choices; a host is often searched for several patterns in a row.  Labels
break symmetry, so :func:`labelled_embed` drops no root.

On the host side, symmetry detection runs once per isomorphism class, not
once per graph.  Graphs are keyed by a label-free invariant: the degree
multiset and the cell sizes and trace of the equitable refinement of the
degree partition, which the detection computes first anyway.  The first
graph of a key whose detection finishes within its bound stands for its
class.  A later host with that key is matched against it by the detection's
own search, at most n**2 individualisations, each end checked to be an
isomorphism by its degrees and then each edge once
(:meth:`_Chain.bijection`).  On a match it takes the representative's orbits
through the isomorphism, in O(n); a miss or a failed match runs the host's
own detection.  Host orbits thus cost a match, plus the host's own detection
when the match misses, with one degree refinement: at most 2n**2 + n + 1
refinements.  A finished detection's generators give the whole group, so a
copy whose own detection would finish too reads exactly its own orbits.  A
copy whose own detection would run out (which takes a graph whose detection
nears its bound, such as four disjoint Shrikhande graphs under some
labellings) reads the whole group's orbits instead, which contain its own:
its searches drop the same roots or more, so they never spend more nodes
than with an empty table, and can spend fewer once another copy of its class
has finished.  A budget that suffices with an empty table therefore always
suffices.  A host tries one representative, the one of its key, and is never
matched against itself; the table keeps at most 256 classes.  A pattern's
constraints never come from the table: they are its own detection's, so they
depend on the pattern alone.

What the search keeps of a graph is one record (:class:`_Record`) in a
cache of 512 keyed by the graph, which hosts and patterns share, with fields
worked out on first read: the search order, the sums of the k largest
degrees, whether the graph is connected, the pattern's plan, the degree
refinement, the detection and the host orbits.  The degree filter on the
host is built from one pass over its rows once the room check has passed: a
pattern vertex of degree d keeps the host vertices whose degree leaves room
for d neighbours and n(h) - 1 - d non-neighbours.

Before the degree filter is built, a room check counts degrees.  The host
degrees of an image S of h sum to 2m(h) plus the edges leaving S; that sum
is at most T, the sum of the n(h) largest host degrees; and in a connected
host an edge leaves every proper S.  So there is no embedding if 2m(h) > T,
if 2m(h) = T with n(h) < n(g) and g connected, or if n(h) = n(g) (an
embedding is then an isomorphism) and the degree multisets differ.  2m(h)
and T are read off the two records' sums of largest degrees, and the
multisets are equal exactly when those sums are, so a check costs two record
lookups and a few comparisons; a host's connectivity is searched the first
time a call is tight (2m(h) = T), and kept in its record.  A refusal returns
None spending no node, even under a zero budget; labels only narrow
candidates, so labelled calls share it.  It settles C_s into C_l, s < l, at
once.

:func:`is_free` first asks a freeness decider that needs no search, for
the patterns the library forbids (the paper's class is free of the diamond
co(2P1+P2) and of P2+P3, and its decomposers look for K5).  The decider
knows a pattern by its sorted degree sequence, so its choice is label-free,
and tests the host's rows directly:

- a clique K_k, k <= 5: nested loops over common neighbourhoods;
- P3: the host is not a disjoint union of cliques;
- the diamond: some edge ab has a non-edge in N(a) & N(b);
- P2 + P3: some edge ab has a P3 in G - N[a] - N[b], each distinct such
  rest tested once per call.

The P3, diamond and P2+P3 tests are one loop nest each, and the clique
test enters one level per vertex of the clique.  A decision on an n-vertex
host, which no budget bounds, costs O(n**4) mask operations at most; no
larger clique is decided.  Every other pattern is searched.  The decider spends no node: a
free verdict from it returns at once, even with a zero budget; when it
finds the pattern, :func:`induced_embed` names the witness as before, with
the caller's budget.  The pattern index and the witness are those of the
search alone, and a call with one pattern runs out of budget at the node it
always did; with several, a pattern decided free spends no nodes of the
shared budget.

Long searches accept an optional :class:`SearchBudget`; one node is one
host vertex tried for one pattern vertex.  The search counts its nodes in a
local integer and adds them to the budget when it returns or raises.
Exhausting the budget raises :class:`SearchBudgetExceeded` at the same node
as spending it node by node would, which callers must treat as "unknown",
never as "no embedding".

The two special classes share one forest test, :func:`_forest`: a graph with
m edges and c components (component masks) is a forest iff m = n - c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Hashable, Iterable, NamedTuple, Sequence

from .graphs import Graph, _components, bits_of, is_connected


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


# ---------------------------------------------------------------------------
# Symmetry: lex-leader constraints for the pattern, orbits for the host


def _refine(rows, cells: list[int], queue: list[int], trace: list, expect=None) -> bool:
    """Refine the ordered partition ``cells`` (vertex masks, changed in place)
    until it is equitable, splitting by the cells whose indices are queued.

    A split cell keeps its first fragment at its index and appends the
    others; fragments are ordered by their number of neighbours in the
    splitter.  Nothing depends on vertex labels, so an automorphism that maps
    one individualised partition onto another maps their refinements onto
    each other cell by cell, with equal traces.  Every split is appended to
    ``trace`` as the splitter's and the cell's indices and the fragment
    sizes; given ``expect``, the refinement stops with False at the first
    split that differs from it."""
    queued = set(queue)
    # bit x set: cell x has two vertices or more, so it may still split
    unsplit = 0
    for x, cell in enumerate(cells):
        if cell & (cell - 1):
            unsplit |= 1 << x
    for s in queue:
        if not unsplit:
            break
        queued.discard(s)
        splitter = cells[s]
        if splitter & (splitter - 1):
            # planes[k]: the vertices whose neighbour count in the splitter has bit k
            planes: list[int] = []
            while splitter:
                low = splitter & -splitter
                splitter ^= low
                carry = rows[low.bit_length() - 1]
                for k, plane in enumerate(planes):
                    planes[k] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    planes.append(carry)
            planes.reverse()
            touched = 0
            for plane in planes:
                touched |= plane
        else:
            touched = rows[splitter.bit_length() - 1]
            planes = [touched]
        single = len(planes) == 1
        todo = unsplit
        while todo:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            cell = cells[x]
            inside = cell & touched
            if not inside:
                continue
            if single:
                # Two fragments, the vertices outside the splitter's rows
                # first: the general split below, with no lists built.
                if inside == cell:
                    continue
                cell ^= inside
                a, b = cell.bit_count(), inside.bit_count()
                trace.append((s, x, a, b))
                if expect is not None and (
                    len(trace) > len(expect) or trace[-1] != expect[len(trace) - 1]
                ):
                    return False
                cells[x] = cell
                if a == 1:
                    unsplit ^= low
                y = len(cells)
                if b > 1:
                    unsplit |= 1 << y
                cells.append(inside)
                # queue the new cell, or the kept one if it is the smaller
                # and not queued already
                z = y if x in queued or a >= b else x
                queued.add(z)
                queue.append(z)
                continue
            frags = [cell]
            for plane in planes:
                inside = cell & plane
                if inside and inside != cell:
                    frags = [part for f in frags for part in (f & ~plane, f & plane) if part]
            if len(frags) == 1:
                continue
            sizes = [f.bit_count() for f in frags]
            trace.append((s, x, *sizes))
            if expect is not None and (
                len(trace) > len(expect) or trace[-1] != expect[len(trace) - 1]
            ):
                return False
            # A cell no longer queued is stable, and the counts into its
            # first largest fragment follow from those into the others.
            skip = -1 if x in queued else sizes.index(max(sizes))
            cells[x] = frags[0]
            if not frags[0] & (frags[0] - 1):
                unsplit ^= low
            if skip and x not in queued:
                queued.add(x)
                queue.append(x)
            for k in range(1, len(frags)):
                y = len(cells)
                if k != skip:
                    queued.add(y)
                    queue.append(y)
                if frags[k] & (frags[k] - 1):
                    unsplit |= 1 << y
                cells.append(frags[k])
    return expect is None or len(trace) == len(expect)


def _individualise(rows, cells: list[int], x: int, v: int, trace: list, expect=None) -> bool:
    """Split vertex ``v`` off its cell ``x`` of the equitable partition
    ``cells`` as a new last cell, then refine; splitting by ``{v}`` alone
    suffices."""
    cells[x] ^= 1 << v
    cells.append(1 << v)
    return _refine(rows, cells, [len(cells) - 1], trace, expect)


def _orbit(v: int, gens) -> int:
    """The orbit of ``v`` under the group generated by ``gens``, as a mask."""
    orbit, frontier = 1 << v, [v]
    while frontier:
        x = frontier.pop()
        for gen in gens:
            y = gen[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                frontier.append(y)
    return orbit


def _degree_refinement(rows):
    """The equitable refinement of the degree partition of the graph with
    ``rows``, and its class key: the degree multiset (and so n), and the
    refinement's cell sizes and trace.  No part of the key depends on vertex
    labels, so isomorphic graphs have equal keys."""
    by_degree: dict[int, int] = {}
    for v, row in enumerate(rows):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    degrees = sorted(by_degree)
    cells, trace = [by_degree[d] for d in degrees], []
    _refine(rows, cells, list(range(len(cells))), trace)
    key = (
        tuple((d, by_degree[d].bit_count()) for d in degrees),
        tuple(cell.bit_count() for cell in cells),
        tuple(trace),
    )
    return cells, key


class _Chain:
    """The individualisation chain of one graph along its search order, the
    search for bijections along it, and, once :meth:`detect` has run, the
    automorphisms it found (see :attr:`_Record.chain`)."""

    def __init__(self, rows, order: list[int], cells: list[int]):
        n = len(rows)
        self.rows, self.order = rows, order
        self.degrees = [row.bit_count() for row in rows]
        chain, traces = [cells], [[]]
        # steps[k]: the position individualised between chain[k] and
        # chain[k + 1] and the index of its cell; positions whose vertex is
        # already alone in its cell are fixed by every automorphism that
        # fixes the earlier ones.
        steps = []
        for i, v in enumerate(order):
            cells = chain[-1]
            if len(cells) == n:
                break
            x = next(x for x, cell in enumerate(cells) if cell >> v & 1)
            if cells[x] == 1 << v:
                continue
            cells, trace = cells.copy(), []
            _individualise(rows, cells, x, v, trace)
            steps.append((i, x))
            chain.append(cells)
            traces.append(trace)
        self.chain, self.traces, self.steps = chain, traces, steps

    def extend(self, target, k: int, right: list[int], cands: int, spent: SearchBudget):
        """A bijection from this graph onto the graph with rows ``target``,
        whose partition ``right`` matches chain[k], that sends the vertex
        individualised at step k into ``cands``; None if none is found before
        ``spent`` runs out."""
        x, last = self.steps[k][1], k + 1 == len(self.steps)
        while cands and spent.used < spent.limit:
            low = cands & -cands
            cands ^= low
            spent.used += 1
            cells = right.copy()
            if not _individualise(target, cells, x, low.bit_length() - 1, [], self.traces[k + 1]):
                continue
            if last:
                found = self.bijection(target, cells)
            else:
                found = self.extend(target, k + 1, cells, cells[self.steps[k + 1][1]], spent)
            if found is not None:
                return found
        return None

    def bijection(self, target, cells: list[int]):
        """The map of the discrete partition that ends the chain onto the
        discrete ``cells``, cell by cell, if it maps this graph's rows onto
        ``target``; else None.

        Every vertex must keep its degree, and every edge uv with u > v must
        map onto an edge of ``target``.  Equal degrees give the two graphs
        equal edge counts, so a bijection that maps edges into edges maps
        them onto the edges, and non-edges onto non-edges: it is an
        isomorphism.  Each edge is tested once, and the test stops at the
        first miss."""
        found = [0] * len(cells)
        for a, b in zip(self.chain[-1], cells):
            found[a.bit_length() - 1] = b.bit_length() - 1
        if [target[w].bit_count() for w in found] != self.degrees:
            return None
        for v, row in enumerate(self.rows):
            image, row = target[found[v]], row & ((1 << v) - 1)
            while row:
                bit = row & -row
                row ^= bit
                if not image >> found[bit.bit_length() - 1] & 1:
                    return None
        return found

    def detect(self) -> None:
        """Search the automorphisms along the chain, deepest level first,
        within n**2 individualisations, and keep their orbits, the
        lex-leader constraints and the individualisations spent."""
        n, rows, order, chain = len(self.rows), self.rows, self.order, self.chain
        spent = SearchBudget(n * n)
        gens: list[list[int]] = []
        bounds: list = [None] * n
        for k in range(len(self.steps) - 1, -1, -1):
            i, x = self.steps[k]
            v = order[i]
            orbit = _orbit(v, gens)
            todo = chain[k][x] & ~orbit
            while todo and spent.used < spent.limit:
                low = todo & -todo
                sigma = self.extend(rows, k, chain[k], low, spent)
                if sigma is None:
                    todo &= ~_orbit(low.bit_length() - 1, gens)
                else:
                    gens.append(sigma)
                    orbit = _orbit(v, gens)
                    todo &= ~orbit
            if orbit != 1 << v:
                bounds[i] = tuple(q - i - 1 for q in range(i + 1, n) if orbit >> order[q] & 1)
        orbits = [0] * n
        for v in range(n):
            if not orbits[v]:
                orbit = _orbit(v, gens)
                for w in bits_of(orbit):
                    orbits[w] = orbit
        # Finished within the bound, every test ran to its end: the
        # generators give the whole group.
        self.finished = spent.used < spent.limit
        self.nodes, self.orbits, self.bounds = spent.used, tuple(orbits), tuple(bounds)

    def transport(self, phi: list[int]) -> tuple[int, ...]:
        """This graph's orbits mapped through ``phi``, an isomorphism onto
        another graph."""
        orbits = [0] * len(phi)
        for v, orbit in enumerate(self.orbits):
            if not orbits[phi[v]]:
                image = 0
                for u in bits_of(orbit):
                    image |= 1 << phi[u]
                for w in bits_of(image):
                    orbits[w] = image
        return tuple(orbits)


# Isomorphism classes met so far, by class key: the chain of the first member
# whose detection finished, which stands for the class.  The oldest is
# dropped past _MAX_CLASSES.
_CLASSES: dict[tuple, _Chain] = {}
_MAX_CLASSES = 256


def _twins(g: Graph):
    """The twin classes of ``g``, one mask per vertex holding its class, or
    None if ``g`` has no twins.

    Twins have equal rows (false twins) or equal closed rows (true twins),
    and swapping two of them is an automorphism, so each class lies inside
    an orbit.  A row never equals a closed row, which holds its own vertex
    (if N(u) = N[v], then u and v are adjacent and u is in N(u)), so one
    table keeps both kinds."""
    rows = g.rows
    closed = [row | 1 << v for v, row in enumerate(rows)]
    if len(set(rows)) == len(set(closed)) == g.n:
        return None
    classes: dict[int, int] = {}
    for v, (row, c) in enumerate(zip(rows, closed)):
        classes[row] = classes.get(row, 0) | 1 << v
        classes[c] = classes.get(c, 0) | 1 << v
    return tuple(classes[row] | classes[c] for row, c in zip(rows, closed))


class _Record:
    """What the search keeps of graph ``g``, as a pattern or as a host,
    each field worked out on its first read; :func:`_record` holds one
    record per graph.  :attr:`top` and :attr:`connected` are the degree
    facts of the room check (see the module docstring)."""

    def __init__(self, g: Graph):
        self.graph = g

    @cached_property
    def order(self) -> list[int]:
        """The vertices in search order: by descending degree, then by index."""
        g = self.graph
        return sorted(range(g.n), key=lambda v: (-g.degree(v), v))

    @cached_property
    def top(self) -> tuple[int, ...]:
        """top[k]: the sum of the k largest degrees of ``g``, for k = 0 ..
        n(g); top[n(g)] is 2m(g), and the whole tuple fixes the degree
        multiset."""
        degrees = sorted(map(int.bit_count, self.graph.rows), reverse=True)
        return tuple(accumulate(degrees, initial=0))

    @cached_property
    def connected(self) -> bool:
        """Whether ``g`` is connected; read by the room check only when it
        is tight."""
        return is_connected(self.graph)

    @cached_property
    def plan(self):
        """The search plan of ``g`` as a pattern: :attr:`order`, the degrees
        in that order, each position's adjacency to the later ones, the
        adjacency of the last two, and the packed forward-check words of each
        host size met so far (filled in by :func:`_embed`).

        The adjacency of position p is one mask whose bit j is set when p is
        adjacent to position p + 1 + j: its row renumbered by position and
        shifted down, so the plan costs one pass over the rows, O(n + m)."""
        rows, order = self.graph.rows, self.order
        at = [0] * len(order)
        for p, v in enumerate(order):
            at[v] = p
        degrees, later = [], []
        for p, v in enumerate(order):
            row, adjacent = rows[v], 0
            degrees.append(row.bit_count())
            while row:
                low = row & -row
                row ^= low
                adjacent |= 1 << at[low.bit_length() - 1]
            later.append(adjacent >> p + 1)
        last_pair_adjacent = len(order) >= 2 and later[-2] == 1
        return order, degrees, later, last_pair_adjacent, {}

    @cached_property
    def refinement(self):
        """:func:`_degree_refinement` of ``g``: its cells, which :attr:`chain`
        and :attr:`host_orbits` share and never change, and its class key."""
        return _degree_refinement(self.graph.rows)

    @cached_property
    def chain(self) -> _Chain:
        """The automorphisms of ``g`` found by individualisation and
        refinement (McKay & Piperno, *Practical graph isomorphism II*, 2014),
        as its finished chain: ``orbits``, one mask per vertex; ``bounds``,
        its lex-leader constraints in search order, for each position i None
        or the positions q > i, counted from i + 1, that an automorphism
        fixing the first i pattern vertices maps p_i onto, so whose host
        vertex must lie above p_i's; and ``nodes``, the individualisations
        spent.

        The chain starts from :attr:`refinement` and individualises p_0,
        p_1, ... in turn, skipping a vertex already alone in its cell, until
        the partition is discrete.  Levels are done deepest first, so the
        automorphisms found at a level (they fix its prefix) close the orbits
        of every shallower one.  An automorphism mapping p_i to q is searched
        by individualising q in p_i's place, then at each deeper step every
        vertex of the cell matching the chain's, keeping only refinements
        whose traces equal the chain's; a discrete end gives a bijection that
        is kept only if it is checked to be an automorphism.  One node is one
        such individualisation; after ``n(g) ** 2`` of them every open test
        gives up and keeps the orbit found so far, which only drops
        constraints.  The orbits are those of the group the checked
        automorphisms generate, so each lies inside an orbit of the full
        group.  A detection costs at most n(g)**2 + n(g) + 1 refinements.

        It is always ``g``'s own detection, whatever the class table holds.
        A finished detection on a graph whose degree refinement is not
        discrete is stored as its class's representative, if its key has
        none."""
        cells, key = self.refinement
        chain = _Chain(self.graph.rows, self.order, cells)
        chain.detect()
        if chain.steps and chain.finished and key not in _CLASSES:
            if len(_CLASSES) >= _MAX_CLASSES:
                del _CLASSES[next(iter(_CLASSES))]
            _CLASSES[key] = chain
        return chain

    @cached_property
    def host_orbits(self) -> tuple[int, ...]:
        """The orbits by which the search drops roots in host ``g``, one
        mask per vertex: its twin classes if it has twins; else the orbits of
        the representative of its class key, mapped through an isomorphism
        onto ``g`` that the representative's chain finds, at most n(g)**2
        individualisations; else, when there is no other representative or
        no isomorphism is found, the orbits of :attr:`chain`.  A graph is
        never matched against its own chain.  With :attr:`refinement`, that
        costs at most 2n(g)**2 + n(g) + 1 refinements."""
        g = self.graph
        twins = _twins(g)
        if twins is not None:
            return twins
        cells, key = self.refinement
        rep = _CLASSES.get(key)
        if rep is not None and rep.rows != g.rows:
            phi = rep.extend(g.rows, 0, cells, cells[rep.steps[0][1]], SearchBudget(g.n**2))
            if phi is not None:
                return rep.transport(phi)
        return self.chain.orbits


_record = lru_cache(maxsize=512)(_Record)


def _embed(h: Graph, g: Graph, base_candidates, budget: SearchBudget | None):
    """Core backtracking search; returns an assignment tuple or None.

    The host's record is read first, then the pattern's, and the room check
    decides from their degree facts before the degree filter is built.
    ``base_candidates`` None means every host vertex, and only then are the
    pattern's lex-leader constraints applied."""
    nh, ng = h.n, g.n
    if nh > ng:
        return None
    if nh == 0:
        return ()
    # The room check (see the module docstring), from the two records:
    # 2m(h) against T, the sum of the nh largest host degrees.
    host, record = _record(g), _record(h)
    need, room = record.top[nh], host.top[nh]
    if need > room or need == room and nh < ng and host.connected:
        return None
    if nh == ng and record.top != host.top:
        return None
    # at_least[d]: host vertices of degree d or more.  A pattern vertex of
    # degree dv needs a host degree in dv .. dv + ng - nh, so that it has
    # enough neighbours and enough non-neighbours.
    rows = g.rows
    at_least = [0] * (ng + 1)
    for w, row in enumerate(rows):
        at_least[row.bit_count()] |= 1 << w
    for d in range(ng - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    order, degrees, later, last_pair_adjacent, packed = record.plan
    width, field = ng + 1, (1 << ng) - 1
    # words[pos], over the fields of the positions after pos: R (a one at
    # the foot of each field), V*R and R in the fields of those not adjacent
    # to pos (so (V - w)*R & ~A is the one xor the other shifted by w), F, H.
    # R over k fields is (2**(k*width) - 1) / (2**width - 1), and each
    # position has one field fewer than the one before, and so has spread.
    words = packed.get(ng)
    if words is None:
        words = packed[ng] = []
        r = ((1 << (nh - 1) * width) - 1) // ((1 << width) - 1)
        spread = ((1 << (nh - 1) * ng) - 1) // ((1 << ng) - 1)
        for adjacent in later:
            non = r ^ (adjacent * spread & r)
            words.append((r, non * field, non, r * field, r << ng))
            r >>= width
            spread >>= ng
    gmask = g.mask
    rest = 0
    for p, (v, dv) in enumerate(zip(order, degrees)):
        base = gmask if base_candidates is None else base_candidates[v]
        allowed = base & at_least[dv] & ~at_least[dv + ng - nh + 1]
        if not allowed:
            return None
        rest |= allowed << p * width
    # roots: the first position's candidates; rest: the later ones'
    roots, rest = rest & field, rest >> width
    look_ahead = nh - 3
    assign = [0] * nh
    # Nodes are counted here and charged to the budget on the way out; the
    # search raises at the same node as spending them one by one would.
    # Without a budget the cap is out of reach.
    cap = 1 << 62 if budget is None else budget.limit - budget.used
    spent = 0
    # bounds[pos]: 0, or a one at the foot of each later field whose
    # position must take a host vertex above the one at pos.
    bounds = (0,) * nh

    def rec(pos: int, m: int, rest: int) -> bool:
        # m: candidates of pattern position pos; rest: those of pos+1, ...
        # packed, one field each
        nonlocal spent
        r, gnon, rnon, ones, spare = words[pos]
        lex = bounds[pos]
        while m:
            low = m & -m
            m ^= low
            spent += 1
            if spent > cap:
                raise SearchBudgetExceeded(budget.used + spent)
            w = low.bit_length() - 1
            nxt = rest & (rows[w] * r ^ gnon ^ (rnon << w))
            if lex:
                nxt &= ~(((low << 1) - 1) * lex)
            # a field that is not empty carries into its spare bit
            if (nxt + ones) & spare != spare:
                continue
            assign[pos] = w
            if not nxt:
                return True
            head, tail = nxt & field, nxt >> width
            if pos == look_ahead:
                head = _with_partner(head, tail, rows, last_pair_adjacent)
                if not head:
                    continue
            if rec(pos + 1, head, tail):
                return True
        return False

    # The lex-leader constraints start once a root candidate has failed and
    # the search, at its nodes per failed root so far, would spend as many
    # nodes over all its roots as their detection may (n(h)**2).  Every root
    # tried until then failed, so no embedding sends the first position into
    # the host orbit of any of them: those roots are dropped, and so is the
    # orbit of each root that fails later; if none is left the loop ends
    # with None.
    detect, first, orbits = base_candidates is None, roots, None
    total = first.bit_count()
    try:
        while roots:
            low = roots & -roots
            roots ^= low
            if rec(0, low, rest):
                break
            if orbits is not None:
                roots &= ~orbits[low.bit_length() - 1]
            elif detect and roots and spent * total >= nh * nh * (first ^ roots).bit_count():
                orbits = host.host_orbits
                for w in bits_of(first ^ roots):
                    roots &= ~orbits[w]
                if roots:
                    bounds = [
                        sum(1 << j * width for j in b or ()) for b in record.chain.bounds
                    ]
        else:
            return None
    finally:
        if budget is not None:
            budget.used += spent
    out = [0] * nh
    for p, v in enumerate(order):
        out[v] = assign[p]
    return tuple(out)


def induced_embed(
    h: Graph, g: Graph, budget: SearchBudget | None = None
) -> tuple[int, ...] | None:
    """First induced embedding of ``h`` into ``g`` under the fixed search
    order, or None.  The search is complete: None means no embedding exists.
    A call the room check refuses returns None spending no node.
    """
    return _embed(h, g, None, budget)


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


# ---------------------------------------------------------------------------
# Freeness without a search
#
# Each test takes the host's rows and a vertex mask S: does G[S] hold its
# pattern?  A vertex's closed row N[v] is rows[v] | 1 << v, and the vertices
# w != v not adjacent to v are ~N[v]; both are formed where they are used.


def _clique(rows, s: int, k: int) -> bool:
    """K_k: some vertex of S with a K_(k-1) among its later neighbours in S,
    so that each level loops over the common neighbourhood of the vertices
    chosen before it.  A level with too few vertices left is not entered."""
    if k < 2:
        return s.bit_count() >= k
    while s:
        low = s & -s
        s ^= low
        near = rows[low.bit_length() - 1] & s
        if near.bit_count() >= k - 1 and _clique(rows, near, k - 1):
            return True
    return False


def _p3(rows, s: int) -> bool:
    """P3: S is not a disjoint union of cliques.  The closed neighbourhood
    in S of S's lowest vertex must be every member's, and is then removed."""
    while s:
        low = s & -s
        part = (rows[low.bit_length() - 1] | low) & s
        others = part ^ low
        while others:
            w = others & -others
            others ^= w
            if (rows[w.bit_length() - 1] | w) & s != part:
                return True
        s ^= part
    return False


def _diamond(rows, s: int) -> bool:
    """The diamond: some edge ab of G[S] with a non-edge in N(a) & N(b)."""
    t = s
    while t:
        low = t & -t
        t ^= low
        near = rows[low.bit_length() - 1] & s
        later = near & t
        while later:
            b = later & -later
            later ^= b
            common = near & rows[b.bit_length() - 1]
            while common:
                c = common & -common
                if common & ~(rows[c.bit_length() - 1] | c):
                    return True
                common ^= c
    return False


def _p2_p3(rows, s: int) -> bool:
    """P2 + P3: some edge ab of G[S] with a P3 in S - N[a] - N[b], tested in
    the edge loop itself as by :func:`_p3`, once per distinct rest
    S - N[a] - N[b]: on a host with twins many edges leave the same one."""
    t = s
    clear = set()  # the rests already shown to be P3-free
    while t:
        low = t & -t
        t ^= low
        a = low.bit_length() - 1
        far = s & ~(rows[a] | low)
        if far.bit_count() < 3:
            continue
        later = rows[a] & t
        while later:
            b = later & -later
            later ^= b
            rest = far & ~(rows[b.bit_length() - 1] | b)
            if rest.bit_count() < 3 or rest in clear:
                continue
            clear.add(rest)
            while rest:
                v = rest & -rest
                part = (rows[v.bit_length() - 1] | v) & rest
                others = part ^ v
                while others:
                    w = others & -others
                    others ^= w
                    if (rows[w.bit_length() - 1] | w) & rest != part:
                        return True
                rest ^= part
    return False


# The patterns decided without a search, keyed by their sorted degree
# sequences, each of which names one graph: the cliques K1 to K5, P3, the
# diamond and P2+P3.  No larger clique is decided, so that a decision, which
# no budget bounds, costs O(n**4) mask operations at most.
_TESTS = {
    **{(k - 1,) * k: lambda rows, s, k=k: _clique(rows, s, k) for k in range(1, 6)},
    (1, 1, 2): _p3,
    (2, 2, 3, 3): _diamond,
    (1, 1, 1, 1, 2): _p2_p3,
}


def _split_free(h: Graph, g: Graph) -> bool | None:
    """Whether ``g`` is ``h``-free, decided without a search when ``h`` is
    one of the patterns of ``_TESTS``; None for every other pattern."""
    test = _TESTS.get(tuple(sorted(row.bit_count() for row in h.rows))) if h.n <= 5 else None
    if test is None:
        return None
    if h.n > g.n:
        return True
    return not test(g.rows, g.mask)


class FreeResult(NamedTuple):
    free: bool
    pattern_index: int | None
    witness: tuple[int, ...] | None


def is_free(
    g: Graph, forbidden: Sequence[Graph], budget: SearchBudget | None = None
) -> FreeResult:
    """True iff no forbidden graph induced-embeds; otherwise the witness
    vertex set (sorted image) and the index of the pattern found.

    A pattern the decider knows is decided first without a search; only a
    pattern found that way, or one it does not know, is searched."""
    for idx, pattern in enumerate(forbidden):
        if _split_free(pattern, g):
            continue
        emb = induced_embed(pattern, g, budget)
        if emb is not None:
            return FreeResult(False, idx, tuple(sorted(emb)))
    return FreeResult(True, None, None)


# ---------------------------------------------------------------------------
# Special families


def _forest(g: Graph) -> list[int] | None:
    """The component masks of ``g`` if it is acyclic, else None: m edges
    leave at least n - m components, and exactly n - m only in a forest."""
    comps = _components(g.rows, g.mask)
    return comps if g.n - g.edge_count() == len(comps) else None


def is_linear_forest(g: Graph) -> bool:
    """Disjoint union of paths: acyclic with maximum degree at most 2."""
    return all(row.bit_count() <= 2 for row in g.rows) and _forest(g) is not None


def in_class_S(g: Graph) -> bool:
    """Every component is a path or a subdivided claw: a tree with at most
    one vertex of degree above 2, of degree 3 (it then has three leaves)."""
    comps = _forest(g)
    if comps is None:
        return False
    rows = g.rows
    for comp in comps:
        degs = sorted(rows[v].bit_count() for v in bits_of(comp))
        if degs[-1] > 2 and (degs[-1] != 3 or degs[-2] == 3):
            return False
    return True
