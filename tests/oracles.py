"""Brute-force reference implementations used as independent oracles.

Everything here enumerates, or backtracks without look-ahead, and shares
no code with the package's search paths.  ``oracle_embed`` is the
package's own injection oracle, which the selftest also runs against the
embedding solver.  ``oracle_find_assignment`` is the plain slot search that
the package's forward-checked uniformicity search must agree with, witness
for witness.  ``oracle_embed_search`` is the embedding search as it was
before the last-pair look-ahead: the package's search must return its
assignment and spend no more nodes.  ``oracle_first_pair``,
``oracle_first_inside`` and ``oracle_first_two`` are the pair-by-pair loops
that the structure claims ran before their bitset layer: the bitset helpers
must return the same first counterexample.  ``oracle_same_side_components``
is the matrix search that the bitset one in ``antichains`` replaced.
``oracle_delete_vertices`` is vertex deletion as it was before rows were
shifted in place: the subgraph induced by the survivors.
"""

from itertools import permutations, product

from wqograph.acceptance import brute_force_embed as oracle_embed
from wqograph.graphs import Graph, bits_of, induced


def oracle_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and oracle_embed(a, b) is not None


def oracle_canonical_key(g: Graph) -> tuple:
    """``(n, bits)`` with ``bits`` the least upper-triangle adjacency string
    over all n! vertex orders."""
    best = None
    for perm in permutations(range(g.n)):
        bits = tuple(
            1 if g.adjacent(perm[i], perm[j]) else 0
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        if best is None or bits < best:
            best = bits
    return (g.n, best)


def oracle_first_pair(g: Graph, a, b, edge: bool):
    """First (u, v) in list order, u in ``a`` and v in ``b``, that is an
    edge iff ``edge``."""
    for u in a:
        for v in b:
            if g.adjacent(u, v) == edge:
                return (u, v)
    return None


def oracle_first_inside(g: Graph, vs, edge: bool):
    """First (u, v) with u listed before v in ``vs`` that is an edge iff
    ``edge``."""
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if g.adjacent(u, v) == edge:
                return (u, v)
    return None


def oracle_first_two(g: Graph, a, b, edge: bool):
    """First u in ``a`` with two or more v in ``b`` adjacent to u iff
    ``edge``, with the first two such v."""
    for u in a:
        hits = [v for v in b if g.adjacent(u, v) == edge]
        if len(hits) > 1:
            return (u, hits[0], hits[1])
    return None


def oracle_delete_vertices(g: Graph, vertices) -> Graph:
    """The subgraph induced by the vertices not listed; listed vertices
    outside 0..n-1 delete nothing."""
    drop = set(vertices)
    return induced(g, [v for v in range(g.n) if v not in drop])


def oracle_same_side_components(g: Graph):
    """Side index of each vertex when the graph joining adjacent vertices
    with a common neighbour has exactly two components, else None: a
    depth-first search over an n-by-n link matrix."""
    link = [
        [g.adjacent(u, v) and bool(g.rows[u] & g.rows[v]) for v in range(g.n)]
        for u in range(g.n)
    ]
    side = [-1] * g.n
    comp = 0
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = comp
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(g.n):
                if link[v][w] and side[w] == -1:
                    side[w] = comp
                    stack.append(w)
        comp += 1
    return side if comp == 2 else None


def oracle_k_uniform(g: Graph, k: int) -> bool:
    """Toy-size uniformicity decision by full enumeration of templates and
    slot injections (copies capped at the vertex count)."""
    n = g.n
    diag_pairs = [(i, j) for i in range(k) for j in range(i, k)]
    edge_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    slots = [(c, i) for c in range(max(n, 1)) for i in range(k)]
    for kbits in product((0, 1), repeat=len(diag_pairs)):
        matrix = [[0] * k for _ in range(k)]
        for (i, j), bit in zip(diag_pairs, kbits):
            matrix[i][j] = matrix[j][i] = bit
        for fbits in product((0, 1), repeat=len(edge_pairs)):
            fadj = [[False] * k for _ in range(k)]
            for (i, j), bit in zip(edge_pairs, fbits):
                fadj[i][j] = fadj[j][i] = bool(bit)

            def law(s, t):
                (c, i), (d, j) = s, t
                base = c == d and fadj[i][j]
                return base != bool(matrix[i][j])

            for assign in permutations(slots, n):
                if all(
                    g.adjacent(u, v) == law(assign[u], assign[v])
                    for u in range(n)
                    for v in range(u + 1, n)
                ):
                    return True
    return False


def oracle_find_assignment(g: Graph, template, budget=None):
    """Backtracking slot assignment without pruning: vertices in order,
    slots (copy, class) ascending, copies opened in first-use order, one
    ``budget.spend()`` per free slot tried.  Returns the first assignment
    found, or None."""
    k = template.k
    assign: list[tuple[int, int]] = []
    used: set[tuple[int, int]] = set()

    def consistent(v: int, slot: tuple[int, int]) -> bool:
        return all(
            g.adjacent(u, v) == template.law(assign[u], slot) for u in range(v)
        )

    def rec(v: int, copies_used: int) -> bool:
        if v == g.n:
            return True
        for c in range(min(copies_used + 1, g.n)):
            for i in range(k):
                slot = (c, i)
                if slot in used:
                    continue
                if budget is not None:
                    budget.spend()
                if consistent(v, slot):
                    assign.append(slot)
                    used.add(slot)
                    if rec(v + 1, max(copies_used, c + 1)):
                        return True
                    assign.pop()
                    used.remove(slot)
        return False

    if rec(0, 0):
        return tuple(assign)
    return None


def oracle_embed_search(h: Graph, g: Graph, base_candidates, budget=None):
    """The embedding search without look-ahead: pattern vertices in
    descending-degree order, host candidates ascending, a forward check of
    every later vertex, one ``budget.spend()`` per host vertex tried.
    Returns the first assignment found, or None."""
    nh, ng = h.n, g.n
    if nh > ng:
        return None
    if nh == 0:
        return ()
    order = sorted(range(nh), key=lambda v: (-h.degree(v), v))
    gmask = g.mask
    hdeg = [h.degree(v) for v in range(nh)]
    gdeg = [g.degree(w) for w in range(ng)]
    cand = []
    for v in order:
        m = base_candidates[v]
        allowed = 0
        for w in bits_of(m):
            if hdeg[v] <= gdeg[w] and nh - 1 - hdeg[v] <= ng - 1 - gdeg[w]:
                allowed |= 1 << w
        if not allowed:
            return None
        cand.append(allowed)
    hadj = [[h.adjacent(order[p], order[q]) for q in range(nh)] for p in range(nh)]
    assign = [0] * nh

    def rec(pos: int, cand_masks) -> bool:
        if pos == nh:
            return True
        m = cand_masks[pos]
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            if budget is not None:
                budget.spend()
            nxt = []
            ok = True
            for q in range(pos + 1, nh):
                if hadj[pos][q]:
                    nm = cand_masks[q] & g.rows[w]
                else:
                    nm = cand_masks[q] & ~g.rows[w] & gmask
                nm &= ~low
                if not nm:
                    ok = False
                    break
                nxt.append(nm)
            if ok:
                assign[pos] = w
                if rec(pos + 1, cand_masks[: pos + 1] + nxt):
                    return True
        return False

    if not rec(0, cand):
        return None
    out = [0] * nh
    for p, v in enumerate(order):
        out[v] = assign[p]
    return tuple(out)
