"""Brute-force reference implementations used as independent oracles.

Everything here enumerates, or backtracks without look-ahead (but for the
two forward-checked searches named below), and shares no code with the
package's search paths, but for the lex-leader constraints that
``oracle_embed_exact`` takes from the package.  ``oracle_embed`` is the
package's own injection oracle, which the selftest also runs against the
embedding solver.
``oracle_forward_assignment`` is the slot search for a uniform witness over
one template, on bitmasks with a forward check, as the package ran it after
its partition check until that check returned its own witness; the tests
take it as the reference for which graphs have a witness, and
``oracle_k_uniform`` as the exhaustive one.  ``oracle_embed_search`` is the
embedding search as it was before the last-pair look-ahead: the package's
search must return its assignment and spend no more nodes.
``oracle_embed_exact`` is the search with look-ahead and lex-leader
constraints as it ran on a list of candidate masks, one per later
position, before it packed them into one integer: the package's search
must return its assignment, spend its nodes and run out of budget at its
node.  ``oracle_first_pair``,
``oracle_first_inside`` and ``oracle_first_two`` are the pair-by-pair loops
that the structure claims ran before their bitset layer: the bitset helpers
must return the same first counterexample.  ``oracle_same_side_components``
is the matrix search that the bitset one in ``antichains`` replaced.
``oracle_delete_vertices`` is vertex deletion as it was before rows were
shifted in place: the subgraph induced by the survivors.
``oracle_refine`` is the partition refinement as it split every cell by
building fragment and size lists, before one-plane splitters took a path of
their own; ``oracle_image_rows`` is the isomorphism check of a bijection as
it built every image row bit by bit, before it compared degrees and tested
edges; ``oracle_words`` builds the search's packed forward-check words pair
by pair, as before the plan held one adjacency mask per position.  The
package's refinement, bijection check and words must agree with them.
``oracle_is_k_uniform`` is the uniformicity search as it ran before its
node loop was inlined, with one helper call per node that built a list of
changes: the package's search must return its witness, spend its nodes
and run out of budget at its node.  ``oracle_p2_p3`` is the P2+P3 test
of the freeness decider as it ran before it tested each distinct rest set
once per call.
``oracle_canonical_templates`` lists the templates of order k up to a
permutation of the classes, by marking the orbit of each template kept.
``oracle_verify_witness`` checks a witness pair by pair through the
template's adjacency law, as ``uniform.verify_witness`` did before it
compared rows.  ``oracle_lex_orbits`` lists, for each position of a search
order, the later positions that an automorphism fixing the earlier ones
maps it onto, from all n! permutations; the embedding search's lex-leader
constraints must equal it.
``oracle_reconstruct_thm52`` is the thm52 walk as it ran before its bitmask
form, over the matrix side split.  ``oracle_c5_case_of`` is the 5-cycle
case analysis as an if-chain, as ``structure`` stated it before its case
table.  ``ORACLE_CO_ATOMS`` are the second members of the clique-width
rules as the classifier stated them before they became complement
patterns, and ``oracle_co_atom`` evaluates one as it did then, through the
package's ``induced_embed`` (what is checked is the rewrite, not the
search).  ``oracle_rule_consistency`` classifies the corpus pair by pair
through ``oracle_classify``, as the classifier did before it classified
each equivalence class once.
``oracle_key_bits`` is the canonical key as a tuple of bits, as the package
returned it before it returned the number those bits spell, which
``oracle_canonical_key`` reads off.  ``oracle_nonisomorphic_graphs`` builds
the corpus by keying every labelled graph, as the classifier did before it
marked each class's relabellings, and ``oracle_marked_graphs`` marks them
with one image row per permutation, as it did before it kept one image
column per pair.  ``oracle_bit_words`` builds the packed words from the
plan's adjacency masks bit by bit, as ``order._embed`` did before it spread
each mask onto the field feet with one product.
``oracle_template_from_json`` reads a template back from its JSON, as
``UniformTemplate.from_json`` did.  ``oracle_complement_template`` is the
template doubling as it ran before it worked on row masks, edge by edge and
through the validating constructors, and ``oracle_graph_checks`` is the
check of ``Graph(n, rows)`` as it ran before symmetry was tested edge by
edge: every vertex pair scanned.  The package's doubling must return an
equal template, and its constructor the same message or none.
``oracle_classify`` is one table's verdict as the classifier found it
before it memoised the last pair's class, resolved rule sides once per key
and decided each class once: ``oracle_equivalent_pairs`` rebuilds the class
on every call, complementing every member it takes from its frontier, and
every rule tries its atoms pair by pair on every member and orientation,
each atom evaluated directly on the labelled graph.  It stands in for the
whole of ``classify_wqo`` and ``classify_cw``: the closure on keys, the
table of class decisions, and the walk of the deciding rule that finds a
later pair's own ``via``.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

from wqograph import classifier
from wqograph.acceptance import brute_force_embed as oracle_embed
from wqograph.classifier import (
    ClassPair,
    RuleInconsistencyError,
    Verdict,
    _matches,
    canonical_key,
    pair_corpus,
)
from wqograph.graphs import MAX_VERTICES, Graph, bits_of, complement, encode_graph6, induced, pattern
from wqograph.order import SearchBudget, SearchBudgetExceeded, _record, induced_embed
from wqograph.uniform import UniformTemplate, UniformWitness, WitnessCheck


def oracle_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and oracle_embed(a, b) is not None


def oracle_key_bits(g: Graph) -> tuple:
    """``(n, bits)`` with ``bits`` the least upper-triangle adjacency string,
    row by row, over all n! vertex orders."""
    pairs = list(combinations(range(g.n), 2))
    rows = g.rows
    best = None
    for perm in permutations(range(g.n)):
        bits = tuple(rows[perm[i]] >> perm[j] & 1 for i, j in pairs)
        if best is None or bits < best:
            best = bits
    return (g.n, best)


def oracle_canonical_key(g: Graph) -> tuple[int, int]:
    """``(n, code)`` with ``code`` the bits of ``oracle_key_bits`` read as a
    binary number, the first bit most significant."""
    n, bits = oracle_key_bits(g)
    code = 0
    for bit in bits:
        code = code << 1 | bit
    return (n, code)


def oracle_nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """The first labelled graph of each isomorphism class in edge-bit order,
    bit i for the i-th pair of ``combinations(range(n), 2)``: every labelled
    graph is keyed, and the first of each key is kept."""
    pairs = list(combinations(range(n), 2))
    seen = {}
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph.from_edges(n, edges)
        key = canonical_key(g)
        if key not in seen:
            seen[key] = g
    return tuple(seen.values())


def oracle_marked_graphs(n: int) -> tuple[Graph, ...]:
    """The least edge mask of each class, in ascending order: the first mask
    not yet seen starts a class, and each of its images, summed over its
    edges from one row of image bits per vertex permutation, is marked."""
    pairs = list(combinations(range(n), 2))
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    images = [
        [bit[min(p[a], p[b]), max(p[a], p[b])] for a, b in pairs]
        for p in permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    out = []
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        edges = [i for i in range(len(pairs)) if mask >> i & 1]
        out.append(Graph.from_edges(n, [pairs[i] for i in edges]))
        for image in images:
            seen[sum(image[i] for i in edges)] = 1
    return tuple(out)


def oracle_template_from_json(obj: dict) -> UniformTemplate:
    """The template that ``UniformTemplate.to_json`` wrote."""
    k = int(obj["k"])
    f = Graph.from_edges(k, [tuple(e) for e in obj["F_edges"]])
    matrix = tuple(tuple(int(x) for x in row) for row in obj["K"])
    return UniformTemplate(k, f, matrix)


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


def oracle_is_k_uniform(
    g: Graph,
    k: int,
    *,
    budget: SearchBudget | None = None,
) -> UniformWitness | None:
    """``uniform.is_k_uniform`` as it ran before its node loop was inlined:
    the witness of the first split into at most k parts with a copy
    relation that fits, as the ``uniform`` module docstring sets out, or
    None.  ``k`` must lie in 1..64, the vertex cap of the template's class
    graph.

    Vertices are placed 0..n-1 on the open parts and then on a fresh one
    (parts open in first-use order); one search node is one part tried for
    one vertex, or one K = 1 tried in a copy test.  ``modes[p][q]`` holds
    what the placed vertices still allow between parts p and q: bit 1 a
    matching, bit 2 a co-matching.  Each complete split is tested for
    copies, and the search goes on when none fit.
    """
    if not 1 <= k <= MAX_VERTICES:
        raise ValueError(f"k must be in 1..{MAX_VERTICES}, got {k}")
    n = g.n
    rows = g.rows
    cap = 1 << 62 if budget is None else budget.limit - budget.used
    spent = 0
    parts = [0] * k
    modes = [[3] * k for _ in range(k)]

    def narrowed(v: int, p: int, opened: int) -> list[tuple[int, int, int]] | None:
        """``(q, old, new)`` for each part q whose modes with part p narrow
        when v joins p, or None if v cannot join p."""
        nv = rows[v]
        pm = parts[p]
        if pm & (pm - 1):
            inside = nv & pm
            if inside != (pm if rows[(pm & -pm).bit_length() - 1] & pm else 0):
                return None
        out = []
        for q in range(opened):
            if q == p:
                continue
            qm = parts[q]
            old = modes[p][q]
            mode = 0
            # a matching lets v have one neighbour in q, with none in p yet
            hit = nv & qm
            if old & 1 and not hit & (hit - 1):
                if not hit or not rows[(hit & -hit).bit_length() - 1] & pm:
                    mode = 1
            # a co-matching lets v miss one vertex of q, adjacent to all of p
            miss = qm & ~nv
            if old & 2 and not miss & (miss - 1):
                if not miss or rows[(miss & -miss).bit_length() - 1] & pm == pm:
                    mode |= 2
            if not mode:
                return None
            if mode != old:
                out.append((q, old, mode))
        return out

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
            template = UniformTemplate(k, f, tuple(map(tuple, matrix)))
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
        bit = 1 << v
        for p in range(min(opened + 1, k)):
            spent += 1
            if spent > cap:
                raise SearchBudgetExceeded(budget.used + spent)
            changes = narrowed(v, p, opened)
            if changes is None:
                continue
            for q, _, mode in changes:
                modes[p][q] = modes[q][p] = mode
            parts[p] |= bit
            found = place(v + 1, max(opened, p + 1))
            if found is not None:
                return found
            parts[p] ^= bit
            for q, old, _ in changes:
                modes[p][q] = modes[q][p] = old
        return None

    try:
        return place(0, 0)
    finally:
        if budget is not None:
            budget.used += spent


def oracle_p2_p3(rows, s: int) -> bool:
    """P2 + P3: some edge ab of G[S] with a P3 in S - N[a] - N[b], tested in
    the edge loop itself as by ``order._p3``, once per edge (``order._p2_p3``
    as it ran before it tested each distinct rest once)."""
    t = s
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
            if rest.bit_count() < 3:
                continue
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


def _charge(budget) -> None:
    """Charge one search node to ``budget``; raise once it is overspent."""
    budget.used += 1
    if budget.used > budget.limit:
        raise SearchBudgetExceeded(budget.used)


def oracle_forward_assignment(g: Graph, template):
    """The first assignment of a backtracking slot search, or None: vertices
    in order, slots (copy, class) ascending, copies opened in first-use
    order, on bitmasks with a forward check.

    Placed vertices are kept as bitmasks: ``across[i]`` holds those that a
    class-i vertex in another copy must be adjacent to (their class j has
    K(i, j) = 1), ``flips[i]`` those whose adjacency to class i flips when
    they share its copy (their class j is an F-neighbour of i), and
    ``members[c]`` the vertices of copy c.  A vertex whose neighbourhood
    among the placed vertices is N fits the free slot (c, i) iff
    ``N ^ across[i] == flips[i] & members[c]``.  After each placement every
    later vertex must still fit some free slot; that check only cuts
    subtrees without an assignment, so the first assignment is the one the
    search without it finds.
    """
    n, k = g.n, template.k
    rows = g.rows
    k_classes = [[j for j in range(k) if template.matrix[i][j]] for i in range(k)]
    f_classes = [[j for j in range(k) if template.f.adjacent(i, j)] for i in range(k)]
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
                if tk >> i & 1 or nv ^ across[i] != flips[i] & cm:
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

    return tuple(assign) if place(0, 0) else None


def oracle_embed_search(h: Graph, g: Graph, base_candidates, budget=None):
    """The embedding search without look-ahead: pattern vertices in
    descending-degree order, host candidates ascending, a forward check of
    every later vertex, one node charged to ``budget`` per host vertex tried.
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
                _charge(budget)
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


def oracle_embed_exact(
    h: Graph, g: Graph, base_candidates, budget=None, host_orbits=True, projected=True
):
    """The package's embedding search as it ran on lists of candidate masks,
    one per later position, before it packed them into one integer: the
    same order, degree filter, forward check, last-pair look-ahead,
    lex-leader constraints of the pattern, root pruning by the host's
    orbits (both taken from ``order``, started at the same node) and budget
    charging.  The package must return its assignment, spend its nodes and
    run out of budget at its node.  ``base_candidates`` None means every
    host vertex; ``host_orbits`` False leaves the root pruning out.

    The pruning starts once a root has failed and the nodes per failed root
    so far, times the number of roots, reach n(h)**2; from then on the host
    orbit of every root that fails is dropped too.  ``projected`` False
    runs the earlier rule instead: start once n(h)**2 nodes are spent, and
    drop the orbits of the roots failed by then only."""
    nh, ng = h.n, g.n
    if nh > ng:
        return None
    if nh == 0:
        return ()
    order = sorted(range(nh), key=lambda v: (-h.degree(v), v))
    later = [[h.adjacent(order[p], order[q]) for q in range(p + 1, nh)] for p in range(nh)]
    rows, gmask = g.rows, g.mask
    cand = []
    for v in order:
        dv = h.degree(v)
        base = gmask if base_candidates is None else base_candidates[v]
        allowed = sum(
            1 << w for w in bits_of(base) if dv <= g.degree(w) <= dv + ng - nh
        )
        if not allowed:
            return None
        cand.append(allowed)
    # the last pair's look-ahead, candidate by candidate
    s_adj_l = nh >= 2 and h.adjacent(order[-2], order[-1])

    def with_partner(cs, cl):
        return sum(
            1 << w
            for w in bits_of(cs)
            if any(x != w and g.adjacent(w, x) == s_adj_l for x in bits_of(cl))
        )

    assign = [0] * nh
    cap = 1 << 62 if budget is None else budget.limit - budget.used
    spent = 0
    bounds = (None,) * nh

    def rec(pos: int, m: int, rest: list) -> bool:
        nonlocal spent
        for w in bits_of(m):
            spent += 1
            if spent > cap:
                raise SearchBudgetExceeded(budget.used + spent)
            nbr = rows[w]
            non = gmask & ~nbr & ~(1 << w)
            nxt = []
            for a, cm in zip(later[pos], rest):
                nm = cm & (nbr if a else non)
                if not nm:
                    break
                nxt.append(nm)
            else:
                if bounds[pos] is not None:
                    above = -(1 << (w + 1))
                    nxt = [nm & above if j in bounds[pos] else nm for j, nm in enumerate(nxt)]
                    if not all(nxt):
                        continue
                assign[pos] = w
                if not nxt:
                    return True
                if pos == nh - 3:
                    nxt[0] = with_partner(nxt[0], nxt[1])
                    if not nxt[0]:
                        continue
                if rec(pos + 1, nxt[0], nxt[1:]):
                    return True
        return False

    detect = base_candidates is None
    roots = list(bits_of(cand[0]))
    failed = []
    pruning = False
    try:
        while roots:
            w = roots.pop(0)
            if rec(0, 1 << w, cand[1:]):
                break
            failed.append(w)
            if pruning:
                roots = [x for x in roots if not orbits[w] >> x & 1]
                continue
            if not detect or not roots:
                continue
            if projected:
                start = spent * (len(failed) + len(roots)) >= nh * nh * len(failed)
            else:
                start = spent >= nh * nh
            if start:
                detect = False
                if host_orbits:
                    orbits = _record(g).host_orbits
                    roots = [x for x in roots if not any(orbits[f] >> x & 1 for f in failed)]
                    pruning = projected
                if roots:
                    bounds = _record(h).chain.bounds
        else:
            return None
    finally:
        if budget is not None:
            budget.used += spent
    out = [0] * nh
    for p, v in enumerate(order):
        out[v] = assign[p]
    return tuple(out)


def oracle_refine(rows, cells: list[int], queue: list[int], trace: list, expect=None) -> bool:
    """``order._refine`` with the general split for every splitter, one-plane
    splitters too: the fragments and their sizes built as lists, plane by
    plane.  It must give the same cells, trace, queue and result."""
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
        todo = unsplit
        while todo:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            cell = cells[x]
            if not cell & touched:
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


def oracle_image_rows(rows, target, phi) -> bool:
    """Whether ``phi`` maps the graph with ``rows`` onto the graph with rows
    ``target``: the image of each row, built bit by bit, is the target's row
    of the image vertex, as ``_Chain.bijection`` checked it before it
    compared degrees and tested each edge once."""
    return all(
        sum(1 << phi[u] for u in bits_of(row)) == target[phi[v]] for v, row in enumerate(rows)
    )


def oracle_words(h: Graph, ng: int) -> list:
    """The packed forward-check words of pattern ``h`` for a host of ``ng``
    vertices, built pair by pair through ``h.adjacent`` along the search
    order, R bit by bit, as ``order._embed`` built them before the plan held
    one adjacency mask per position."""
    nh = h.n
    order = sorted(range(nh), key=lambda v: (-h.degree(v), v))
    width, field = ng + 1, (1 << ng) - 1
    words = []
    for p in range(nh):
        r = non = 0
        for j, q in enumerate(range(p + 1, nh)):
            r |= 1 << j * width
            if not h.adjacent(order[p], order[q]):
                non |= field << j * width
        words.append((r, non & r * field, non & r, r * field, r << ng))
    return words


def oracle_bit_words(h: Graph, ng: int) -> list:
    """The packed forward-check words of pattern ``h`` for a host of ``ng``
    vertices, built from the plan's adjacency mask of each position by
    clearing the foot of each adjacent field one bit at a time."""
    nh = h.n
    later = _record(h).plan[2]
    width, field = ng + 1, (1 << ng) - 1
    words = []
    r = ((1 << (nh - 1) * width) - 1) // ((1 << width) - 1)
    for adjacent in later:
        non = r
        while adjacent:
            low = adjacent & -adjacent
            adjacent ^= low
            non ^= 1 << (low.bit_length() - 1) * width
        words.append((r, non * field, non, r * field, r << ng))
        r >>= width
    return words


def oracle_canonical_templates(k: int) -> list:
    """Templates of order k in search order (K packed bits ascending, then F
    edge sets ascending), one per orbit under the k! class orders: the
    first template of each orbit not yet marked is kept, and all its images
    are marked."""
    kpairs = [(i, j) for i in range(k) for j in range(i, k)]
    fpairs = list(combinations(range(k), 2))
    width = len(fpairs)
    # a template is the code kbits << width | fbits; per class order, the
    # bit each bit of the code moves to
    moves = [
        [fpairs.index((min(p[i], p[j]), max(p[i], p[j]))) for i, j in fpairs]
        + [width + kpairs.index((min(p[i], p[j]), max(p[i], p[j]))) for i, j in kpairs]
        for p in permutations(range(k))
    ]
    marked = bytearray(1 << (width + len(kpairs)))
    out = []
    for code in range(len(marked)):
        if marked[code]:
            continue
        for move in moves:
            marked[sum(1 << to for b, to in enumerate(move) if code >> b & 1)] = 1
        matrix = [[0] * k for _ in range(k)]
        for idx, (i, j) in enumerate(kpairs):
            if code >> width + idx & 1:
                matrix[i][j] = matrix[j][i] = 1
        edges = [pair for idx, pair in enumerate(fpairs) if code >> idx & 1]
        out.append(
            UniformTemplate(k, Graph.from_edges(k, edges), tuple(tuple(row) for row in matrix))
        )
    return out


def oracle_verify_witness(g: Graph, witness) -> WitnessCheck:
    """The adjacency law pair by pair, u ascending, then v > u ascending;
    the first pair that breaks it is the violation.  The assignment is
    assumed well formed."""
    t = witness.template
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacent(u, v) != t.law(witness.assign[u], witness.assign[v]):
                return WitnessCheck(False, (u, v))
    return WitnessCheck(True)


def oracle_complement_template(template: UniformTemplate) -> UniformTemplate:
    """Order-2k template accommodating one subgraph complementation, built
    edge by edge and entry by entry through the validating constructors."""
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


def oracle_graph_checks(n: int, rows: tuple[int, ...]) -> None:
    """The checks of ``Graph(n, rows)`` with a pair scan for symmetry:
    raise the first failure's ``ValueError``."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(
            f"graph on {n} vertices exceeds the cap of {MAX_VERTICES}"
        )
    if len(rows) != n:
        raise ValueError("adjacency row count does not match vertex count")
    mask = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~mask:
            raise ValueError(f"row {v} references vertices outside 0..n-1")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
    for v in range(n):
        for w in range(v + 1, n):
            if (rows[v] >> w & 1) != (rows[w] >> v & 1):
                raise ValueError(f"adjacency not symmetric at pair ({v},{w})")


def oracle_lex_orbits(h: Graph, order) -> list[tuple[int, ...]]:
    """For each position i of ``order``, the positions q > i such that some
    automorphism of ``h`` fixing order[0..i-1] maps order[i] to order[q]."""
    n, rows = h.n, h.rows
    nbrs = [bits_of(row) for row in rows]
    autos = []
    for p in permutations(range(n)):
        # p is an automorphism iff it maps every vertex's row onto its image's
        for u in range(n):
            mapped = 0
            for w in nbrs[u]:
                mapped |= 1 << p[w]
            if mapped != rows[p[u]]:
                break
        else:
            autos.append(p)
    out = []
    for i, v in enumerate(order):
        images = {p[v] for p in autos if all(p[order[j]] == order[j] for j in range(i))}
        out.append(tuple(q for q in range(i + 1, n) if order[q] in images))
    return out


def oracle_reconstruct_thm52(g: Graph, x1: int):
    """The thm52 walk from x_1 over lists: odd steps take the unique
    cross-side neighbour, even steps the unique same-side non-neighbour,
    with the sides from ``oracle_same_side_components``; None when a step is
    not forced or revisits a vertex."""
    m = g.n
    if m % 4 or m < 12 or not 0 <= x1 < m:
        return None
    side_of = oracle_same_side_components(g)
    if side_of is None:
        return None
    walk = [x1]
    seen = {x1}
    cur = x1
    for step in range(1, m):
        cur_side = side_of[cur]
        if step % 2 == 1:
            cands = [w for w in bits_of(g.rows[cur]) if side_of[w] != cur_side]
        else:
            cands = [
                w
                for w in range(m)
                if w != cur and side_of[w] == cur_side and not g.adjacent(cur, w)
            ]
        if len(cands) != 1 or cands[0] in seen:
            return None
        cur = cands[0]
        walk.append(cur)
        seen.add(cur)
    return tuple(walk)


def oracle_c5_case_of(large: set[int]) -> tuple[int, int]:
    """(case, rotation) of a largeness pattern: case 1 all large; case 2
    small at 4; case 3 large at 0,1,2; case 4 large at 0,2,3; case 5 large
    at 2,3; case 6 large at 0,2; case 7 at most one large, at 0."""
    k = len(large)
    if k == 5:
        return 1, 0
    if k == 4:
        small = next(i for i in range(5) if i not in large)
        return 2, (small + 1) % 5
    if k == 3:
        for a in range(5):
            if {a, (a + 1) % 5, (a + 2) % 5} == large:
                return 3, a
        for a in range(5):
            if {a % 5, (a + 1) % 5} <= large:
                return 4, (a - 2) % 5
    if k == 2:
        for a in range(5):
            if {a, (a + 1) % 5} == large:
                return 5, (a - 2) % 5
        for a in range(5):
            if {a, (a + 2) % 5} == large:
                return 6, a
    if k == 1:
        return 7, next(iter(large))
    return 7, 0


def _co_atoms(op: str, *exprs: str) -> tuple[tuple, ...]:
    return tuple((op, e) for e in exprs)


ORACLE_CO_ATOMS = {
    "T6.2-1(iii)": _co_atoms(
        "co_sub",
        "K1,3+3P1",
        "K1,3+P2",
        "P1+P2+P3",
        "P1+P5",
        "P1+S1,1,2",
        "P6",
        "S1,1,3",
        "S1,2,2",
    ),
    "T6.2-1(iv)": _co_atoms("co_sub", "P1+2P2", "2P1+P3", "3P1+P2", "P2+P3"),
    "T6.2-1(v)": _co_atoms("co_sub", "P1+P4", "P5"),
    "T6.2-1(vi)": _co_atoms("co_sub", "2P1+P3"),
    "T6.2-1(vii)": _co_atoms("co_sub", "K1,3"),
    "T6.2-2(iii)": _co_atoms("co_sup", "4P1", "2P2"),
    "T6.2-2(iv)": _co_atoms("co_sup", "K1,3", "5P1", "P2+P4", "P6"),
    "T6.2-2(v)": _co_atoms("co_sup", "2P1+2P2", "2P1+P4", "4P1+P2", "3P2", "2P3"),
    "T6.2-2(vi)": _co_atoms("co_sup", "P1+P4", "3P1+P2"),
}


def oracle_co_atom(g: Graph, atom: tuple) -> bool:
    """``("co_sub", X)``: co(g) embeds into X; ``("co_sup", X)``: X embeds
    into co(g)."""
    op, expr = atom
    if op == "co_sub":
        return induced_embed(complement(g), pattern(expr)) is not None
    return induced_embed(pattern(expr), complement(g)) is not None


def oracle_rule_consistency(max_n: int) -> list[tuple[str, str]]:
    """Every corpus pair whose classification raises, with the message."""
    bad = []
    for pair in pair_corpus(max_n):
        try:
            oracle_classify(pair, classifier.WQO_RULES)
            oracle_classify(pair, classifier.CW_RULES)
        except RuleInconsistencyError as exc:
            name = encode_graph6(pair.h1) + "," + encode_graph6(pair.h2)
            bad.append((name, str(exc)))
    return bad


def oracle_equivalent_pairs(pair: ClassPair) -> tuple[ClassPair, ...]:
    """Closure under complement-both and the triangle <-> paw swap."""
    triangle = pattern("K3")
    paw = pattern("co(P1+P3)")
    k_triangle, k_paw = canonical_key(triangle), canonical_key(paw)
    swap = {k_triangle: (paw, k_paw), k_paw: (triangle, k_triangle)}
    seen = {}
    frontier = [pair]
    while frontier:
        p = frontier.pop(0)
        k = p.key()
        if k in seen:
            continue
        seen[k] = p
        nxt = [ClassPair.of(complement(p.h1), complement(p.h2))]
        for ka, b, kb in ((p.k1, p.h2, p.k2), (p.k2, p.h1, p.k1)):
            if ka in swap:
                nxt.append(ClassPair._keyed(*swap[ka], b, kb))
        frontier.extend(nxt)
    return tuple(seen.values())


@lru_cache(maxsize=None)
def _oracle_atom(g: Graph, atom: tuple) -> bool:
    return _matches(g, atom)


def oracle_match(rule, a: Graph, b: Graph) -> tuple | None:
    """Matched (atom_first, atom_second) or None, in table order."""
    for fa in rule.first:
        if not _oracle_atom(a, fa):
            continue
        for sa in rule.second:
            if _oracle_atom(b, sa):
                return fa, sa
    return None


def oracle_fire(rule, members) -> Verdict | None:
    """The rule's verdict at its first match, in member and orientation order."""
    for p in members:
        for a, b in ((p.h1, p.h2), (p.h2, p.h1)):
            hit = oracle_match(rule, a, b)
            if hit is not None:
                satom = hit[1]
                family = rule.families.get(satom[1]) if len(satom) > 1 else None
                return Verdict(rule.verdict, rule.id, (a, b), family)
    return None


def oracle_classify(pair: ClassPair, rules) -> Verdict:
    """The first positive verdict in table order, else the first negative;
    raises ``RuleInconsistencyError`` if rules of both polarities fire."""
    members = oracle_equivalent_pairs(pair)
    fired = {}
    for rule in rules:
        verdict = oracle_fire(rule, members)
        positive = rule.verdict in ("WqoLabelled", "Bounded")
        if verdict is not None and positive not in fired:
            fired[positive] = verdict
    if len(fired) == 2:
        raise RuleInconsistencyError(
            f"pair fired {fired[True].rule} and {fired[False].rule}"
        )
    return fired.get(True) or fired.get(False) or Verdict("Open")
