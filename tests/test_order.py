import random
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wqograph.graphs import (
    Graph,
    biclique,
    bits_of,
    build,
    complement,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    empty_graph,
    induced,
)
from wqograph.order import (
    LabelledGraph,
    QuasiOrder,
    SearchBudget,
    SearchBudgetExceeded,
    _CLASSES,
    _Chain,
    _Record,
    _degree_refinement,
    _record,
    _refine,
    _twins,
    _split_free,
    induced_embed,
    in_class_S,
    is_free,
    is_linear_forest,
    labelled_embed,
)
from wqograph.antichains import family_member, gen_thm51, gen_thm52
from wqograph.classifier import nonisomorphic_graphs
from oracles import (
    oracle_embed,
    oracle_embed_exact,
    oracle_embed_search,
    oracle_image_rows,
    oracle_in_class_S,
    oracle_is_linear_forest,
    oracle_isomorphic,
    oracle_lex_orbits,
    oracle_refine,
    oracle_room,
    oracle_words,
)
from strategies import counted, forest_like_graphs, pair_bits, small_graphs


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(
        q, [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares]
    )


@st.composite
def symmetric_graphs(draw, max_n=16):
    """A relabelled cycle, clique, perfect matching, complete bipartite graph
    or antichain family member on at most ``max_n`` vertices: graphs with
    many automorphisms, which random graphs rarely have."""
    members = [m for m in (gen_thm51(2), gen_thm51(3), gen_thm52(3), gen_thm52(4)) if m.n <= max_n]
    kinds = ("cycle", "clique", "matching", "biclique") + (("member",) if members else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "cycle":
        g = cycle_graph(draw(st.integers(3, max_n)))
    elif kind == "clique":
        g = complete_graph(draw(st.integers(1, min(max_n, 7))))
    elif kind == "matching":
        g = disjoint_union([complete_graph(2)] * draw(st.integers(1, max_n // 2)))
    elif kind == "biclique":
        g = biclique(draw(st.integers(1, max_n // 2)), draw(st.integers(1, max_n // 2)))
    else:
        g = draw(st.sampled_from(members))
    return relabel(g, draw(st.permutations(range(g.n))))


# Searches without an embedding whose nodes are pinned: the pattern, the
# host, the nodes of the package's search and of the unpruned reference.
PINNED = [
    ("P1+2P2", gen_thm52(12), 510, 448_800),
    ("co(P1+P4)", gen_thm52(12), 464, 43_392),
    # Every second vertex's only non-neighbour among the last vertex's
    # candidates is itself, so each first vertex is cut.
    ("3P1", build("2K2"), 4, 12),
    ("3P1", build("C5"), 5, 15),
    # C8 into C9 is refused by the room check, at no node; C7+P1 into C10
    # reaches the search, where C10's one orbit drops every root left.
    ("C8", build("C9"), 0, 117),
    ("C7+P1", build("C10"), 11, 110),
    (gen_thm52(3), gen_thm52(4), 74, 1_200),
]
PINNED_IDS = [
    "thm52-12-P1+2P2",
    "thm52-12-co(P1+P4)",
    "2K2-3P1",
    "C5-3P1",
    "C9-C8",
    "C10-C7+P1",
    "thm52-4-thm52-3",
]


class TestInducedEmbed:
    def test_subpath(self):
        assert induced_embed(build("P4"), build("P6")) is not None

    def test_p2p3_into_p6(self):
        emb = induced_embed(build("P2+P3"), build("P6"))
        assert emb is not None

    def test_c5_not_into_c6(self):
        # brute force over all size-5 subsets confirms the negative
        c5, c6 = build("C5"), build("C6")
        assert all(
            oracle_embed(c5, induced(c6, s)) is None
            for s in combinations(range(6), 5)
        )
        assert induced_embed(c5, c6) is None

    def test_oracle_agreement_200(self):
        rng = random.Random(0)
        positives = 0
        for _ in range(200):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 7))
            fast = induced_embed(h, g)
            slow = oracle_embed(h, g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                positives += 1
                assert all(
                    h.adjacent(u, v) == g.adjacent(fast[u], fast[v])
                    for u in range(h.n)
                    for v in range(u + 1, h.n)
                )
        assert positives > 20

    def test_complement_duality(self):
        rng = random.Random(1)
        for _ in range(150):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 6))
            assert (induced_embed(h, g) is None) == (
                induced_embed(complement(h), complement(g)) is None
            )

    def test_deterministic_witness(self):
        emb = induced_embed(build("P4"), build("P6"))
        assert emb == induced_embed(build("P4"), build("P6"))

    def test_budget_exhaustion_distinct(self):
        with pytest.raises(SearchBudgetExceeded):
            induced_embed(build("P4"), build("P6"), SearchBudget(1))


LABEL_ORDERS = (
    QuasiOrder.from_pairs((0, 1), ()),
    QuasiOrder.from_pairs((0, 1, 2), [(0, 1), (1, 2)]),
)


class TestSearchAgainstOracle:
    """The look-ahead search against the search without it: the same first
    embedding, never more nodes, and an exhausted budget always raises."""

    @staticmethod
    def check(h, g, candidates, search):
        fast, plain = SearchBudget(10**9), SearchBudget(10**9)
        found = search(fast)
        assert found == oracle_embed_search(h, g, candidates, plain)
        assert fast.used <= plain.used
        shared = SearchBudget(fast.used + 7, used=7)
        assert search(shared) == found and shared.used == fast.used + 7
        if fast.used:
            short = SearchBudget(fast.used + 6, used=7)
            with pytest.raises(SearchBudgetExceeded) as exc:
                search(short)
            assert exc.value.nodes == short.used == fast.used + 7

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(7), small_graphs(14))
    def test_induced(self, h, g):
        self.check(h, g, [g.mask] * h.n, lambda b: induced_embed(h, g, b))

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(7), small_graphs(14), st.sampled_from(LABEL_ORDERS), st.data())
    def test_labelled(self, h, g, order, data):
        labels = st.sampled_from(order.elements)
        lh = LabelledGraph(h, tuple(data.draw(labels) for _ in range(h.n)))
        lg = LabelledGraph(g, tuple(data.draw(labels) for _ in range(g.n)))
        candidates = [
            sum(1 << w for w in range(g.n) if order.leq(a, lg.labels[w]))
            for a in lh.labels
        ]
        self.check(h, g, candidates, lambda b: labelled_embed(lh, lg, order, b))

    @settings(max_examples=300, deadline=None)
    @given(symmetric_graphs(9), st.one_of(small_graphs(14), symmetric_graphs()))
    def test_induced_symmetric(self, h, g):
        self.check(h, g, [g.mask] * h.n, lambda b: induced_embed(h, g, b))

    def test_labels_break_symmetry(self):
        # The two pattern vertices are twins, but only the second may take a
        # host vertex labelled 0, and the embeddings found map the first
        # pattern vertex above the second.  In the second host the first four
        # root candidates fail, which is as many nodes as a 2-vertex
        # pattern's symmetry detection may take.
        chain = QuasiOrder.from_pairs((1, 0), [(1, 0)])
        h = LabelledGraph(empty_graph(2), (1, 0))
        g = LabelledGraph(empty_graph(2), (0, 1))
        assert labelled_embed(h, g, chain) == (1, 0)
        g = LabelledGraph(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]), (0, 1, 1, 1, 1))
        budget = SearchBudget(10**9)
        assert labelled_embed(h, g, chain, budget) == (4, 0)
        assert budget.used == 6

    @pytest.mark.parametrize("pattern, host, nodes, oracle_nodes", PINNED, ids=PINNED_IDS)
    def test_pinned_nodes(self, pattern, host, nodes, oracle_nodes):
        h = build(pattern)
        fast, plain = SearchBudget(10**9), SearchBudget(10**9)
        assert induced_embed(h, host, fast) is None
        assert oracle_embed_search(h, host, [host.mask] * h.n, plain) is None
        assert (fast.used, plain.used) == (nodes, oracle_nodes)
        assert oracle_room(h, host) == (nodes > 0)


class TestSearchAgainstLists:
    """The packed search against the search on one candidate mask per later
    position that it replaced: the same assignment, the same nodes, and an
    exhausted budget at the same node."""

    @staticmethod
    def check(h, g, candidates, search, data):
        def outcome(run, limit):
            budget = SearchBudget(limit, used=3)
            try:
                found = run(budget)
            except SearchBudgetExceeded as exc:
                found = ("exhausted", exc.nodes)
            return found, budget.used

        def reference(budget):
            return oracle_embed_exact(h, g, candidates, budget)

        full = outcome(search, 10**9)
        assert full == outcome(reference, 10**9)
        limit = data.draw(st.integers(3, full[1]), label="limit")
        assert outcome(search, limit) == outcome(reference, limit)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(7), small_graphs(14), st.data())
    def test_induced(self, h, g, data):
        self.check(h, g, None, lambda b: induced_embed(h, g, b), data)

    @settings(max_examples=200, deadline=None)
    @given(symmetric_graphs(9), st.one_of(small_graphs(14), symmetric_graphs()), st.data())
    def test_induced_symmetric(self, h, g, data):
        self.check(h, g, None, lambda b: induced_embed(h, g, b), data)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(7), small_graphs(14), st.sampled_from(LABEL_ORDERS), st.data())
    def test_labelled(self, h, g, order, data):
        labels = st.sampled_from(order.elements)
        lh = LabelledGraph(h, tuple(data.draw(labels) for _ in range(h.n)))
        lg = LabelledGraph(g, tuple(data.draw(labels) for _ in range(g.n)))
        candidates = [
            sum(1 << w for w in range(g.n) if order.leq(a, lg.labels[w]))
            for a in lh.labels
        ]
        self.check(h, g, candidates, lambda b: labelled_embed(lh, lg, order, b), data)

    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(
            small_graphs(7),
            symmetric_graphs(9),
            st.sampled_from([gen_thm51(2), gen_thm52(3)]),
        ),
        st.sampled_from(["thm51-16", "thm52-15", "cycle", "random"]),
        st.data(),
    )
    def test_large_hosts(self, h, kind, data):
        # 60 to 64 host vertices: fields 61 to 65 bits wide, up to 63 of them
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        if kind == "thm51-16":
            g = gen_thm51(16)
        elif kind == "thm52-15":
            g = gen_thm52(15)
        elif kind == "cycle":
            g = cycle_graph(rng.randint(60, 64))
        else:
            g = random_graph(rng, rng.randint(60, 64), rng.choice((0.1, 0.5, 0.9)))
        h = relabel(h, rng.sample(range(h.n), h.n))
        g = relabel(g, rng.sample(range(g.n), g.n))
        self.check(h, g, None, lambda b: induced_embed(h, g, b), data)


@st.composite
def circulants(draw, max_n=7):
    """A circulant graph on 1 to ``max_n`` vertices: i ~ i + s (mod n) for
    each s of a drawn set of steps.  Every circulant is regular."""
    n = draw(st.integers(1, max_n))
    steps = draw(st.sets(st.integers(1, n // 2))) if n > 1 else ()
    return Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in steps])


@st.composite
def room_pairs(draw):
    """A pattern and a host on at most 7 vertices each: the pattern random
    or regular; the host random, regular, disconnected, the pattern beside
    another graph, or of the pattern's order."""
    h = draw(st.one_of(small_graphs(7), circulants()))
    kind = draw(st.sampled_from(("random", "regular", "disconnected", "beside", "equal")))
    if kind == "random":
        g = draw(small_graphs(7))
    elif kind == "regular":
        g = draw(circulants())
    elif kind == "disconnected":
        parts = [draw(st.one_of(small_graphs(4), circulants(4))) for _ in range(2)]
        g = disjoint_union(parts)
    elif kind == "beside":
        g = disjoint_union([h, draw(st.one_of(small_graphs(7 - h.n), circulants(max(1, 7 - h.n))))])
    else:
        pairs = list(combinations(range(h.n), 2))
        bits = draw(pair_bits(len(pairs)))
        g = Graph.from_edges(h.n, [p for p, b in zip(pairs, bits) if b])
    return h, g


# Counting cases, each refused by a mutant of the room check: a tight
# count in a disconnected host (K2 in K2+K1) and in a connected one (C4 in
# C5), which only the host's own connectivity tells apart, a sum over the
# smallest host degrees (P3 in the claw), and equal orders, degree sums and
# degree sets with unequal degree multisets.
ROOM_EXAMPLES = [
    (build("K2"), build("K2+K1")),
    (cycle_graph(4), cycle_graph(5)),
    (build("C3"), build("C3+P2")),
    (build("P3"), build("K1,3")),
    (
        Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)]),
    ),
]


def room_examples(test):
    for pair in ROOM_EXAMPLES:
        test = example(pair)(test)
    return test


class TestRoom:
    """The room check: 2m(h) against the n(h) largest host degrees, strictly
    in a connected larger host, and the degree multisets on equal orders.
    ``oracle_room`` restates it from sorted degree lists."""

    @settings(max_examples=300, deadline=None)
    @given(room_pairs())
    @room_examples
    def test_refusal_is_sound(self, pair):
        h, g = pair
        if not oracle_room(h, g):
            assert oracle_embed(h, g) is None

    @settings(max_examples=300, deadline=None)
    @given(room_pairs())
    @room_examples
    def test_same_answer_as_slow_path(self, pair):
        # The room check reads the host's degree facts from its record, so
        # the host is asked again as an equal copy (which finds the same
        # record) and once more after the records are dropped.
        h, g = pair
        fast, slow = SearchBudget(10**9), SearchBudget(10**9)
        found = induced_embed(h, g, fast)
        assert found == oracle_embed_exact(h, g, None, slow, room=False)
        assert fast.used <= slow.used
        again = SearchBudget(10**9)
        assert induced_embed(h, Graph(g.n, g.rows), again) == found and again.used == fast.used
        _record.cache_clear()
        again = SearchBudget(10**9)
        assert induced_embed(h, g, again) == found and again.used == fast.used

    @settings(max_examples=300, deadline=None)
    @given(room_pairs())
    @room_examples
    def test_refused_at_no_node(self, pair):
        # even under a zero budget, for plain and labelled patterns alike
        h, g = pair
        if not oracle_room(h, g):
            one = QuasiOrder.from_pairs(("a",), ())
            budget = SearchBudget(0)
            assert induced_embed(h, g, budget) is None
            plain = LabelledGraph(h, ("a",) * h.n), LabelledGraph(g, ("a",) * g.n)
            assert labelled_embed(*plain, one, budget) is None
            assert budget.used == 0

    def test_refusals_counted(self):
        # every ordered pair of graphs on at most 5 vertices: the refusals
        # agree with the brute force, and are pinned, so none is vacuous
        graphs = [g for n in range(6) for g in nonisomorphic_graphs(n)]
        refused = {True: 0, False: 0}
        for h in graphs:
            for g in graphs:
                if h.n <= g.n and not oracle_room(h, g):
                    refused[h.n == g.n] += 1
                    assert oracle_embed(h, g) is None
                    budget = SearchBudget(0)
                    assert induced_embed(h, g, budget) is None and budget.used == 0
        # 53 graphs; refused: 125 pairs with a smaller pattern, 1,240 of
        # equal order (of the 1,246 non-isomorphic equal-order pairs)
        assert (len(graphs), refused[False], refused[True]) == (53, 125, 1240)

    def test_cycles_at_no_node(self):
        # every proper induced subgraph of a cycle is a linear forest
        for s in range(3, 17):
            for l in range(s + 1, 18):
                budget = SearchBudget(0)
                assert induced_embed(cycle_graph(s), cycle_graph(l), budget) is None


@st.composite
def symmetric_hosts(draw, max_n=20):
    """A relabelled cycle, biclique, disjoint union of copies of a small
    graph, 2-lift of a small graph (each edge uv becomes u0v0 and u1v1, or
    u0v1 and u1v0) or thm51/thm52 member, on at most ``max_n`` vertices."""
    kind = draw(st.sampled_from(("cycle", "biclique", "copies", "lift", "member")))
    if kind == "cycle":
        g = cycle_graph(draw(st.integers(3, max_n)))
    elif kind == "biclique":
        g = biclique(draw(st.integers(1, max_n // 2)), draw(st.integers(1, max_n // 2)))
    elif kind == "copies":
        part = draw(small_graphs(5).filter(lambda g: g.n))
        g = disjoint_union([part] * draw(st.integers(1, max_n // part.n)))
    elif kind == "lift":
        base = draw(small_graphs(max_n // 2))
        k = base.n
        edges = []
        for u, v in base.edges():
            if draw(st.booleans()):
                edges += [(u, v + k), (u + k, v)]
            else:
                edges += [(u, v), (u + k, v + k)]
        g = Graph.from_edges(2 * k, edges)
    else:
        g = draw(st.sampled_from([gen_thm51(2), gen_thm51(3), gen_thm52(3), gen_thm52(4)]))
    return relabel(g, draw(st.permutations(range(g.n))))


class TestHostOrbits:
    """Roots that failed before the lex-leader constraints start, and every
    root that fails after, drop the roots in their host orbits: the same
    embedding as every reference, the nodes of the exact reference, and
    never more nodes than without the pruning or with the pruning started
    only once n(h)**2 nodes are spent."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(small_graphs(7), symmetric_graphs(9)), symmetric_hosts(), st.data())
    def test_symmetric_hosts(self, h, g, data):
        def search(budget):
            return induced_embed(h, g, budget)

        TestSearchAgainstOracle.check(h, g, [g.mask] * h.n, search)
        TestSearchAgainstLists.check(h, g, None, search, data)
        pruned, unpruned = SearchBudget(10**9), SearchBudget(10**9)
        assert search(pruned) == oracle_embed_exact(h, g, None, unpruned, host_orbits=False)
        assert pruned.used <= unpruned.used

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(small_graphs(7), symmetric_graphs(9)), symmetric_hosts())
    def test_never_more_nodes_than_the_square_trigger(self, h, g):
        # The projected trigger fires at the same failed root as the n(h)**2
        # one or earlier, and from then on drops the orbits of later failed
        # roots too, so the roots searched are a subset of the earlier
        # rule's, each under the same constraints or more.
        projected, square = SearchBudget(10**9), SearchBudget(10**9)
        found = induced_embed(h, g, projected)
        assert found == oracle_embed_exact(h, g, None, square, projected=False)
        assert projected.used <= square.used

    @pytest.mark.parametrize("seed", range(5))
    def test_every_root_pruned(self, seed):
        # Each vertex of C10 is in one orbit, so once the first roots fail
        # and the constraints start, no root is left.  The room check leaves
        # C7+P1 to the search.
        rng = random.Random(seed)
        h = build("C7+P1")
        g = relabel(cycle_graph(10), rng.sample(range(10), 10))
        assert oracle_room(h, g)
        pruned, unpruned = SearchBudget(10**9), SearchBudget(10**9)
        assert induced_embed(h, g, pruned) is None
        assert oracle_embed_exact(h, g, None, unpruned, host_orbits=False) is None
        assert 0 < pruned.used < unpruned.used

    def test_twin_classes(self):
        # false twins (equal rows) in K2,3 and true twins (equal closed rows)
        # in K3 + P2; a graph without twins has none
        assert _twins(biclique(2, 3)) == (0b00011,) * 2 + (0b11100,) * 3
        assert _twins(build("K3+P2")) == (0b00111,) * 3 + (0b11000,) * 2
        assert _twins(cycle_graph(5)) is None


class TestLexLeader:
    """The constraints the search takes from the pattern's automorphisms."""

    @staticmethod
    def constrained(h):
        bounds = _record(h).chain.bounds
        return [tuple(i + 1 + j for j in b or ()) for i, b in enumerate(bounds)]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(small_graphs(7), symmetric_graphs(7)))
    def test_equal_stabiliser_orbits(self, h):
        assert self.constrained(h) == oracle_lex_orbits(h, _record(h).order)

    def test_refinement_alone_is_no_proof(self):
        # A 4-regular graph on 9 vertices in which individualised partitions
        # refine alike although no automorphism maps one onto the other: the
        # bijection read off them must be checked.
        h = decode_graph6("HHUmdjI")
        assert self.constrained(h) == oracle_lex_orbits(h, _record(h).order)

    @pytest.mark.parametrize(
        "big, small, host",
        [
            (cycle_graph(64), cycle_graph(10), cycle_graph(13)),
            (gen_thm51(16), gen_thm51(2), gen_thm51(3)),
            (gen_thm52(16), gen_thm52(3), gen_thm52(4)),
            (paley(61), paley(13), paley(17)),
            (biclique(32, 32), biclique(4, 4), build("K4,5+P3")),
            (
                disjoint_union([complete_graph(4)] * 16),
                disjoint_union([complete_graph(4)] * 3),
                build("2K4+K3+P4"),
            ),
        ],
        ids=["C64", "thm51-16", "thm52-16", "paley-61", "K32,32", "16K4"],
    )
    def test_detection_bounded(self, big, small, host):
        """Detection on a relabelled 61- or 64-vertex graph stays within
        n(h)**2 nodes and finds constraints; a smaller graph of the same kind
        gives the oracle's embedding into a relabelled host."""
        rng = random.Random(big.n)
        h = relabel(big, rng.sample(range(big.n), big.n))
        found = _record(h).chain
        assert 0 < found.nodes <= h.n**2
        assert found.bounds[0] is not None
        h = relabel(small, rng.sample(range(small.n), small.n))
        g = relabel(host, rng.sample(range(host.n), host.n))
        assert _record(h).chain.bounds[0] is not None
        TestSearchAgainstOracle.check(h, g, [g.mask] * h.n, lambda b: induced_embed(h, g, b))


def two_switched(g, data):
    """``g`` with one 2-switch drawn from ``data``: edges ab and cd, with ac
    and bd not edges, become ac and bd, so every degree stays; ``g`` itself
    if no such pair of edges exists."""
    rows, edges = g.rows, g.edges()
    switches = [
        (a, b, c, d)
        for u, v in edges
        for a, b in ((u, v), (v, u))
        for c, d in edges
        if len({a, b, c, d}) == 4 and not rows[a] >> c & 1 and not rows[b] >> d & 1
    ]
    if not switches:
        return g
    a, b, c, d = data.draw(st.sampled_from(switches))
    kept = set(edges) - {tuple(sorted(e)) for e in ((a, b), (c, d))}
    return Graph.from_edges(g.n, kept | {(a, c), (b, d)})


class TestAgainstOldPaths:
    """The bijection check, the one-plane split of the refinement and the
    plan's packed words against the paths they replaced (kept in
    ``oracles``)."""

    @staticmethod
    def chain(g):
        """The individualisation chain of ``g``, without a detection."""
        record = _record(g)
        return _Chain(g.rows, record.order, record.refinement[0])

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(7), st.data())
    def test_bijection(self, g, data):
        chain = self.chain(g)
        phi = data.draw(st.permutations(range(g.n)))
        kind = data.draw(st.sampled_from(("relabelled", "switched", "added", "other")))
        if kind == "relabelled":
            target = g
        elif kind == "switched":
            target = two_switched(g, data)
        elif kind == "added":
            non_edges = [(u, v) for u, v in combinations(range(g.n), 2) if not g.adjacent(u, v)]
            added = data.draw(st.lists(st.sampled_from(non_edges), max_size=3)) if non_edges else []
            target = Graph.from_edges(g.n, g.edges() + added)
        else:
            target = data.draw(small_graphs(7).filter(lambda t: t.n == g.n))
        target = relabel(target, phi)
        # the discrete end of the chain mapped through phi, or through another map
        psi = data.draw(st.sampled_from([phi, data.draw(st.permutations(range(g.n)))]))
        cells = [1 << psi[cell.bit_length() - 1] for cell in chain.chain[-1]]
        found = chain.bijection(target.rows, cells)
        assert (found is not None) == oracle_image_rows(g.rows, target.rows, psi)
        if found is not None:
            assert found == list(psi)
            assert oracle_isomorphic(g, target)
        if kind == "relabelled" and psi is phi:
            assert found == list(phi)

    def test_bijection_keeps_degrees(self):
        # Under the identity every edge of P3 maps onto an edge of K3, yet
        # the two are not isomorphic: the degrees tell them apart.
        p3 = build("P3")
        chain = self.chain(p3)
        assert chain.bijection(build("K3").rows, chain.chain[-1]) is None
        assert chain.bijection(p3.rows, chain.chain[-1]) == [0, 1, 2]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(small_graphs(10), symmetric_hosts(16)), st.data())
    def test_refine(self, g, data):
        """From an ordered partition drawn at random, then along random
        individualisations, each refined once plainly and once against the
        trace of another vertex of the same cell: the cells, trace, queue
        and result of the general split."""

        def both(cells, queue, expect=None):
            got, want = (cells.copy(), queue.copy(), []), (cells.copy(), queue.copy(), [])
            assert _refine(g.rows, *got, expect) == oracle_refine(g.rows, *want, expect)
            assert got == want
            return got

        if not g.n:
            return
        parts = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        cells = [sum(1 << v for v in range(g.n) if parts[v] == k) for k in range(4)]
        cells = [cell for cell in cells if cell]
        queue = data.draw(st.permutations(range(len(cells))))
        cells = both(cells, list(queue))[0]
        while len(cells) < g.n:
            x = data.draw(st.sampled_from([x for x, c in enumerate(cells) if c & (c - 1)]))
            v, w = data.draw(
                st.lists(st.sampled_from(bits_of(cells[x])), min_size=2, max_size=2, unique=True)
            )
            split = cells.copy()
            split[x] ^= 1 << v
            other = cells.copy()
            other[x] ^= 1 << w
            cells, _, expect = both(split + [1 << v], [len(cells)])
            both(other + [1 << w], [len(other)], expect)

    @staticmethod
    def words(h, ng):
        """The packed words the search builds for ``h`` on ``ng`` host
        vertices.  A host that holds ``h`` passes the room check, and the
        words are built before the first node, where a zero budget stops."""
        with pytest.raises(SearchBudgetExceeded):
            induced_embed(h, disjoint_union([h, empty_graph(ng - h.n)]), SearchBudget(0))
        return _record(h).plan[4][ng]

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(9).filter(lambda h: h.n), st.integers(0, 12))
    def test_words(self, h, extra):
        ng = h.n + extra
        assert self.words(h, ng) == oracle_words(h, ng)
        order, _, _, last_pair_adjacent, _ = _record(h).plan
        assert last_pair_adjacent == (h.n >= 2 and h.adjacent(order[-2], order[-1]))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 24),
        st.sampled_from((0.0, 0.15, 0.5, 0.85, 1.0)),
        st.randoms(use_true_random=False),
        st.integers(0, 64),
    )
    def test_words_up_to_64_vertices(self, nh, density, rng, extra):
        """Words spread onto the field feet by one product equal those
        built pair by pair, for patterns up to 24 vertices, dense ones
        included, and hosts up to 64."""
        h = random_graph(rng, nh, density)
        ng = min(64, nh + extra)
        assert self.words(h, ng) == oracle_words(h, ng)


def shrikhande():
    """The Shrikhande graph: Z4 x Z4, each vertex adjacent to those that
    differ by +-(0, 1), +-(1, 0) or +-(1, 1)."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return Graph.from_edges(
        16,
        [
            (u, v)
            for u, v in combinations(range(16), 2)
            if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps
        ],
    )


def cube():
    """The 3-cube, 3-regular on 8 vertices."""
    return Graph.from_edges(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1])


def moebius_ladder():
    """The Moebius ladder on 8 vertices, 3-regular like the cube."""
    return Graph.from_edges(8, [(u, (u + 1) % 8) for u in range(8)] + [(u, u + 4) for u in range(4)])


def cfi_k4(twisted: bool):
    """The Cai-Fürer-Immerman graph over K4 (40 vertices), with one edge's
    pairs crossed when ``twisted``: the two are not isomorphic, yet
    individualisation and refinement treat them alike down to discrete
    partitions."""
    ids: dict = {}

    def vertex(name):
        return ids.setdefault(name, len(ids))

    base = list(combinations(range(4), 2))
    edges = []
    for v in range(4):
        mine = [e for e in base if v in e]
        for size in (0, 2):
            for even in combinations(mine, size):
                for e in mine:
                    edges.append((vertex(("m", v, even)), vertex(("a", v, e, e in even))))
    for e in base:
        u, v = e
        for side in (False, True):
            cross = side != (twisted and e == base[0])
            edges.append((vertex(("a", u, e, side)), vertex(("a", v, e, cross))))
    return Graph.from_edges(len(ids), edges)


def clear_tables():
    """Empty the per-graph records and the class table."""
    _record.cache_clear()
    _CLASSES.clear()


def cold(g):
    """``g``'s own detection, with the records and the class table emptied
    first."""
    clear_tables()
    return _record(g).chain


@contextmanager
def detections():
    """A one-item list counting the full detections run inside the block."""
    ran = [0]
    detect = _Chain.detect

    def counted(chain):
        ran[0] += 1
        return detect(chain)

    _Chain.detect = counted
    try:
        yield ran
    finally:
        _Chain.detect = detect


CLASS_GRAPHS = st.one_of(
    symmetric_hosts(),
    st.sampled_from([paley(13), gen_thm51(6), gen_thm52(12), cycle_graph(40)]),
)


class TestClasses:
    """One full detection per isomorphism class on the host side: a copy of
    a class whose detection finished reads the orbits of its own detection
    without running it, a graph of another class with the same key runs its
    own, a detection that ran out stands for no class, and a known class
    never adds a search node.  A pattern's constraints come from its own
    detection, whatever the class table holds."""

    @settings(max_examples=200, deadline=None)
    @given(CLASS_GRAPHS, st.data())
    def test_copies_read_their_own_detection(self, g, data):
        first = relabel(g, data.draw(st.permutations(range(g.n)), label="first"))
        copy = relabel(g, data.draw(st.permutations(range(g.n)), label="copy"))
        own = cold(copy)
        assert own.nodes <= g.n**2
        cold(first)
        stored = _degree_refinement(first.rows)[1] in _CLASSES
        twins = _twins(copy)
        with detections() as ran:
            orbits = _record(copy).host_orbits
        # twins need no detection, a match none either, and a copy equal to
        # the first graph reads that graph's memoised detection
        assert ran == [0 if stored or twins or copy == first else 1]
        assert orbits == (twins or own.orbits)

    @settings(max_examples=200, deadline=None)
    @given(CLASS_GRAPHS, st.data())
    def test_own_detection_whatever_the_table_holds(self, g, data):
        h = relabel(g, data.draw(st.permutations(range(g.n)), label="h"))
        empty = cold(h)
        clear_tables()
        for _ in range(2):
            other = relabel(g, data.draw(st.permutations(range(g.n)), label="other"))
            _record(other).chain
            _record(other).host_orbits
        _record.cache_clear()
        with detections() as ran:
            warm = _record(h).chain
        assert ran == [1]
        assert (warm.bounds, warm.orbits, warm.nodes) == (empty.bounds, empty.orbits, empty.nodes)

    @pytest.mark.parametrize(
        "a, b",
        [
            (cycle_graph(6), build("2K3")),
            (cube(), moebius_ladder()),
            (cfi_k4(False), cfi_k4(True)),
        ],
        ids=["C6-2K3", "cube-ladder", "CFI-K4"],
    )
    def test_same_key_other_class(self, a, b):
        rng = random.Random(a.n)
        a, b = (relabel(g, rng.sample(range(g.n), g.n)) for g in (a, b))
        key = _degree_refinement(a.rows)[1]
        assert _degree_refinement(b.rows)[1] == key
        for first, other in ((a, b), (b, a)):
            own = cold(other)
            cold(first)
            assert _CLASSES[key].rows == first.rows
            # 2K3 has twins, so no detection runs for its host orbits
            twins = _twins(other)
            with detections() as ran:
                orbits = _record(other).host_orbits
            assert ran == [0 if twins else 1]
            assert orbits == (twins or own.orbits)

    @pytest.mark.parametrize(
        "stored, host",
        [(None, cfi_k4(False)), (cube(), moebius_ladder()), (cfi_k4(False), cfi_k4(True))],
        ids=["no-representative", "cube-ladder", "CFI-K4"],
    )
    def test_one_degree_refinement_per_host(self, stored, host, monkeypatch):
        # A twin-free host of a new class, with no representative or one its
        # match misses, runs its own detection for its orbits: the two share
        # one degree refinement.
        rng = random.Random(host.n)
        host = relabel(host, rng.sample(range(host.n), host.n))
        assert _twins(host) is None
        clear_tables()
        if stored is not None:
            _record(stored).chain
            assert _degree_refinement(host.rows)[1] in _CLASSES
        refined = []
        monkeypatch.setattr(
            "wqograph.order._degree_refinement",
            lambda rows: refined.append(rows) or _degree_refinement(rows),
        )
        with detections() as ran:
            record = _record(host)
            orbits = record.host_orbits
            chain = record.chain
        assert ran == [1] and orbits == chain.orbits
        assert refined == [host.rows]

    @settings(max_examples=100, deadline=None)
    @given(CLASS_GRAPHS, st.data())
    def test_either_field_first(self, g, data):
        # A fresh record's host orbits and detection, read in either order,
        # with or without its class stored, equal a cold detection's, and
        # leave the refinement they share as it was.
        first = relabel(g, data.draw(st.permutations(range(g.n)), label="first"))
        h = relabel(g, data.draw(st.permutations(range(g.n)), label="h"))
        stored = data.draw(st.booleans(), label="stored")
        own = cold(h)
        for chain_first in (False, True):
            clear_tables()
            if stored:
                _record(first).chain
            record = _Record(h)
            cells = list(record.refinement[0])
            if chain_first:
                chain = record.chain
                orbits = record.host_orbits
            else:
                orbits = record.host_orbits
                chain = record.chain
            assert (chain.orbits, chain.bounds, chain.nodes) == (own.orbits, own.bounds, own.nodes)
            assert orbits == (_twins(h) or own.orbits)
            assert record.refinement[0] == cells

    def test_unfinished_detection_stands_for_no_class(self):
        # Four disjoint Shrikhande graphs: the detection of one labelling
        # runs out at 64**2 nodes, that of another finishes.
        g = disjoint_union([shrikhande()] * 4)
        runs_out, finishes = (relabel(g, random.Random(s).sample(range(64), 64)) for s in (4, 0))
        assert _twins(runs_out) is None
        partial = cold(runs_out)
        assert partial.nodes == 64**2
        assert not _CLASSES
        with detections() as ran:
            whole = _record(finishes).chain
        assert ran == [1] and whole.nodes < 64**2
        assert _CLASSES
        # As a host, a copy whose own detection runs out reads the whole
        # group's orbits once its class is known: orbits that contain its
        # own.  As a pattern it keeps its own detection.
        with detections() as ran:
            found = _record(runs_out).host_orbits
        assert ran == [0]
        assert all(o & ~f == 0 for o, f in zip(partial.orbits, found))
        assert found != partial.orbits
        assert _record(runs_out).chain is partial

    def test_known_class_never_adds_nodes(self):
        # K4 is not in the Shrikhande graph.  Searched for in a copy whose
        # own detection runs out, it drops the roots in the whole group's
        # orbits once the class is known, so never spends more nodes than
        # with an empty table; here it spends fewer.
        g = disjoint_union([shrikhande()] * 4)
        runs_out, finishes = (relabel(g, random.Random(s).sample(range(64), 64)) for s in (4, 0))
        h = build("K4")
        used = []
        for warm in (False, True):
            cold(finishes if warm else runs_out)
            budget = SearchBudget(10**9)
            assert induced_embed(h, runs_out, budget) is None
            used.append(budget.used)
        cold_nodes, warm_nodes = used
        assert warm_nodes <= cold_nodes
        assert (cold_nodes, warm_nodes) == (135, 7)

    @pytest.mark.parametrize("pattern, host, nodes, oracle_nodes", PINNED, ids=PINNED_IDS)
    def test_pinned_nodes_after_warming(self, pattern, host, nodes, oracle_nodes):
        # These graphs' detections finish, so their node counts repeat
        # whatever the class table holds.
        h = build(pattern)
        rng = random.Random(nodes)
        for warm in (False, True):
            clear_tables()
            if warm:
                for g in (h, host) * 3:
                    _record(relabel(g, rng.sample(range(g.n), g.n))).chain
                _record.cache_clear()
            budget = SearchBudget(10**9)
            assert induced_embed(h, host, budget) is None
            assert budget.used == nodes


class TestLabelledEmbed:
    def test_equal_labels_reduce_to_plain(self):
        rng = random.Random(2)
        order = QuasiOrder.from_pairs(("a",), ())
        for _ in range(200):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 6))
            lh = LabelledGraph(h, ("a",) * h.n)
            lg = LabelledGraph(g, ("a",) * g.n)
            assert (labelled_embed(lh, lg, order) is None) == (
                induced_embed(h, g) is None
            )

    def test_incomparable_labels_block(self):
        order = QuasiOrder.from_pairs(("a", "b"), ())
        h = LabelledGraph(empty_graph(1), ("a",))
        g = LabelledGraph(empty_graph(1), ("b",))
        assert labelled_embed(h, g, order) is None

    def test_unknown_label_rejected(self):
        order = QuasiOrder.from_pairs(("a",), ())
        h = LabelledGraph(empty_graph(1), ("z",))
        g = LabelledGraph(empty_graph(1), ("a",))
        with pytest.raises(ValueError):
            labelled_embed(h, g, order)


class TestQuasiOrder:
    def test_transitivity_checked(self):
        with pytest.raises(ValueError):
            QuasiOrder(("a", "b", "c"), frozenset(
                [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
            ))

    def test_reflexivity_checked(self):
        with pytest.raises(ValueError):
            QuasiOrder(("a", "b"), frozenset([("a", "a")]))

    def test_doubled_keeps_copies_incomparable(self):
        order = QuasiOrder.from_pairs(("lo", "hi"), [("lo", "hi")])
        doubled = order.doubled()
        assert doubled.leq((0, "lo"), (0, "hi"))
        assert not doubled.leq((0, "lo"), (1, "hi"))


class TestIsFree:
    def test_c5_triangle_free(self):
        assert is_free(build("C5"), [build("K3")]).free

    def test_k5_is_diamond_free(self):
        # every induced 4-vertex subgraph of a clique is complete, so the
        # diamond (one missing edge) never appears; confirmed by enumeration
        k5, diamond = build("K5"), build("co(2P1+P2)")
        assert all(
            oracle_embed(diamond, induced(k5, s)) is None
            for s in combinations(range(5), 4)
        )
        assert is_free(k5, [diamond]).free

    def test_witness_returned(self):
        res = is_free(build("P6"), [build("P4")])
        assert not res.free and len(res.witness) == 4

    def test_thm51_member_p6_free(self):
        assert is_free(gen_thm51(3), [build("P6")]).free

    def test_hereditary_consistency(self):
        rng = random.Random(3)
        patterns = [build("P4"), build("K3")]
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            if is_free(g, patterns).free:
                s = [v for v in range(g.n) if rng.random() < 0.6]
                assert is_free(induced(g, s), patterns).free


def _relabelled(expr, perm):
    h = build(expr)
    return Graph.from_edges(h.n, [(perm[u], perm[v]) for u, v in h.edges()])


# The patterns the decider knows, and relabelled copies of the diamond and
# of P2+P3: it knows a pattern by its degree sequence, whatever the labels.
DECIDED_PATTERNS = [
    build(expr) for expr in ("K1", "K2", "K3", "K4", "K5", "P3", "co(2P1+P2)", "P2+P3")
] + [
    _relabelled("co(2P1+P2)", (2, 0, 3, 1)),
    _relabelled("co(2P1+P2)", (3, 1, 0, 2)),
    _relabelled("P2+P3", (4, 2, 0, 3, 1)),
    _relabelled("P2+P3", (1, 3, 4, 0, 2)),
]


@st.composite
def family_hosts(draw):
    """A thm51 or thm52 member, half of the time with one vertex pair
    toggled."""
    family = draw(st.sampled_from(("thm51", "thm52")))
    g = family_member(family, draw(st.integers(2 if family == "thm51" else 3, 12)))
    if draw(st.booleans()):
        u, v = sorted(draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True)))
        g = Graph.from_edges(g.n, sorted(set(g.edges()) ^ {(u, v)}))
    return g


@st.composite
def twin_rich_hosts(draw, max_n=20):
    """A graph on at most 8 vertices with each vertex blown up into 1 to 4
    true or false twins, at most ``max_n`` vertices in all."""
    base = draw(small_graphs(8))
    blocks, start = [], 0
    for v in range(base.n):
        size = draw(st.integers(1, min(4, max_n - start - (base.n - v - 1))))
        blocks.append((range(start, start + size), draw(st.booleans())))
        start += size
    edges = [
        (x, y)
        for u, (xs, true_twins) in enumerate(blocks)
        for v, (ys, _) in enumerate(blocks[u:], u)
        if (true_twins if u == v else base.adjacent(u, v))
        for x in xs
        for y in ys
        if x < y
    ]
    return Graph.from_edges(start, edges)


class TestSplitFree:
    """The freeness decider says what the embedding search says, and a
    free verdict from it spends no node."""

    @staticmethod
    def check(h, g):
        free = induced_embed(h, g) is None
        assert _split_free(h, g) == free
        budget = SearchBudget(10**9)
        found = is_free(g, [h], budget)
        assert found.free == free
        assert budget.used == 0 or not free
        if not free:
            assert found.witness == tuple(sorted(induced_embed(h, g)))

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(DECIDED_PATTERNS), small_graphs(11))
    def test_random_hosts(self, h, g):
        self.check(h, g)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(DECIDED_PATTERNS), family_hosts())
    def test_family_hosts(self, h, g):
        self.check(h, g)

    @settings(max_examples=600, deadline=None)
    @given(
        st.sampled_from([h for h in DECIDED_PATTERNS if (h.n, h.edge_count()) == (5, 3)]),
        twin_rich_hosts(),
    )
    def test_twin_rich_hosts(self, h, g):
        """P2+P3 on hosts where many edges leave the same rest."""
        self.check(h, g)

    def test_family_members_free(self):
        # the antichains' own freeness cells, on every member: the diamond
        # is decided, the gem and P1+2P2 are searched
        for n in range(2, 13):
            assert _split_free(build("co(2P1+P2)"), family_member("thm51", n)) is True
        for n in range(3, 13):
            assert is_free(family_member("thm52", n), [build("co(P1+P4)"), build("P1+2P2")]).free

    @pytest.mark.parametrize(
        "expr",
        [
            "P4",
            "P1+P4",
            "co(P1+P4)",
            "P2+P4",
            "P1+P2+P4",
            "P6",
            "C5",
            "C4",
            "co(P2+P3)",
            "6P1",
            "3K2",
            "12P1+12P2+P6",
            "P1+2P2",
            "2K2",
            "3P1",
            "co(P1+P3)",
            "K1,3",
            "K6",
        ],
    )
    def test_patterns_left_to_the_search(self, expr):
        # Only K1 to K5, P3, the diamond and P2+P3 are decided; the paw
        # co(P1+P3), the claw K1,3 and K6 are searched like the rest.
        assert _split_free(build(expr), build("P8")) is None

    def test_family_members_left_to_the_search(self):
        assert _split_free(gen_thm51(3), build("P8")) is None
        assert _split_free(gen_thm52(3), build("P8")) is None

    def test_free_verdict_spends_no_node(self):
        # the search alone needs 13 nodes to show this
        h, g = build("co(2P1+P2)"), gen_thm51(12)
        spent = SearchBudget(10**9)
        assert induced_embed(h, g, spent) is None and spent.used == 13
        budget = SearchBudget(0)
        assert is_free(g, [h], budget).free
        assert budget.used == 0

    def test_budget_ends_where_the_search_ends(self):
        # on a non-free input the search names the witness with the budget
        h, g = build("P2+P3"), gen_thm51(3)
        spent = SearchBudget(10**9)
        assert induced_embed(h, g, spent) is not None
        with pytest.raises(SearchBudgetExceeded) as exc:
            is_free(g, [h], SearchBudget(spent.used - 1))
        assert exc.value.nodes == spent.used

    def test_smaller_host_is_free(self):
        assert _split_free(build("P2+P3"), build("2K2")) is True
        assert _split_free(build("K1"), empty_graph(0)) is True
        assert _split_free(build("K1"), empty_graph(1)) is False


class TestAntichainCheck:
    """No member embeds into a larger one: the antichain checks of
    ``verify_family``, pair by pair."""

    @staticmethod
    def incomparable(graphs):
        return all(induced_embed(a, b) is None for a, b in combinations(graphs, 2))

    def test_cycles(self):
        assert self.incomparable([build(f"C{k}") for k in (4, 5, 6)])

    def test_cycles_4_to_9(self):
        assert self.incomparable([build(f"C{k}") for k in range(4, 10)])

    def test_paths_comparable(self):
        assert induced_embed(build("P3"), build("P4")) is not None

    def test_thm51_pair(self):
        assert induced_embed(gen_thm51(2), gen_thm51(3)) is None


class TestFamilies:
    def test_claw_in_class_s(self):
        assert in_class_S(build("K1,3"))

    def test_cycle_not_in_class_s(self):
        assert not in_class_S(build("C5"))

    def test_mixed_components(self):
        assert in_class_S(build("P7+S1,2,2"))

    def test_two_branch_vertices_rejected(self):
        g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (4, 7)])
        assert not in_class_S(g)

    def test_linear_forest(self):
        assert is_linear_forest(build("2P2"))
        assert is_linear_forest(build("P1+2P2"))
        assert not is_linear_forest(build("K1,3"))
        assert not is_linear_forest(build("C4"))

    # Each test below asserts how many cases it checked, and how many of the
    # kinds that tell the shared forest test apart from the per-component
    # loops: graphs of maximum degree 2 that only a cycle keeps out, and
    # accepted components with a vertex of degree 3.

    def test_linear_forest_against_components(self):
        def check(g):
            verdict = is_linear_forest(g)
            assert verdict == oracle_is_linear_forest(g)
            return verdict, not verdict and max(map(int.bit_count, g.rows), default=0) <= 2

        kinds = counted(forest_like_graphs(14), check, 300)
        assert len(kinds) == 300
        assert sum(v for v, _ in kinds) >= 30 and sum(c for _, c in kinds) >= 5

    def test_class_S_against_components(self):
        def check(g):
            verdict = in_class_S(g)
            assert verdict == oracle_in_class_S(g)
            degrees = [row.bit_count() for row in g.rows]
            cyclic = not verdict and max(degrees, default=0) <= 2
            return verdict, cyclic, verdict and 3 in degrees

        kinds = counted(forest_like_graphs(14), check, 300)
        assert len(kinds) == 300
        assert sum(v for v, _, _ in kinds) >= 30 and sum(v for _, _, v in kinds) >= 10
        assert sum(c for _, c, _ in kinds) >= 5 and sum(not v for v, _, _ in kinds) >= 30
