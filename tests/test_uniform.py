import json
import random
import tracemalloc
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqograph.graphs import Graph, build, complete_graph, decode_graph6, empty_graph, induced
from wqograph.order import SearchBudget, SearchBudgetExceeded, induced_embed
from wqograph.ops import bipartite_complement, subgraph_complement
from wqograph.uniform import (
    UniformTemplate,
    _law_rows,
    UniformWitness,
    WitnessCheck,
    complement_template,
    expand_template,
    is_k_uniform,
    restrict_witness,
    transport_bipartite,
    transport_complement,
    uniformicity,
    verify_witness,
    witness_for_expansion,
)
from oracles import (
    oracle_canonical_templates,
    oracle_complement_template,
    oracle_expand_template,
    oracle_forward_assignment,
    oracle_is_k_uniform,
    oracle_isomorphic,
    oracle_k_uniform,
    oracle_law,
    oracle_slot_error,
    oracle_template_from_json,
    oracle_verify_witness,
)
from strategies import pair_bits, small_graphs


def random_template(rng, kmax=3):
    k = rng.randint(1, kmax)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5]
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            matrix[i][j] = matrix[j][i] = rng.randint(0, 1)
    return UniformTemplate(k, Graph.from_edges(k, edges), tuple(map(tuple, matrix)))


def fields(t: UniformTemplate) -> tuple:
    """A template's order, class-graph order and rows, and matrix."""
    return t.k, t.f.n, t.f.rows, t.matrix


@st.composite
def templates(draw, kmax=4):
    k = draw(st.integers(1, kmax))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = [p for p, b in zip(pairs, draw(pair_bits(len(pairs)))) if b]
    entries = iter(draw(pair_bits(k * (k + 1) // 2)))
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            matrix[i][j] = matrix[j][i] = next(entries)
    return UniformTemplate(k, Graph.from_edges(k, edges), tuple(map(tuple, matrix)))


def restricted_expansion(rng, template, max_n):
    """A random induced subgraph with at most ``max_n`` vertices of an
    expansion of ``template``, with its restricted identity witness."""
    copies = rng.randint(1, max(1, max_n // template.k))
    g = expand_template(template, copies)
    keep = sorted(rng.sample(range(g.n), rng.randint(1, min(g.n, max_n))))
    return induced(g, keep), restrict_witness(witness_for_expansion(template, copies), keep)


class TestExpand:
    def test_edgeless_class(self):
        t = UniformTemplate(1, empty_graph(1), ((0,),))
        assert expand_template(t, 4) == empty_graph(4)

    def test_complemented_class(self):
        t = UniformTemplate(1, empty_graph(1), ((1,),))
        assert expand_template(t, 4) == complete_graph(4)

    def test_disjoint_edges(self):
        t = UniformTemplate(2, build("K2"), ((0, 0), (0, 0)))
        assert oracle_isomorphic(expand_template(t, 3), build("3K2"))

    @settings(max_examples=200, deadline=None)
    @given(templates(kmax=8), st.integers(1, 8))
    def test_equals_pairwise_expansion(self, t, copies):
        """Rows from the row-mask law equal the expansion built pair by pair
        through the slot law, up to 8 classes and 8 copies (64 vertices)."""
        assert expand_template(t, copies) == oracle_expand_template(t, copies)

    @pytest.mark.parametrize("k, copies", [(1, 65), (5, 13), (8, 9), (64, 2)])
    def test_over_cap_refused(self, k, copies):
        t = UniformTemplate(k, empty_graph(k), ((1,) * k,) * k)
        message = f"graph on {k * copies} vertices exceeds the cap of 64"
        with pytest.raises(ValueError, match=message):
            expand_template(t, copies)


# Copy ids as a witness from outside may give them: small ones that collide,
# and unbounded ones, which the slot law keeps in a dict, not a list.
COPY_IDS = st.one_of(st.integers(-1, 3), st.integers(0, 10**12))


class TestVerifyWitness:
    def test_expansion_identity(self):
        rng = random.Random(0)
        for _ in range(30):
            t = random_template(rng)
            copies = rng.randint(1, 3)
            g = expand_template(t, copies)
            assert verify_witness(g, witness_for_expansion(t, copies)).ok

    def test_perturbed_entry_fails(self):
        t = UniformTemplate(2, build("K2"), ((0, 0), (0, 0)))
        g = expand_template(t, 3)
        w = witness_for_expansion(t, 3)
        bad = UniformWitness(t, w.assign[:5] + ((4, 1),))
        res = verify_witness(g, bad)
        assert not res.ok and res.violation is not None

    def test_malformed_rejected(self):
        t = UniformTemplate(1, empty_graph(1), ((0,),))
        g = empty_graph(2)
        with pytest.raises(ValueError):
            verify_witness(g, UniformWitness(t, ((0, 0), (0, 0))))
        with pytest.raises(ValueError):
            verify_witness(g, UniformWitness(t, ((0, 0),)))

    @settings(max_examples=300, deadline=None)
    @given(
        templates(kmax=4),
        st.lists(st.tuples(COPY_IDS, st.integers(-2, 5)), max_size=10),
    )
    def test_malformed_same_message(self, t, assign):
        """Slots out of range or reused: the same first message as the check
        with a set of the slots seen, or none.  The first offending vertex in
        assignment order names it, its range checked before its reuse."""
        try:
            verify_witness(empty_graph(len(assign)), UniformWitness(t, tuple(assign)))
            message = None
        except ValueError as exc:
            message = str(exc)
        assert message == oracle_slot_error(t, assign)

    @settings(max_examples=300, deadline=None)
    @given(templates(kmax=5), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_equals_pairwise_oracle(self, t, copies, rng):
        """Valid witnesses, witnesses with flipped graph pairs and witnesses
        with a vertex moved to another free slot: the same verdict and the
        same first violating pair as the pair-by-pair check."""
        g = expand_template(t, copies)
        keep = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
        g = induced(g, keep)
        w = restrict_witness(witness_for_expansion(t, copies), keep)
        assert verify_witness(g, w) == oracle_verify_witness(g, w) == WitnessCheck(True)
        if g.n > 1:
            edges = set(g.edges())
            for _ in range(rng.randint(1, 3)):
                edges ^= {tuple(sorted(rng.sample(range(g.n), 2)))}
            flipped = Graph.from_edges(g.n, sorted(edges))
            assert verify_witness(flipped, w) == oracle_verify_witness(flipped, w)
        if g.n:
            v = rng.randrange(g.n)
            free = [
                (c, i)
                for c in range(copies + 1)
                for i in range(t.k)
                if (c, i) not in w.assign
            ]
            moved = w.assign[:v] + (rng.choice(free),) + w.assign[v + 1 :]
            bad = UniformWitness(t, moved)
            assert verify_witness(g, bad) == oracle_verify_witness(g, bad)


class TestLawRows:
    """``_law_rows`` (class masks in a list of length k, copy masks in a
    dict) against the pair-by-pair slot law; its slot checks are
    ``TestVerifyWitness.test_malformed_same_message``."""

    @settings(max_examples=300, deadline=None)
    @given(templates(kmax=6), st.data())
    def test_rows_equal_pairwise_law(self, t, data):
        """Each row holds exactly the vertices whose slots the law makes
        adjacent to its own, plus itself iff K(i, i) = 1; a graph built
        from the law passes ``verify_witness``, and one with a pair flipped
        fails at the pair-by-pair check's first violation."""
        slot = st.tuples(COPY_IDS.filter(lambda c: c >= 0), st.integers(0, t.k - 1))
        slots = data.draw(st.lists(slot, max_size=12, unique=True))
        rows = _law_rows(t, slots)
        n = len(slots)
        for u, (cu, i) in enumerate(slots):
            expected = t.matrix[i][i] << u
            for v in range(n):
                if v != u and oracle_law(t, (cu, i), slots[v]):
                    expected |= 1 << v
            assert rows[u] == expected
        g = Graph.from_edges(
            n, [(u, v) for u, v in combinations(range(n), 2) if oracle_law(t, slots[u], slots[v])]
        )
        w = UniformWitness(t, tuple(slots))
        assert verify_witness(g, w) == oracle_verify_witness(g, w) == WitnessCheck(True)
        if n > 1:
            pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            u, v = sorted(data.draw(pair))
            flipped = Graph.from_edges(n, sorted(set(g.edges()) ^ {(u, v)}))
            assert verify_witness(flipped, w) == oracle_verify_witness(flipped, w)
            assert not verify_witness(flipped, w).ok

    def test_huge_copy_id_allocates_nothing_large(self):
        """A copy id of 10**12 is checked and, reused, refused, without an
        allocation sized by the id."""
        t = UniformTemplate(2, build("K2"), ((0, 0), (0, 0)))
        huge = 10**12
        tracemalloc.start()
        try:
            ok = verify_witness(build("K2"), UniformWitness(t, ((huge, 0), (huge, 1))))
            with pytest.raises(ValueError, match=rf"^slot \({huge},1\) assigned twice$"):
                verify_witness(empty_graph(3), UniformWitness(t, ((huge, 1), (0, 1), (huge, 1))))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok == WitnessCheck(True)
        assert peak < 64 * 1024


class TestSearch:
    def test_k3_is_1_uniform(self):
        w = is_k_uniform(build("K3"), 1)
        assert w is not None and w.template.matrix == ((1,),)

    def test_2k2_needs_two(self):
        assert is_k_uniform(build("2K2"), 1) is None
        w = is_k_uniform(build("2K2"), 2)
        assert w is not None and verify_witness(build("2K2"), w).ok

    def test_p3_two_uniform(self):
        w = is_k_uniform(build("P3"), 2)
        assert w is not None and verify_witness(build("P3"), w).ok
        assert oracle_k_uniform(build("P3"), 2)

    def test_no_size_refusal(self):
        for g, k in ((empty_graph(11), 1), (build("3P1"), 4)):
            w = is_k_uniform(g, k)
            assert w is not None and w.template.k == k and verify_witness(g, w).ok

    @pytest.mark.parametrize("k", [0, 65, 10**9])
    def test_order_outside_class_graph_cap_rejected(self, k):
        """k is checked before the k x k modes or the class graph F (at most
        64 vertices) is allocated, and before any node is spent."""
        with pytest.raises(ValueError):
            is_k_uniform(build("P4"), k, budget=SearchBudget(0))

    def test_witnesses_reverify(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(1, 6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph.from_edges(n, edges)
            res = uniformicity(g, 3)
            if res is not None:
                k, w = res
                assert w.template.k == k
                assert verify_witness(g, w).ok


@lru_cache(maxsize=None)
def dedup_templates(k):
    return oracle_canonical_templates(k)


def test_orbit_marked_template_counts():
    """One template per orbit of the class orders: 2, 12, 120 and 3,400 for
    k = 1..4, the counts the least-relabelled-key list had too."""
    assert [len(dedup_templates(k)) for k in (1, 2, 3, 4)] == [2, 12, 120, 3_400]


def template_loop(g, kmax):
    """Uniformicity by slot search alone: the first template of the least
    order, in the permutation-dedup list, with an assignment."""
    for k in range(1, kmax + 1):
        for template in dedup_templates(k):
            found = oracle_forward_assignment(g, template)
            if found is not None:
                return k, UniformWitness(template, found)
    return None


def has_witness(g, k):
    """Whether some template of order k, in the permutation-dedup list, has
    an assignment for ``g``."""
    return any(oracle_forward_assignment(g, t) is not None for t in dedup_templates(k))


def assert_witness(g, k, witness):
    """``witness`` is an order-k witness for ``g`` whose copies open in
    first-use order."""
    assert witness.template.k == k and verify_witness(g, witness).ok
    opened = 0
    for c, _ in witness.assign:
        assert c <= opened
        opened = max(opened, c + 1)


def assert_least_order(g):
    """``uniformicity(g, 3)`` finds the least order that the slot search
    finds, with a witness of that order."""
    found, loop = uniformicity(g, 3), template_loop(g, 3)
    assert (found is None) == (loop is None)
    if found is not None:
        assert found[0] == loop[0]
        assert_witness(g, found[0], found[1])


def assert_decides(g, k):
    """``is_k_uniform`` returns None exactly when the slot search finds no
    assignment over any template of order k, and a witness otherwise."""
    found = is_k_uniform(g, k)
    assert (found is not None) == has_witness(g, k), (g.rows, k)
    if found is not None:
        assert_witness(g, k, found)


@st.composite
def near_uniform_graphs(draw, max_n=9):
    """A restricted expansion of a template of order at most 3 with at most
    ``max_n`` vertices, with at most one vertex pair flipped."""
    t = draw(templates(kmax=3))
    copies = draw(st.integers(1, max(1, max_n // t.k)))
    g = expand_template(t, copies)
    keep = draw(st.lists(st.sampled_from(range(g.n)), min_size=1, max_size=max_n, unique=True))
    g = induced(g, sorted(keep))
    if g.n > 1 and draw(st.booleans()):
        u, v = draw(st.lists(st.sampled_from(range(g.n)), min_size=2, max_size=2, unique=True))
        g = Graph.from_edges(g.n, sorted(set(g.edges()) ^ {(min(u, v), max(u, v))}))
    return g


def assert_budget_exact(search):
    """A budget already holding 7 nodes ends holding the search's nodes on
    top, and one a node short is exhausted at exactly that count."""
    full = SearchBudget(10**9)
    found = search(full)
    shared = SearchBudget(full.used + 7, used=7)
    assert search(shared) == found and shared.used == full.used + 7
    if full.used:
        short = SearchBudget(full.used + 6, used=7)
        with pytest.raises(SearchBudgetExceeded) as exc:
            search(short)
        assert exc.value.nodes == short.used == full.used + 7
    return found, full.used


# Three 8-vertex graphs that split into at most 3 cliques or independent sets
# joined pairwise by a matching or a co-matching, but have no witness of
# order 3, with the nodes ``uniformicity(g, 3)`` spends on them.
NO_WITNESS_NODES = {"Gg?Vns": 231, "GQXdg{": 111, "G`txEc": 94}


# The two 3-uniform graphs with more than 10 vertices on which a slot search
# over the templates in list order spends more than 400,000 nodes on
# templates without an assignment, with the nodes ``uniformicity(g, 3)``
# spends on them.
TAIL_NODES = {
    "O???C???CAG???_Q?????": 137_910,
    "YC?C_??c_???cc???????????????Ccc????cc_O???????cc_S???@?": 98,
}


# Random graphs on 9 and 10 vertices with no witness of order 4, with the
# nodes ``uniformicity(g, 4)`` spends on them.
ORDER_4_REFUTATIONS = {"HTJ_p@i": 887, "Hjbsh~z": 791, r"Icn\w{hY?": 972}


class TestClassPartition:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs(max_n=7), st.integers(1, 3))
    def test_equals_oracle(self, g, k):
        assert_decides(g, k)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(small_graphs(max_n=9), near_uniform_graphs()), st.integers(1, 3))
    def test_equals_witness_search(self, g, k):
        assert_decides(g, k)

    def test_every_graph_to_five_vertices(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
                for k in (1, 2, 3):
                    assert_decides(g, k)

    def test_no_template_loop_without_witness(self):
        for g6, nodes in NO_WITNESS_NODES.items():
            g = decode_graph6(g6)
            assert not has_witness(g, 3)
            assert assert_budget_exact(lambda b: uniformicity(g, 3, budget=b)) == (None, nodes)

    def test_expansions_of_every_template(self):
        rng = random.Random(8)
        for k in (1, 2, 3):
            for template in dedup_templates(k):
                for _ in range(5):
                    g, w = restricted_expansion(rng, template, 10)
                    assert verify_witness(g, w).ok
                    found = is_k_uniform(g, k)
                    assert found is not None
                    assert_witness(g, k, found)

    def test_refutes_random_graphs(self):
        rng = random.Random(9)
        refuted = 0
        for _ in range(20):
            pairs = list(combinations(range(10), 2))
            g = Graph.from_edges(10, rng.sample(pairs, len(pairs) // 2))
            refuted += is_k_uniform(g, 3) is None
        assert refuted >= 15

    @pytest.mark.parametrize("g6", sorted(TAIL_NODES))
    def test_tail_graphs(self, g6):
        g = decode_graph6(g6)
        found, nodes = assert_budget_exact(lambda b: uniformicity(g, 3, budget=b))
        assert found[0] == 3 and nodes == TAIL_NODES[g6]
        assert_witness(g, 3, found[1])

    @pytest.mark.parametrize("g6", sorted(ORDER_4_REFUTATIONS))
    def test_order_4_refutations(self, g6):
        """No template of order 4 has an assignment either."""
        g = decode_graph6(g6)
        found, nodes = assert_budget_exact(lambda b: uniformicity(g, 4, budget=b))
        assert found is None and nodes == ORDER_4_REFUTATIONS[g6]
        assert not has_witness(g, 4)

    def test_expansions_of_order_4_templates(self):
        """Three copies of every 85th template of order 4: the least order
        agrees with the template loop up to 3, and past it ``is_k_uniform``
        finds the order-4 witness that the expansion is known to have."""
        order_4 = 0
        for template in dedup_templates(4)[::85]:
            g = expand_template(template, 3)
            assert_least_order(g)
            if uniformicity(g, 3) is None:
                assert_witness(g, 4, is_k_uniform(g, 4))
                order_4 += 1
        assert order_4 >= 30

    def test_witness_is_the_split(self):
        """Parts are classes, K(p, p) = 1 on a clique part, K between two
        parts is 0 on a deviation of edges and 1 on one of non-edges, F has
        an edge where the deviation is non-empty, copies are the closure's
        components in order of their lowest vertex, and the template is
        padded to order k."""
        found = uniformicity(build("P4"), 3)
        assert found[0] == 2 and found[1].to_json() == {
            "k": 2,
            "F_edges": [[0, 1]],
            "K": [[1, 0], [0, 1]],
            "assign": [[0, 0], [1, 0], [1, 1], [2, 1]],
        }
        found = uniformicity(build("co(3K2)"), 3)
        assert found[1].to_json() == {
            "k": 2,
            "F_edges": [[0, 1]],
            "K": [[1, 1], [1, 1]],
            "assign": [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]],
        }
        padded = is_k_uniform(build("K3"), 3)
        assert padded.template.matrix == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
        assert padded.template.f.edge_count() == 0
        assert padded.assign == ((0, 0), (1, 0), (2, 0))

    def test_copy_walk_on_two_vertex_parts(self):
        """A 2-lift of K_10 first splits into its ten fibres, between any two
        of which both the edges and the non-edges form a perfect matching.
        The copy walk drops each misfitting choice with all that follow it,
        so it does not try the 2^45 combinations in order, and each K = 1
        it tries is charged as a node."""
        rng = random.Random(12)
        edges = []
        for i, j in combinations(range(10), 2):
            cross = rng.random() < 0.5
            edges += [(2 * i, 2 * j + cross), (2 * i + 1, 2 * j + 1 - cross)]
        g = Graph.from_edges(20, edges)
        found, nodes = assert_budget_exact(lambda b: is_k_uniform(g, 10, budget=b))
        assert_witness(g, 10, found)
        assert [i for _, i in found.assign] == [v // 2 for v in range(20)]
        assert nodes == 127

    def test_nodes_are_charged(self):
        """Every budget short of what the refutation spends is exhausted and
        never read as "not uniform"; the refutation spends only the check's
        nodes."""
        rng = random.Random(10)
        pairs = list(combinations(range(10), 2))
        g = Graph.from_edges(10, rng.sample(pairs, len(pairs) // 2))
        full = SearchBudget(10**9)
        assert uniformicity(g, 3, budget=full) is None
        per_k = [SearchBudget(10**9) for _ in range(3)]
        for k, budget in enumerate(per_k, 1):
            assert is_k_uniform(g, k, budget=budget) is None
        assert full.used == sum(b.used for b in per_k) > 0
        for limit in range(full.used):
            with pytest.raises(SearchBudgetExceeded):
                uniformicity(g, 3, budget=SearchBudget(limit))


def outcome(search, g, k, limit):
    """The witness and nodes of ``search(g, k)`` under a budget of
    ``limit`` nodes, or the node at which that budget runs out."""
    budget = SearchBudget(limit)
    try:
        return search(g, k, budget=budget), budget.used
    except SearchBudgetExceeded as exc:
        return "exhausted", exc.nodes


class TestAgainstOldKernel:
    """The node loop against the kernel it replaced, which called a helper
    per node and had no near-twin look-ahead (kept in ``oracles``).  The
    look-ahead only prunes: the same witness, never more nodes, and under
    a budget that either side finishes in, the kernel finishes with the
    oracle's witness; where both run out, they run out at the same node."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            small_graphs(max_n=9),
            near_uniform_graphs(),
            st.builds(
                lambda t, rng: restricted_expansion(rng, t, 10)[0],
                templates(kmax=4),
                st.randoms(use_true_random=False),
            ),
        ),
        st.integers(1, 4),
    )
    def test_kernel(self, g, k):
        found, nodes = assert_budget_exact(lambda b: is_k_uniform(g, k, budget=b))
        old = assert_budget_exact(lambda b: oracle_is_k_uniform(g, k, budget=b))
        assert found == old[0] and nodes <= old[1]
        for limit in (0, 1, 5, 17, 60):
            pruned = outcome(is_k_uniform, g, k, limit)
            if pruned[0] == "exhausted" and outcome(oracle_is_k_uniform, g, k, limit)[0] == "exhausted":
                assert pruned == ("exhausted", limit + 1)
            else:
                assert pruned == (found, nodes)

    def test_look_ahead_prunes(self):
        """On seeded random graphs and restricted template expansions with at
        most 10 vertices, for k = 2..4, the look-ahead spends strictly fewer
        nodes than the oracle on a counted share of the searches."""
        rng = random.Random(36)
        fewer = searches = 0
        for _ in range(60):
            n = rng.randint(6, 10)
            pairs = list(combinations(range(n), 2))
            for g in (
                Graph.from_edges(n, rng.sample(pairs, len(pairs) // 2)),
                restricted_expansion(rng, random_template(rng, kmax=4), 10)[0],
            ):
                for k in (2, 3, 4):
                    budget, old = SearchBudget(10**9), SearchBudget(10**9)
                    assert is_k_uniform(g, k, budget=budget) == oracle_is_k_uniform(g, k, budget=old)
                    assert budget.used <= old.used
                    fewer += budget.used < old.used
                    searches += 1
        assert (fewer, searches) == (106, 360)

    def test_near_bound_is_tight(self):
        """In an expansion of a template whose F is complete, two vertices of
        one class differ on exactly 2(k - 1) vertices besides themselves:
        the members of each other class in their two copies.  The
        look-ahead's room is that bound, so such pairs may share a part, and
        the witness found keeps counted pairs at the bound in one part."""

        def differ(g, u, v):
            return ((g.rows[u] ^ g.rows[v]) & ~(1 << u | 1 << v)).bit_count()

        same_class = at_bound = 0
        for k in (2, 3, 4):
            for template in dedup_templates(k):
                if template.f.edge_count() < k * (k - 1) // 2:
                    continue
                for copies in (2, 3, 4):
                    g = expand_template(template, copies)
                    pairs = list(combinations(range(g.n), 2))
                    classes = [(u, v) for u, v in pairs if u % k == v % k]
                    assert all(differ(g, u, v) == 2 * (k - 1) for u, v in classes)
                    same_class += len(classes)
                    found = is_k_uniform(g, k)
                    assert_witness(g, k, found)
                    parts = [(u, v) for u, v in pairs if found.assign[u][1] == found.assign[v][1]]
                    at_bound += sum(differ(g, u, v) == 2 * (k - 1) for u, v in parts)
        assert (same_class, at_bound) == (4_320, 3_583)


class TestUniformicity:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_n=9))
    def test_equals_template_loop(self, g):
        assert_least_order(g)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_graphs(max_n=9), near_uniform_graphs()))
    def test_budget_counted_exactly(self, g):
        """The search charges its nodes on the way out and raises at the node
        where spending them one by one would."""
        found, _ = assert_budget_exact(lambda b: uniformicity(g, 3, budget=b))
        assert found == uniformicity(g, 3)

    def test_equals_template_loop_on_expansions(self):
        rng = random.Random(11)
        for _ in range(100):
            t = random_template(rng)
            g, _ = restricted_expansion(rng, t, 10)
            assert_least_order(g)

    def test_cliques_and_edgeless(self):
        for n in (1, 2, 5):
            assert uniformicity(complete_graph(n), 3)[0] == 1
            assert uniformicity(empty_graph(n), 3)[0] == 1

    def test_2k2(self):
        assert uniformicity(build("2K2"), 3)[0] == 2
        assert not oracle_k_uniform(build("2K2"), 1)
        assert oracle_k_uniform(build("2K2"), 2)

    def test_p4_regression(self):
        # oracle-derived before freezing: P4 is 2-uniform and not 1-uniform
        assert oracle_k_uniform(build("P4"), 2)
        assert not oracle_k_uniform(build("P4"), 1)
        assert uniformicity(build("P4"), 3)[0] == 2

    def test_oracle_agreement_small(self):
        rng = random.Random(2)
        for _ in range(12):
            n = rng.randint(1, 4)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph.from_edges(n, edges)
            for k in (1, 2):
                assert (is_k_uniform(g, k) is not None) == oracle_k_uniform(g, k)

    def test_kmax_below_one_rejected(self):
        for kmax in (0, -2):
            with pytest.raises(ValueError):
                uniformicity(build("C5"), kmax)

    def test_exhausted_budget_is_unknown(self):
        budget = SearchBudget(3)
        with pytest.raises(SearchBudgetExceeded):
            uniformicity(build("C5"), 3, budget=budget)
        assert budget.used == 4

    def test_deletion_never_increases(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(2, 6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph.from_edges(n, edges)
            res = uniformicity(g, 3)
            if res is None:
                continue
            k, w = res
            for v in range(n):
                keep = [u for u in range(n) if u != v]
                assert verify_witness(
                    induced(g, keep), restrict_witness(w, keep)
                ).ok
                sub = uniformicity(induced(g, keep), 3)
                assert sub is not None and sub[0] <= k


class TestHereditarity:
    def test_restriction_verifies(self):
        rng = random.Random(4)
        for _ in range(50):
            t = random_template(rng)
            copies = rng.randint(1, 4)
            g = expand_template(t, copies)
            w = witness_for_expansion(t, copies)
            keep = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
            assert verify_witness(induced(g, keep), restrict_witness(w, keep)).ok


class TestComplementTemplate:
    def test_smallest_doubling(self):
        t = UniformTemplate(1, empty_graph(1), ((0,),))
        doubled = complement_template(t)
        assert doubled.k == 2
        assert doubled.matrix == ((0, 0), (0, 1))

    def test_transport_50_seeded(self):
        rng = random.Random(5)
        for _ in range(50):
            t = random_template(rng)
            copies = rng.randint(1, 4)
            g = expand_template(t, copies)
            w = witness_for_expansion(t, copies)
            flip = [v for v in range(g.n) if rng.random() < 0.5]
            flipped = subgraph_complement(g, flip)
            moved = transport_complement(w, flip)
            assert moved.template.k == 2 * t.k
            assert verify_witness(flipped, moved).ok

    def test_empty_flip_uses_unprimed(self):
        t = UniformTemplate(2, build("K2"), ((0, 0), (0, 0)))
        g = expand_template(t, 2)
        moved = transport_complement(witness_for_expansion(t, 2), [])
        assert all(cls < 2 for _, cls in moved.assign)
        assert verify_witness(g, moved).ok

    def test_same_copy_flip(self):
        # both ends of one template edge flipped together: the doubled
        # template must flip their within-copy adjacency
        t = UniformTemplate(2, build("K2"), ((0, 0), (0, 0)))
        g = expand_template(t, 1)
        flipped = subgraph_complement(g, [0, 1])
        moved = transport_complement(witness_for_expansion(t, 1), [0, 1])
        assert flipped.edge_count() == 0
        assert verify_witness(flipped, moved).ok

    @settings(max_examples=200, deadline=None)
    @given(templates(kmax=32))
    def test_equals_edge_by_edge_doubling(self, t):
        # the mask doubling builds its result unchecked: it must equal the
        # doubling through the validating constructors, which accept it
        doubled = complement_template(t)
        assert fields(doubled) == fields(oracle_complement_template(t))
        f = doubled.f
        assert UniformTemplate(doubled.k, Graph(f.n, f.rows), doubled.matrix) == doubled

    def test_order_33_refused(self):
        t = UniformTemplate(33, empty_graph(33), ((0,) * 33,) * 33)
        with pytest.raises(ValueError, match="graph on 66 vertices exceeds the cap of 64"):
            complement_template(t)


class TestBipartiteTemplate:
    def test_order_eight(self):
        t = UniformTemplate(1, empty_graph(1), ((0,),))
        moved = transport_bipartite(witness_for_expansion(t, 2), [0], [1])
        assert moved.template.k == 8

    def test_empty_side_trivial(self):
        t = UniformTemplate(2, build("K2"), ((0, 1), (1, 0)))
        g = expand_template(t, 3)
        w = witness_for_expansion(t, 3)
        moved = transport_bipartite(w, [], [0, 1])
        assert verify_witness(g, moved).ok

    def test_transport_50_seeded(self):
        rng = random.Random(6)
        for _ in range(50):
            t = random_template(rng, kmax=2)
            copies = rng.randint(1, 4)
            g = expand_template(t, copies)
            w = witness_for_expansion(t, copies)
            vs = list(range(g.n))
            rng.shuffle(vs)
            cut = rng.randint(0, g.n)
            x, y = vs[:cut], vs[cut : cut + rng.randint(0, g.n - cut)]
            flipped = bipartite_complement(g, x, y)
            moved = transport_bipartite(w, x, y)
            assert moved.template.k == 8 * t.k
            assert verify_witness(flipped, moved).ok

    @settings(max_examples=100, deadline=None)
    @given(templates(kmax=8), st.randoms(use_true_random=False))
    def test_equals_three_doublings(self, t, rng):
        copies = rng.randint(1, 3)
        n = copies * t.k
        sides = [rng.randrange(3) for _ in range(n)]
        x = [v for v in range(n) if sides[v] == 0]
        y = [v for v in range(n) if sides[v] == 1]
        moved = transport_bipartite(witness_for_expansion(t, copies), x, y)
        expected = t
        for _ in range(3):
            expected = oracle_complement_template(expected)
        assert fields(moved.template) == fields(expected)
        flipped = bipartite_complement(expand_template(t, copies), x, y)
        assert verify_witness(flipped, moved).ok

    def test_overlap_rejected(self):
        t = UniformTemplate(1, empty_graph(1), ((0,),))
        w = witness_for_expansion(t, 2)
        with pytest.raises(ValueError):
            transport_bipartite(w, [0], [0, 1])


class TestTemplateJson:
    def test_round_trip(self):
        rng = random.Random(7)
        t = random_template(rng)
        blob = json.dumps(t.to_json())
        assert oracle_template_from_json(json.loads(blob)) == t
