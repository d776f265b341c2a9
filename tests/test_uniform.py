import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqograph.graphs import Graph, build, complete_graph, empty_graph, induced
from wqograph.order import SearchBudget, SearchBudgetExceeded, induced_embed
from wqograph.ops import bipartite_complement, subgraph_complement
from wqograph.uniform import (
    SearchRefused,
    _canonical_templates,
    _find_assignment,
    UniformTemplate,
    UniformWitness,
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
from oracles import oracle_find_assignment, oracle_isomorphic, oracle_k_uniform
from strategies import small_graphs


def random_template(rng, kmax=3):
    k = rng.randint(1, kmax)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5]
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            matrix[i][j] = matrix[j][i] = rng.randint(0, 1)
    return UniformTemplate(k, Graph.from_edges(k, edges), tuple(map(tuple, matrix)))


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

    def test_search_refused_is_distinct(self):
        with pytest.raises(SearchRefused):
            is_k_uniform(empty_graph(11), 1)
        with pytest.raises(SearchRefused):
            is_k_uniform(empty_graph(3), 4)

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


class TestSearchAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.integers(1, 3))
    def test_same_assignment_no_more_nodes(self, g, k):
        """Per template: the pruned search returns the plain slot search's
        first assignment and spends at most its budget nodes."""
        for template in _canonical_templates(k):
            fast, plain = SearchBudget(10**9), SearchBudget(10**9)
            found = _find_assignment(g, template, fast)
            assert found == oracle_find_assignment(g, template, plain)
            assert fast.used <= plain.used
            if found is not None:
                assert verify_witness(g, UniformWitness(template, found)).ok

    def test_forward_check_prunes(self):
        g = build("C5+P3")
        fast, plain = SearchBudget(10**9), SearchBudget(10**9)
        for template in _canonical_templates(3):
            _find_assignment(g, template, fast)
            oracle_find_assignment(g, template, plain)
        assert fast.used < plain.used


class TestUniformicity:
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
        assert UniformTemplate.from_json(json.loads(blob)) == t
