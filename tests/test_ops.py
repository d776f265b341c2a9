import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqograph.graphs import Graph, build, complement, induced
from wqograph.instances import c5_claim_mutants, c5_instance
from wqograph.order import (
    LabelledGraph,
    QuasiOrder,
    induced_embed,
    labelled_embed,
)
from wqograph.ops import (
    BipartiteComplement,
    DeleteVertex,
    OpScript,
    OpScriptError,
    SubgraphComplement,
    apply_script,
    bipartite_complement,
    split_labels,
    subgraph_complement,
)
from wqograph.structure import decompose_c5, find_induced_cycle
from oracles import oracle_apply_script
from strategies import random_graph, small_graphs


class TestSubgraphComplement:
    def test_full_set_is_complement(self):
        g = build("P2+P3")
        assert subgraph_complement(g, range(g.n)) == complement(g)

    def test_pair_toggles_one_edge(self):
        g = build("P4")
        h = subgraph_complement(g, [0, 1])
        assert h.edge_count() == g.edge_count() - 1
        assert subgraph_complement(h, [0, 3]).adjacent(0, 3)

    def test_empty_set_noop(self):
        g = build("C5")
        assert subgraph_complement(g, []) == g

    def test_involution(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 8))
            s = [v for v in range(g.n) if rng.random() < 0.5]
            assert subgraph_complement(subgraph_complement(g, s), s) == g


class TestBipartiteComplement:
    def test_c4_parts_to_edgeless(self):
        g = bipartite_complement(build("C4"), [0, 2], [1, 3])
        assert g.edge_count() == 0

    def test_empty_side_noop(self):
        g = build("C5")
        assert bipartite_complement(g, [], [0, 1]) == g

    def test_equals_three_complementations(self):
        rng = random.Random(1)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 8))
            vs = list(range(g.n))
            rng.shuffle(vs)
            cut = rng.randint(0, g.n)
            x, y = vs[:cut], vs[cut : cut + rng.randint(0, g.n - cut)]
            via_three = subgraph_complement(
                subgraph_complement(subgraph_complement(g, x), y), x + y
            )
            assert bipartite_complement(g, x, y) == via_three

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            bipartite_complement(build("P4"), [0, 1], [1, 2])


def delete(g: Graph, v: int) -> Graph:
    """``g`` after the one-step script ``del v``."""
    return apply_script(g, OpScript((DeleteVertex(v),)))


class TestDeleteVertex:
    def test_cycle_to_path(self):
        for k in range(4, 9):
            assert delete(build(f"C{k}"), 0) == build(f"P{k - 1}")

    def test_claw_centre(self):
        assert delete(build("K1,3"), 0) == build("3P1")

    def test_path_endpoint(self):
        assert delete(build("P6"), 5) == build("P5")

    def test_out_of_range(self):
        for v in (3, -1):
            with pytest.raises(OpScriptError, match=f"step 0: vertex {v} out of range"):
                delete(build("P3"), v)


class TestScripts:
    def test_empty_script(self):
        g = build("C5")
        assert apply_script(g, OpScript()) == g

    def test_double_complement_identity(self):
        g = build("P2+P4")
        script = OpScript(
            (SubgraphComplement((0, 1, 2)), SubgraphComplement((0, 1, 2)))
        )
        assert apply_script(g, script) == g

    def test_json_round_trip(self):
        script = OpScript(
            (
                SubgraphComplement((0, 2)),
                BipartiteComplement((0,), (1, 3)),
                DeleteVertex(2),
            )
        )
        blob = json.dumps(script.to_json())
        assert OpScript.from_json(json.loads(blob)) == script

    def test_step_error_names_index(self):
        script = OpScript((DeleteVertex(0), DeleteVertex(5)))
        with pytest.raises(OpScriptError) as info:
            apply_script(build("P3"), script)
        assert info.value.step_index == 1

    def test_inverse_round_trip(self):
        # both complementations are involutions: the reversed script undoes it
        rng = random.Random(2)
        g = random_graph(rng, 7)
        steps = (SubgraphComplement((0, 3, 5)), BipartiteComplement((1, 2), (4, 6)))
        undo = OpScript(steps[::-1])
        assert apply_script(apply_script(g, OpScript(steps)), undo) == g


def _image_or_error(apply, g, script):
    try:
        return apply(g, script)
    except OpScriptError as exc:
        return exc.step_index, str(exc)


class TestDeletionRuns:
    """``apply_script`` applies a run of ``del`` steps as one ``induced``
    call; applying the steps one at a time is the reference, for the image
    and for the index and message of the step that fails."""

    @given(small_graphs(12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_step_by_step(self, g, data):
        n, steps = g.n, []
        for _ in range(data.draw(st.integers(0, 10))):
            op = data.draw(st.sampled_from(("sc", "bc", "del", "del", "del")))
            low = -1 if data.draw(st.integers(0, 9)) == 0 else 0
            vertex = st.integers(low, n + 1)
            if op == "del":
                v = data.draw(vertex)
                steps.append(DeleteVertex(v))
                n -= 0 <= v < n
            elif op == "sc":
                steps.append(SubgraphComplement(tuple(data.draw(st.lists(vertex, max_size=4)))))
            else:
                x = tuple(data.draw(st.lists(vertex, max_size=3)))
                y = tuple(data.draw(st.lists(vertex, max_size=3)))
                steps.append(BipartiteComplement(x, y))
        script = OpScript(tuple(steps))
        assert _image_or_error(apply_script, g, script) == _image_or_error(
            oracle_apply_script, g, script
        )

    def test_run_reads_renumbered_vertices(self):
        # P5 without vertex 0, then without the new vertex 0 (old 1), then
        # without the new vertex 2 (old 4): old 2 and 3 remain, an edge
        script = OpScript((DeleteVertex(0), DeleteVertex(0), DeleteVertex(2)))
        assert apply_script(build("P5"), script) == build("P2")
        script = OpScript((DeleteVertex(4), DeleteVertex(4)))
        with pytest.raises(OpScriptError, match="step 1: vertex 4 out of range"):
            apply_script(build("P5"), script)


class TestDeletionCaveat:
    """Deleting one vertex of a cycle yields a path: the cycles stay an
    antichain while the resulting paths form a chain."""

    def test_cycles_vs_paths(self):
        cycles = [build(f"C{k}") for k in range(4, 9)]
        paths = [delete(c, 0) for c in cycles]
        for small, large in itertools.combinations(cycles, 2):
            assert induced_embed(small, large) is None
        for small, large in zip(paths, paths[1:]):
            assert induced_embed(small, large) is not None


class TestSplitLabels:
    def test_marked_empty_keeps_embeddings(self):
        rng = random.Random(3)
        order = QuasiOrder.from_pairs(("a", "b"), [("a", "b")])
        for _ in range(50):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 6))
            lh = LabelledGraph(h, tuple(rng.choice("ab") for _ in range(h.n)))
            lg = LabelledGraph(g, tuple(rng.choice("ab") for _ in range(g.n)))
            sh, doubled = split_labels(lh, (), order)
            sg, _ = split_labels(lg, (), order)
            assert all(lab[0] == 0 for lab in sh.labels)
            assert (labelled_embed(sh, sg, doubled) is None) == (
                labelled_embed(lh, lg, order) is None
            )

    def test_marked_everything_keeps_embeddings(self):
        rng = random.Random(4)
        order = QuasiOrder.from_pairs(("a", "b"), [("a", "b")])
        for _ in range(50):
            h = random_graph(rng, rng.randint(1, 4))
            g = random_graph(rng, rng.randint(1, 6))
            lh = LabelledGraph(h, tuple(rng.choice("ab") for _ in range(h.n)))
            lg = LabelledGraph(g, tuple(rng.choice("ab") for _ in range(g.n)))
            sh, doubled = split_labels(lh, range(h.n), order)
            sg, _ = split_labels(lg, range(g.n), order)
            assert all(lab[0] == 1 for lab in sh.labels)
            assert (labelled_embed(sh, sg, doubled) is None) == (
                labelled_embed(lh, lg, order) is None
            )


def assert_valid(h):
    """``h`` passes the validating constructor and equals its result."""
    assert Graph(h.n, h.rows) == h


class TestTrustedResults:
    """Operations that build their result without validation return graphs
    the validating constructor accepts unchanged."""

    @given(small_graphs(12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_validating_constructor(self, g, data):
        side = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        x = [v for v in range(g.n) if side[v] == 1]
        y = [v for v in range(g.n) if side[v] == 2]
        assert_valid(complement(g))
        assert_valid(induced(g, x))
        assert_valid(subgraph_complement(g, x))
        assert_valid(bipartite_complement(g, x, y))
        for v in range(g.n):
            assert_valid(delete(g, v))
        if find_induced_cycle(g, 5) is not None:
            for _, mutant in c5_claim_mutants(g, decompose_c5(g)):
                assert_valid(mutant)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_c5_claim_mutants_toggle_one_pair(self, seed):
        g = c5_instance(seed)
        for _, mutant in c5_claim_mutants(g, decompose_c5(g, (0, 1, 2, 3, 4))):
            assert_valid(mutant)
            changed = [v for v in range(g.n) if g.rows[v] != mutant.rows[v]]
            assert len(changed) == 2
            u, v = changed
            assert g.rows[u] ^ mutant.rows[u] == 1 << v
