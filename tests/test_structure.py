import random
import re
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqograph.graphs import (
    Graph,
    build,
    empty_graph,
    induced,
    is_bipartite,
    mask_of,
    pattern,
)
from wqograph.instances import (
    c4_branch_valid,
    c4_instance,
    c5_branch_valid,
    c5_claim_mutants,
    c5_instance,
    class_members,
    is_class_member,
    k5_branch_valid,
    k5_instance,
)
from wqograph.ops import BipartiteComplement, apply_script
from wqograph.order import induced_embed, is_free
from wqograph.structure import (
    RouteError,
    _first_inside,
    _first_pair,
    _first_two,
    _is_star_forest,
    c5_case_of,
    decompose_c4,
    decompose_c5,
    decompose_k5,
    find_clique,
    find_induced_cycle,
    route,
)
from wqograph.uniform import verify_witness
from oracles import (
    oracle_c5_case_of,
    oracle_c5_claim_mutants,
    oracle_components,
    oracle_decompose_c4,
    oracle_decompose_c5,
    oracle_embed,
    oracle_first_inside,
    oracle_first_pair,
    oracle_first_two,
    oracle_is_star_forest,
)
from strategies import counted, forest_like_graphs, pair_bits, small_graphs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from certify_instances import exact_orders


@st.composite
def three_sets(draw):
    """A graph with n <= 12 and three disjoint vertex sets."""
    g = draw(small_graphs(12))
    side = draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    return g, *(sorted(v for v in range(g.n) if side[v] == s) for s in (1, 2, 3))


class TestClaimHelpers:
    """The bitset claim predicates return the first counterexample of the
    pair-by-pair loops over the ascending lists; a list given in parts is
    read part by part."""

    @given(three_sets(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_agree_with_loops(self, case, edge):
        g, a, b, c = case
        am, bm, cm = mask_of(a), mask_of(b), mask_of(c)
        assert _first_pair(g, am, (bm, cm), edge) == oracle_first_pair(g, a, b + c, edge)
        assert _first_pair(g, am, (cm, bm), edge) == oracle_first_pair(g, a, c + b, edge)
        assert _first_two(g, am, bm, edge) == oracle_first_two(g, a, b, edge)
        assert _first_inside(g, am | bm, edge) == oracle_first_inside(g, sorted(a + b), edge)

    def test_partner_in_list_order(self):
        g = empty_graph(4)
        assert _first_pair(g, 0b1000, (0b0100, 0b0011), False) == (3, 2)
        assert _first_pair(g, 0b1000, (0b0011, 0b0100), False) == (3, 0)
        assert _first_two(g, 0b1000, 0b0111, False) == (3, 0, 1)
        assert _first_inside(g, 0b1101, False) == (0, 2)
        assert _first_inside(g, 0b1101, True) is None

    def test_repeated_vertex_is_a_non_edge(self):
        # a 5-tuple anchor that repeats a vertex is not a 5-clique
        with pytest.raises(ValueError, match="not a 5-clique"):
            decompose_k5(build("K5"), clique=(0, 1, 1, 2, 3))


# The makers, counts and first seed of the certify benchmark's members for
# its seed 1.
CERTIFY_MEMBERS = (
    (k5_instance, k5_branch_valid, 150),
    (c5_instance, c5_branch_valid, 250),
    (c4_instance, c4_branch_valid, 150),
)
CERTIFY_START_SEED = 1_000_000


class TestStarForest:
    def test_against_components(self):
        """Against the per-component loop; asserts how many cases it
        checked, and how many forests it turned down (two adjacent vertices
        of degree 2 or more)."""

        def check(g):
            verdict = _is_star_forest(g)
            assert verdict == oracle_is_star_forest(g)
            forest = g.edge_count() == g.n - len(oracle_components(g))
            return verdict, forest and not verdict

        kinds = counted(forest_like_graphs(14), check, 300)
        assert len(kinds) == 300
        assert sum(v for v, _ in kinds) >= 30 and sum(f for _, f in kinds) >= 30

    def test_fixed_cases(self):
        assert _is_star_forest(build("K1,4+P2+2P1"))
        assert not _is_star_forest(build("P4"))
        assert not _is_star_forest(build("C4"))
        assert not _is_star_forest(build("K3"))


class TestMembership:
    """``is_free``, which decides both forbidden patterns by their split
    trees, says what the embedding search says, and ``is_class_member`` is
    the conjunction."""

    @staticmethod
    def searched(g: Graph) -> tuple[bool, bool]:
        diamond = induced_embed(build("co(2P1+P2)"), g) is None
        p2p3 = induced_embed(build("P2+P3"), g) is None
        assert is_free(g, [build("co(2P1+P2)")]).free == diamond
        assert is_free(g, [build("P2+P3")]).free == p2p3
        assert is_class_member(g) == (diamond and p2p3)
        return diamond, p2p3

    @given(small_graphs(14))
    @settings(max_examples=500, deadline=None)
    def test_random_graphs(self, g):
        self.searched(g)

    def test_certify_candidates(self):
        # every candidate scanned while the benchmark's members are set up,
        # accepted or rejected
        outcomes = set()
        for maker, valid, count in CERTIFY_MEMBERS:
            accepted = 0
            seed = CERTIFY_START_SEED
            while accepted < count:
                g = maker(seed)
                member = all(self.searched(g))
                outcomes.add(member)
                accepted += member and valid(g)
                seed += 1
        assert outcomes == {True, False}

    def test_c5_claim_mutants(self):
        outcomes = set()
        members = class_members(
            c5_instance, 10, start_seed=CERTIFY_START_SEED, valid=c5_branch_valid
        )
        for _, g in members:
            for _, mutant in c5_claim_mutants(g, decompose_c5(g)):
                outcomes.add(self.searched(mutant))
        assert {(False, True), (True, False)} <= outcomes


DECOMPOSERS = {"K5": decompose_k5, "C5": decompose_c5, "C4": decompose_c4}


class TestAnchorMemo:
    """``route`` and the decomposers share the anchors of the most recently
    searched graph only: whatever was searched in between, each graph gets
    its own anchor and certificate."""

    def test_interleaved_graphs(self):
        graphs = []
        for branch, maker, valid in (
            ("K5", k5_instance, k5_branch_valid),
            ("C5", c5_instance, c5_branch_valid),
            ("C4", c4_instance, c4_branch_valid),
        ):
            for _, g in class_members(maker, 2, valid=valid):
                # the reversed labelling has the same size, other anchors
                flip = Graph.from_edges(
                    g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()]
                )
                graphs += [(branch, g), (branch, flip)]
        expected = []
        for branch, g in graphs:
            # the anchor from a direct search, passed explicitly
            emb = induced_embed(pattern(branch), g)
            anchor = tuple(sorted(emb)) if branch == "K5" else emb
            expected.append(DECOMPOSERS[branch](g, anchor).to_json())
        for (i, (a_branch, a)), (j, (b_branch, b)) in permutations(enumerate(graphs), 2):
            assert route(a) == a_branch
            assert route(b) == b_branch
            assert DECOMPOSERS[a_branch](a).to_json() == expected[i]
            assert DECOMPOSERS[b_branch](b).to_json() == expected[j]
            assert DECOMPOSERS[a_branch](a).to_json() == expected[i]


class TestCallerAnchor:
    """A caller's anchor is checked for length, distinct vertices and range
    before any bit operation, and the message names it."""

    @pytest.mark.parametrize(
        "decompose, spec, anchor",
        [
            (decompose_c5, "C5", (9, 0, 1, 2, 3)),
            (decompose_k5, "K5", (-1, 0, 1, 2, 3)),
            (decompose_c5, "C5", (0, 1, 2, 3, 3)),
            (decompose_c4, "C4", (0, 1, 1, 2)),
            (decompose_c4, "C4", (0, 1, 2, 4)),
            (decompose_c4, "C4", (0, 1, 2)),
            (decompose_k5, "K5", (0, 1, 2, 3, 4, 0)),
            (decompose_k5, "K5", (True, 2, 3, 4, 0)),
        ],
    )
    def test_refused(self, decompose, spec, anchor):
        with pytest.raises(ValueError, match=re.escape(f"anchor {anchor} is not")):
            decompose(build(spec), anchor)


@st.composite
def planted_cycles(draw):
    """A C_k on 4..7 vertices plus up to 8 - k vertices joined to any of the
    others, randomly relabelled, and k."""
    k = draw(st.integers(4, 7))
    n = draw(st.integers(k, 8))
    edges = [(v, (v + 1) % k) for v in range(k)]
    extra = [(u, v) for v in range(k, n) for u in range(v)]
    edges += [p for p, b in zip(extra, draw(pair_bits(len(extra)))) if b]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]), k


class TestRoute:
    def test_branches(self):
        assert route(build("K6")) == "K5"
        assert route(build("C5")) == "C5"
        assert route(build("C4")) == "C4"
        assert route(build("P5")) == "Sparse"

    def test_p6_contains_p2_p3(self):
        # route rejects P2+P3 first, so a Sparse input is P6-free too
        assert induced_embed(build("P2+P3"), build("P6")) is not None
        with pytest.raises(RouteError, match="input contains P2\\+P3"):
            route(build("P6"))

    def test_class_violation_with_witness(self):
        with pytest.raises(RouteError) as info:
            route(build("P2+P3"))
        assert info.value.witness is not None

    @given(st.integers(0, 14), st.sampled_from((0.3, 0.6, 0.8, 0.95)), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_find_clique_equals_search(self, n, density, rng):
        """The freeness decider answers K5-free hosts; the anchor equals
        the plain search's, free or not (dense hosts hold a K5)."""
        g = Graph.from_edges(
            n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
        )
        emb = induced_embed(pattern("K5"), g)
        assert find_clique(g, 5) == (None if emb is None else tuple(sorted(emb)))

    def test_anchor_normalisation(self):
        cyc = find_induced_cycle(build("C5"), 5)
        assert cyc == (0, 1, 2, 3, 4)
        assert find_clique(build("K5+P1"), 5) == (0, 1, 2, 3, 4)

    @given(st.one_of(st.tuples(small_graphs(8), st.integers(4, 7)), planted_cycles()))
    @settings(max_examples=200, deadline=None)
    def test_cycle_anchor_is_least(self, case):
        """The anchor is the search's first embedding, which is the least in
        position order, as brute force finds it: it starts at its smallest
        vertex and runs towards the smaller of its two neighbours."""
        g, k = case
        cyc = find_induced_cycle(g, k)
        assert cyc == oracle_embed(pattern(f"C{k}"), g)
        if cyc is not None:
            assert cyc[0] == min(cyc) and cyc[1] < cyc[-1]


class TestDecomposeK5:
    def test_case1_bare_clique(self):
        rep = decompose_k5(build("K5"))
        assert rep.case == 1 and rep.ok

    def test_case2_isolated_vertices(self):
        rep = decompose_k5(build("K5+3P1"))
        assert rep.case == 2 and rep.ok
        image = apply_script(build("K5+3P1"), rep.script)
        assert image.edge_count() == 0

    def test_case2_pendant_star(self):
        g = Graph.from_edges(
            6, [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(0, 5)]
        )
        rep = decompose_k5(g)
        assert rep.case == 2 and rep.ok

    def test_case_battery(self):
        members = class_members(k5_instance, 40, valid=k5_branch_valid)
        seen = set()
        for seed, g in members:
            rep = decompose_k5(g)
            assert rep.ok, (seed, rep.failed_claims())
            seen.add(rep.case)
            image = apply_script(g, rep.script)
            part = rep.parts[0]
            if rep.case == 1:
                assert is_bipartite(image) is not None
            elif rep.case == 4:
                assert is_free(image, [build("P3")]).free
            assert part.ok
        assert seen == {1, 2, 3, 4}

    def test_claim1_violation_reported(self):
        # an outside vertex with two clique neighbours is outside the class
        g = Graph.from_edges(
            6, [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(5, 0), (5, 1)]
        )
        rep = decompose_k5(g)
        assert "L4.1-C1" in rep.failed_claims()

    def test_requires_clique(self):
        with pytest.raises(ValueError):
            decompose_k5(build("C5"))

    def test_deletion_claims_hold_without_witness(self):
        """A deletion list of at most two vertices is recorded as the
        report's deletions, not as the witness of a claim that holds."""
        cases = set()
        for seed, g in class_members(k5_instance, 40, valid=k5_branch_valid):
            rep = decompose_k5(g)
            if not rep.deletions:
                continue
            cases.add(rep.case)
            (claim,) = [c for c in rep.claims if c.id.endswith("-DEL")]
            assert claim.id == f"L4.1-C{rep.case}-DEL"
            assert claim.ok and claim.witness is None, seed
            assert claim.to_json() == {"id": claim.id, "ok": True}
        assert cases == {3, 4}

    @pytest.mark.parametrize(
        "n, extra, claim",
        [
            (10, [(5, 6), (7, 0), (8, 1), (9, 2), (5, 0), (6, 1)], "L4.1-C3-DEL"),
            (11, [(5, 6), (7, 8), (9, 10), (5, 0), (7, 1), (9, 2), (6, 1), (8, 0)], "L4.1-C4-DEL"),
        ],
    )
    def test_deletion_claim_fails_with_its_list(self, n, extra, claim):
        """Three clique vertices to delete: the claim fails, and its witness
        is the deletion list."""
        clique = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        rep = decompose_k5(Graph.from_edges(n, clique + extra))
        (check,) = [c for c in rep.claims if c.id == claim]
        assert not check.ok and check.witness == rep.deletions == (0, 1, 2)


def _case1_c5_member() -> Graph:
    """All five satellite sets large with the forced pattern, plus a large
    anticomplete independent set."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    vsets = []
    n = 5
    for i in range(5):
        vs = list(range(n, n + 3))
        n += 3
        vsets.append(vs)
        for v in vs:
            edges += [(v, (i - 1) % 5), (v, (i + 1) % 5)]
    for i in range(5):
        for u in vsets[i]:
            for v in vsets[(i + 1) % 5]:
                edges.append((u, v))
    n += 3  # anticomplete independent set
    return Graph.from_edges(n, sorted(set(tuple(sorted(e)) for e in edges)))


class TestDecomposeC5:
    def test_bare_cycle(self):
        rep = decompose_c5(build("C5"))
        assert rep.ok and rep.case == 7
        assert rep.parts[0].detail["order"] <= 2
        assert len(rep.deletions) == 5

    def test_forced_all_large_case(self):
        g = _case1_c5_member()
        assert is_class_member(g)
        rep = decompose_c5(g)
        assert rep.case == 1 and rep.ok
        assert rep.parts[0].detail["order"] <= 6

    def test_battery_100(self):
        members = class_members(c5_instance, 100, valid=c5_branch_valid)
        for seed, g in members:
            rep = decompose_c5(g)
            assert rep.ok, (seed, rep.failed_claims())
            part = rep.parts[0]
            assert part.detail["order"] == part.detail["stated_order"]
            survivors = tuple(
                v for v in range(g.n) if v not in set(rep.deletions)
            )
            assert apply_script(g, rep.script) == induced(g, survivors)
            assert part.vertices == survivors

    def test_mutants_name_claims(self):
        members = class_members(c5_instance, 30, valid=c5_branch_valid)
        tested = 0
        for seed, g in members:
            rep = decompose_c5(g)
            for claim, mutant in c5_claim_mutants(g, rep)[:2]:
                mrep = decompose_c5(mutant, cycle=rep.anchor)
                assert claim in mrep.failed_claims(), (seed, claim)
                tested += 1
        assert tested >= 20

    def test_case_table_covers_all_patterns(self):
        seen = set()
        for size in range(6):
            for combo in combinations(range(5), size):
                case, rot = c5_case_of(set(combo))
                assert 1 <= case <= 7 and 0 <= rot < 5
                assert (case, rot) == oracle_c5_case_of(set(combo)), combo
                seen.add(case)
        assert seen == set(range(1, 8))

    def test_junk_claims_name_their_sets(self):
        """Three common neighbours of cycle edge 0-1 break L4.2-Y1 even as a
        clique, and two vertices seeing only cycle vertex 0 break L4.2-W1;
        each claim's witness is its set."""
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(y, z) for y, z in combinations((5, 6, 7), 2)]
        edges += [(y, c) for y in (5, 6, 7) for c in (0, 1)] + [(8, 0), (9, 0)]
        rep = decompose_c5(Graph.from_edges(10, edges), cycle=(0, 1, 2, 3, 4))
        assert rep.failed_claims() == ("L4.2-Y1", "L4.2-W1")
        witness = {c.id: c.witness for c in rep.claims}
        assert rep.sets["Y1"] == witness["L4.2-Y1"] == (5, 6, 7)
        assert rep.sets["W1"] == witness["L4.2-W1"] == (8, 9)

    def test_requires_cycle(self):
        with pytest.raises(ValueError):
            decompose_c5(build("K5"))


def _triangle_kernel_member(m: int = 3) -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    v10 = list(range(4, 4 + m))
    v20 = list(range(4 + m, 4 + 2 * m))
    x0 = list(range(4 + 2 * m, 4 + 3 * m))
    for v in v10:
        edges += [(v, 1), (v, 3)]
    for v in v20:
        edges += [(v, 0), (v, 2)]
    for y, z, x in zip(v10, v20, x0):
        edges += [(x, y), (x, z)]
    edges += [(y, z) for y in v10 for z in v20]
    return Graph.from_edges(4 + 3 * m, edges)


# (decomposer order, exact least order) -> uniform parts, over the first 20
# C5 and the first 20 C4 branch members
EXACT_ORDERS = {
    (2, 1): 2, (3, 2): 5, (3, 3): 6, (4, 2): 1, (4, 3): 1, (5, 4): 2,
    (5, 5): 5, (6, 5): 2, (6, 6): 5, (12, 2): 1, (13, 3): 1,
}


def test_exact_order_of_uniform_parts():
    """The second certificate that ``scripts/certify_instances.py`` prints,
    on the first 20 members of the C5 and the C4 branch."""
    reports = [
        (seed, g, decompose(g))
        for maker, valid, decompose in (
            (c5_instance, c5_branch_valid, decompose_c5),
            (c4_instance, c4_branch_valid, decompose_c4),
        )
        for seed, g in class_members(maker, 20, valid=valid)
    ]
    assert exact_orders(reports)[0] == EXACT_ORDERS


class TestDecomposeC4:
    def test_bare_cycle(self):
        rep = decompose_c4(build("C4"))
        assert rep.ok and len(rep.deletions) == 4
        assert all(p.kind != "uniform" for p in rep.parts)

    def test_three_triangle_kernel(self):
        g = _triangle_kernel_member(3)
        assert is_class_member(g)
        rep = decompose_c4(g)
        assert rep.ok
        kernel = next(p for p in rep.parts if p.kind == "uniform")
        assert kernel.detail["order"] == 3
        assert verify_witness(induced(g, kernel.vertices), kernel.detail["witness"]).ok

    def test_scan_grows_with_count(self):
        # 1,400 members take 4,475 seeds, more than the fixed floor of 4,000
        members = class_members(c4_instance, 1400, valid=c4_branch_valid)
        assert len(members) == 1400 and members[-1][0] == 4474

    def test_battery_50(self):
        members = class_members(c4_instance, 50, valid=c4_branch_valid)
        for seed, g in members:
            rep = decompose_c4(g)
            assert rep.ok, (seed, rep.failed_claims())
            assert len(rep.deletions) <= 17
            n_bc = sum(
                1 for s in rep.script.steps if isinstance(s, BipartiteComplement)
            )
            assert n_bc <= 2
            final = apply_script(g, rep.script)
            # kernel and remainder are disconnected in the final graph
            survivors = sorted(v for v in range(g.n) if v not in set(rep.deletions))
            pos = {v: i for i, v in enumerate(survivors)}
            kernel_parts = [p for p in rep.parts if p.kind == "uniform"]
            if kernel_parts:
                kv = [pos[v] for v in kernel_parts[0].vertices]
                rv = [pos[v] for v in survivors if v not in set(kernel_parts[0].vertices)]
                assert all(not final.adjacent(a, b) for a in kv for b in rv)

    def test_named_sides_can_fail_on_true_member(self):
        # a satellite vertex adjacent to both cycle neighbours may still be
        # adjacent to a one-neighbour vertex: the standard side naming is
        # not independent, but a valid bipartition still exists
        g = Graph.from_edges(
            7,
            [(0, 1), (1, 2), (2, 3), (3, 0), (4, 1), (4, 3), (5, 0), (6, 0), (4, 5)],
        )
        assert is_class_member(g)
        assert c4_branch_valid(g)
        rep = decompose_c4(g)
        assert rep.ok
        part = next(p for p in rep.parts if p.kind == "bipartite-p2p3-free")
        assert part.detail["sides"] == "recomputed"

    def test_regularisation_deletion(self):
        g = _triangle_kernel_member(1)
        if is_class_member(g):
            rep = decompose_c4(g)
            assert rep.ok
            assert all(p.kind != "uniform" for p in rep.parts)

    @pytest.mark.parametrize(
        "hubs, witness", [((1, 3), (4, 6)), ((0, 1, 2, 3), (4, 8))]
    )
    def test_opposite_one_neighbour_sets(self, hubs, witness):
        """Two pendant vertices at each hub: L4.3-C5 fails with the first
        vertex of each of the first two opposite sets, W1 and W3 before W2
        and W4."""
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        for i, hub in enumerate(hubs):
            edges += [(4 + 2 * i, hub), (5 + 2 * i, hub)]
        g = Graph.from_edges(4 + 2 * len(hubs), edges)
        rep = decompose_c4(g, cycle=(0, 1, 2, 3))
        claim = next(c for c in rep.claims if c.id == "L4.3-C5")
        assert not claim.ok and claim.witness == witness

    def test_rejects_c5_bearing_input(self):
        with pytest.raises(ValueError):
            decompose_c4(build("C5"))

    def test_report_json_shape(self):
        rep = decompose_c4(_triangle_kernel_member(2))
        blob = rep.to_json()
        assert blob["branch"] == "C4"
        assert {"id", "ok"} <= set(blob["claims"][0].keys())
        assert isinstance(blob["script"], list)


# ---------------------------------------------------------------------------
# Junk-claim mutants
#
# The instance makers build members without junk: no Y or W set of the
# certify members is ever non-empty, so no one-pair toggle of them breaks a
# junk claim.  The battery first adds one junk vertex to a member (adjacent
# to one cycle vertex or to two consecutive ones, and to a random set of the
# other off-cycle vertices), keeps the graph if it is still a member of the
# same branch, and then toggles one pair of an off-cycle vertex and a cycle
# vertex.

JUNK_SEED = 20261024
JUNK_SOURCES = 100  # members per branch
JUNK_TRIES = 20  # junk vertices tried per member
JUNK_TOGGLES = 12  # one-pair mutants per junk member
CYCLE_BRANCHES = (
    ("C5", c5_instance, c5_branch_valid, decompose_c5),
    ("C4", c4_instance, c4_branch_valid, decompose_c4),
)


def _toggled(g: Graph, *pairs) -> Graph:
    return Graph.from_edges(g.n, sorted(set(g.edges()) ^ {tuple(sorted(p)) for p in pairs}))


def _in_branch(g: Graph, branch: str) -> bool:
    return is_class_member(g) and route(g) == branch


def junk_members(rng):
    """(branch, decomposer, member with one junk vertex, anchor, the junk
    vertex's cycle neighbours) for each source member that takes a junk
    vertex within ``JUNK_TRIES``."""
    for branch, maker, valid, decompose in CYCLE_BRANCHES:
        for _, g in class_members(maker, JUNK_SOURCES, start_seed=CERTIFY_START_SEED, valid=valid):
            cyc = decompose(g).anchor
            off = [v for v in range(g.n) if v not in cyc]
            for _ in range(JUNK_TRIES):
                i = rng.randrange(len(cyc))
                hubs = (cyc[i], cyc[(i + 1) % len(cyc)])[: rng.randint(1, 2)]
                p = rng.choice((0, rng.random()))
                near = hubs + tuple(v for v in off if rng.random() < p)
                h = Graph.from_edges(g.n + 1, g.edges() + [(v, g.n) for v in near])
                if _in_branch(h, branch):
                    yield branch, decompose, h, cyc, hubs
                    break


class TestJunkClaimMutants:
    def test_first_failed_claims(self):
        """On a member every claim holds.  Toggling one pair of an off-cycle
        vertex and a cycle neighbour of the junk vertex makes each junk
        claim kind the first failed claim of some mutant, and a mutant that
        is still a member of the branch fails no claim."""
        rng = random.Random(JUNK_SEED)
        first = set()
        for branch, decompose, h, cyc, hubs in junk_members(rng):
            assert decompose(h, cyc).ok
            off = [v for v in range(h.n) if v not in cyc]
            for _ in range(JUNK_TOGGLES):
                m = _toggled(h, (rng.choice(off), rng.choice(hubs)))
                try:
                    rep = decompose(m, cyc)
                except ValueError:  # the C4 decomposer refuses a C5 or a K5
                    continue
                if _in_branch(m, branch):
                    assert rep.ok
                elif rep.failed_claims():
                    first.add(re.sub(r"\d+$", "*", rep.failed_claims()[0]))
        assert {"L4.2-Y*", "L4.2-W*", "L4.3-Y*"} <= first

    def test_opposite_sets_need_two_toggles(self):
        """L4.3-C5 fails when two opposite W sets both keep two vertices or
        more.  A one-pair toggle moves one vertex, so a one-pair mutant
        would need a member with two vertices a, b in W_i and one, x, in
        W_{i+2}; but x adjacent to a closes a C5 through the cycle, and
        otherwise the independent set {a, b} (claim B2) makes a P3 with
        its hub that x and its hub, an edge, miss: a P2+P3.  So this
        battery toggles two X vertices onto the hub opposite a W set of
        two, which makes L4.3-C5 the first failed claim."""
        hits = 0
        for _, g in class_members(c4_instance, 60, start_seed=CERTIFY_START_SEED, valid=c4_branch_valid):
            rep = decompose_c4(g)
            cyc, xs = rep.anchor, rep.sets["X"]
            for i in range(4):
                if len(rep.sets[f"W{i + 1}"]) < 2:
                    continue
                hub = cyc[(i + 2) % 4]
                for x, y in combinations(xs, 2):
                    m = _toggled(g, (x, hub), (y, hub))
                    try:
                        failed = decompose_c4(m, cyc).failed_claims()
                    except ValueError:
                        continue
                    hits += failed[:1] == ("L4.3-C5",)
        assert hits


def _split_seen_twice(g: Graph, report):
    """Toggles of a C5 member that break L4.2-C7 from both parts of
    X + V_(i+3): for V_i and V_(i+1) both large, y and z the least vertex of
    each are made non-adjacent, and y is toggled with the least vertex of X
    and with that of V_(i+3), which the member's C7 let see y and z
    alike."""
    V = [report.sets[f"V{i + 1}"] for i in range(5)]
    X = report.sets["X"]
    for i in range(5):
        vi, vj, far = V[i], V[(i + 1) % 5], V[(i + 3) % 5]
        if len(vi) >= 3 and len(vj) >= 3 and X and far:
            y, z = vi[0], vj[0]
            pairs = [(X[0], y), (far[0], y)] + [(y, z)] * g.adjacent(y, z)
            yield _toggled(g, *pairs)


MAKERS = (k5_instance, c5_instance, c4_instance)
ORACLES = {decompose_c5: oracle_decompose_c5, decompose_c4: oracle_decompose_c4}


def _report_or_message(decompose, g: Graph, cycle):
    try:
        return decompose(g, cycle).to_json()
    except ValueError as exc:
        return str(exc)


class TestAgainstListOracle:
    """The cycle decomposers on vertex masks return the report of the list
    code they replaced, as JSON, or its ``ValueError`` message: on the
    makers' graphs, members or not, and on one-pair toggles of them read
    with the graph's own anchor, one end of the pair on the anchor half of
    the time, so that junk sets and failed claims are reached."""

    @given(st.sampled_from(MAKERS), st.integers(0, 10**6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_reports_equal(self, maker, seed, data):
        g = maker(seed)
        for decompose, oracle in ORACLES.items():
            report = _report_or_message(decompose, g, None)
            assert report == _report_or_message(oracle, g, None)
            if isinstance(report, str):
                continue
            anchor = tuple(report["anchor"])
            for _ in range(3):
                on_anchor = data.draw(st.booleans())
                u = data.draw(st.sampled_from(anchor) if on_anchor else st.integers(0, g.n - 1))
                v = data.draw(st.integers(0, g.n - 1).filter(lambda v: v != u))
                m = _toggled(g, (u, v))
                expected = _report_or_message(oracle, m, anchor)
                assert _report_or_message(decompose, m, anchor) == expected

    def test_claim_mutants(self):
        """The claim mutants of the first certify members of the C5 branch,
        against the mutant list as it was built before, and the report of
        each mutant with the member's anchor, and of the two-pair toggles of
        ``_split_seen_twice``; C1, C2 and C4-C7 each fail, with their first
        witness, in some of these mutants."""
        members = class_members(
            c5_instance, 12, start_seed=CERTIFY_START_SEED, valid=c5_branch_valid
        )
        failed = set()
        for _, g in members:
            report = decompose_c5(g)
            mutants = c5_claim_mutants(g, report)
            assert mutants == oracle_c5_claim_mutants(g, report)
            for m in [m for _, m in mutants] + list(_split_seen_twice(g, report)):
                mrep = decompose_c5(m, report.anchor)
                assert mrep.to_json() == oracle_decompose_c5(m, report.anchor).to_json()
                failed.update(mrep.failed_claims())
        assert {f"L4.2-C{k}" for k in (1, 2, 4, 5, 6, 7)} <= failed

    def test_junk_members(self):
        """The members with a junk vertex of the junk battery below, and
        their one-pair toggles at the junk vertex's hubs."""
        rng = random.Random(JUNK_SEED)
        compared = 0
        for _, decompose, h, cyc, hubs in junk_members(rng):
            off = [v for v in range(h.n) if v not in cyc]
            for m in [h] + [_toggled(h, (rng.choice(off), rng.choice(hubs))) for _ in range(4)]:
                assert _report_or_message(decompose, m, cyc) == _report_or_message(
                    ORACLES[decompose], m, cyc
                )
                compared += 1
        assert compared >= 500
