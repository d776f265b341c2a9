import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqograph.antichains import (
    FAMILIES,
    _side_masks,
    family_member,
    gen_thm51,
    gen_thm52,
    reconstruct_thm52,
    thm51_parts,
    thm52_parts,
    verify_family,
)
from wqograph.graphs import Graph, build, disjoint_union, induced, mask_of
from wqograph.order import induced_embed, is_free
from oracles import oracle_reconstruct_thm52, oracle_same_side_components
from strategies import pair_bits, relabel, small_graphs


class TestThm51:
    def test_size_and_edges_n3(self):
        g = gen_thm51(3)
        assert g.n == 12
        # 12 cycle edges plus the 3x3 join; the joined classes are never
        # cycle-adjacent (indices two apart), so the counts add up
        assert g.edge_count() == 12 + 9

    def test_join_classes_n3(self):
        _, y, z = thm51_parts(3)
        g = gen_thm51(3)
        assert y == (0, 4, 8) and z == (2, 6, 10)
        assert all(g.adjacent(u, v) for u in y for v in z)

    def test_edges_n2(self):
        assert gen_thm51(2).edge_count() == 8 + 4

    def test_degrees(self):
        for n in (2, 3, 4):
            g = gen_thm51(n)
            x, y, z = thm51_parts(n)
            assert all(g.degree(v) == 2 for v in x)
            assert all(g.degree(v) == n + 2 for v in y + z)
            assert is_free(g, [build("co(2P1+P2)")]).free

    def test_min_n(self):
        with pytest.raises(ValueError):
            gen_thm51(1)


class TestThm52:
    def test_regular_n3(self):
        g = gen_thm52(3)
        assert g.n == 12 and g.edge_count() == 30
        assert all(g.degree(v) == 5 for v in range(12))

    def test_one_cross_neighbour(self):
        for n in (3, 4):
            g = gen_thm52(n)
            x, y = thm52_parts(n)
            for v in x:
                assert sum(1 for w in y if g.adjacent(v, w)) == 1
            for v in y:
                assert sum(1 for w in x if g.adjacent(v, w)) == 1

    def test_one_own_side_non_neighbour(self):
        g = gen_thm52(3)
        x, y = thm52_parts(3)
        for side in (x, y):
            for v in side:
                non = [w for w in side if w != v and not g.adjacent(v, w)]
                assert len(non) == 1

    def test_rigidity_identity(self):
        for n in (3, 4):
            g = gen_thm52(n)
            assert reconstruct_thm52(g, 0) == tuple(range(g.n))

    def test_rigidity_every_start(self):
        g = gen_thm52(3)
        for start in range(g.n):
            walk = reconstruct_thm52(g, start)
            assert walk is not None and sorted(walk) == list(range(g.n))
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    assert g.adjacent(walk[i], walk[j]) == g.adjacent(i, j)

    def test_min_n(self):
        with pytest.raises(ValueError):
            gen_thm52(2)


class TestVerifyFamily:
    def test_thm51_defaults(self):
        report = verify_family("thm51", [2, 3])
        assert report.ok
        assert report.forbidden == ("co(2P1+P2)", "P2+P4", "P6")

    def test_thm52_defaults(self):
        report = verify_family("thm52", [3, 4])
        assert report.ok
        assert not any(c.comparable for c in report.incomparability)

    @pytest.mark.parametrize(
        "family, ns, cells",
        [("thm51", range(2, 17), (45, 105)), ("thm52", range(3, 17), (28, 91))],
    )
    def test_up_to_64_vertices(self, family, ns, cells):
        # thm51(16) and thm52(16) are the last members within the 64-vertex cap
        report = verify_family(family, ns)
        assert report.ok
        assert (len(report.freeness), len(report.incomparability)) == cells
        assert not any(c.exhausted for c in report.freeness + report.incomparability)

    def test_cycles(self):
        report = verify_family("cycles", range(4, 9))
        assert report.ok and report.forbidden == ()

    def test_violation_reported_with_witness(self):
        report = verify_family("cycles", [4, 6], forbidden=["2P1"])
        cell = next(c for c in report.freeness if not c.free)
        assert cell.witness is not None and not report.ok

    def test_budget_exhaustion_flagged(self):
        report = verify_family("thm51", [2, 3], node_budget=2)
        assert any(c.exhausted for c in report.freeness)
        assert not report.ok

    def test_json_shape(self):
        blob = verify_family("thm51", [2]).to_json()
        assert blob["ok"] and blob["family"] == "thm51"
        assert len(blob["members_g6"]) == 1

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify_family("thm99", [2])

    def test_below_min_n(self):
        with pytest.raises(ValueError):
            verify_family("thm52", [2])

    @pytest.mark.parametrize(
        "family, ns, forbidden",
        [("cycles", [4], None), ("thm51", [2], []), ("thm52", [], None)],
    )
    def test_no_cell_refused(self, family, ns, forbidden):
        # one member and no pattern, or no member: nothing would be checked
        with pytest.raises(ValueError, match="has no cell to check"):
            verify_family(family, ns, forbidden)


class TestSmallerIntoLarger:
    def test_thm51_2_not_into_3(self):
        assert induced_embed(gen_thm51(2), gen_thm51(3)) is None

    def test_thm52_3_not_into_4(self):
        assert induced_embed(gen_thm52(3), gen_thm52(4)) is None

    def test_family_member_dispatch(self):
        assert family_member("cycles", 5) == build("C5")
        with pytest.raises(ValueError):
            family_member("nope", 4)


@st.composite
def relabelled_unions(draw):
    """A disjoint union of up to three small graphs, randomly relabelled, so
    that one, two and three link components all occur."""
    g = disjoint_union(draw(st.lists(small_graphs(6), min_size=1, max_size=3)))
    return relabel(g, draw(st.permutations(range(g.n))))


def oracle_side_masks(g: Graph):
    """The sides of ``oracle_same_side_components`` as vertex masks, side 0
    first, or None."""
    side = oracle_same_side_components(g)
    if side is None:
        return None
    one = mask_of(v for v in range(g.n) if side[v])
    return g.mask ^ one, one


class TestSameSideComponents:
    @given(st.one_of(small_graphs(14), relabelled_unions()))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_matrix_search(self, g):
        assert _side_masks(g) == oracle_side_masks(g)

    def test_thm52_sides(self):
        for n in (3, 4, 5):
            g = gen_thm52(n)
            x, y = thm52_parts(n)
            sides = _side_masks(g)
            assert sides == oracle_side_masks(g)
            assert set(sides) == {mask_of(x), mask_of(y)}


@st.composite
def thm52_like(draw):
    """A thm52 member, relabelled or not, with or without one vertex pair
    flipped, or a random graph whose vertex count is a multiple of four."""
    kind = draw(st.sampled_from(("member", "relabelled", "flipped", "random")))
    if kind == "random":
        n = draw(st.sampled_from((12, 16, 20)))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bits = draw(pair_bits(len(pairs)))
        return Graph.from_edges(n, [p for p, b in zip(pairs, bits) if b])
    g = gen_thm52(draw(st.integers(3, 8)))
    if kind == "member":
        return g
    perm = draw(st.permutations(range(g.n)))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}
    if kind == "flipped":
        u, v = sorted(draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True)))
        edges ^= {(u, v)}
    return Graph.from_edges(g.n, sorted(edges))


class TestReconstructThm52:
    @given(thm52_like())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_list_walk(self, g):
        for start in range(-1, g.n + 1):
            assert reconstruct_thm52(g, start) == oracle_reconstruct_thm52(g, start)

    def test_parallel_matchings_have_no_walk(self):
        # Each side is K6 minus a perfect matching and every vertex has one
        # cross neighbour, as in thm52(3), but the cross matching pairs the
        # side matchings, so every walk closes after four steps.
        side_a = [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 1 or u % 2]
        edges = side_a + [(u + 6, v + 6) for u, v in side_a] + [(v, v + 6) for v in range(6)]
        g = Graph.from_edges(12, edges)
        assert all(g.degree(v) == 5 for v in range(12))
        for start in range(12):
            assert reconstruct_thm52(g, start) is None
            assert oracle_reconstruct_thm52(g, start) is None

    def test_members_every_start(self):
        rng = random.Random(52)
        for n in range(3, 17):
            canonical = gen_thm52(n)
            perm = rng.sample(range(canonical.n), canonical.n)
            relabelled = Graph.from_edges(
                canonical.n, [(perm[u], perm[v]) for u, v in canonical.edges()]
            )
            for g in (canonical, relabelled):
                for start in range(g.n):
                    walk = reconstruct_thm52(g, start)
                    assert walk is not None and walk == oracle_reconstruct_thm52(g, start)


class TestMemberCap:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_refused_before_building(self, family):
        # a member on n has at least n vertices (4n for thm51 and thm52)
        with pytest.raises(ValueError, match="over the cap of 64"):
            family_member(family, 10**6)
