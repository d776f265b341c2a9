import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqograph.graphs import (
    MAX_VERTICES,
    Graph,
    Graph6Error,
    GraphSpecError,
    _components,
    _graph,
    _reach,
    biclique,
    bits_of,
    build,
    complement,
    connected_components,
    cycle_graph,
    decode_graph6,
    delete_vertices,
    empty_graph,
    encode_graph6,
    from_json_dict,
    induced,
    is_bipartite,
    is_connected,
    mask_of,
    path_graph,
    pattern,
    subdivided_claw,
    to_json_dict,
)
from wqograph.ops import bipartite_complement, subgraph_complement
from wqograph.structure import _first_inside, _first_pair, _first_two
from oracles import (
    oracle_components,
    oracle_delete_vertices,
    oracle_graph_checks,
    oracle_induced,
    oracle_is_bipartite,
    oracle_isomorphic,
    oracle_bits_of,
    oracle_touching,
)
from strategies import bipartite_graphs, counted, pair_bits, random_graph, small_graphs


@st.composite
def graphs_with_masks(draw, masks: int, max_n=16):
    """A graph on at most ``max_n`` vertices and ``masks`` random vertex
    masks of it."""
    g = draw(small_graphs(max_n))
    return (g,) + tuple(
        mask_of(v for v, b in enumerate(draw(pair_bits(g.n))) if b) for _ in range(masks)
    )


class TestCatalog:
    def test_path(self):
        p4 = build("P4")
        assert p4.n == 4 and p4.edge_count() == 3

    def test_subdivided_claw_equals_claw(self):
        assert oracle_isomorphic(build("S1,1,1"), build("K1,3"))

    def test_fig1_diamond(self):
        d = build("co(2P1+P2)")
        assert d.n == 4 and d.edge_count() == 5

    def test_counts(self):
        for h, i, j in [(1, 1, 2), (1, 2, 2), (2, 2, 3)]:
            assert subdivided_claw(h, i, j).n == h + i + j + 1
        for r, s in [(1, 1), (2, 2), (2, 4)]:
            assert biclique(r, s).edge_count() == r * s
        for r in range(3, 9):
            assert cycle_graph(r).edge_count() == r

    def test_multiplier(self):
        g = build("2P1+P2")
        assert g.n == 4 and g.edge_count() == 1
        assert build("3K2").edge_count() == 3

    def test_nested_complement(self):
        g = build("co(co(P4))")
        assert g == build("P4")

    @pytest.mark.parametrize(
        "bad", ["S2,1,1", "P0", "C2", "K0", "0P1", "P4+", "co(P4", "Q3", ""]
    )
    def test_malformed(self, bad):
        with pytest.raises(GraphSpecError):
            build(bad)

    @pytest.mark.parametrize(
        "spec, message, position",
        [
            ("", "expected P/C/K/S atom, 'co(' or '('", 0),
            ("P4+", "expected P/C/K/S atom, 'co(' or '('", 3),
            ("2", "expected P/C/K/S atom, 'co(' or '('", 1),
            ("2P1+ ", "expected P/C/K/S atom, 'co(' or '('", 5),
            ("co(", "expected P/C/K/S atom, 'co(' or '('", 3),
            ("(", "expected P/C/K/S atom, 'co(' or '('", 1),
            ("P\u0663", "expected an integer", 1),
            ("P\u00b2", "expected an integer", 1),
        ],
    )
    def test_error_positions(self, spec, message, position):
        """Where the text ends as an atom is due, the parser asks for an atom
        at a position inside the text; it never steps past the end."""
        with pytest.raises(GraphSpecError) as info:
            build(spec)
        assert str(info.value) == f"{message} at position {position} in {spec!r}"
        assert position <= len(spec)


class TestComplementInduced:
    def test_complement_k3(self):
        assert complement(build("K3")) == build("3P1")

    def test_c5_self_complementary(self):
        assert oracle_isomorphic(complement(build("C5")), build("C5"))

    def test_involution_exact(self):
        # exhaustive for n <= 4, sampled for 5..7
        for n in range(5):
            for bits in range(1 << (n * (n - 1) // 2)):
                pairs = list(itertools.combinations(range(n), 2))
                g = Graph.from_edges(
                    n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                )
                assert complement(complement(g)) == g
        rng = random.Random(0)
        for _ in range(50):
            g = random_graph(rng, rng.randint(5, 7))
            assert complement(complement(g)) == g

    def test_induced_c5_any_four_is_p4(self):
        c5 = build("C5")
        for drop in range(5):
            sub = induced(c5, [v for v in range(5) if v != drop])
            assert oracle_isomorphic(sub, build("P4"))

    def test_induced_identity(self):
        g = build("K2,3")
        assert induced(g, range(g.n)) == g

    def test_induced_k5_triple(self):
        assert induced(build("K5"), [0, 1, 2]) == build("K3")

    def test_induced_out_of_range(self):
        with pytest.raises(ValueError):
            induced(build("P3"), [0, 5])

    def test_induced_commutes_with_complement(self):
        rng = random.Random(1)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7))
            s = [v for v in range(g.n) if rng.random() < 0.6]
            assert induced(complement(g), s) == complement(induced(g, s))


class TestBipartite:
    def test_c4(self):
        assert is_bipartite(build("C4")) == ((0, 2), (1, 3))

    def test_odd_cycle(self):
        assert is_bipartite(build("C5")) is None

    def test_biclique(self):
        parts = is_bipartite(build("K2,2"))
        assert parts is not None and sorted(map(len, parts)) == [2, 2]


class TestRelations:
    """Relations between vertex sets, given as masks, through the bitset
    claim helpers of ``structure``: each returns the first counterexample
    in ascending order, or None when the relation holds."""

    def test_biclique_parts_complete(self):
        g = build("K2,2")
        assert _first_pair(g, 0b0011, (0b1100,), False) is None
        assert _first_two(g, 0b0011, 0b1100, True) == (0, 2, 3)  # not a matching

    def test_2p2_matching(self):
        g = build("2P2")
        assert _first_two(g, 0b0101, 0b1010, True) is None
        assert _first_two(g, 0b1010, 0b0101, True) is None
        assert _first_pair(g, 0b0101, (0b1010,), True) == (0, 1)  # not anticomplete

    def test_c6_alternating(self):
        # direct count: each side-A vertex has two B-neighbours (so not a
        # matching) and exactly one B-non-neighbour (so a comatching)
        g = build("C6")
        for v in (0, 2, 4):
            assert sum(g.adjacent(v, w) for w in (1, 3, 5)) == 2
        assert _first_two(g, 0b010101, 0b101010, False) is None
        assert _first_two(g, 0b101010, 0b010101, False) is None
        assert _first_two(g, 0b010101, 0b101010, True) == (0, 1, 5)

    def test_anticomplete_is_also_matching(self):
        g = build("2P2")
        assert _first_pair(g, 0b0011, (0b1100,), True) is None
        assert _first_two(g, 0b0011, 0b1100, True) is None
        assert _first_two(g, 0b1100, 0b0011, True) is None

    def test_complement_duality(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 7))
            vs = list(range(g.n))
            rng.shuffle(vs)
            cut = rng.randint(1, g.n - 1)
            a, b = mask_of(vs[:cut]), mask_of(vs[cut:])
            gc = complement(g)
            for edge in (True, False):
                assert _first_pair(g, a, (b,), edge) == _first_pair(gc, a, (b,), not edge)
                assert _first_two(g, a, b, edge) == _first_two(gc, a, b, not edge)
                assert _first_inside(g, g.mask, edge) == _first_inside(gc, g.mask, not edge)


class TestGraph6:
    def test_p3_hand_packed(self):
        # 3 vertices -> chr(3+63); column bits (0,1),(0,2),(1,2) = 1,0,1
        # padded to 101000 = 40 -> chr(40+63)
        assert encode_graph6(build("P3")) == chr(66) + chr(103)

    def test_single_vertex_shortest(self):
        assert encode_graph6(empty_graph(1)) == "@"
        assert decode_graph6("@") == empty_graph(1)

    def test_round_trip_500(self):
        rng = random.Random(3)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 12))
            assert decode_graph6(encode_graph6(g)) == g

    def test_header_accepted(self):
        g = build("C5")
        assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g

    def test_large_n_form(self):
        g = path_graph(64)
        enc = encode_graph6(g)
        assert enc.startswith(chr(126))
        assert decode_graph6(enc) == g

    @pytest.mark.parametrize(
        "bad,offset",
        [("", 0), (chr(62), 0), ("B" + chr(200), 1), ("Bgg", 2)],
    )
    def test_errors_carry_offsets(self, bad, offset):
        with pytest.raises(Graph6Error) as info:
            decode_graph6(bad)
        assert info.value.offset == offset

    @given(small_graphs(7))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, g):
        assert decode_graph6(encode_graph6(g)) == g


class TestVertexCap:
    """Every way a graph enters the library refuses more than
    ``MAX_VERTICES`` vertices."""

    # 65 and 4,000 vertices in graph6's extended header, no edges
    G6_65 = chr(126) + "?@@" + "?" * ((65 * 64 // 2 + 5) // 6)
    G6_4000 = chr(126) + "?}_" + "?" * ((4000 * 3999 // 2 + 5) // 6)

    @pytest.mark.parametrize(
        "make, offset",
        [
            (lambda: Graph(65, (0,) * 65), None),
            (lambda: Graph.from_edges(65, []), None),
            (lambda: Graph.from_edges(65, [(0, 70)]), None),
            (lambda: build("65P1"), None),
            (lambda: build("K65"), None),
            (lambda: build("co(65P1)"), None),
            (lambda: decode_graph6(TestVertexCap.G6_65), 0),
            (lambda: decode_graph6(">>graph6<<" + TestVertexCap.G6_4000), 10),
        ],
        ids=["Graph", "from_edges", "from_edges-edge", "65P1", "K65", "co(65P1)", "graph6", "graph6-4000"],
    )
    def test_over_cap_rejected(self, make, offset):
        with pytest.raises(ValueError, match="exceeds the cap of 64") as exc:
            make()
        if offset is not None:
            # refused at the header, before any edge byte is decoded
            assert isinstance(exc.value, Graph6Error) and exc.value.offset == offset

    @pytest.mark.parametrize(
        "spec", ["P1000000", "1000000P1", "K2,1000000", "S1,1,1000000", "co(C1000000)"]
    )
    def test_parser_refuses_before_building(self, spec):
        # every integer of the grammar bounds the vertex count from below
        with pytest.raises(GraphSpecError, match="1000000 exceeds the cap of 64"):
            build(spec)

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            Graph.from_edges(-1, [])

    def test_cap_is_inclusive(self):
        assert MAX_VERTICES == 64
        g = build("co(64P1)")
        assert g == complement(empty_graph(64)) == build("K64")
        assert decode_graph6(encode_graph6(g)) == g


class TestJson:
    def test_round_trip(self):
        g = build("S1,2,2")
        assert from_json_dict(to_json_dict(g)) == g

    def test_malformed(self):
        with pytest.raises(ValueError):
            from_json_dict({"edges": []})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 3, "edges": [[0, "a"]]},
            {"n": 3, "edges": 5},
            {"n": 3, "edges": [None]},
            {"n": 3, "edges": [[0, 1, 2]]},
            {"n": 3, "edges": [[0, 1.0]]},
            {"n": 2, "edges": [[True, False]]},
            {"n": [1], "edges": []},
            {"n": 2.7, "edges": []},
            {"n": True, "edges": []},
            {"n": -1, "edges": []},
            {"n": 10**6, "edges": []},
        ],
    )
    def test_checked_before_building(self, obj):
        with pytest.raises(ValueError, match="graph JSON"):
            from_json_dict(obj)


class TestBasics:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))

    def test_components(self):
        comps = connected_components(build("P2+P3"))
        assert comps == [(0, 1), (2, 3, 4)]

    @given(small_graphs(20))
    @settings(max_examples=300, deadline=None)
    def test_components_against_union_find(self, g):
        comps = oracle_components(g)
        assert connected_components(g) == comps
        assert is_connected(g) == (len(comps) <= 1)

    @given(
        st.one_of(
            st.integers(0, 64).flatmap(lambda k: st.integers(0, (1 << k) - 1)),
            st.sets(st.integers(0, 63), max_size=6).map(mask_of),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_of_against_generator(self, mask):
        # masks of 0 to 64 bits, dense or with a few bits set
        assert bits_of(mask) == oracle_bits_of(mask)
        assert mask_of(bits_of(mask)) == mask

    def test_delete_vertices(self):
        assert delete_vertices(build("C5"), [0]) == build("P4")

    @given(small_graphs(20))
    @settings(max_examples=200, deadline=None)
    def test_edge_count(self, g):
        assert g.edge_count() == len(g.edges())


def _paths(g: Graph, data) -> dict:
    """``g`` rebuilt by every construction path, each a fresh object."""
    inside = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)) if g.n else set()
    x = {v for v in inside if v % 2}
    y = inside - x
    return {
        "constructor": Graph(g.n, g.rows),
        "from_edges": Graph.from_edges(g.n, g.edges()),
        "graph6": decode_graph6(encode_graph6(g)),
        "json": from_json_dict(to_json_dict(g)),
        "unchecked": _graph(g.n, g.rows),
        "complement": complement(complement(g)),
        "induced": induced(g, range(g.n)),
        "delete_vertices": delete_vertices(g, []),
        "subgraph_complement": subgraph_complement(subgraph_complement(g, inside), inside),
        "bipartite_complement": bipartite_complement(bipartite_complement(g, x, y), x, y),
    }


def _repr_by_pairs(g: Graph) -> str:
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.rows[u] >> v & 1]
    return f"Graph(n={g.n}, edges={edges!r})"


class TestValue:
    """A graph is a value whatever built it: it hashes as ``(n, rows)``
    before and after its hash is kept, equal graphs hash equal, no field
    can be assigned, and copies, pickles and ``repr`` see the value."""

    @given(small_graphs(12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_path(self, g, data):
        value = hash((g.n, g.rows))
        built = _paths(g, data)
        for path, x in built.items():
            assert x == g and x.n == g.n and x.rows == g.rows, path
            assert not hasattr(x, "_hash"), path  # nothing kept before first use
            assert hash(x) == value and x._hash == value, path
            assert hash(x) == value, path
            assert repr(x) == _repr_by_pairs(g), path
        assert len(set(built.values()) | {g}) == 1

    @given(small_graphs(12), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_copies_and_pickles(self, g, hashed):
        """The state pair reads and writes ``(n, rows)`` on a graph hashed
        or not, and a copy or pickle starts with ``_hash`` unset."""
        x = _graph(g.n, g.rows)
        if hashed:
            hash(x)
        state = Graph.__getstate__(x)
        assert state == (g.n, g.rows)
        y = object.__new__(Graph)
        y.__setstate__(state)
        assert not hasattr(y, "_hash") and y == g and hash(y) == hash((g.n, g.rows))
        pickles = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(6)]
        for y in [copy.copy(x), copy.deepcopy(x)] + pickles:
            assert type(y) is Graph and y == g and y.rows == g.rows
            assert not hasattr(y, "_hash")
            assert hash(y) == hash(x) == hash((g.n, g.rows))

    @given(small_graphs(8), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_frozen(self, g, hashed):
        for x in (Graph(g.n, g.rows), _graph(g.n, g.rows)):
            if hashed:
                hash(x)
            for name, value in (("n", 0), ("rows", ()), ("_hash", 0)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(x, name, value)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(x, name)
            assert x == g and hash(x) == hash((g.n, g.rows))

    @pytest.mark.parametrize(
        "spec, built",
        [
            ("P5", path_graph(5)),
            ("C7", cycle_graph(7)),
            ("K2,3", biclique(2, 3)),
            ("S1,1,2", subdivided_claw(1, 1, 2)),
            ("co(2P1+P2)", complement(Graph.from_edges(4, [(2, 3)]))),
        ],
    )
    def test_catalog_paths(self, spec, built):
        for x in (build(spec), pattern(spec), built):
            assert x == built and hash(x) == hash((built.n, built.rows))
            assert repr(x) == _repr_by_pairs(built)


class TestMaskKernel:
    """The component kernel, the union of rows and the layered 2-colouring
    against the list paths they replaced; each test asserts how many cases
    it checked, and how many of the kind that tells the two apart."""

    def test_is_bipartite_against_bfs(self):
        def check(g):
            sides = is_bipartite(g)
            assert sides == oracle_is_bipartite(g)
            return sides is not None

        kinds = counted(small_graphs(14), check, 300)
        assert len(kinds) == 300
        assert kinds.count(True) >= 20 and kinds.count(False) >= 100

    def test_is_bipartite_on_bipartite_graphs(self):
        def check(g):
            sides = is_bipartite(g)
            assert sides is not None and sides == oracle_is_bipartite(g)
            return g.edge_count() > 0 and len(oracle_components(g)) > 1

        kinds = counted(bipartite_graphs(14), check, 200)
        assert len(kinds) == 200 and kinds.count(True) >= 30

    def test_odd_cycle_in_a_later_component(self):
        assert is_bipartite(build("P2+C4+C5")) is None
        assert is_bipartite(build("P3+C4")) == ((0, 2, 3, 5), (1, 4, 6))

    def test_components_of_a_mask(self):
        def check(case):
            g, m = case
            vs = bits_of(m)
            comps = connected_components(induced(g, vs))
            assert _components(g.rows, m) == [mask_of(vs[i] for i in c) for c in comps]
            # an edge leaving the mask tells a search confined to it apart
            return len(comps) > 1 and bool(_reach(g.rows, m) & g.mask & ~m)

        kinds = counted(graphs_with_masks(1), check, 300)
        assert len(kinds) == 300 and kinds.count(True) >= 10

    def test_reach_against_touching(self):
        def check(case):
            g, vs, m = case
            touching = vs & _reach(g.rows, m)
            assert touching == oracle_touching(g, vs, m)
            return 0 < touching != vs

        kinds = counted(graphs_with_masks(2), check, 300)
        assert len(kinds) == 300 and kinds.count(True) >= 5


@st.composite
def corrupted_rows(draw):
    """``(n, rows)``: the rows of a random graph on at most 12 vertices with
    up to three bits toggled, each a bit without its mirror (or a mirror
    taken away), a bit beyond n - 1, or a self-loop."""
    g = draw(small_graphs(12))
    n = g.n
    rows = list(g.rows)
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        kind = draw(st.sampled_from(("mirror", "range", "loop")))
        v = draw(st.integers(0, n - 1))
        if kind == "mirror" and n > 1:
            rows[v] ^= 1 << draw(st.integers(0, n - 1).filter(lambda w: w != v))
        elif kind == "range":
            rows[v] ^= 1 << draw(st.integers(n, 70))
        elif kind == "loop":
            rows[v] ^= 1 << v
    return n, tuple(rows)


def check_message(check, n, rows):
    """The message of the ``ValueError`` that ``check(n, rows)`` raises, or
    None."""
    try:
        check(n, rows)
    except ValueError as exc:
        return str(exc)
    return None


class TestChecks:
    """The constructor tests symmetry edge by edge and falls back to the
    pair scan only to name the failure: it raises what the scan did."""

    @given(corrupted_rows())
    @settings(max_examples=300, deadline=None)
    def test_same_message_as_pair_scan(self, case):
        n, rows = case
        assert check_message(Graph, n, rows) == check_message(oracle_graph_checks, n, rows)

    def test_range_before_symmetry(self):
        # asymmetric at (0, 1), but every row's range is checked first
        assert check_message(Graph, 3, (2, 0, 8)) == "row 2 references vertices outside 0..n-1"

    def test_missing_lower_mirror(self):
        # every bit above the diagonal has its mirror; the count finds 1-0
        assert check_message(Graph, 3, (0, 1, 0)) == "adjacency not symmetric at pair (0,1)"


def _result_or_message(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestInduced:
    """``induced`` compacts each row one run of kept vertices at a time; the
    per-bit loop it replaced is the reference, for the graph and for the
    message that refuses a vertex out of range."""

    @given(small_graphs(64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_bit_loop(self, g, data):
        inside = st.integers(0, g.n - 1) if g.n else st.nothing()
        anywhere = st.integers(-3, g.n + 3)
        vs = data.draw(st.lists(st.one_of(inside, inside, inside, anywhere), max_size=80))
        if data.draw(st.booleans()):
            vs = [v for v in vs if 0 <= v < g.n]
        assert _result_or_message(induced, g, vs) == _result_or_message(oracle_induced, g, vs)

    def test_least_vertex_out_of_range_named(self):
        g = build("P3")
        assert _result_or_message(induced, g, [7, 5, 1, 5]) == "vertex 5 out of range"
        assert _result_or_message(induced, g, [7, -2, 0, -1]) == "vertex -2 out of range"


class TestDeleteVertices:
    """Deletion compacts the survivors' rows as ``induced`` does; the
    per-bit induced subgraph of the survivors is the reference."""

    @given(small_graphs(20), st.lists(st.integers(-3, 23), max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_matches_induced_survivors(self, g, drop):
        assert delete_vertices(g, drop) == oracle_delete_vertices(g, drop)

    def test_out_of_range_deletes_nothing(self):
        g = build("C5")
        assert delete_vertices(g, [-1, 5, 64]) == g
        assert delete_vertices(g, [4, 7, 0, 4]) == build("P3")

    def test_every_vertex(self):
        assert delete_vertices(build("K64"), range(64)) == empty_graph(0)


class TestExpressionIntegers:
    """An integer of the grammar is a run of ASCII digits, and a run with
    more significant digits than the cap is refused before conversion."""

    @pytest.mark.parametrize("spec", ["P\u0663", "P\u00b2", "K2,\u0663", "\u0663P1"])
    def test_non_ascii_digits_refused(self, spec):
        with pytest.raises(GraphSpecError, match="expected"):
            build(spec)

    def test_long_run_refused_with_cap_message(self):
        spec = "P" + "9" * 5000
        with pytest.raises(GraphSpecError) as info:
            build(spec)
        assert str(info.value).startswith("9" * 5000 + " exceeds the cap of 64 vertices")
        assert "at position 5001" in str(info.value)

    def test_leading_zeros(self):
        assert build("P003") == build("P3")
        assert build("P" + "0" * 5000 + "64") == build("P64")
        with pytest.raises(GraphSpecError, match="65 exceeds the cap of 64"):
            build("P0065")
