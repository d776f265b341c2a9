import itertools

import networkx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wqograph.classifier import (
    CW_RULES,
    ClassPair,
    OPEN_BOTH_PAIRS,
    OPEN_CW_PAIRS,
    OPEN_WQO_PAIRS,
    WQO_RULES,
    Rule,
    RuleInconsistencyError,
    _classify,
    _holds,
    _matches,
    _sups,
    audit_open_lists,
    canonical_key,
    check_rule_consistency,
    classify,
    classify_cw,
    classify_wqo,
    equivalent_pairs,
    nonisomorphic_graphs,
    pair_corpus,
)
from wqograph import classifier
from wqograph.graphs import Graph, build, complement, encode_graph6, induced
from oracles import (
    ORACLE_CO_ATOMS,
    oracle_canonical_key,
    oracle_classify,
    oracle_co_atom,
    oracle_equivalent_pairs,
    oracle_key_bits,
    oracle_marked_graphs,
    oracle_match,
    oracle_nonisomorphic_graphs,
    oracle_rule_consistency,
)


@st.composite
def relabelled_graphs(draw, max_n=7):
    """A random graph on at most max_n vertices and a random relabelling."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(n)))
    edges = [p for p, b in zip(pairs, bits) if b]
    g = Graph.from_edges(n, edges)
    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    return g, h


@st.composite
def same_order_pairs(draw, max_n=7):
    """Two random graphs on the same number of vertices, at most max_n."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    graphs = []
    for _ in range(2):
        bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        graphs.append(Graph.from_edges(n, [p for p, b in zip(pairs, bits) if b]))
    return graphs


ATOMS = sorted(
    {atom for rule in WQO_RULES + CW_RULES for atom in rule.first + rule.second}
)
RULES = {rule.id: rule for rule in WQO_RULES + CW_RULES}


class TestEquivalence:
    def test_triangle_p6_closure(self):
        pairs = equivalent_pairs(ClassPair.of("K3", "P6"))
        paw = canonical_key(build("co(P1+P3)"))
        assert any(paw in (canonical_key(p.h1), canonical_key(p.h2)) for p in pairs)
        co_p6 = complement(build("P6"))
        t3 = build("3P1")
        assert any(
            {canonical_key(p.h1), canonical_key(p.h2)}
            == {canonical_key(t3), canonical_key(co_p6)}
            for p in pairs
        )

    def test_self_complementary_member(self):
        pairs = equivalent_pairs(ClassPair.of("P4", "P4"))
        assert len(pairs) == 1  # co(P4) = P4, and no triangle member

    def test_plain_closure_size(self):
        pairs = equivalent_pairs(ClassPair.of("2P2", "P5"))
        assert len(pairs) == 2  # the pair and its complement pair only

    def test_contains_input(self):
        pair = ClassPair.of("K3", "P2+P4")
        assert pair.key() in {p.key() for p in equivalent_pairs(pair)}


class TestClassifyWqo:
    def test_k3_p6(self):
        v = classify_wqo(ClassPair.of("K3", "P6"))
        assert v.status == "WqoLabelled" and v.rule == "T6.1-1(iii)"

    def test_diamond_p2p4(self):
        v = classify_wqo(ClassPair.of("co(2P1+P2)", "P2+P4"))
        assert v.status == "NotWqo" and v.rule == "T6.1-2(iv)"
        assert v.family == "thm51"

    def test_gembar_p1_2p2(self):
        v = classify_wqo(ClassPair.of("co(P1+P4)", "P1+2P2"))
        assert v.status == "NotWqo" and v.family == "thm52"

    def test_diamond_p6_links_family(self):
        v = classify_wqo(ClassPair.of("co(2P1+P2)", "P6"))
        assert v.status == "NotWqo" and v.family == "thm51"

    def test_open_case(self):
        assert classify_wqo(ClassPair.of("co(3P1)", "P1+2P2")).status == "Open"

    def test_two_dense_patterns(self):
        v = classify_wqo(ClassPair.of("C4", "C5"))
        assert v.status == "NotWqo" and v.rule == "T6.1-2(i)"


class TestClassifyCw:
    def test_diamond_p2p3_bounded(self):
        v = classify_cw(ClassPair.of("co(2P1+P2)", "P2+P3"))
        assert v.status == "Bounded" and v.rule == "T6.2-1(iv)"

    def test_diamond_p2p4_unbounded(self):
        v = classify_cw(ClassPair.of("co(2P1+P2)", "P2+P4"))
        assert v.status == "Unbounded" and v.rule == "T6.2-2(iv)"

    def test_open_case(self):
        assert classify_cw(ClassPair.of("3P1", "co(P2+P4)")).status == "Open"

    def test_gem_spotchecks(self):
        assert classify_cw(ClassPair.of("co(P1+P4)", "P1+P4")).status == "Bounded"
        assert classify_cw(ClassPair.of("K3", "P1+P5")).status == "Bounded"


class TestJointClassify:
    def test_wqo_and_cw_example(self):
        status = classify("co(2P1+P2)", "P2+P3")
        blob = status.to_json()
        assert blob["wqo"] == "WqoLabelled" and blob["cw"] == "Bounded"
        assert blob["rule"].startswith("T6.1") and blob["cw_rule"].startswith("T6.2")

    def test_comparable_pair_warned(self):
        status = classify("P3", "P4")
        assert status.warnings
        assert status.wqo.status == "WqoLabelled"  # describes P3-free graphs

    def test_equivalence_invariance(self):
        for a, b in [("K3", "P6"), ("co(2P1+P2)", "P2+P3"), ("2P2", "C4"),
                     ("co(3P1)", "P2+P4")]:
            base = ClassPair.of(a, b)
            wqo = classify_wqo(base).status
            cw = classify_cw(base).status
            for member in equivalent_pairs(base):
                assert classify_wqo(member).status == wqo
                assert classify_cw(member).status == cw

    @given(relabelled_graphs(max_n=6), relabelled_graphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_two_tables(self, first, second):
        """One equivalence class serves both tables: the verdicts, rules,
        witnesses and families equal those of ``classify_wqo`` and
        ``classify_cw``."""
        status = classify(first[0], second[1])
        pair = ClassPair.of(first[0], second[1])
        assert status.wqo == classify_wqo(pair)
        assert status.cw == classify_cw(pair)

    @given(relabelled_graphs(max_n=6), relabelled_graphs(max_n=6))
    @example((build("K3"),) * 2, (build("P6"),) * 2)
    @example((build("P3"),) * 2, (build("2P2"),) * 2)
    @settings(max_examples=60, deadline=None)
    def test_witness_replays(self, first, second):
        """A verdict's ``via`` is a member of the pair's equivalence class in
        the orientation its rule matched, and the report prints it."""
        status = classify(first[0], second[1])
        members = {p.key() for p in equivalent_pairs(status.pair)}
        blob = status.to_json()
        for verdict, name in ((status.wqo, "via"), (status.cw, "cw_via")):
            if verdict.rule is None:
                assert name not in blob
                continue
            a, b = verdict.via
            assert oracle_match(RULES[verdict.rule], a, b) is not None
            assert ClassPair.of(a, b).key() in members
            assert blob[name] == [encode_graph6(a), encode_graph6(b)]


def _outcome(classify_one, pair):
    """The verdict, or the inconsistency message."""
    try:
        return classify_one(pair)
    except RuleInconsistencyError as exc:
        return str(exc)


TABLES = {"wqo": (classify_wqo, "WQO_RULES"), "cw": (classify_cw, "CW_RULES")}


def _assert_tables(pair, order):
    """Classify ``pair`` in the tables of ``order``, in that order, and
    compare each verdict (status, rule, via, family) with the reference on
    the table's current rules."""
    for table in order:
        fast, rules = TABLES[table]
        reference = lambda p: oracle_classify(p, getattr(classifier, rules))
        assert _outcome(fast, pair) == _outcome(reference, pair), (table, pair)


@st.composite
def relabelled_pairs(draw, max_n=7):
    """Labelled pairs on at most max_n vertices, each followed by a copy
    with both members relabelled."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        (a, a2), (b, b2) = draw(relabelled_graphs(max_n)), draw(relabelled_graphs(max_n))
        out += [ClassPair.of(a, b), ClassPair.of(a2, b2)]
    return out


class TestFastPath:
    """The memoised class and the per-key rule sides give the verdicts of
    the reference loop, which rebuilds the class on every call and tries
    every atom pair by pair."""

    def test_corpus_both_orders(self):
        for i, pair in enumerate(pair_corpus(5)):
            _assert_tables(pair, ("wqo", "cw") if i % 2 else ("cw", "wqo"))

    def test_relabelled_copy_back_to_back(self):
        """Equal keys, other labelling: the copy's ``via`` is its own."""
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        p3_relabelled = Graph.from_edges(3, [(1, 0), (0, 2)])
        first = ClassPair.of(p3, build("2P2"))
        copy = ClassPair.of(p3_relabelled, build("2P2"))
        for pair in (first, copy):
            _assert_tables(pair, ("wqo", "cw"))
        assert classify_wqo(copy).via[0] == p3_relabelled

    @given(relabelled_pairs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_interleaved(self, pairs, data):
        """Each pair and its relabelled copy back to back in a drawn table
        order, then every (pair, table) step again in a drawn interleaving."""
        for pair in pairs:
            _assert_tables(pair, data.draw(st.permutations(("wqo", "cw"))))
        steps = [(pair, table) for pair in pairs for table in TABLES]
        for pair, table in data.draw(st.permutations(steps)):
            _assert_tables(pair, (table,))

    def test_reused_rule_ids(self, monkeypatch):
        """Ad-hoc rules that reuse an id, patched into both tables in turn,
        are resolved on their own atoms, including the inconsistency."""
        pair = ClassPair.of("P3", "P4")
        neg = Rule("neg", "NotWqo", (("any",),), (("any",),))
        outcomes = []
        for first in (_sups("K3"), _sups("P3"), _sups("C4")):
            pos = Rule("pos", "WqoLabelled", first, (("any",),))
            monkeypatch.setattr(classifier, "WQO_RULES", (pos, neg))
            monkeypatch.setattr(classifier, "CW_RULES", (pos, neg))
            _assert_tables(pair, ("wqo", "cw"))
            outcomes.append(_outcome(classify_cw, pair))
        assert outcomes[0].status == outcomes[2].status == "NotWqo"
        assert outcomes[1] == "pair fired pos and neg"


BULL = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
# The triangle, the paw, their complements (3P1 and the co-paw P1+P3), and
# self-complementary graphs: the members that give a class more than two
# pairs, or fewer.
SPECIAL = [build(e) for e in ("K3", "co(P1+P3)", "3P1", "P1+P3", "P4", "C5")] + [BULL]
TRIANGLE, PAW = build("K3"), build("co(P1+P3)")


def _relabel(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def class_graphs(draw, max_n=7):
    """A random graph on at most max_n vertices, or a relabelled one of
    ``SPECIAL``."""
    if draw(st.booleans()):
        return draw(relabelled_graphs(max_n))[1]
    g = draw(st.sampled_from(SPECIAL))
    return _relabel(g, draw(st.permutations(range(g.n))))


@st.composite
def class_visits(draw):
    """A pair, its complement-both partner, its triangle <-> paw partners and
    a relabelled copy of each, in a drawn order, each with a drawn table
    order."""
    pairs = [(draw(class_graphs()), draw(class_graphs()))]
    pairs.append((complement(pairs[0][0]), complement(pairs[0][1])))
    for x, y in list(pairs):
        for g, other in ((x, y), (y, x)):
            if canonical_key(g) == canonical_key(TRIANGLE):
                pairs.append((PAW, other))
            elif canonical_key(g) == canonical_key(PAW):
                pairs.append((TRIANGLE, other))
    pairs += [
        tuple(_relabel(g, draw(st.permutations(range(g.n)))) for g in pair)
        for pair in pairs
    ]
    return [
        (ClassPair.of(x, y), draw(st.permutations(tuple(TABLES))))
        for x, y in draw(st.permutations(pairs))
    ]


class TestClosure:
    @given(class_graphs(), class_graphs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle(self, a, b, cold):
        """Member for member: labelled graphs, keys and order, whether the
        table of complement keys is empty or warm."""
        if cold:
            classifier._CO_KEYS.clear()
        equivalent_pairs.cache_clear()
        pair = ClassPair.of(a, b)

        def members(pairs):
            return [(p.h1, p.h2, p.k1, p.k2) for p in pairs]

        assert members(equivalent_pairs(pair)) == members(oracle_equivalent_pairs(pair))


class TestDecisionReuse:
    """A class is decided once per table; every later visit of a member or a
    relabelled copy reads the decision and finds its own ``via``."""

    @given(class_visits(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_members_and_copies(self, visits, cold):
        if cold:
            classifier._DECISIONS.clear()
        for pair, order in visits:
            _assert_tables(pair, order)

    def test_injected_inconsistency_on_every_member(self, monkeypatch):
        """Every member of an inconsistent class raises, and so does a
        relabelled copy, on the first and on later visits."""
        monkeypatch.setattr(
            classifier,
            "WQO_RULES",
            WQO_RULES + (Rule("inj", "NotWqo", _sups("P3"), _sups("P3")),),
        )
        members = equivalent_pairs(ClassPair.of("K3", "P4"))
        assert len(members) == 4
        visits = list(members) + [
            ClassPair.of(_relabel(p.h1, range(p.h1.n)[::-1]), p.h2) for p in members
        ]
        for _ in range(2):
            for pair in visits:
                with pytest.raises(RuleInconsistencyError, match="and inj$"):
                    classify_wqo(pair)
                _assert_tables(pair, ("wqo", "cw"))

    def test_later_tables_never_read_dropped_ones(self, monkeypatch):
        """Tables patched in one after another, each built right after the
        one before it was dropped, so that it may reuse that one's memory and
        id, while every other decision differs: each reads only its own."""
        monkeypatch.setattr(classifier, "WQO_RULES", classifier.WQO_RULES)
        pair = ClassPair.of("P3", "P4")
        idle = Rule("idle", "WqoLabelled", _sups("K7"), (("any",),))
        neg = Rule("neg", "NotWqo", (("any",),), (("any",),))
        outcomes = []
        for i in range(8):
            first = _sups("K3") if i % 2 else _sups("P3")
            pos = Rule("pos", "WqoLabelled", first, (("any",),))
            classifier.WQO_RULES = None
            classifier.WQO_RULES = (idle, pos, neg)
            _assert_tables(pair, ("wqo",))
            outcomes.append(_outcome(classify_wqo, pair))
        assert outcomes[0] == "pair fired pos and neg" and outcomes[1].status == "NotWqo"


class TestFirstVisit:
    """From empty tables, the first visit of each class returns the verdict
    of the walk that decides it, and that walk evaluates each atom only where
    a lazy rule walk reads it.  The corpus ends up reading nearly every key
    of every rule, so the count is pinned after its first 100 pairs too: a
    walk that resolves a rule's first side on every member before it looks
    for a match makes 770 evaluations there."""

    def test_cold_corpus(self, monkeypatch):
        for rule in WQO_RULES + CW_RULES:
            for side in rule._hits:
                side.clear()
        classifier._ATOMS.clear()
        classifier._DECISIONS.clear()
        equivalent_pairs.cache_clear()
        calls = []

        def counted(g, atom):
            calls.append(atom)
            return _matches(g, atom)

        monkeypatch.setattr(classifier, "_matches", counted)
        corpus = pair_corpus(5)
        outcomes, counts = [], []
        for pair in corpus:
            outcomes.append([_outcome(classify_wqo, pair), _outcome(classify_cw, pair)])
            counts.append(len(calls))
        assert counts[99] == 720 and counts[-1] == 2173
        for pair, got in zip(corpus, outcomes):
            assert got == [oracle_classify(pair, WQO_RULES), oracle_classify(pair, CW_RULES)]


class TestAudit:
    def test_lists_have_documented_sizes(self):
        assert len(OPEN_WQO_PAIRS) == 9
        assert len(OPEN_CW_PAIRS) == 8
        assert len(OPEN_BOTH_PAIRS) == 2

    def test_audit_all_open(self):
        report = audit_open_lists()
        assert report.ok
        blob = report.to_json()
        assert len(blob["wqo_open"]) == 9 and len(blob["cw_open"]) == 8


class TestCorpus:
    def test_counts_match_known_sequence(self):
        assert [len(nonisomorphic_graphs(n)) for n in range(1, 7)] == [
            1,
            2,
            4,
            11,
            34,
            156,
        ]

    def test_pairs_keyed_once_equal_pairs_of(self):
        """The corpus keys each graph once; its pairs, their order, members
        and keys are those of ``ClassPair.of`` on every pair of graphs."""
        graphs = [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]
        want = [ClassPair.of(a, b) for i, a in enumerate(graphs) for b in graphs[i:]]

        def members(pairs):
            return [(p.h1, p.h2, p.k1, p.k2) for p in pairs]

        assert members(pair_corpus(5)) == members(want)

    def test_rule_inconsistency_raised(self):
        both = (
            Rule("pos", "WqoLabelled", (("any",),), (("any",),)),
            Rule("neg", "NotWqo", (("any",),), (("any",),)),
        )
        with pytest.raises(RuleInconsistencyError, match="pos and neg"):
            _classify(ClassPair.of("P3", "P4"), both)

    def test_injected_inconsistency_equals_per_pair_oracle(self, monkeypatch):
        """With a negative rule that contradicts positive ones in each table,
        classifying each equivalence class once reports the same pairs, in
        the same order and with the same messages, as classifying every
        corpus pair."""
        monkeypatch.setattr(
            classifier,
            "WQO_RULES",
            WQO_RULES + (Rule("inj", "NotWqo", _sups("P3"), _sups("P3")),),
        )
        monkeypatch.setattr(
            classifier,
            "CW_RULES",
            CW_RULES + (Rule("inj-cw", "Unbounded", _sups("2P1"), _sups("2P1")),),
        )
        bad = check_rule_consistency(4)
        assert len(bad) == 98
        assert {m.split()[-1] for _, m in bad} == {"inj", "inj-cw"}
        assert bad == oracle_rule_consistency(4)

    def test_canonical_key_iso_invariant(self):
        assert canonical_key(build("S1,1,1")) == canonical_key(build("K1,3"))
        assert canonical_key(build("P4")) == canonical_key(complement(build("P4")))

    def test_equals_key_loop(self):
        for n in range(6):
            assert nonisomorphic_graphs(n) == oracle_nonisomorphic_graphs(n)

    def test_equals_marked_rows(self):
        for n in range(7):
            assert nonisomorphic_graphs(n) == oracle_marked_graphs(n)

    def test_keys_equal_networkx_atlas(self):
        """The atlas lists one graph per isomorphism class with at most seven
        vertices, and is built independently of both corpus constructions."""
        atlas: dict[int, set] = {n: set() for n in range(7)}
        for h in networkx.graph_atlas_g():
            if h.number_of_nodes() < 7:
                g = Graph.from_edges(h.number_of_nodes(), h.edges())
                atlas[g.n].add(canonical_key(g))
        for n in range(7):
            keys = [canonical_key(g) for g in nonisomorphic_graphs(n)]
            assert len(set(keys)) == len(keys) == len(atlas[n])
            assert set(keys) == atlas[n]

    def test_six_vertex_representatives(self):
        """Checked without either construction: each of the 156 graphs has
        the least edge mask of its 720 relabellings, so the masks, which
        ascend, name pairwise distinct classes."""
        pairs = list(itertools.combinations(range(6), 2))
        perms = list(itertools.permutations(range(6)))

        def mask(g, perm):
            return sum(
                (g.rows[perm[u]] >> perm[v] & 1) << i for i, (u, v) in enumerate(pairs)
            )

        graphs = nonisomorphic_graphs(6)
        assert len(graphs) == 156
        masks = [mask(g, perms[0]) for g in graphs]
        assert masks == sorted(set(masks))
        for g, own in zip(graphs, masks):
            assert own == min(mask(g, p) for p in perms)
        assert len({canonical_key(g) for g in graphs}) == 156


def wqo_but_unbounded(pairs) -> list[tuple[str, str]]:
    """The pairs, by graph6 names, that read ``WqoLabelled`` in the wqo
    table and ``Unbounded`` in the clique-width table.  The abstract
    conjectures that wqo implies bounded clique-width for finitely many
    forbidden graphs, so each is a transcription error in one table or a
    counterexample to the conjecture."""
    return [
        (encode_graph6(p.h1), encode_graph6(p.h2))
        for p in pairs
        if classify_wqo(p).status == "WqoLabelled" and classify_cw(p).status == "Unbounded"
    ]


class TestAgainstTheAbstract:
    """The two tables read together against the abstract: H-free graphs are
    wqo, and of bounded clique-width, iff H is an induced subgraph of P4;
    and no pair may read wqo with unbounded clique-width.  These test the
    transcription of the tables; they prove nothing new."""

    def test_monogenic_diagonal(self):
        p4 = build("P4")
        inside = {
            canonical_key(induced(p4, vs))
            for k in range(1, 5)
            for vs in itertools.combinations(range(4), k)
        }
        verdicts = {}
        for n in range(1, 7):
            for h in nonisomorphic_graphs(n):
                pair = ClassPair.of(h, h)
                want = (
                    ("WqoLabelled", "Bounded")
                    if canonical_key(h) in inside
                    else ("NotWqo", "Unbounded")
                )
                got = (classify_wqo(pair).status, classify_cw(pair).status)
                assert got == want, encode_graph6(h)
                verdicts[got] = verdicts.get(got, 0) + 1
        assert verdicts == {("WqoLabelled", "Bounded"): 6, ("NotWqo", "Unbounded"): 202}

    def test_no_wqo_pair_with_unbounded_clique_width(self):
        corpus = pair_corpus(5)
        assert len(corpus) == 1378
        assert wqo_but_unbounded(corpus) == []

    def test_conjecture_check_names_every_pair(self, monkeypatch):
        # Two synthetic tables, each consistent on its own, that read every
        # pair wqo and unbounded: the check must name each one.
        anything = (("any",),)
        monkeypatch.setattr(
            classifier, "WQO_RULES", (Rule("all-wqo", "WqoLabelled", anything, anything),)
        )
        monkeypatch.setattr(
            classifier, "CW_RULES", (Rule("all-unbounded", "Unbounded", anything, anything),)
        )
        corpus = pair_corpus(4)
        named = wqo_but_unbounded(corpus)
        assert len(named) == len(corpus) == 171
        assert named == [(encode_graph6(p.h1), encode_graph6(p.h2)) for p in corpus]


class TestComplementPatterns:
    def test_equal_complement_atoms(self):
        """Each clique-width atom on a complement pattern holds exactly where
        the complement atom it replaced held, on every graph with at most six
        vertices: g embeds into co(X) iff co(g) embeds into X, and co(X)
        embeds into g iff X embeds into co(g)."""
        graphs = [g for n in range(7) for g in nonisomorphic_graphs(n)]
        rules = {rule.id: rule for rule in CW_RULES}
        for rule_id, old_atoms in ORACLE_CO_ATOMS.items():
            atoms = rules[rule_id].second
            assert len(atoms) == len(old_atoms)
            for atom, old in zip(atoms, old_atoms):
                assert atom == (old[0].removeprefix("co_"), f"co({old[1]})")
                for g in graphs:
                    assert _matches(g, atom) == oracle_co_atom(g, old), (atom, g)


class TestCanonicalKey:
    @given(relabelled_graphs())
    @settings(max_examples=80, deadline=None)
    def test_equals_oracle(self, graphs):
        g, _ = graphs
        assert canonical_key(g) == oracle_canonical_key(g)

    @given(same_order_pairs())
    @settings(max_examples=40, deadline=None)
    def test_order_equals_oracle_bit_strings(self, graphs):
        """Keys of equal order compare as the oracle's least bit strings do,
        so ``ClassPair`` member order is that of bit-tuple keys; keys of
        different orders compare by order in both forms."""
        g, h = graphs
        kg, kh = canonical_key(g), canonical_key(h)
        bg, bh = oracle_key_bits(g), oracle_key_bits(h)
        assert (kg < kh, kg == kh) == (bg < bh, bg == bh)

    @given(relabelled_graphs(max_n=8))
    @settings(max_examples=150, deadline=None)
    def test_relabelling_invariant(self, graphs):
        g, h = graphs
        assert canonical_key(g) == canonical_key(h)

    @given(relabelled_graphs())
    @settings(max_examples=60, deadline=None)
    def test_atom_table_equals_direct_evaluation(self, graphs):
        g, h = graphs
        for atom in ATOMS:
            assert _holds(g, canonical_key(g), atom) == _matches(g, atom)
            assert _holds(h, canonical_key(h), atom) == _matches(h, atom)

    def test_order_cap(self):
        assert canonical_key(build("P8"))[0] == 8
        with pytest.raises(ValueError, match="at most 8 vertices"):
            canonical_key(build("P9"))
