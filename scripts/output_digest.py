#!/usr/bin/env python3
"""Print one SHA-256 digest per family of observable outputs, so that two
checkouts can be compared with one command:

    diff <(PYTHONPATH=src python scripts/output_digest.py) \\
         <(cd ../other && PYTHONPATH=src python scripts/output_digest.py)

Families:

- ``selftest``: stdout of ``wqograph selftest --json``;
- ``decompose``: ``route``, the report of the decomposer it selects and the
  image of the report's script, over the class members the ``certify``
  benchmark sets up for seed 1 (same makers, counts and seeds);
- ``mutants``: the reports of ``decompose_c5`` with the member's anchor over
  every C5 claim mutant of those members;
- ``claims``: for each of those members, four seeded one-pair toggles, and
  for each the report of the member's decomposer with the member's anchor,
  or its ``ValueError`` message, so that the claim failures and witnesses of
  all three branches are compared;
- ``route``: the branch, or the ``RouteError`` message and witness, over a
  fixed battery of random graphs with at most 14 vertices;
- ``embed``: ``induced_embed`` of five patterns into the same battery;
- ``nodes``: the nodes (``SearchBudget.used``) of each ``induced_embed`` call
  of the ``embed`` and ``antichain`` families, so that two checkouts can be
  compared on search effort as well as on first embeddings;
- ``anchors``: ``find_induced_cycle`` with lengths 4 and 5, the C4 and C5
  anchors of the decomposers, over the same battery;
- ``free``: ``is_free`` (verdict, pattern index and witness) of those five
  patterns, the gem ``co(P1+P4)``, ``P1+P4``, ``P1+2P2``, ``K4``, ``2K2``,
  ``3P1``, the paw, the claw and a relabelled diamond over the same
  battery, and of each forbidden pattern of thm51 (2..12) and thm52
  (3..12), one at a time and all together, in canonical and randomly
  relabelled members;
- ``delete``: ``delete_vertices`` of random vertex sets, with some vertices
  out of range, over the same battery;
- ``uniform``: ``uniformicity(g, 3)``, the order and the witness or None,
  over random graphs with at most 10 vertices at several edge densities and
  over random induced subgraphs of expansions of random templates of order
  at most 3;
- ``uniform-hard``: ``uniformicity(g, 3)`` over graphs drawn as the ``uniform``
  benchmark draws its 8-vertex searches (14 of the 28 pairs as edges), many of
  which split into three parts with a matching or a co-matching between any
  two yet have no witness, and over restricted template expansions with one
  vertex pair flipped;
- ``uniform-order``: the orders alone (or None) of the ``uniform`` and
  ``uniform-hard`` searches, so that two checkouts whose witnesses differ
  can still be compared on verdicts;
- ``uniform-nodes``: the nodes (``SearchBudget.used``) of each of those
  searches, and for the first 300 graphs of each battery the node at which
  the search runs out under budgets of 0, 1, 5, 17 and 60 nodes (or None
  where it finishes), so that two checkouts are compared on search effort
  and on where an exhausted budget stops;
- ``antichain``: ``verify_family`` reports (thm51 2..6, thm52 3..5, cycles
  4..13); ``induced_embed`` both ways between randomly relabelled members of
  one family; the first embeddings of paths, cycles, cliques and matchings
  into canonical and relabelled members; and ``reconstruct_thm52`` from
  every start of thm52 3..16, canonical and relabelled;
- ``classify``: the ``classify`` report (verdicts, rules, witnesses, families
  and warnings) of both orientations of every ``pair_corpus(5)`` pair and of
  random pairs on 4..7 vertices, and the open-list audit;
- ``tables``: ``classify_cw`` then ``classify_wqo`` (reversed on alternate
  pairs) of every ``pair_corpus(5)`` pair and of the same random pairs, each
  verdict's status, rule, graph6 of ``via`` and family, so that one table's
  call cannot leak into the other's;
- ``corpus``: the rows of every graph of ``nonisomorphic_graphs(n)`` for
  n = 0..6, in order;
- ``corpus7``: the rows of the 1,044 graphs of ``nonisomorphic_graphs(7)``,
  in order;
- ``instances``: the rows of ``k5_instance``, ``c5_instance`` and
  ``c4_instance`` for seeds 0..4,999;
- ``orbits``: the host orbits of each graph of the battery and of the
  graphs the ``antichain`` benchmark sets up for seed 1, then its own
  detection (``orbits``, ``bounds`` and ``nodes``), read in that order from
  a cleared record cache and class table, so that the orbits a copy reads
  through a match against its class's representative are compared
  directly, and not only through the nodes they save.  It runs last, so
  that clearing the tables changes no other family;
- ``templates``: for each graph of the ``uniform`` battery with a witness
  of order at most 3, a seeded flip set and a seeded (X, Y) split, the
  witness carried through the subgraph and the bipartite complementation:
  each doubled template (k, F rows, matrix), its assignment and its
  ``verify_witness`` result on the complemented graph;
- ``malformed``: the message that ``Graph(n, rows)`` raises (or None) on a
  seeded battery of random graphs' rows with up to three bits toggled (a
  bit without its mirror, a bit beyond n - 1 or a self-loop), a few of them
  at orders outside 0..64 or around the cap;
- ``expansions``: the rows of ``expand_template`` over seeded templates of
  order 1..8 with 1..8 copies (at most 64 vertices), and the message it
  raises for a few expansions over the vertex cap;
- ``room``: the verdict (embedding or not) and the nodes of
  ``induced_embed`` for every ordered pair of the members thm51 2..8,
  thm52 3..7 and cycles 4..16, so that the calls the room check settles
  at no node are compared with their verdicts;
- ``scripts``: over seeded random graphs on 0..64 vertices, ``induced`` of
  a random vertex list (unsorted, with repeats, now and then a vertex out
  of range) and ``apply_script`` of a random script of ``sc``, ``bc`` and
  runs of ``del`` steps: the rows, or the message (and for a script the
  failing step's index);
- ``shapes``: ``connected_components``, the ``is_bipartite`` sides,
  ``is_linear_forest`` and ``in_class_S`` over the battery of the ``route``
  family and the graphs the ``antichain`` benchmark sets up for seed 1.

Takes no arguments; under a minute on one core.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

from wqograph import antichains, classifier, cli, instances, structure, uniform
from wqograph.graphs import (
    Graph,
    build,
    connected_components,
    delete_vertices,
    encode_graph6,
    induced,
    is_bipartite,
)
from wqograph.ops import (
    BipartiteComplement,
    DeleteVertex,
    OpScript,
    OpScriptError,
    SubgraphComplement,
    apply_script,
    bipartite_complement,
    subgraph_complement,
)
from wqograph.order import (
    _CLASSES,
    SearchBudget,
    SearchBudgetExceeded,
    _record,
    in_class_S,
    induced_embed,
    is_free,
    is_linear_forest,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402  (the benchmark's input makers)

MEMBERS = (
    ("K5", instances.k5_instance, instances.k5_branch_valid, 150),
    ("C5", instances.c5_instance, instances.c5_branch_valid, 250),
    ("C4", instances.c4_instance, instances.c4_branch_valid, 150),
)
MEMBER_START_SEED = 1_000_000
CLAIMS_SEED = 20261022
CLAIMS_TOGGLES = 4  # per member
BATTERY_SEED = 20261018
BATTERY_SIZE = 3000
PATTERNS = ("K3", "P4", "C5", "co(2P1+P2)", "P2+P3")
# co(P2+2P1) is the diamond co(2P1+P2) under another labelling; co(P1+P3)
# is the paw and K1,3 the claw.
FREE_PATTERNS = PATTERNS + (
    "co(P1+P4)",
    "P1+P4",
    "P1+2P2",
    "K4",
    "2K2",
    "3P1",
    "co(P1+P3)",
    "K1,3",
    "co(P2+2P1)",
)
FREE_SEED = 20261023
FREE_FAMILIES = (("thm51", range(2, 13)), ("thm52", range(3, 13)))
UNIFORM_SEED = 20261019
UNIFORM_DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
UNIFORM_GRAPHS = 300  # per density
UNIFORM_EXPANSIONS = 500
UNIFORM_HARD_SEED = 20261021
UNIFORM_HARD_GRAPHS = 300
UNIFORM_HARD_MUTANTS = 300
UNIFORM_PROBE_GRAPHS = 300  # per battery
UNIFORM_PROBE_LIMITS = (0, 1, 5, 17, 60)
ANTICHAIN_SEED = 20261020
FAMILY_REPORTS = (("thm51", range(2, 7)), ("thm52", range(3, 6)), ("cycles", range(4, 14)))
RELABELLED_PAIRS = (("thm51", range(2, 6)), ("thm52", range(3, 6)), ("cycles", range(4, 14)))
SMALL_PATTERNS = (
    [f"P{k}" for k in range(2, 9)]
    + [f"C{k}" for k in range(3, 9)]
    + [f"K{k}" for k in range(2, 6)]
    + [f"{k}K2" for k in range(1, 5)]
)
PATTERN_HOSTS = (("thm51", range(2, 5)), ("thm52", range(3, 5)), ("cycles", range(4, 11)))
CLASSIFY_SEED = 20261024
CLASSIFY_RANDOM_PAIRS = 300
INSTANCE_MAKERS = (instances.k5_instance, instances.c5_instance, instances.c4_instance)
INSTANCE_SEEDS = range(5000)
TEMPLATES_SEED = 20261025
MALFORMED_SEED = 20261026
MALFORMED_ROWS = 3000
EXPANSIONS_SEED = 20261027
EXPANSIONS = 1000
EXPANSIONS_OVER_CAP = ((1, 65), (5, 13), (8, 9), (9, 8), (33, 2), (64, 2))
ROOM_MEMBERS = (("thm51", range(2, 9)), ("thm52", range(3, 8)), ("cycles", range(4, 17)))
SCRIPTS_SEED = 20261028
SCRIPTS_GRAPHS = 1500


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, value) -> None:
        self.sha.update(json.dumps(value, sort_keys=True).encode())
        self.sha.update(b"\n")

    def hex(self) -> str:
        return self.sha.hexdigest()


def selftest() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["selftest", "--json"])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def members_and_mutants() -> tuple[str, str, str]:
    members, mutants, claims = Digest(), Digest(), Digest()
    rng = random.Random(CLAIMS_SEED)
    for branch, maker, valid, count in MEMBERS:
        found = instances.class_members(
            maker, count, start_seed=MEMBER_START_SEED, valid=valid
        )
        for seed, g in found:
            routed = structure.route(g)
            decompose = getattr(structure, "decompose_" + routed.lower())
            report = decompose(g)
            image = apply_script(g, report.script)
            members.add([branch, seed, routed, report.to_json(), list(image.rows)])
            for _ in range(CLAIMS_TOGGLES):
                pair = tuple(sorted(rng.sample(range(g.n), 2)))
                toggled = Graph.from_edges(g.n, sorted(set(g.edges()) ^ {pair}))
                try:
                    out = decompose(toggled, report.anchor).to_json()
                except ValueError as exc:
                    out = str(exc)
                claims.add([seed, pair, out])
            if branch != "C5":
                continue
            for claim, mutant in instances.c5_claim_mutants(g, report):
                mrep = structure.decompose_c5(mutant, cycle=report.anchor)
                image = apply_script(mutant, mrep.script)
                mutants.add([seed, claim, mrep.to_json(), list(image.rows)])
    return members.hex(), mutants.hex(), claims.hex()


def battery() -> list[Graph]:
    rng = random.Random(BATTERY_SEED)
    graphs = []
    for _ in range(BATTERY_SIZE):
        n = rng.randint(0, 14)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph.from_edges(n, edges))
    return graphs


def counted_embed(h: Graph, g: Graph, nodes: Digest):
    """``induced_embed(h, g)``, with the nodes it spent added to ``nodes``."""
    budget = SearchBudget(1 << 62)
    emb = induced_embed(h, g, budget)
    nodes.add(budget.used)
    return emb


def random_graphs(nodes: Digest) -> tuple[str, str, str]:
    routes, embeds, deletes = Digest(), Digest(), Digest()
    patterns = [build(p) for p in PATTERNS]
    rng = random.Random(BATTERY_SEED + 1)
    for g in battery():
        try:
            routes.add(["branch", structure.route(g)])
        except structure.RouteError as exc:
            routes.add(["error", str(exc), list(exc.witness or ())])
        for h in patterns:
            emb = counted_embed(h, g, nodes)
            embeds.add(None if emb is None else list(emb))
        drop = [v for v in range(g.n + 3) if rng.random() < 0.3]
        deletes.add([drop, list(delete_vertices(g, drop).rows)])
    return routes.hex(), embeds.hex(), deletes.hex()


def anchors() -> str:
    digest = Digest()
    for g in battery():
        digest.add([structure.find_induced_cycle(g, 4), structure.find_induced_cycle(g, 5)])
    return digest.hex()


def antichain_hosts() -> list[Graph]:
    """The graphs of the ``antichain`` benchmark's seed-1 inputs, each once,
    in the order it sets them up."""
    free_cells, incomparable, rigid = workloads.antichain_setup(1)
    graphs = [g for _, g, _ in free_cells]
    graphs += [g for _, small, large in incomparable for g in (small, large)]
    graphs += [g for _, _, g in rigid]
    return list(dict.fromkeys(graphs))


def orbits() -> str:
    digest = Digest()
    _record.cache_clear()
    _CLASSES.clear()
    for g in battery() + antichain_hosts():
        record = _record(g)
        host = record.host_orbits
        chain = record.chain
        digest.add([list(g.rows), host, chain.orbits, chain.bounds, chain.nodes])
    return digest.hex()


def freeness() -> str:
    digest = Digest()
    patterns = [build(p) for p in FREE_PATTERNS]
    for g in battery():
        for h in patterns:
            digest.add(list(is_free(g, [h])))
    rng = random.Random(FREE_SEED)
    for family, ns in FREE_FAMILIES:
        exprs = antichains.FAMILIES[family].forbidden
        forbidden = [build(p) for p in exprs]
        for n in ns:
            member = antichains.family_member(family, n)
            for g in (member, relabelled(member, rng)):
                for expr, h in zip(exprs, forbidden):
                    digest.add([family, n, expr, list(g.rows), list(is_free(g, [h]))])
                digest.add([family, n, list(g.rows), list(is_free(g, forbidden))])
    return digest.hex()


def uniform_battery() -> list[Graph]:
    rng = random.Random(UNIFORM_SEED)
    graphs = []
    for p in UNIFORM_DENSITIES:
        for _ in range(UNIFORM_GRAPHS):
            n = rng.randint(0, 10)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            graphs.append(Graph.from_edges(n, edges))
    for _ in range(UNIFORM_EXPANSIONS):
        graphs.append(restricted_expansion(rng))
    return graphs


def random_template(rng: random.Random, k: int) -> uniform.UniformTemplate:
    """A template of order k: each F edge with probability 1/2, each K
    entry 0 or 1."""
    f = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5]
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            matrix[i][j] = matrix[j][i] = rng.randint(0, 1)
    return uniform.UniformTemplate(k, Graph.from_edges(k, f), tuple(tuple(r) for r in matrix))


def restricted_expansion(rng: random.Random) -> Graph:
    """A random induced subgraph, with at most 10 vertices, of
    an expansion of a random template of order at most 3."""
    template = random_template(rng, rng.randint(1, 3))
    g = uniform.expand_template(template, rng.randint(1, 4))
    size = rng.randint(1, min(g.n, 10))
    return induced(g, sorted(rng.sample(range(g.n), size)))


def uniform_hard_battery() -> list[Graph]:
    rng = random.Random(UNIFORM_HARD_SEED)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    graphs = [Graph.from_edges(8, rng.sample(pairs, len(pairs) // 2)) for _ in range(UNIFORM_HARD_GRAPHS)]
    while len(graphs) < UNIFORM_HARD_GRAPHS + UNIFORM_HARD_MUTANTS:
        g = restricted_expansion(rng)
        if g.n > 1:
            flip = tuple(sorted(rng.sample(range(g.n), 2)))
            graphs.append(Graph.from_edges(g.n, sorted(set(g.edges()) ^ {flip})))
    return graphs


def uniform_searches(battery: list[Graph], orders: Digest, nodes: Digest) -> str:
    """The digest of the orders and witnesses; the orders alone also go to
    ``orders``, and the nodes and budget probes to ``nodes``."""
    digest = Digest()
    for i, g in enumerate(battery):
        budget = SearchBudget(1 << 62)
        found = uniform.uniformicity(g, 3, budget=budget)
        digest.add(None if found is None else [found[0], found[1].to_json()])
        orders.add(None if found is None else found[0])
        nodes.add(budget.used)
        if i < UNIFORM_PROBE_GRAPHS:
            nodes.add([exhausted_at(g, limit) for limit in UNIFORM_PROBE_LIMITS])
    return digest.hex()


def exhausted_at(g: Graph, limit: int) -> int | None:
    """The node at which ``uniformicity(g, 3)`` runs out of a budget of
    ``limit`` nodes, or None if it finishes within it."""
    try:
        uniform.uniformicity(g, 3, budget=SearchBudget(limit))
    except SearchBudgetExceeded as exc:
        return exc.nodes
    return None


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def antichain(nodes: Digest) -> str:
    digest = Digest()
    rng = random.Random(ANTICHAIN_SEED)
    for family, ns in FAMILY_REPORTS:
        digest.add(antichains.verify_family(family, ns).to_json())
    for family, ns in RELABELLED_PAIRS:
        members = [relabelled(antichains.family_member(family, n), rng) for n in ns]
        for i, small in enumerate(members):
            for large in members[i + 1 :]:
                for h, g in ((small, large), (large, small)):
                    emb = counted_embed(h, g, nodes)
                    emb = None if emb is None else list(emb)
                    digest.add([family, list(h.rows), list(g.rows), emb])
    patterns = [build(p) for p in SMALL_PATTERNS]
    for family, ns in PATTERN_HOSTS:
        for n in ns:
            member = antichains.family_member(family, n)
            for g in (member, relabelled(member, rng)):
                for expr, h in zip(SMALL_PATTERNS, patterns):
                    emb = counted_embed(h, g, nodes)
                    digest.add([family, n, expr, list(g.rows), None if emb is None else list(emb)])
    for n in range(3, 17):
        member = antichains.gen_thm52(n)
        for g in (member, relabelled(member, rng)):
            digest.add([list(g.rows), [antichains.reconstruct_thm52(g, s) for s in range(g.n)]])
    return digest.hex()


def classify_random_pairs() -> list[tuple[Graph, Graph]]:
    rng = random.Random(CLASSIFY_SEED)
    pairs = []
    for _ in range(CLASSIFY_RANDOM_PAIRS):
        pair = []
        for _ in range(2):
            n, p = rng.randint(4, 7), rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            pair.append(Graph.from_edges(n, edges))
        pairs.append(tuple(pair))
    return pairs


def classify() -> str:
    digest = Digest()
    for pair in classifier.pair_corpus(5):
        for a, b in ((pair.h1, pair.h2), (pair.h2, pair.h1)):
            digest.add(classifier.classify(a, b).to_json())
    for pair in classify_random_pairs():
        digest.add(classifier.classify(*pair).to_json())
    digest.add(classifier.audit_open_lists().to_json())
    return digest.hex()


def tables() -> str:
    digest = Digest()
    order = (("cw", classifier.classify_cw), ("wqo", classifier.classify_wqo))
    pairs = [(p.h1, p.h2) for p in classifier.pair_corpus(5)] + classify_random_pairs()
    for i, (a, b) in enumerate(pairs):
        pair = classifier.ClassPair.of(a, b)
        for table, classify_one in order if i % 2 == 0 else order[::-1]:
            v = classify_one(pair)
            via = None if v.via is None else [encode_graph6(g) for g in v.via]
            digest.add([table, v.status, v.rule, via, v.family])
    return digest.hex()


def corpus() -> str:
    digest = Digest()
    for n in range(7):
        for g in classifier.nonisomorphic_graphs(n):
            digest.add([n, list(g.rows)])
    return digest.hex()


def corpus7() -> str:
    digest = Digest()
    for g in classifier.nonisomorphic_graphs(7):
        digest.add(list(g.rows))
    return digest.hex()


def instance_rows() -> str:
    digest = Digest()
    for maker in INSTANCE_MAKERS:
        for seed in INSTANCE_SEEDS:
            digest.add([maker.__name__, seed, list(maker(seed).rows)])
    return digest.hex()


def templates() -> str:
    digest = Digest()
    rng = random.Random(TEMPLATES_SEED)
    for g in uniform_battery():
        flip = [v for v in range(g.n) if rng.random() < 0.5]
        sides = [rng.randrange(3) for _ in range(g.n)]
        x = [v for v in range(g.n) if sides[v] == 0]
        y = [v for v in range(g.n) if sides[v] == 1]
        found = uniform.uniformicity(g, 3)
        if found is None:
            digest.add(None)
            continue
        witness = found[1]
        for flipped, moved in (
            (subgraph_complement(g, flip), uniform.transport_complement(witness, flip)),
            (bipartite_complement(g, x, y), uniform.transport_bipartite(witness, x, y)),
        ):
            t = moved.template
            check = uniform.verify_witness(flipped, moved)
            digest.add([t.k, list(t.f.rows), t.matrix, moved.assign, check.ok, check.violation])
    return digest.hex()


def malformed() -> str:
    digest = Digest()
    rng = random.Random(MALFORMED_SEED)
    for _ in range(MALFORMED_ROWS):
        n = rng.randint(0, 14) if rng.random() < 0.95 else rng.choice((-1, 63, 64, 65))
        p = rng.random()
        rows = [0] * max(n, 0)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for _ in range(rng.randint(0, 3) if n > 0 else 0):
            v = rng.randrange(n)
            kind = rng.choice(("mirror", "range", "loop"))
            if kind == "mirror" and n > 1:
                rows[v] ^= 1 << rng.choice([w for w in range(n) if w != v])
            elif kind == "range":
                rows[v] ^= 1 << rng.randint(n, 70)
            elif kind == "loop":
                rows[v] ^= 1 << v
        try:
            Graph(n, tuple(rows))
            message = None
        except ValueError as exc:
            message = str(exc)
        digest.add([n, rows, message])
    return digest.hex()


def expansions() -> str:
    digest = Digest()
    rng = random.Random(EXPANSIONS_SEED)
    for _ in range(EXPANSIONS):
        t = random_template(rng, rng.randint(1, 8))
        copies = rng.randint(1, 8)
        g = uniform.expand_template(t, copies)
        digest.add([t.k, list(t.f.rows), t.matrix, copies, list(g.rows)])
    for k, copies in EXPANSIONS_OVER_CAP:
        t = random_template(rng, k)
        try:
            uniform.expand_template(t, copies)
            message = None
        except ValueError as exc:
            message = str(exc)
        digest.add([k, copies, message])
    return digest.hex()


def room() -> str:
    digest = Digest()
    members = [
        (family, n, antichains.family_member(family, n))
        for family, ns in ROOM_MEMBERS
        for n in ns
    ]
    for fh, nh, h in members:
        for fg, ng, g in members:
            budget = SearchBudget(1 << 62)
            found = induced_embed(h, g, budget) is not None
            digest.add([fh, nh, fg, ng, found, budget.used])
    return digest.hex()


def scripts() -> str:
    digest = Digest()
    rng = random.Random(SCRIPTS_SEED)

    def vertex(n: int) -> int:
        return rng.randint(-1, n + 1) if rng.random() < 0.03 else rng.randrange(max(n, 1))

    for _ in range(SCRIPTS_GRAPHS):
        n = rng.randint(0, 64)
        p = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, [pair for pair in pairs if rng.random() < p])
        vs = [vertex(n) for _ in range(rng.randint(0, n + 4))]
        try:
            digest.add(["induced", vs, list(induced(g, vs).rows)])
        except ValueError as exc:
            digest.add(["induced", vs, str(exc)])
        steps, order = [], n
        for _ in range(rng.randint(0, 12)):
            op = rng.choice(("sc", "bc", "del", "del", "del"))
            if op == "del":
                v = vertex(order)
                steps.append(DeleteVertex(v))
                order -= 0 <= v < order
            elif op == "sc":
                s = tuple(vertex(order) for _ in range(rng.randint(0, 5)))
                steps.append(SubgraphComplement(s))
            else:
                side = [vertex(order) for _ in range(rng.randint(0, 6))]
                cut = rng.randint(0, len(side))
                steps.append(BipartiteComplement(tuple(side[:cut]), tuple(side[cut:])))
        script = OpScript(tuple(steps))
        try:
            digest.add(["script", script.to_json(), list(apply_script(g, script).rows)])
        except OpScriptError as exc:
            digest.add(["script", script.to_json(), exc.step_index, str(exc)])
    return digest.hex()


def shapes() -> str:
    digest = Digest()
    for g in battery() + antichain_hosts():
        digest.add([connected_components(g), is_bipartite(g), is_linear_forest(g), in_class_S(g)])
    return digest.hex()


def main() -> int:
    digests = {"selftest": selftest()}
    digests["decompose"], digests["mutants"], digests["claims"] = members_and_mutants()
    nodes = Digest()
    digests["route"], digests["embed"], digests["delete"] = random_graphs(nodes)
    digests["anchors"] = anchors()
    digests["free"] = freeness()
    orders, uniform_nodes = Digest(), Digest()
    digests["uniform"] = uniform_searches(uniform_battery(), orders, uniform_nodes)
    digests["uniform-hard"] = uniform_searches(uniform_hard_battery(), orders, uniform_nodes)
    digests["uniform-order"] = orders.hex()
    digests["uniform-nodes"] = uniform_nodes.hex()
    digests["antichain"] = antichain(nodes)
    digests["nodes"] = nodes.hex()
    digests["classify"] = classify()
    digests["tables"] = tables()
    digests["corpus"] = corpus()
    digests["corpus7"] = corpus7()
    digests["instances"] = instance_rows()
    digests["orbits"] = orbits()
    digests["templates"] = templates()
    digests["malformed"] = malformed()
    digests["expansions"] = expansions()
    digests["room"] = room()
    digests["scripts"] = scripts()
    digests["shapes"] = shapes()
    for name, value in digests.items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
