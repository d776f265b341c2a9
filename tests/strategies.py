"""Hypothesis strategies shared by the test modules, :func:`counted`,
which runs a check under hypothesis and returns what each case gave, so
that a test can assert how many cases it checked and of which kinds, and
the seeded graph helpers :func:`random_graph` and :func:`relabel`."""

from hypothesis import given, settings
from hypothesis import strategies as st

from wqograph.graphs import Graph


def random_graph(rng, n, p=0.5):
    """G(n, p) drawn from ``rng``, one draw per pair in row order."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def relabel(g, perm):
    """``g`` with vertex v renamed ``perm[v]``."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def pair_bits(m: int):
    """m independent fair bits in one draw: one byte each, read at bit 0.
    One draw per graph costs far less than one boolean per pair, and a byte
    that shrinks to zero still shrinks its bit to 0."""
    return st.binary(min_size=m, max_size=m).map(lambda data: [b & 1 for b in data])


@st.composite
def small_graphs(draw, max_n=8):
    """A graph on at most ``max_n`` vertices, each pair an edge or not."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(pair_bits(len(pairs)))
    return Graph.from_edges(n, [p for p, b in zip(pairs, bits) if b])


@st.composite
def bipartite_graphs(draw, max_n=14):
    """A bipartite graph on at most ``max_n`` vertices: each vertex on a
    drawn side, each pair across the sides an edge or not."""
    n = draw(st.integers(0, max_n))
    side = draw(pair_bits(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    bits = draw(pair_bits(len(pairs)))
    return Graph.from_edges(n, [p for p, b in zip(pairs, bits) if b])


@st.composite
def forest_like_graphs(draw, max_n=14):
    """A forest on at most ``max_n`` vertices, each vertex after the first
    a root or hung from an earlier one (about half are roots), plus up to
    three more edges, each joining two vertices of degree at most 1, which
    may close cycles; relabelled at random."""
    n = draw(st.integers(0, max_n))
    degree = [0] * n
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(-v, v - 1))
        if parent >= 0:
            edges.add((parent, v))
            degree[parent] += 1
            degree[v] += 1
    for _ in range(draw(st.integers(0, 3))):
        low = [v for v in range(n) if degree[v] <= 1]
        if len(low) < 2:
            break
        u, v = sorted(draw(st.lists(st.sampled_from(low), min_size=2, max_size=2, unique=True)))
        if (u, v) not in edges:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def counted(strategy, check, examples: int) -> list:
    """What ``check`` returned on each of the ``examples`` cases that
    hypothesis drew from ``strategy``."""
    results = []

    @settings(max_examples=examples, deadline=None)
    @given(strategy)
    def run(value):
        results.append(check(value))

    run()
    return results
