"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from wqograph.graphs import Graph


@st.composite
def small_graphs(draw, max_n=8):
    """A graph on at most ``max_n`` vertices, each pair an edge or not."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, b in zip(pairs, bits) if b])
