"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from wqograph.graphs import Graph


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
