"""Brute-force reference implementations used as independent oracles.

Everything here enumerates: no pruning, no shared code with the package's
search paths.  ``oracle_embed`` is the package's own injection oracle,
which the selftest also runs against the embedding solver.
"""

from itertools import combinations, permutations, product

from wqograph.acceptance import brute_force_embed as oracle_embed
from wqograph.graphs import Graph


def oracle_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and oracle_embed(a, b) is not None


def oracle_canonical_key(g: Graph) -> tuple:
    """``(n, bits)`` with ``bits`` the least upper-triangle adjacency string
    over all n! vertex orders."""
    best = None
    for perm in permutations(range(g.n)):
        bits = tuple(
            1 if g.adjacent(perm[i], perm[j]) else 0
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        if best is None or bits < best:
            best = bits
    return (g.n, best)


def oracle_subseq(a, b, leq) -> bool:
    """Exhaustive index-subsequence search."""
    for idx in combinations(range(len(b)), len(a)):
        if all(leq(a[k], b[idx[k]]) for k in range(len(a))):
            return True
    return False


def oracle_is_module(g: Graph, vs) -> bool:
    vs = set(vs)
    for y in range(g.n):
        if y in vs:
            continue
        hits = sum(1 for v in vs if g.adjacent(y, v))
        if hits not in (0, len(vs)):
            return False
    return True


def oracle_k_uniform(g: Graph, k: int) -> bool:
    """Toy-size uniformicity decision by full enumeration of templates and
    slot injections (copies capped at the vertex count)."""
    n = g.n
    diag_pairs = [(i, j) for i in range(k) for j in range(i, k)]
    edge_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    slots = [(c, i) for c in range(max(n, 1)) for i in range(k)]
    for kbits in product((0, 1), repeat=len(diag_pairs)):
        matrix = [[0] * k for _ in range(k)]
        for (i, j), bit in zip(diag_pairs, kbits):
            matrix[i][j] = matrix[j][i] = bit
        for fbits in product((0, 1), repeat=len(edge_pairs)):
            fadj = [[False] * k for _ in range(k)]
            for (i, j), bit in zip(edge_pairs, fbits):
                fadj[i][j] = fadj[j][i] = bool(bit)

            def law(s, t):
                (c, i), (d, j) = s, t
                base = c == d and fadj[i][j]
                return base != bool(matrix[i][j])

            for assign in permutations(slots, n):
                if all(
                    g.adjacent(u, v) == law(assign[u], assign[v])
                    for u in range(n)
                    for v in range(u + 1, n)
                ):
                    return True
    return False
