"""Seeded constructive generators for decomposer test batteries.

Rejection sampling over arbitrary graphs essentially never lands in the
diamond-free / P2+P3-free class, so each generator builds candidates inside
the decomposition's own shape: forced complete/anticomplete relations are
wired exactly, optional relations (matchings, co-matchings, junk vertices)
are drawn at random within the allowed pattern.  Candidates are then
verified for actual class membership; callers iterate seeds and discard
failures, so every accepted instance is reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import Callable

from .graphs import Graph, _graph, bits_of, mask_of, pattern
from .order import _split_free
from .structure import C5_CASES, CLASS_FORBIDDEN_EXPRS, find_clique, find_induced_cycle


def is_class_member(g: Graph) -> bool:
    return all(_split_free(pattern(expr), g) for expr in CLASS_FORBIDDEN_EXPRS)


MAX_ATTEMPTS = 4000


def class_members(
    maker: Callable[[int], Graph],
    count: int,
    *,
    start_seed: int = 0,
    valid: Callable[[Graph], bool],
) -> list[tuple[int, Graph]]:
    """First ``count`` seeds whose candidate passes membership and
    ``valid``, scanning at most ``MAX_ATTEMPTS`` seeds from
    ``start_seed``, or four per member asked for if that is more: the C4
    branch, the sparsest, accepts about one seed in 3.2."""
    out = []
    seed = start_seed
    attempts = 0
    limit = max(MAX_ATTEMPTS, 4 * count)
    while len(out) < count and attempts < limit:
        g = maker(seed)
        if is_class_member(g) and valid(g):
            out.append((seed, g))
        seed += 1
        attempts += 1
    if len(out) < count:
        raise RuntimeError(
            f"only {len(out)}/{count} instances accepted after {attempts} attempts"
        )
    return out


# ---------------------------------------------------------------------------
# 5-clique branch instances


def k5_instance(seed: int) -> Graph:
    """Maximal clique X plus outside cliques respecting the one-neighbour
    and near-complete attachment rules; the seed's residue picks which of
    the four case shapes to aim for."""
    rng = random.Random(seed)
    case = seed % 4 + 1
    m = rng.randint(5, 7)
    edges = [(a, b) for a in range(m) for b in range(a + 1, m)]
    n = m
    cliques: list[list[int]] = []

    def add_clique(size: int) -> list[int]:
        nonlocal n
        vs = list(range(n, n + size))
        n += size
        edges.extend((a, b) for a in vs for b in vs if a < b)
        cliques.append(vs)
        return vs

    def attach_matching_or_complete(clique: list[int]) -> None:
        if rng.random() < 0.3:
            x = rng.randrange(m)
            edges.extend((x, y) for y in clique)
        else:
            xs = rng.sample(range(m), min(m, len(clique)))
            for x, y in zip(xs, clique):
                if rng.random() < 0.7:
                    edges.append((x, y))

    def attach_near_complete(x: int, clique: list[int], miss: int | None) -> None:
        edges.extend((x, y) for y in clique if y != miss)

    if case == 1:
        if rng.random() < 0.5:
            big = add_clique(rng.randint(2, 3))
            attach_matching_or_complete(big)
    elif case == 2:
        for _ in range(rng.randint(1, 4)):
            (v,) = add_clique(1)
            if rng.random() < 0.8:
                edges.append((rng.randrange(m), v))
    elif case == 3:
        designated = rng.sample(range(m), rng.randint(1, 2))
        size = 2 if len(designated) == 2 else rng.randint(2, 3)
        big = add_clique(size)
        if len(designated) == 2:
            attach_near_complete(designated[0], big, big[0])
            attach_near_complete(designated[1], big, big[1])
        else:
            miss = big[0] if rng.random() < 0.5 else None
            attach_near_complete(designated[0], big, miss)
        for _ in range(rng.randint(1, 2)):
            (v,) = add_clique(1)
            edges.append((rng.choice(designated), v))
    else:
        designated = rng.sample(range(m), rng.randint(1, 2))
        nlarge = rng.randint(2, 3)
        size_choices = [2] if len(designated) == 2 else [2, 3]
        for _ in range(nlarge):
            big = add_clique(rng.choice(size_choices))
            if len(designated) == 2:
                attach_near_complete(designated[0], big, big[0])
                attach_near_complete(designated[1], big, big[1])
            else:
                miss = big[0] if rng.random() < 0.5 else None
                attach_near_complete(designated[0], big, miss)
        if rng.random() < 0.5:
            (v,) = add_clique(1)
            edges.append((rng.choice(designated), v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# 5-cycle branch instances


def c5_instance(seed: int) -> Graph:
    """Induced 5-cycle with satellite sets wired inside the claim pattern.

    The largeness pattern is chosen per the seed's residue (all seven case
    shapes get exercised), forced relations are wired exactly, and the free
    matchings / co-matchings are drawn at random while honouring the
    complete-or-anticomplete coupling for pairs removed between two large
    consecutive sets.
    """
    rng = random.Random(seed)
    case = seed % 7 + 1
    rot = rng.randrange(5)
    large = {(p + rot) % 5 for p in C5_CASES[case][0]}
    if case == 7 and rng.random() < 0.3:
        large = set()
    sizes = [
        rng.randint(3, 4) if i in large else rng.choice([0, 0, 1, 2])
        for i in range(5)
    ]
    x_size = rng.choice([0, 1, 2, 3, 3, 4])

    n = 5
    vsets: list[list[int]] = []
    for i in range(5):
        vsets.append(list(range(n, n + sizes[i])))
        n += sizes[i]
    xset = list(range(n, n + x_size))
    n += x_size

    edges = [(i, (i + 1) % 5) for i in range(5)]
    for i in range(5):
        for v in vsets[i]:
            edges.append((v, (i - 1) % 5))
            edges.append((v, (i + 1) % 5))

    def forced_complete(a: int) -> bool:
        b = (a + 1) % 5
        return (
            {(a - 1) % 5, a, b} <= large or {a, b, (b + 1) % 5} <= large
        )

    # consecutive pairs: complete when a large triple forces it, otherwise a
    # co-matching; the ends of pairs removed between two large sets are marked
    blocked: set[int] = set()
    removed_pairs: list[tuple[int, int, int]] = []
    for a in range(5):
        b = (a + 1) % 5
        va, vb = vsets[a], vsets[b]
        if not va or not vb:
            continue
        removed: set[tuple[int, int]] = set()
        if not forced_complete(a):
            count = rng.randint(0, min(len(va), len(vb)))
            ya = rng.sample(va, count)
            yb = rng.sample(vb, count)
            removed = set(zip(ya, yb))
        for y in va:
            for z in vb:
                if (y, z) not in removed:
                    edges.append((y, z))
        if a in large and b in large:
            for y, z in removed:
                removed_pairs.append((a, y, z))
                blocked.update((y, z))

    def add_matching(src: list[int], dst: list[int]) -> None:
        """Random partial matching from ``src`` into ``dst``."""
        if not src or not dst:
            return
        dst = list(dst)
        rng.shuffle(dst)
        used = iter(dst)
        for s in src:
            if rng.random() < 0.4:
                t = next(used, None)
                if t is None:
                    return
                edges.append((s, t))

    for a in range(5):
        c = (a + 2) % 5
        between = (a + 1) % 5
        if between in large:
            continue  # anticomplete forced
        add_matching(vsets[a], vsets[c])
    for i in range(5):
        if large & {(i - 2) % 5, (i + 2) % 5}:
            continue  # X anticomplete to V_i forced
        add_matching(xset, vsets[i])

    # re-add coupled joints: one satellite adjacent to both ends of a removed
    # pair keeps the complete-or-anticomplete rule satisfied
    for a, y, z in removed_pairs:
        pool = [x for x in xset + vsets[(a + 3) % 5] if x not in blocked]
        if pool and rng.random() < 0.3:
            x = rng.choice(pool)
            edges.append((x, y))
            edges.append((x, z))
            blocked.add(x)

    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# 4-cycle branch instances


def c4_instance(seed: int) -> Graph:
    """Induced 4-cycle with a triangle kernel (V10, V20, X0), side sets V1',
    V2', W1, W2, X1, X2, forced kernel-completeness wiring, and sparse
    random bipartite wiring in the remainder."""
    rng = random.Random(seed)
    m = rng.choice([0, 1, 2, 2, 3, 3])
    v1p_n = rng.randint(0, 2)
    v2p_n = rng.randint(0, 2)
    w1_n = rng.choice([0, 0, 2, 2, 1])
    w2_n = rng.choice([0, 0, 2, 1])
    x1_n = rng.randint(0, 2)
    x2_n = rng.randint(0, 1)

    n = 4

    def block(size: int) -> list[int]:
        nonlocal n
        vs = list(range(n, n + size))
        n += size
        return vs

    v10 = block(m)
    v20 = block(m)
    x0 = block(m)
    v1p = block(v1p_n)
    v2p = block(v2p_n)
    w1 = block(w1_n)
    w2 = block(w2_n)
    x1 = block(x1_n)
    x2 = block(x2_n)

    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for v in v10 + v1p:
        edges += [(v, 1), (v, 3)]
    for v in v20 + v2p:
        edges += [(v, 0), (v, 2)]
    for v in w1:
        edges.append((v, 0))
    for v in w2:
        edges.append((v, 1))

    # kernel: matched triangles plus a complete bipartite core
    for y, z, x in zip(v10, v20, x0):
        edges += [(x, y), (x, z)]
    edges += [(y, z) for y in v10 for z in v20]
    edges += [(y, z) for y in v10 for z in v2p]
    edges += [(y, z) for y in v20 for z in v1p]

    # complete-or-anticomplete flags towards the kernel sides
    for v in w1 + w2 + x2:
        if v10 and rng.random() < 0.25:
            edges += [(v, u) for u in v10]
    for v in w1 + w2 + x1:
        if v20 and rng.random() < 0.25:
            edges += [(v, u) for u in v20]

    def sparse(a: list[int], b: list[int], p: float) -> None:
        for u in a:
            for v in b:
                if rng.random() < p:
                    edges.append((u, v))

    sparse(x1, v2p, 0.4)
    sparse(x2, v1p, 0.5)
    sparse(w1, v2p, 0.3)
    sparse(w2, v1p, 0.3)
    sparse(v1p, v2p, 0.3)
    sparse(w1, w2, 0.2)

    return Graph.from_edges(n, edges)


def c5_branch_valid(g: Graph) -> bool:
    """Class member suitable for the 5-cycle decomposer."""
    return find_clique(g, 5) is None and find_induced_cycle(g, 5) is not None


def c5_claim_mutants(g: Graph, report) -> list[tuple[str, Graph]]:
    """Single-edge mutants each violating one claim of the given report.

    Every candidate toggle is built so that, relative to the report's
    anchor (the sets do not move: toggles never touch cycle adjacencies),
    the named claim's predicate is false by construction.  Returns
    (claim id, mutant) pairs in deterministic order; each mutant is built
    as its toggle is found, unless a per-vertex mask of the pairs toggled
    so far holds the pair.
    """
    V = [mask_of(report.sets[f"V{i + 1}"]) for i in range(5)]
    xmask = mask_of(report.sets["X"])
    rows = g.rows
    large = {i for i in range(5) if V[i].bit_count() >= 3}

    def lowest(m: int) -> int:
        return m & -m

    def toggles():
        """(claim, u, mask of the v) for the toggles of u and each v, in order."""
        for i in range(5):
            vi, opp, nxt = V[i], V[(i + 2) % 5], V[(i + 1) % 5]
            for x in bits_of(xmask):
                if rows[x] & vi and vi & ~rows[x]:
                    yield "L4.2-C1", x, lowest(vi & ~rows[x])
            for y in bits_of(vi):
                if rows[y] & opp and opp & ~rows[y]:
                    yield "L4.2-C2", y, lowest(opp & ~rows[y])
            for y in bits_of(vi):
                if rows[y] & nxt and nxt & ~rows[y]:
                    yield "L4.2-C3", y, lowest(rows[y] & nxt)
        for i in sorted(large):
            for v in bits_of(V[(i - 2) % 5]) + bits_of(V[(i + 2) % 5]):
                yield "L4.2-C4", v, xmask & ~rows[v]
            for u in bits_of(V[(i - 1) % 5]):
                yield "L4.2-C5", u, V[(i + 1) % 5] & ~rows[u]
        for i in range(5):
            if {(i - 1) % 5, i, (i + 1) % 5} <= large:
                for y in bits_of(V[i]):
                    yield "L4.2-C6", y, rows[y] & V[(i - 1) % 5]
                    yield "L4.2-C6", y, rows[y] & V[(i + 1) % 5]
        for i in range(5):
            j = (i + 1) % 5
            if i in large and j in large:
                for y in bits_of(V[i]):
                    for z in bits_of(V[j] & ~rows[y]):
                        away = ~(rows[y] | rows[z])
                        yield "L4.2-C7", y, xmask & away
                        yield "L4.2-C7", y, V[(i + 3) % 5] & away

    seen = [0] * g.n
    out = []
    for claim, u, vs in toggles():
        vs &= ~seen[u]
        seen[u] |= vs
        ubit = 1 << u
        while vs:
            low = vs & -vs
            vs ^= low
            v = low.bit_length() - 1
            seen[v] |= ubit
            flipped = list(rows)
            flipped[u] ^= low
            flipped[v] ^= ubit
            out.append((claim, _graph(g.n, tuple(flipped))))
    return out


def c4_branch_valid(g: Graph) -> bool:
    """Class member suitable for the 4-cycle decomposer."""
    return (
        find_clique(g, 5) is None
        and find_induced_cycle(g, 5) is None
        and find_induced_cycle(g, 4) is not None
    )


def k5_branch_valid(g: Graph) -> bool:
    return find_clique(g, 5) is not None
