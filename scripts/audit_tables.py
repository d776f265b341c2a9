#!/usr/bin/env python3
"""Read the two classification tables together against the paper's
abstract, over every graph and every pair of graphs with at most N vertices
(default 6, at most 7):

- the monogenic diagonal: the pair (H, H) reads WqoLabelled/Bounded when H
  is an induced subgraph of P4, and NotWqo/Unbounded otherwise;
- the joint wqo x clique-width table over ``pair_corpus(N)``, where no pair
  may read WqoLabelled with Unbounded (the conjecture that wqo implies
  bounded clique-width for finitely many forbidden graphs: such a pair is a
  transcription error or a counterexample);
- the wqo-Open/cw-Unbounded count, for information only: the conjecture
  predicts NotWqo for such a pair, and no check asserts an open conjecture;
- for N = 7, the canonical keys of the 1,044 seven-vertex corpus graphs
  against those of networkx's graph atlas.

These test the transcription of the tables; they prove nothing new.  Exits 1
if the diagonal disagrees, a pair reads WqoLabelled with Unbounded, or the
keys differ from the atlas's; a rule inconsistency raises.  N = 6 takes
about a second; N = 7 classifies 784,378 pairs in about 45 s, at about
120 MB of memory, on a 2-vCPU host.

Usage: python scripts/audit_tables.py [N]
"""

import sys
import time
from collections import Counter
from itertools import combinations

from wqograph.classifier import (
    ClassPair,
    canonical_key,
    classify_cw,
    classify_wqo,
    nonisomorphic_graphs,
    pair_corpus,
)
from wqograph.graphs import Graph, build, encode_graph6, induced

MAX_N = 7
WQO = ("WqoLabelled", "NotWqo", "Open")
CW = ("Bounded", "Unbounded", "Open")


def diagonal(max_n: int) -> int:
    """Print the diagonal's verdict counts; return how many graphs disagree."""
    p4 = build("P4")
    inside = {
        canonical_key(induced(p4, vs)) for k in range(1, 5) for vs in combinations(range(4), k)
    }
    counts, wrong = Counter(), []
    for n in range(1, max_n + 1):
        for h in nonisomorphic_graphs(n):
            pair = ClassPair.of(h, h)
            got = (classify_wqo(pair).status, classify_cw(pair).status)
            inside_p4 = canonical_key(h) in inside
            want = ("WqoLabelled", "Bounded") if inside_p4 else ("NotWqo", "Unbounded")
            counts[got] += 1
            if got != want:
                wrong.append(f"{encode_graph6(h)} reads {'/'.join(got)}")
    print(f"monogenic diagonal, {sum(counts.values()):,} graphs on 1..{max_n} vertices:")
    for (w, c), count in sorted(counts.items()):
        print(f"  {w}/{c}: {count:,}")
    for line in wrong:
        print(f"  DISAGREES WITH THE ABSTRACT: {line}")
    return len(wrong)


def joint(max_n: int) -> int:
    """Print the joint table; return how many pairs read WqoLabelled with
    Unbounded."""
    corpus = pair_corpus(max_n)
    cells = Counter((classify_wqo(p).status, classify_cw(p).status) for p in corpus)
    print(f"joint verdicts over pair_corpus({max_n}), {len(corpus):,} pairs:")
    print(f"  {'wqo / cw':<12}" + "".join(f"{c:>11}" for c in CW))
    for w in WQO:
        print(f"  {w:<12}" + "".join(f"{cells[w, c]:>11,}" for c in CW))
    print(f"  WqoLabelled with Unbounded: {cells['WqoLabelled', 'Unbounded']:,}")
    print(f"  Open with Unbounded (information only): {cells['Open', 'Unbounded']:,}")
    return cells["WqoLabelled", "Unbounded"]


def atlas_keys() -> bool:
    """Whether the seven-vertex corpus has the keys of the atlas's graphs."""
    import networkx

    atlas = [h for h in networkx.graph_atlas_g() if h.number_of_nodes() == 7]
    want = {canonical_key(Graph.from_edges(7, h.edges())) for h in atlas}
    keys = [canonical_key(g) for g in nonisomorphic_graphs(7)]
    same = len(keys) == len(set(keys)) == len(atlas) and set(keys) == want
    print(f"7-vertex keys against the networkx atlas ({len(atlas):,} graphs): "
          + ("equal" if same else "DIFFERENT"))
    return same


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    if not 1 <= max_n <= MAX_N:
        print(f"N must be 1..{MAX_N}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    failed = diagonal(max_n) > 0
    failed |= joint(max_n) > 0
    if max_n == 7:
        failed |= not atlas_keys()
    print(f"{'FAILED' if failed else 'ok'} ({time.perf_counter() - start:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
