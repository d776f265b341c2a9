#!/usr/bin/env python3
"""Survey the uniformicity of small catalog graphs (k searched up to 3).

Also reports, for each graph, whether deleting some vertex preserves the
value exactly: deletion can never increase it, and the survey shows equality
does occur.

With ``--lifts M ...`` it instead times the search on random 2-lifts of K_M:
two vertices 2i and 2i + 1 per vertex i of K_M, and each pair of fibres
joined by a straight or a crossed perfect matching with probability 1/2,
drawn from ``random.Random(M)``.  Each lift is searched with
``uniformicity(g, M - 2)`` under a budget of 5,000,000 nodes, and the survey
prints the result (the order found, ``none``, or ``budget`` when the budget
ran out), the nodes spent and the CPU seconds.

Usage: python scripts/uniformicity_survey.py [--lifts M [M ...]]
"""

import argparse
import random
import sys
import time
from itertools import combinations

from wqograph.graphs import MAX_VERTICES, Graph, build, delete_vertices
from wqograph.order import SearchBudget, SearchBudgetExceeded
from wqograph.uniform import uniformicity

LIFT_BUDGET = 5_000_000

SPECS = [
    "K5",
    "5P1",
    "2K2",
    "P3",
    "P4",
    "P5",
    "C4",
    "C5",
    "C6",
    "K1,3",
    "K2,3",
    "2P1+P2",
    "co(2P1+P2)",
    "P2+P3",
    "S1,1,2",
]


def lift(m: int) -> Graph:
    """The random 2-lift of K_m drawn from ``random.Random(m)``."""
    rng = random.Random(m)
    edges = []
    for i, j in combinations(range(m), 2):
        cross = rng.random() < 0.5
        edges += [(2 * i, 2 * j + cross), (2 * i + 1, 2 * j + 1 - cross)]
    return Graph.from_edges(2 * m, edges)


def survey_lifts(orders: list[int]) -> None:
    print(f"{'lift':<6} {'result':<9} {'nodes':>10} {'CPU s':>8}")
    for m in orders:
        g = lift(m)
        budget = SearchBudget(LIFT_BUDGET)
        start = time.process_time()
        try:
            found = uniformicity(g, m - 2, budget=budget)
            result = "none" if found is None else f"order {found[0]}"
            nodes = budget.used
        except SearchBudgetExceeded as exc:
            result, nodes = "budget", exc.nodes
        print(f"K{m:<5} {result:<9} {nodes:>10,} {time.process_time() - start:>8.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lifts", type=int, nargs="+", metavar="M", help="survey 2-lifts of K_M instead")
    args = parser.parse_args()
    if args.lifts and not all(3 <= m <= MAX_VERTICES // 2 for m in args.lifts):
        parser.error(f"--lifts takes orders from 3 to {MAX_VERTICES // 2}")
    if args.lifts:
        survey_lifts(args.lifts)
        return 0
    print(f"{'graph':<12} {'uniformicity':<13} preserved-by-some-deletion")
    for spec in SPECS:
        g = build(spec)
        res = uniformicity(g, 3)
        if res is None:
            print(f"{spec:<12} {'> 3':<13} -")
            continue
        k, _ = res
        preserved = []
        for v in range(g.n):
            sub = uniformicity(delete_vertices(g, [v]), 3)
            if sub is not None and sub[0] == k:
                preserved.append(v)
        print(f"{spec:<12} {k:<13} {preserved if preserved else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
