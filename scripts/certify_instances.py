#!/usr/bin/env python3
"""Generate seeded class members for each dense branch, run the matching
decomposer, and summarize case coverage, witness orders, and certificate
budgets.  Every C5 witness must have its case's stated order.

Each uniform part of a C5 or C4 member gets a second certificate: its exact
least order, from ``uniformicity(part, order)`` with the decomposer's order
as the bound.  The exact order must be found, so at most the decomposer's,
and both its witness and the decomposer's must verify.  The summary counts the parts per pair
(decomposer order -> exact order) and names the part that cost most nodes.

Usage: python scripts/certify_instances.py [count_per_branch]
"""

import sys
from collections import Counter

from wqograph.graphs import induced
from wqograph.instances import (
    c4_branch_valid,
    c4_instance,
    c5_branch_valid,
    c5_instance,
    class_members,
    k5_branch_valid,
    k5_instance,
)
from wqograph.ops import BipartiteComplement
from wqograph.order import SearchBudget
from wqograph.structure import decompose_c4, decompose_c5, decompose_k5
from wqograph.uniform import uniformicity, verify_witness


def exact_orders(reports) -> tuple[Counter, tuple[int, int, int]]:
    """The second certificate of every uniform part in the ``(seed, graph,
    report)`` triples: its exact least order, from ``uniformicity(part,
    order)`` with the decomposer's order as the bound.  Asserts that it is
    found and that both witnesses verify.  Returns the parts per pair
    (decomposer order, exact order) and the costliest part as (nodes,
    vertices, decomposer order)."""
    pairs = Counter()
    worst = (0, 0, 0)
    for seed, g, rep in reports:
        for part in rep.parts:
            if part.kind != "uniform":
                continue
            h = induced(g, part.vertices)
            order = part.detail["order"]
            budget = SearchBudget(10**8)
            found = uniformicity(h, order, budget=budget)
            assert found is not None, seed
            assert verify_witness(h, found[1]).ok, seed
            assert verify_witness(h, part.detail["witness"]).ok, seed
            pairs[order, found[0]] += 1
            worst = max(worst, (budget.used, h.n, order))
    return pairs, worst


def print_exact_orders(reports) -> None:
    pairs, worst = exact_orders(reports)
    shown = ", ".join(f"{k} -> {e}: {n}" for (k, e), n in sorted(pairs.items()))
    print(f"           {sum(pairs.values())} uniform parts, exact orders {shown}")
    print(f"           most nodes: {worst[0]:,} on {worst[1]} vertices at order {worst[2]}")


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50

    members = class_members(k5_instance, count, valid=k5_branch_valid)
    cases = Counter(decompose_k5(g).case for _, g in members)
    print(f"K5 branch: {len(members)} members, cases {dict(sorted(cases.items()))}")

    members = class_members(c5_instance, count, valid=c5_branch_valid)
    orders = Counter()
    reports = []
    for seed, g in members:
        rep = decompose_c5(g)
        detail = rep.parts[0].detail
        assert rep.ok, seed
        assert detail["order"] == detail["stated_order"], seed
        orders[rep.case, detail["order"]] += 1
        reports.append((seed, g, rep))
    by_case = ", ".join(f"{c}: {n} at {k}" for (c, k), n in sorted(orders.items()))
    print(f"C5 branch: {len(members)} members, cases (witness order) {by_case}")
    print_exact_orders(reports)

    members = class_members(c4_instance, count, valid=c4_branch_valid)
    deletions = Counter()
    complementations = Counter()
    reports = []
    for seed, g in members:
        rep = decompose_c4(g)
        deletions[len(rep.deletions)] += 1
        complementations[
            sum(1 for s in rep.script.steps if isinstance(s, BipartiteComplement))
        ] += 1
        assert rep.ok
        reports.append((seed, g, rep))
    print(f"C4 branch: {len(members)} members")
    print(f"           deletions {dict(sorted(deletions.items()))}")
    print(f"           bipartite complementations {dict(sorted(complementations.items()))}")
    print_exact_orders(reports)
    return 0


if __name__ == "__main__":
    sys.exit(main())
