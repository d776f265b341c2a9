#!/usr/bin/env python3
"""Generate seeded class members for each dense branch, run the matching
decomposer, and summarize case coverage, witness orders, and certificate
budgets.  Every C5 witness must have its case's stated order.

Usage: python scripts/certify_instances.py [count_per_branch]
"""

import sys
from collections import Counter

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
from wqograph.structure import decompose_c4, decompose_c5, decompose_k5


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50

    members = class_members(k5_instance, count, valid=k5_branch_valid)
    cases = Counter(decompose_k5(g).case for _, g in members)
    print(f"K5 branch: {len(members)} members, cases {dict(sorted(cases.items()))}")

    members = class_members(c5_instance, count, valid=c5_branch_valid)
    orders = Counter()
    for seed, g in members:
        rep = decompose_c5(g)
        detail = rep.parts[0].detail
        assert rep.ok, seed
        assert detail["order"] == detail["stated_order"], seed
        orders[rep.case, detail["order"]] += 1
    by_case = ", ".join(f"{c}: {n} at {k}" for (c, k), n in sorted(orders.items()))
    print(f"C5 branch: {len(members)} members, cases (witness order) {by_case}")

    members = class_members(c4_instance, count, valid=c4_branch_valid)
    deletions = Counter()
    complementations = Counter()
    for _, g in members:
        rep = decompose_c4(g)
        deletions[len(rep.deletions)] += 1
        complementations[
            sum(1 for s in rep.script.steps if isinstance(s, BipartiteComplement))
        ] += 1
        assert rep.ok
    print(f"C4 branch: {len(members)} members")
    print(f"           deletions {dict(sorted(deletions.items()))}")
    print(f"           bipartite complementations {dict(sorted(complementations.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
