"""The acceptance battery: ten self-contained criteria with fixed seeds and
exact tolerances, runnable from pytest or the CLI selftest.

Each criterion re-derives its expected values from an oracle that is
independent of the code path under test (brute-force injection enumeration,
direct construction counts, exhaustive template search at toy sizes), so a
criterion can only pass by agreement, never by construction.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

from .antichains import gen_thm52, reconstruct_thm52, verify_family
from .classifier import (
    ClassPair,
    audit_open_lists,
    check_rule_consistency,
    classify_cw,
    classify_wqo,
)
from .graphs import Graph, complete_graph, empty_graph, induced, pattern
from .instances import (
    c4_instance,
    c4_branch_valid,
    c5_branch_valid,
    c5_claim_mutants,
    c5_instance,
    class_members,
    k5_branch_valid,
    k5_instance,
)
from .ops import BipartiteComplement, apply_script, subgraph_complement, split_labels
from .order import LabelledGraph, QuasiOrder, induced_embed, labelled_embed
from .structure import decompose_c4, decompose_c5, decompose_k5
from .uniform import (
    expand_template,
    restrict_witness,
    transport_complement,
    uniformicity,
    verify_witness,
    witness_for_expansion,
    UniformTemplate,
    UniformWitness,
)


@dataclass(frozen=True)
class CriterionResult:
    id: str
    description: str
    ok: bool
    detail: str
    seconds: float


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _restricted_expansion(rng: random.Random) -> tuple[Graph, UniformWitness]:
    """A random template of order at most 3 expanded with one to four copies,
    restricted to a random vertex subset, with its restricted witness."""
    k = rng.randint(1, 3)
    f = _random_graph(rng, k)
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            matrix[i][j] = matrix[j][i] = rng.randint(0, 1)
    template = UniformTemplate(k, f, tuple(tuple(r) for r in matrix))
    copies = rng.randint(1, 4)
    g = expand_template(template, copies)
    witness = witness_for_expansion(template, copies)
    keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
    return induced(g, keep), restrict_witness(witness, keep)


def _injections(h: Graph, g: Graph, fits: Callable[[int, int], bool] | None = None):
    """The independent oracle: every injection of ``h`` into ``g``, in
    lexicographic order, that keeps adjacency and non-adjacency and sends
    each v to a w with ``fits(v, w)`` where given."""
    for image in permutations(range(g.n), h.n):
        if (fits is None or all(map(fits, range(h.n), image))) and all(
            h.adjacent(u, v) == g.adjacent(image[u], image[v])
            for u in range(h.n)
            for v in range(u + 1, h.n)
        ):
            yield image


def brute_force_embed(h: Graph, g: Graph) -> tuple[int, ...] | None:
    """The first induced embedding of ``h`` into ``g``, by brute force."""
    return next(_injections(h, g), None)


def brute_force_labelled_z_embed(
    gi: Graph,
    gj: Graph,
    li: tuple,
    lj: tuple,
    order: QuasiOrder,
    zi: set[int],
    zj: set[int],
) -> bool:
    """Oracle for a labelled embedding that maps the marked set into the
    marked set and the unmarked set into the unmarked set."""

    def fits(v: int, w: int) -> bool:
        return order.leq(li[v], lj[w]) and (v in zi) == (w in zj)

    return next(_injections(gi, gj, fits), None) is not None


def _random_quasi_order(rng: random.Random, size: int) -> QuasiOrder:
    elements = tuple(range(size))
    pairs = [
        (a, b)
        for a in elements
        for b in elements
        if a != b and rng.random() < 0.35
    ]
    return QuasiOrder.from_pairs(elements, pairs)


# ---------------------------------------------------------------------------
# Criteria


def run_c1(base_seed: int = 0) -> tuple[bool, str]:
    report = verify_family("thm51", [2, 3, 4])
    ok = report.ok
    return ok, f"freeness cells={len(report.freeness)} pairs={len(report.incomparability)} ok={ok}"


def run_c2(base_seed: int = 0) -> tuple[bool, str]:
    report = verify_family("thm52", [3, 4])
    if not report.ok:
        return False, "freeness or incomparability failed"
    checked = 0
    for n in (3, 4):
        g = gen_thm52(n)
        for start in range(g.n):
            walk = reconstruct_thm52(g, start)
            if walk is None or sorted(walk) != list(range(g.n)):
                return False, f"reconstruction failed at n={n} start={start}"
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    if g.adjacent(walk[i], walk[j]) != g.adjacent(i, j):
                        return False, f"relabelling mismatch at n={n} start={start}"
            checked += 1
        if reconstruct_thm52(g, 0) != tuple(range(g.n)):
            return False, f"identity reconstruction failed at n={n}"
    return True, f"free+incomparable, {checked} reconstructions exact"


def run_c3(base_seed: int = 0) -> tuple[bool, str]:
    passed = 0
    for t in range(50):
        rng = random.Random(base_seed * 1000 + t)
        g, witness = _restricted_expansion(rng)
        flip = [v for v in range(g.n) if rng.random() < 0.5]
        flipped = subgraph_complement(g, flip)
        transported = transport_complement(witness, flip)
        if transported.template.k != 2 * witness.template.k:
            return False, f"trial {t}: wrong doubled order"
        if not verify_witness(flipped, transported).ok:
            return False, f"trial {t}: transported witness failed"
        passed += 1
    return True, f"{passed}/50 transported witnesses verify"


def run_c4(base_seed: int = 0) -> tuple[bool, str]:
    agreements = 0
    positives = 0
    for t in range(200):
        rng = random.Random(base_seed * 1000 + t)
        order = _random_quasi_order(rng, rng.randint(1, 3))
        nj = rng.randint(2, 7)
        gj = _random_graph(rng, nj)
        lj = tuple(rng.choice(order.elements) for _ in range(nj))
        zj = {v for v in range(nj) if rng.random() < 0.5}
        if t % 3 == 0:
            keep = sorted(rng.sample(range(nj), rng.randint(1, min(4, nj))))
            gi = induced(gj, keep)
            li = tuple(lj[v] for v in keep)
            zi = {keep.index(v) for v in keep if v in zj}
        else:
            ni = rng.randint(1, 4)
            gi = _random_graph(rng, ni)
            li = tuple(rng.choice(order.elements) for _ in range(ni))
            zi = {v for v in range(ni) if rng.random() < 0.5}
        flipped_i = subgraph_complement(gi, zi)
        flipped_j = subgraph_complement(gj, zj)
        split_i, doubled = split_labels(LabelledGraph(flipped_i, li), zi, order)
        split_j, _ = split_labels(LabelledGraph(flipped_j, lj), zj, order)
        via_split = labelled_embed(split_i, split_j, doubled) is not None
        via_oracle = brute_force_labelled_z_embed(gi, gj, li, lj, order, zi, zj)
        if via_split != via_oracle:
            return False, f"trial {t}: split={via_split} oracle={via_oracle}"
        agreements += 1
        positives += via_oracle
    return True, f"{agreements}/200 agree ({positives} positive)"


def run_c5(base_seed: int = 0) -> tuple[bool, str]:
    agreements = 0
    positives = 0
    for t in range(200):
        rng = random.Random(base_seed * 1000 + t)
        h = _random_graph(rng, rng.randint(1, 4))
        g = _random_graph(rng, rng.randint(1, 7))
        fast = induced_embed(h, g)
        slow = brute_force_embed(h, g)
        if (fast is None) != (slow is None):
            return False, f"trial {t}: solver={fast} oracle={slow}"
        if fast is not None:
            if any(
                h.adjacent(u, v) != g.adjacent(fast[u], fast[v])
                for u in range(h.n)
                for v in range(u + 1, h.n)
            ):
                return False, f"trial {t}: returned embedding invalid"
            positives += 1
        agreements += 1
    return True, f"{agreements}/200 agree ({positives} positive)"


def run_c6(base_seed: int = 0) -> tuple[bool, str]:
    members = class_members(
        c5_instance, 100, start_seed=base_seed, valid=c5_branch_valid
    )
    mutant_pool: list[tuple[str, Graph, tuple[int, ...]]] = []
    for seed, g in members:
        report = decompose_c5(g)
        if not report.ok:
            return False, f"seed {seed}: failed {report.failed_claims()}"
        part = report.parts[0]
        if part.detail["order"] != part.detail["stated_order"]:
            return False, f"seed {seed}: witness order is not the stated order"
        for claim, mutant in c5_claim_mutants(g, report):
            mutant_pool.append((claim, mutant, report.anchor))
    # spread mutants across claim kinds, deterministically
    by_claim: dict[str, list] = {}
    for claim, mutant, anchor in mutant_pool:
        by_claim.setdefault(claim, []).append((mutant, anchor))
    chosen: list[tuple[str, Graph, tuple[int, ...]]] = []
    while len(chosen) < 20:
        progressed = False
        for claim in sorted(by_claim):
            if by_claim[claim] and len(chosen) < 20:
                mutant, anchor = by_claim[claim].pop(0)
                chosen.append((claim, mutant, anchor))
                progressed = True
        if not progressed:
            break
    if len(chosen) < 20:
        return False, f"only {len(chosen)} mutants available"
    kinds = set()
    for claim, mutant, anchor in chosen:
        report = decompose_c5(mutant, cycle=anchor)
        failed = report.failed_claims()
        if not failed:
            return False, f"mutant for {claim} triggered no claim failure"
        kinds.add(claim)
    return True, f"100 members certified; 20 mutants failed ({len(kinds)} claim kinds)"


def run_c7(base_seed: int = 0) -> tuple[bool, str]:
    members = class_members(
        c4_instance, 50, start_seed=base_seed, valid=c4_branch_valid
    )
    kernels = 0
    for seed, g in members:
        report = decompose_c4(g)
        if not report.ok:
            return False, f"seed {seed}: failed {report.failed_claims()}"
        if len(report.deletions) > 17:
            return False, f"seed {seed}: {len(report.deletions)} deletions"
        n_bc = sum(
            1 for s in report.script.steps if isinstance(s, BipartiteComplement)
        )
        if n_bc > 2:
            return False, f"seed {seed}: {n_bc} bipartite complementations"
        uniform_parts = [p for p in report.parts if p.kind == "uniform"]
        if uniform_parts:
            kernels += 1
            if not all(p.ok for p in uniform_parts):
                return False, f"seed {seed}: kernel witness failed"
        bip = [p for p in report.parts if p.kind == "bipartite-p2p3-free"]
        if not bip or not bip[0].ok:
            return False, f"seed {seed}: bipartite part failed"
    return True, f"50 members certified ({kernels} with triangle kernels)"


def run_c8(base_seed: int = 0) -> tuple[bool, str]:
    from .graphs import complement, connected_components, is_bipartite
    from .order import is_free

    members = class_members(
        k5_instance, 80, start_seed=base_seed, valid=k5_branch_valid
    )
    seen_cases = set()
    for seed, g in members:
        report = decompose_k5(g)
        if not report.ok:
            return False, f"seed {seed}: failed {report.failed_claims()}"
        seen_cases.add(report.case)
        # independent replay: re-run the script and re-check the case's
        # target form from scratch
        image = apply_script(g, report.script)
        if report.case == 1:
            replay_ok = is_bipartite(image) is not None
        elif report.case == 2:
            replay_ok = all(
                sum(1 for v in comp if image.degree(v) > 1) <= 1
                and sum(image.degree(v) for v in comp) // 2 == len(comp) - 1
                for comp in connected_components(image)
                if len(comp) > 1
            )
        elif report.case == 3:
            keep = [v for v in range(image.n) if image.degree(v) > 0]
            replay_ok = is_bipartite(complement(induced(image, keep))) is not None
        else:
            replay_ok = is_free(image, [pattern("P3")]).free
        if not replay_ok:
            return False, f"seed {seed}: case {report.case} certificate replay failed"
    if seen_cases != {1, 2, 3, 4}:
        return False, f"cases covered: {sorted(seen_cases)}"
    return True, f"{len(members)} members over cases {sorted(seen_cases)}"


def run_c9(base_seed: int = 0) -> tuple[bool, str]:
    if not audit_open_lists().ok:
        return False, "an open-list pair is no longer Open (see `wqograph audit`)"
    expectations = [
        ("K3", "P6", "wqo", "WqoLabelled"),
        ("co(2P1+P2)", "P6", "wqo", "NotWqo"),
        ("co(2P1+P2)", "P2+P4", "wqo", "NotWqo"),
        ("co(P1+P4)", "P1+2P2", "wqo", "NotWqo"),
        ("co(2P1+P2)", "P2+P3", "wqo", "WqoLabelled"),
        ("co(2P1+P2)", "P2+P3", "cw", "Bounded"),
    ]
    for a, b, which, want in expectations:
        pair = ClassPair.of(a, b)
        got = (classify_wqo(pair) if which == "wqo" else classify_cw(pair)).status
        if got != want:
            return False, f"({a},{b}) {which}: got {got}, want {want}"
    bad = check_rule_consistency(6)
    if bad:
        return False, f"rule inconsistencies: {bad[:3]}"
    return True, "open lists, named verdicts, and rule disjointness all hold"


def run_c10(base_seed: int = 0) -> tuple[bool, str]:
    for n in (2, 3, 5):
        got = uniformicity(complete_graph(n), 3)
        if got is None or got[0] != 1:
            return False, f"K{n} uniformicity != 1"
        got = uniformicity(empty_graph(n), 3)
        if got is None or got[0] != 1:
            return False, f"{n}P1 uniformicity != 1"
    got = uniformicity(pattern("2K2"), 3)
    if got is None or got[0] != 2:
        return False, "2K2 uniformicity != 2"
    # oracle for the lower bound: order-1 templates reach only cliques or
    # edgeless graphs, checked by direct expansion
    for diag in (0, 1):
        t = UniformTemplate(1, empty_graph(1), ((diag,),))
        image = expand_template(t, 4)
        if induced_embed(pattern("2K2"), image) is not None:
            return False, "oracle says 2K2 is 1-uniform"
    checked = 0
    for t in range(100):
        rng = random.Random(base_seed * 1000 + t)
        g, witness = _restricted_expansion(rng)
        if not verify_witness(g, witness).ok:
            return False, f"restriction {t} failed to verify"
        checked += 1
    return True, f"ground truths exact; {checked}/100 restrictions verify"


CRITERIA: tuple[tuple[str, str, Callable], ...] = (
    ("C1", "thm51 prefix free of its three patterns and pairwise incomparable", run_c1),
    ("C2", "thm52 prefix free, incomparable, and rigid from every start", run_c2),
    ("C3", "doubled-template witness transport verifies on 50 seeded cases", run_c3),
    ("C4", "label-split embedding equivalence on 200 seeded labelled pairs", run_c4),
    ("C5", "embedding solver agrees with injection oracle on 200 pairs", run_c5),
    ("C6", "5-cycle certifier: 100 members certified, 20 mutants caught", run_c6),
    ("C7", "4-cycle certifier: 50 members within deletion/complementation budget", run_c7),
    ("C8", "5-clique certifier: all four cases certified and replayed", run_c8),
    ("C9", "classification audit: open lists, named verdicts, rule disjointness", run_c9),
    ("C10", "uniformicity ground truths and witness hereditarity", run_c10),
)


def run_criteria(
    only: Iterable[str] | None = None, base_seed: int = 0
) -> list[CriterionResult]:
    wanted = set(only) if only is not None else None
    results = []
    for cid, description, fn in CRITERIA:
        if wanted is not None and cid not in wanted:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn(base_seed)
        except Exception as exc:  # a crashed criterion is a failed criterion
            ok, detail = False, f"exception: {exc!r}"
        results.append(
            CriterionResult(cid, description, ok, detail, time.perf_counter() - start)
        )
    return results
