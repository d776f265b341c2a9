"""Classification of hereditary classes defined by two forbidden induced
subgraphs: labelled-wqo status, clique-width boundedness status, pair
equivalence, and the audited open-problem lists.

The decision tables are data, not code branches: each rule is a pattern
pair (containment direction flags plus a few special predicates), so a
report can print exactly which rule matched and on which equivalent pair.
Two pairs are equivalent when one arises from the other by complementing
both members or by swapping a triangle member for the paw (co(P1+P3)) and
vice versa; verdicts are invariant across an equivalence class.

Each table decides a class once, in one walk over its members with the
pair itself first, and that walk's verdict is the first visit's.  A later
pair of the class walks the deciding rule alone over its own members for
its ``via``; its labelled members are built only if that rule misses the
pair itself.  Each rule keeps, per side and canonical key, the side's first
atom that holds (or none), found in table order when a walk first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from .graphs import Graph, build, complement, encode_graph6, pattern
from .order import induced_embed, in_class_S, is_linear_forest


class RuleInconsistencyError(RuntimeError):
    """A positive and a negative rule of the same table both fired."""


# Largest order canonical_key accepts.  The exact least-string search is
# exponential on graphs whose partitions never split: on disjoint unions of
# 5-cycles it takes about 0.25 s for 3C5 (15 vertices) and about 14 s for 4C5
# (20 vertices).  Every pattern in the tables has at most 7 vertices.
MAX_KEY_N = 8


@lru_cache(maxsize=4096)
def canonical_key(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key ``(n, code)``: ``code`` is the least
    upper-triangle adjacency string over all vertex orders, read row by row
    as a binary number with the first pair most significant.  Keys of equal
    order compare as their strings do.

    Branch and bound over ordered partitions of the vertices not yet
    placed.  Position i takes a vertex v from the first cell; every cell
    then splits into (non-neighbours of v, neighbours of v), which is the
    only arrangement that makes row i least for that v.  Only the choices
    of v with the least row i are searched further, and a twin of a vertex
    already tried in the same cell gives the same string and is skipped.
    """
    n = g.n
    if n > MAX_KEY_N:
        raise ValueError(
            f"canonical_key takes graphs on at most {MAX_KEY_N} vertices "
            "(the exact least-string search is exponential in the worst case)"
        )
    rows = g.rows

    def least(cells: tuple[int, ...], left: int) -> int:
        """Least string of the rows of the ``left`` unplaced vertices."""
        if left <= 1:
            return 0
        first = cells[0]
        best_row = -1
        branches: list[tuple[int, ...]] = []
        tried: list[int] = []
        rest = first
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            nbrs = rows[v]
            if any((nbrs ^ rows[u]) & ~(bit | 1 << u) == 0 for u in tried):
                continue
            tried.append(v)
            row = 0
            split: list[int] = []
            for cell in (first ^ bit,) + cells[1:]:
                hi = cell & nbrs
                lo = cell ^ hi
                row = row << cell.bit_count() | (1 << hi.bit_count()) - 1
                if lo:
                    split.append(lo)
                if hi:
                    split.append(hi)
            if best_row < 0 or row < best_row:
                best_row, branches = row, [tuple(split)]
            elif row == best_row:
                branches.append(tuple(split))
        suffix = min(least(split, left - 1) for split in branches)
        return best_row << (left - 1) * (left - 2) // 2 | suffix

    return (n, least(((1 << n) - 1,), n))


@dataclass(frozen=True)
class ClassPair:
    """Unordered pair of forbidden graphs with their canonical keys, members
    stored in key order (so the smaller graph first)."""

    h1: Graph
    h2: Graph
    k1: tuple = field(compare=False, repr=False)
    k2: tuple = field(compare=False, repr=False)

    @staticmethod
    def of(h1: Graph | str, h2: Graph | str) -> "ClassPair":
        a, b = build(h1), build(h2)
        return ClassPair._keyed(a, canonical_key(a), b, canonical_key(b))

    @staticmethod
    def _keyed(a: Graph, ka: tuple, b: Graph, kb: tuple) -> "ClassPair":
        if ka > kb:
            a, ka, b, kb = b, kb, a, ka
        return ClassPair(a, b, ka, kb)

    def key(self) -> tuple:
        return (self.k1, self.k2)

    def comparable(self) -> bool:
        return induced_embed(self.h1, self.h2) is not None  # h1 is the smaller


# The triangle <-> paw swap: each one's key -> the other, with its key.
_KEYED = [(g, canonical_key(g)) for g in (pattern("K3"), pattern("co(P1+P3)"))]
_SWAP = {k: other for (_, k), other in zip(_KEYED, reversed(_KEYED))}


# Canonical key -> the complement's key, stored both ways.  Keys stop at
# MAX_KEY_N vertices, so the table is finite.
_CO_KEYS: dict[tuple, tuple] = {}


def _co_key(g: Graph, key: tuple) -> tuple[tuple, Graph | None]:
    """The key of g's complement (``key`` is g's), and the complement if it
    was built to find that key."""
    co_key = _CO_KEYS.get(key)
    if co_key is not None:
        return co_key, None
    co = complement(g)
    co_key = _CO_KEYS[key] = canonical_key(co)
    _CO_KEYS[co_key] = key
    return co_key, co


@lru_cache(maxsize=1)
def equivalent_pairs(pair: ClassPair) -> tuple[ClassPair, ...]:
    """Closure under complement-both and the triangle <-> paw swap, in
    breadth-first order from ``pair``, each member as first reached.  Keys
    say whether a member is new before its graphs are built, so a new
    member's labelled complements are built once and no others are.  The
    last pair's class is memoised by value, so both tables share it."""
    members = [pair]
    seen = {pair.key()}
    for p in members:  # grows as members are found
        (ka, ca), (kb, cb) = _co_key(p.h1, p.k1), _co_key(p.h2, p.k2)
        key = (ka, kb) if ka <= kb else (kb, ka)
        if key not in seen:
            seen.add(key)
            members.append(
                ClassPair._keyed(ca or complement(p.h1), ka, cb or complement(p.h2), kb)
            )
        for ka, b, kb in ((p.k1, p.h2, p.k2), (p.k2, p.h1, p.k1)):
            if ka in _SWAP:
                other, ko = _SWAP[ka]
                key = (ko, kb) if ko <= kb else (kb, ko)
                if key not in seen:
                    seen.add(key)
                    members.append(ClassPair._keyed(other, ko, b, kb))
    return tuple(members)


# ---------------------------------------------------------------------------
# Pattern atoms and rules


def _matches(g: Graph, atom: tuple) -> bool:
    op = atom[0]
    if op == "any":
        return True
    if op == "sub":  # g embeds into the pattern
        return induced_embed(g, pattern(atom[1])) is not None
    if op == "sup":  # the pattern embeds into g
        return induced_embed(pattern(atom[1]), g) is not None
    if op == "edgeless":
        return g.edge_count() == 0
    if op == "complete":
        return g.edge_count() == g.n * (g.n - 1) // 2
    if op == "not_linear_forest":
        return not is_linear_forest(g)
    if op == "co_not_in_S":
        return not in_class_S(complement(g))
    if op == "not_in_S":
        return not in_class_S(g)
    raise ValueError(f"unknown pattern atom {op!r}")


# (canonical key, atom) -> whether the atom holds.  Every atom depends only
# on the isomorphism class of its graph, so one evaluation serves every
# labelled copy; keys exist only up to MAX_KEY_N vertices, so the table is
# finite.
_ATOMS: dict[tuple, bool] = {}


def _holds(g: Graph, key: tuple, atom: tuple) -> bool:
    """``_matches(g, atom)`` through the table; ``key`` is g's canonical key."""
    hit = _ATOMS.get((key, atom))
    if hit is None:
        hit = _ATOMS[key, atom] = _matches(g, atom)
    return hit


@dataclass(frozen=True)
class Rule:
    id: str
    verdict: str
    first: tuple[tuple, ...]
    second: tuple[tuple, ...]
    families: dict = field(default_factory=dict)
    # Per side, canonical key -> the side's first atom that holds, or ().
    _hits: tuple[dict, dict] = field(
        default_factory=lambda: ({}, {}), init=False, compare=False, repr=False
    )


def _subs(*exprs: str) -> tuple[tuple, ...]:
    return tuple(("sub", e) for e in exprs)


def _sups(*exprs: str) -> tuple[tuple, ...]:
    return tuple(("sup", e) for e in exprs)


WQO_RULES: tuple[Rule, ...] = (
    Rule("T6.1-1(i)", "WqoLabelled", _subs("P4"), (("any",),)),
    Rule("T6.1-1(ii)", "WqoLabelled", (("edgeless",),), (("complete",),)),
    Rule("T6.1-1(iii)", "WqoLabelled", _subs("co(3P1)"), _subs("2P1+P3", "P6")),
    Rule("T6.1-1(iv)", "WqoLabelled", _subs("co(2P1+P2)"), _subs("P2+P3", "P5")),
    Rule(
        "T6.1-2(i)",
        "NotWqo",
        (("not_linear_forest",),),
        (("not_linear_forest",),),
    ),
    Rule("T6.1-2(ii)", "NotWqo", _sups("co(3P1)"), _sups("3P1+P2", "3P2", "2P3")),
    Rule("T6.1-2(iii)", "NotWqo", _sups("co(2P2)"), _sups("4P1", "2P2")),
    Rule(
        "T6.1-2(iv)",
        "NotWqo",
        _sups("co(2P1+P2)"),
        _sups("4P1", "P2+P4", "P6"),
        families={"P2+P4": "thm51", "P6": "thm51"},
    ),
    Rule(
        "T6.1-2(v)",
        "NotWqo",
        _sups("co(P1+P4)"),
        _sups("P1+2P2"),
        families={"P1+2P2": "thm52"},
    ),
)

CW_RULES: tuple[Rule, ...] = (
    Rule("T6.2-1(i)", "Bounded", _subs("P4"), (("any",),)),
    Rule("T6.2-1(ii)", "Bounded", (("edgeless",),), (("complete",),)),
    Rule(
        "T6.2-1(iii)",
        "Bounded",
        _subs("P1+P3"),
        _subs(
            "co(K1,3+3P1)",
            "co(K1,3+P2)",
            "co(P1+P2+P3)",
            "co(P1+P5)",
            "co(P1+S1,1,2)",
            "co(P6)",
            "co(S1,1,3)",
            "co(S1,2,2)",
        ),
    ),
    Rule(
        "T6.2-1(iv)",
        "Bounded",
        _subs("2P1+P2"),
        _subs("co(P1+2P2)", "co(2P1+P3)", "co(3P1+P2)", "co(P2+P3)"),
    ),
    Rule("T6.2-1(v)", "Bounded", _subs("P1+P4"), _subs("co(P1+P4)", "co(P5)")),
    Rule("T6.2-1(vi)", "Bounded", _subs("4P1"), _subs("co(2P1+P3)")),
    Rule("T6.2-1(vii)", "Bounded", _subs("K1,3"), _subs("co(K1,3)")),
    Rule("T6.2-2(i)", "Unbounded", (("not_in_S",),), (("not_in_S",),)),
    Rule("T6.2-2(ii)", "Unbounded", (("co_not_in_S",),), (("co_not_in_S",),)),
    Rule(
        "T6.2-2(iii)",
        "Unbounded",
        _sups("K1,3", "2P2"),
        _sups("co(4P1)", "co(2P2)"),
    ),
    Rule(
        "T6.2-2(iv)",
        "Unbounded",
        _sups("2P1+P2"),
        _sups("co(K1,3)", "co(5P1)", "co(P2+P4)", "co(P6)"),
    ),
    Rule(
        "T6.2-2(v)",
        "Unbounded",
        _sups("3P1"),
        _sups("co(2P1+2P2)", "co(2P1+P4)", "co(4P1+P2)", "co(3P2)", "co(2P3)"),
    ),
    Rule("T6.2-2(vi)", "Unbounded", _sups("4P1"), _sups("co(P1+P4)", "co(3P1+P2)")),
)


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str | None = None
    via: tuple[Graph, Graph] | None = None
    family: str | None = None


def _oriented(members: Sequence[ClassPair]) -> list[tuple]:
    """Each member as (a, ka, b, kb), in both orientations."""
    out: list[tuple] = []
    for p in members:
        out += (p.h1, p.k1, p.h2, p.k2), (p.h2, p.k2, p.h1, p.k1)
    return out


def _fire(rule: Rule, oriented: Sequence[tuple]) -> Verdict | None:
    """The rule's verdict at its first match over ``oriented``: an atom of
    its first side holds on a and one of its second on b.  A side missing
    from ``_hits`` is resolved on first read, b's only where a's holds."""
    firsts, seconds = rule._hits
    for a, ka, b, kb in oriented:
        fa = firsts.get(ka)
        if fa is None:
            fa = firsts[ka] = next((t for t in rule.first if _holds(a, ka, t)), ())
        if not fa:
            continue
        sa = seconds.get(kb)
        if sa is None:
            sa = seconds[kb] = next((t for t in rule.second if _holds(b, kb, t)), ())
        if sa:
            family = rule.families.get(sa[1]) if len(sa) > 1 else None
            return Verdict(rule.verdict, rule.id, (a, b), family)
    return None


def _decide(oriented: Sequence[tuple], rules: Sequence[Rule]) -> tuple:
    """The first rule in table order of the positive polarity that fires
    anywhere in ``oriented``, else the first negative, else None (Open),
    with its verdict at its first match in ``oriented``; the inconsistency
    message if both polarities fire.  Once a rule of a polarity fired, the
    later rules of that polarity are not evaluated."""
    fired: dict[bool, tuple[Rule, Verdict]] = {}
    for rule in rules:
        positive = rule.verdict in ("WqoLabelled", "Bounded")
        if positive not in fired and (verdict := _fire(rule, oriented)):
            fired[positive] = rule, verdict
    if len(fired) == 2:
        return f"pair fired {fired[True][0].id} and {fired[False][0].id}", None
    return fired.get(True) or fired.get(False) or (None, None)


# Member key -> a (rules, _decide's decision) entry per table that decided
# the member's class.  Both moves are involutions, so every member closes to
# the same keys, on which alone a decision depends.  An entry holds its rules
# tuple and is read only for that object, so a tuple patched in later never
# reads it.  The oldest key is dropped past _MAX_DECISIONS.
_DECISIONS: dict[tuple, tuple] = {}
_MAX_DECISIONS = 4096


def _classify(pair: ClassPair, rules: Sequence[Rule]) -> Verdict:
    """The first positive verdict in table order over the equivalence class
    of ``pair``, else the first negative.  The first visit of any member
    decides the class over its members in :func:`equivalent_pairs` order,
    the pair first, and returns the decision walk's verdict.  A later visit
    walks the deciding rule alone over its own members in that order for
    its ``via`` and family, closing the class only if the rule misses the
    pair itself."""
    verdict = None
    for table, decision in _DECISIONS.get(pair.key(), ()):
        if table is rules:
            break
    else:
        members = equivalent_pairs(pair)
        decision, verdict = _decide(_oriented(members), rules)
        entry = ((rules, decision),)
        for p in members:
            if len(_DECISIONS) >= _MAX_DECISIONS:
                del _DECISIONS[next(iter(_DECISIONS))]
            _DECISIONS[p.key()] = _DECISIONS.get(p.key(), ()) + entry
    if isinstance(decision, str):
        raise RuleInconsistencyError(decision)
    if verdict is None and decision is not None:
        verdict = _fire(decision, _oriented((pair,))) or _fire(
            decision, _oriented(equivalent_pairs(pair)[1:])
        )
    return verdict or Verdict("Open")


def classify_wqo(pair: ClassPair) -> Verdict:
    return _classify(pair, WQO_RULES)


def classify_cw(pair: ClassPair) -> Verdict:
    return _classify(pair, CW_RULES)


@dataclass(frozen=True)
class ClassStatus:
    pair: ClassPair
    wqo: Verdict
    cw: Verdict
    warnings: tuple[str, ...]

    def to_json(self) -> dict:
        out = {
            "h1": encode_graph6(self.pair.h1),
            "h2": encode_graph6(self.pair.h2),
            "wqo": self.wqo.status,
            "cw": self.cw.status,
        }
        if self.wqo.rule:
            out["rule"] = self.wqo.rule
            out["via"] = [encode_graph6(g) for g in self.wqo.via]
        if self.wqo.family:
            out["family"] = self.wqo.family
        if self.cw.rule:
            out["cw_rule"] = self.cw.rule
            out["cw_via"] = [encode_graph6(g) for g in self.cw.via]
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def classify(h1: Graph | str, h2: Graph | str) -> ClassStatus:
    """Joint wqo and clique-width status of the (h1, h2)-free class.

    Comparable pairs are classified with a warning; the verdicts then
    describe the class of the smaller pattern.
    """
    pair = ClassPair.of(h1, h2)
    warnings = ()
    if pair.comparable():
        warnings = ("pair is comparable under the induced subgraph relation",)
    return ClassStatus(pair, classify_wqo(pair), classify_cw(pair), warnings)


# ---------------------------------------------------------------------------
# Open problem audit

OPEN_WQO_PAIRS: tuple[tuple[str, str], ...] = (
    ("co(3P1)", "P1+2P2"),
    ("co(3P1)", "P1+P5"),
    ("co(3P1)", "P2+P4"),
    ("co(2P1+P2)", "P1+2P2"),
    ("co(2P1+P2)", "P1+P4"),
    ("co(P1+P4)", "P1+P4"),
    ("co(P1+P4)", "2P2"),
    ("co(P1+P4)", "P2+P3"),
    ("co(P1+P4)", "P5"),
)

OPEN_CW_PAIRS: tuple[tuple[str, str], ...] = (
    ("3P1", "co(P1+S1,1,3)"),
    ("3P1", "co(P2+P4)"),
    ("3P1", "co(S1,2,3)"),
    ("2P1+P2", "co(P1+P2+P3)"),
    ("2P1+P2", "co(P1+P5)"),
    ("P1+P4", "co(P1+2P2)"),
    ("P1+P4", "co(P2+P3)"),
    ("2P1+P3", "co(2P1+P3)"),
)

OPEN_BOTH_PAIRS: tuple[tuple[str, str], ...] = (
    ("K3", "P2+P4"),
    ("co(P1+P4)", "P2+P3"),
)


@dataclass(frozen=True)
class AuditReport:
    wqo_open: tuple[tuple[str, str, str], ...]
    cw_open: tuple[tuple[str, str, str], ...]
    both_open: tuple[tuple[str, str, str, str], ...]

    @property
    def ok(self) -> bool:
        return (
            all(v == "Open" for _, _, v in self.wqo_open)
            and all(v == "Open" for _, _, v in self.cw_open)
            and all(w == "Open" and c == "Open" for _, _, w, c in self.both_open)
        )

    def to_json(self) -> dict:
        return {
            "wqo_open": [list(t) for t in self.wqo_open],
            "cw_open": [list(t) for t in self.cw_open],
            "both_open": [list(t) for t in self.both_open],
            "ok": self.ok,
        }


def audit_open_lists() -> AuditReport:
    """Re-derive every open-problem entry and check it stays Open."""
    wqo_rows = tuple(
        (a, b, classify_wqo(ClassPair.of(a, b)).status) for a, b in OPEN_WQO_PAIRS
    )
    cw_rows = tuple(
        (a, b, classify_cw(ClassPair.of(a, b)).status) for a, b in OPEN_CW_PAIRS
    )
    both_rows = tuple(
        (
            a,
            b,
            classify_wqo(ClassPair.of(a, b)).status,
            classify_cw(ClassPair.of(a, b)).status,
        )
        for a, b in OPEN_BOTH_PAIRS
    )
    return AuditReport(wqo_rows, cw_rows, both_rows)


# ---------------------------------------------------------------------------
# Exhaustive small-pair corpus


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices up to isomorphism, each class by its
    labelled graph of least edge mask (bit i for the i-th pair of
    ``combinations(range(n), 2)``), in ascending mask order.  The first mask
    not yet seen starts a class; its images under all n! vertex
    permutations, the position-wise sums of its edges' image columns (pair
    i's image bit under each permutation), mark the class seen."""
    pairs = list(combinations(range(n), 2))
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    perms = list(permutations(range(n)))
    images = [[bit[min(p[a], p[b]), max(p[a], p[b])] for p in perms] for a, b in pairs]
    seen = bytearray(1 << len(pairs))
    out = []
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        edges = [i for i in range(len(pairs)) if mask >> i & 1]
        out.append(Graph.from_edges(n, [pairs[i] for i in edges]))
        for image in map(sum, zip(*(images[i] for i in edges))):
            seen[image] = 1
    return tuple(out)


def pair_corpus(max_n: int = 5) -> list[ClassPair]:
    """Every unordered pair of graphs with at most max_n vertices each, each
    graph keyed once."""
    keyed = [(g, canonical_key(g)) for n in range(1, max_n + 1) for g in nonisomorphic_graphs(n)]
    return [
        ClassPair._keyed(a, ka, b, kb) for i, (a, ka) in enumerate(keyed) for b, kb in keyed[i:]
    ]


def check_rule_consistency(max_n: int = 5) -> list[tuple[str, str]]:
    """Decide the whole corpus in both tables, each equivalence class once at
    its first pair; every pair of an inconsistent class is collected with
    the class's error (an empty result is the expected outcome).  The
    classes are kept apart from ``_DECISIONS``, which holds fewer."""
    errors: dict[tuple, str | None] = {}
    bad = []
    for pair in pair_corpus(max_n):
        if pair.key() not in errors:
            members = equivalent_pairs(pair)
            oriented = _oriented(members)
            decisions = (_decide(oriented, rules)[0] for rules in (WQO_RULES, CW_RULES))
            error = next((d for d in decisions if isinstance(d, str)), None)
            errors.update((p.key(), error) for p in members)
        if errors[pair.key()] is not None:
            name = encode_graph6(pair.h1) + "," + encode_graph6(pair.h2)
            bad.append((name, errors[pair.key()]))
    return bad
