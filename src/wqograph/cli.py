"""Command-line surface.

Exit codes: 0 every check passed, 1 a check failed (a witness is printed),
2 usage error or search budget exceeded.  Machine-readable output via
``--json`` is deterministic for fixed flags and seed (timings go to stderr
in human mode only).

Graph arguments accept a catalog expression (``P4``, ``co(2P1+P2)``,
``2K2``), a graph6 string prefixed ``g6:``, an inline JSON object
``{"n":..,"edges":[[u,v],..]}``, or ``@path`` to a file holding graph6 or
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import antichains, classifier, structure
from .acceptance import CRITERIA, run_criteria
from .graphs import (
    MAX_VERTICES,
    Graph,
    GraphSpecError,
    build,
    decode_graph6,
    encode_graph6,
    from_json_dict,
    to_json_dict,
)
from .ops import OpScript, apply_script
from .order import (
    SearchBudget,
    SearchBudgetExceeded,
    induced_embed,
    is_free,
)
from .uniform import uniformicity

SCHEMA = "wqograph-report/1"
BUDGET_ENV = "WQOGRAPH_BUDGET"

EXPRESSION_GRAMMAR = """\
expression grammar (EBNF):
  expr  = term , { "+" , term } ;
  term  = [ integer ] , atom ;
  atom  = base | "co(" expr ")" | "(" expr ")" ;
  base  = "P" n | "C" n | "K" n [ "," n ] | "S" n "," n "," n ;
examples: P4, C5, K5, K2,2, S1,1,2, 2P1+P2, co(2P1+P2)
"""


def parse_graph_arg(text: str) -> Graph:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            content = fh.read().strip()
        if content.startswith("{"):
            return from_json_dict(json.loads(content))
        # an empty file reaches the graph6 decoder, which refuses it
        return decode_graph6((content.splitlines() or [""])[0])
    if text.startswith("g6:"):
        return decode_graph6(text[3:])
    if text.lstrip().startswith("{"):
        return from_json_dict(json.loads(text))
    return build(text)


def _parse_ns(text: str) -> list[int]:
    """Values of ``--n``, each in 0..MAX_VERTICES (a family member on n has
    at least n vertices), checked before a range is expanded."""
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
        given = [lo, hi]
    else:
        given = [int(part) for part in text.split(",") if part]
    for n in given:
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"--n {text!r}: {n} is outside 0..{MAX_VERTICES}")
    ns = list(range(lo, hi + 1)) if ".." in text else given
    if not ns:
        raise ValueError(f"--n {text!r} names no parameter values")
    return ns


def _patterns(text: str) -> list[str]:
    """The expressions of a ``--forbidden`` list, split at its commas.  A
    piece that starts with a digit and is no expression on its own continues
    the expression before it, as the integers after the commas of ``K2,2``
    and ``S1,1,2`` do: ``K1,3,P5`` names the claw and P5, and ``K2,3P1``
    names K2 and 3P1."""
    patterns: list[str] = []
    for piece in (p.strip() for p in text.split(",")):
        if patterns and "0" <= piece[:1] <= "9" and not _is_expression(piece):
            patterns[-1] += "," + piece
        elif piece:
            patterns.append(piece)
    if not patterns:
        raise ValueError(f"--forbidden {text!r} names no pattern")
    return patterns


def _is_expression(text: str) -> bool:
    try:
        build(text)
    except GraphSpecError:
        return False
    return True


def _criterion_ids(text: str) -> list[str]:
    """Values of ``--only``: at least one id, each a known criterion."""
    valid = [cid for cid, _, _ in CRITERIA]
    ids = [c.strip() for c in text.split(",") if c.strip()]
    if not ids or not set(ids) <= set(valid):
        raise ValueError(f"--only {text!r}: the criterion ids are {', '.join(valid)}")
    return ids


def _budget_nodes(args, default: int | None = None) -> int | None:
    """Node budget from ``--budget``, else ``$WQOGRAPH_BUDGET``, else
    ``default``; ``None`` means unlimited and 0 is a real zero budget."""
    nodes = args.budget
    if nodes is None:
        env = os.environ.get(BUDGET_ENV)
        nodes = int(env) if env else default
    if nodes is not None and nodes < 0:
        raise ValueError(f"node budget must be non-negative, got {nodes}")
    return nodes


def _budget(args) -> SearchBudget | None:
    nodes = _budget_nodes(args)
    return None if nodes is None else SearchBudget(nodes)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _print_graph(args, g: Graph) -> None:
    """Print ``g`` in the ``--format`` asked for: graph6 or sorted JSON."""
    if args.format == "json":
        print(json.dumps(to_json_dict(g), sort_keys=True))
    else:
        print(encode_graph6(g))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    if args.family:
        if args.n is None:
            print("gen: --family requires --n", file=sys.stderr)
            return 2
        g = antichains.family_member(args.family, args.n)
    elif args.spec:
        g = build(args.spec)
    else:
        print("gen: provide --spec or --family/--n", file=sys.stderr)
        return 2
    _print_graph(args, g)
    return 0


def cmd_embed(args) -> int:
    h = parse_graph_arg(args.h)
    g = parse_graph_arg(args.g)
    emb = induced_embed(h, g, _budget(args))
    found = emb is not None
    _emit(
        args,
        {"found": found, "embedding": list(emb) if found else None},
        f"embedding: {list(emb)}" if found else "no induced embedding",
    )
    return 0 if found else 1


def cmd_free(args) -> int:
    g = parse_graph_arg(args.g)
    patterns = _patterns(args.forbidden)
    res = is_free(g, [build(p) for p in patterns], _budget(args))
    _emit(
        args,
        {
            "free": res.free,
            "pattern": patterns[res.pattern_index] if not res.free else None,
            "witness": list(res.witness) if res.witness is not None else None,
        },
        "free"
        if res.free
        else f"contains {patterns[res.pattern_index]} at {sorted(res.witness)}",
    )
    return 0 if res.free else 1


def cmd_antichain(args) -> int:
    report = antichains.verify_family(
        args.family,
        _parse_ns(args.n),
        None if args.forbidden is None else _patterns(args.forbidden),
        _budget_nodes(args, antichains.DEFAULT_CELL_BUDGET),
    )
    lines = [f"family {report.family} over n={list(report.ns)}"]
    unknown = "unknown [budget exhausted]"
    for cell in report.freeness:
        lines.append(
            f"  n={cell.n} {cell.pattern}: "
            + (unknown if cell.exhausted else "free" if cell.free else f"VIOLATED {cell.witness}")
        )
    for cell in report.incomparability:
        lines.append(
            f"  {cell.n_small} vs {cell.n_large}: "
            + (
                unknown
                if cell.exhausted
                else f"EMBEDS {cell.embedding}" if cell.comparable else "incomparable"
            )
        )
    violated = any(not c.free and not c.exhausted for c in report.freeness) or any(
        c.comparable for c in report.incomparability
    )
    lines.append("ok" if report.ok else "FAILED" if violated else "UNKNOWN")
    _emit(args, report.to_json(), "\n".join(lines))
    if report.ok:
        return 0
    return 1 if violated else 2


def cmd_uniform(args) -> int:
    g = parse_graph_arg(args.g)
    budget = SearchBudget(_budget_nodes(args, antichains.DEFAULT_CELL_BUDGET))
    result = uniformicity(g, args.kmax, budget=budget)
    if result is None:
        _emit(
            args,
            {"uniformicity": None, "kmax": args.kmax},
            f"not k-uniform for any k <= {args.kmax}",
        )
        return 1
    k, witness = result
    _emit(
        args,
        {"uniformicity": k, "witness": witness.to_json()},
        f"uniformicity {k}",
    )
    return 0


def cmd_ops(args) -> int:
    g = parse_graph_arg(args.graph)
    if args.script.startswith("@"):
        with open(args.script[1:], "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = json.loads(args.script)
    script = OpScript.from_json(raw)
    _print_graph(args, apply_script(g, script))
    return 0


def cmd_decompose(args) -> int:
    g = parse_graph_arg(args.graph)
    try:
        branch = structure.route(g)
    except structure.RouteError as exc:
        _emit(
            args,
            {"error": str(exc), "witness": list(exc.witness or ())},
            f"class violation: {exc} witness={sorted(exc.witness or ())}",
        )
        return 1
    if branch == "Sparse":
        _emit(args, {"branch": "Sparse"}, "branch Sparse: no decomposition needed")
        return 0
    report = {
        "K5": structure.decompose_k5,
        "C5": structure.decompose_c5,
        "C4": structure.decompose_c4,
    }[branch](g)
    human = [f"branch {branch}, anchor {list(report.anchor)}, case {report.case}"]
    for claim in report.claims:
        human.append(
            f"  {claim.id}: {'ok' if claim.ok else f'FAILED {claim.witness}'}"
        )
    for part in report.parts:
        human.append(f"  part {part.kind} on {len(part.vertices)} vertices: "
                     + ("ok" if part.ok else "FAILED"))
    human.append("ok" if report.ok else "FAILED")
    _emit(args, report.to_json(), "\n".join(human))
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    status = classifier.classify(parse_graph_arg(args.h1), parse_graph_arg(args.h2))
    payload = status.to_json()
    human = (
        f"wqo: {status.wqo.status}"
        + (f" via {status.wqo.rule}" if status.wqo.rule else "")
        + (f" (antichain family {status.wqo.family})" if status.wqo.family else "")
        + f"\ncw: {status.cw.status}"
        + (f" via {status.cw.rule}" if status.cw.rule else "")
    )
    if status.warnings:
        human += "\nwarning: " + "; ".join(status.warnings)
    _emit(args, payload, human)
    return 0


def cmd_audit(args) -> int:
    report = classifier.audit_open_lists()
    lines = []
    for a, b, status in report.wqo_open:
        lines.append(f"  wqo ({a}, {b}): {status}")
    for a, b, status in report.cw_open:
        lines.append(f"  cw  ({a}, {b}): {status}")
    for a, b, w, c in report.both_open:
        lines.append(f"  both ({a}, {b}): wqo={w} cw={c}")
    lines.append("ok" if report.ok else "MISMATCH")
    _emit(args, report.to_json(), "\n".join(lines))
    return 0 if report.ok else 1


def cmd_selftest(args) -> int:
    only = None if args.only is None else _criterion_ids(args.only)
    results = run_criteria(only, base_seed=args.seed)
    payload = {
        "seed": args.seed,
        "results": [
            {"id": r.id, "ok": r.ok, "description": r.description, "detail": r.detail}
            for r in results
        ],
        "ok": all(r.ok for r in results),
    }
    for r in results:
        line = f"{'PASS' if r.ok else 'FAIL'} {r.id}: {r.description} -- {r.detail}"
        if args.json:
            print(line, file=sys.stderr)
        else:
            print(line)
    total = sum(r.seconds for r in results)
    print(f"({len(results)} criteria in {total:.1f}s)", file=sys.stderr)
    if args.json:
        print(json.dumps({"schema": SCHEMA, "command": "selftest", **payload},
                         sort_keys=True))
    return 0 if payload["ok"] else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqograph",
        description="Induced-subgraph order toolkit: embeddings, freeness, "
        "antichain families, uniform templates, decomposition certificates, "
        "and the bigenic classification tables.",
        epilog=EXPRESSION_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="construct a catalog graph or family member")
    p.add_argument("--spec", help="catalog expression")
    p.add_argument("--family", choices=sorted(antichains.FAMILIES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=("g6", "json"), default="g6")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("embed", help="induced embedding search")
    p.add_argument("--h", required=True, help="pattern graph")
    p.add_argument("--g", required=True, help="host graph")
    p.add_argument("--budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("free", help="forbidden induced subgraph check")
    p.add_argument("--g", required=True)
    p.add_argument("--forbidden", required=True, help="comma-separated expressions")
    p.add_argument("--budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("antichain", help="verify an antichain family prefix")
    p.add_argument("verb", choices=("verify",))
    p.add_argument("--family", required=True, choices=sorted(antichains.FAMILIES))
    p.add_argument("--n", required=True, help="range like 2..4 or list like 2,3")
    p.add_argument("--forbidden", help="override the family's pattern list")
    p.add_argument("--budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_antichain)

    p = sub.add_parser("uniform", help="bounded uniformicity search")
    p.add_argument("--g", required=True)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_uniform)

    p = sub.add_parser("ops", help="apply an operation script")
    p.add_argument("--in", dest="graph", required=True)
    p.add_argument("--script", required=True, help="JSON list or @file")
    p.add_argument("--format", choices=("g6", "json"), default="g6")
    p.set_defaults(func=cmd_ops)

    p = sub.add_parser("decompose", help="route and certify a class member")
    p.add_argument("--in", dest="graph", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="wqo and clique-width status of a pair")
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("audit", help="re-derive the open-problem lists")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--only", help="comma-separated criterion ids, e.g. C1,C5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
