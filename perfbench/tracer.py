"""Layer tracing for the benchmark, done from outside the library.

The tracer rebinds public names of ``wqograph`` in every module that holds
them (so ``structure.find_clique`` and ``instances.find_clique`` both go
through the same wrapper) and wraps ``Graph.__post_init__`` to count graph
constructions.  Each wrapped call records a span: name, start, end, parent
span and the index of the item it belongs to (-1 while inputs are set up).
Spans stay in memory in flat arrays and are written out after the pass.

``induced_embed`` is split by call site: calls through the name that
``wqograph.antichains`` holds are incomparability checks (pattern about as
large as the host); calls through any other module are freeness checks.
Node counts come from ``SearchBudget.used``: a caller's budget is read
before and after the call, and a call without a budget is given one far
above any run, so the count is taken without changing the result.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

from wqograph import graphs, instances, order, structure, uniform

# Far above the nodes any workload spends in one call.
UNLIMITED_NODES = 10**15

# (module, attribute) -> span name, for calls that are only timed and counted.
TIMED = {
    ("graphs", "induced"): "graphs.induced",
    ("graphs", "complement"): "graphs.complement",
    ("graphs", "build"): "graphs.build",
    ("ops", "apply_script"): "ops.apply_script",
    ("ops", "subgraph_complement"): "ops.complement",
    ("ops", "bipartite_complement"): "ops.complement",
    ("uniform", "verify_witness"): "uniform.verify_witness",
    ("uniform", "transport_complement"): "uniform.transport",
    ("uniform", "transport_bipartite"): "uniform.transport",
    ("antichains", "verify_family"): "antichains.verify_family",
    ("antichains", "reconstruct_thm52"): "antichains.reconstruct",
    ("structure", "route"): "structure.route",
    ("structure", "find_clique"): "structure.anchor",
    ("structure", "find_induced_cycle"): "structure.anchor",
    ("classifier", "canonical_key"): "classifier.canonical_key",
    ("classifier", "equivalent_pairs"): "classifier.equivalent_pairs",
    ("classifier", "classify_wqo"): "classifier.classify",
    ("classifier", "classify_cw"): "classifier.classify",
    ("classifier", "pair_corpus"): "classifier.corpus",
    ("classifier", "nonisomorphic_graphs"): "classifier.corpus",
    ("instances", "is_class_member"): "instances.member",
    ("instances", "k5_instance"): "instances.attempt",
    ("instances", "c5_instance"): "instances.attempt",
    ("instances", "c4_instance"): "instances.attempt",
}

DECOMPOSERS = ("decompose_k5", "decompose_c5", "decompose_c4")


class Tracer:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self.active = False
        self.item = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_item = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_item.append(self.item)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def timed(self, fn, name: str, on_result=None):
        name_id = self._id(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def embed(self, fn, name: str, site: str):
        name_id = self._id(name)
        counts = self.counts
        classifier_site = site == "classifier"

        def wrapper(h, g, budget=None):
            if not self.active:
                return fn(h, g, budget)
            if budget is None:
                budget = order.SearchBudget(UNLIMITED_NODES)
            before = budget.used
            if classifier_site:
                counts["classifier.embed.calls"] += 1
            idx = self._open(name_id)
            try:
                return fn(h, g, budget)
            except order.SearchBudgetExceeded:
                counts["order.embed.unknown"] += 1
                raise
            finally:
                self._close(idx)
                counts[name + ".nodes"] += budget.used - before

        wrapper.__wrapped__ = fn
        return wrapper

    def search(self, fn):
        name_id = self._id("uniform.search")
        counts = self.counts

        def wrapper(g, k, *, budget=None, **kwargs):
            if not self.active:
                return fn(g, k, budget=budget, **kwargs)
            if budget is None:
                budget = order.SearchBudget(UNLIMITED_NODES)
            before = budget.used
            idx = self._open(name_id)
            try:
                result = fn(g, k, budget=budget, **kwargs)
            finally:
                self._close(idx)
                counts["uniform.search.nodes"] += budget.used - before
            counts["uniform.search.found"] += result is not None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, make_wrapper) -> None:
        """Replace ``original`` by a wrapper in every wqograph module that
        holds it; ``make_wrapper(site)`` builds the wrapper for one module."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "wqograph" or modname.startswith("wqograph.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    site = modname.rsplit(".", 1)[-1]
                    self._restore.append((module, attr, value))
                    setattr(module, attr, make_wrapper(site))

    def _replace(self, original, wrapper) -> None:
        self._rebind(original, lambda site: wrapper)

    def install(self) -> None:
        """Rebind the traced names; every wqograph module used must already
        be imported."""
        for (modname, attr), name in TIMED.items():
            original = getattr(sys.modules["wqograph." + modname], attr)
            self._replace(original, self.timed(original, name))
        for attr in DECOMPOSERS:
            original = getattr(structure, attr)
            self._replace(original, self.timed(original, "structure." + attr, self._claims))
        original = instances.class_members
        self._replace(original, self.timed(original, "instances.class_members", self._accepted))
        embed = order.induced_embed
        self._rebind(
            embed,
            lambda site: self.embed(
                embed, "order.embed_incomp" if site == "antichains" else "order.embed_free", site
            ),
        )
        self._replace(uniform.is_k_uniform, self.search(uniform.is_k_uniform))
        post_init = graphs.Graph.__post_init__
        self._restore.append((graphs.Graph, "__post_init__", post_init))
        graphs.Graph.__post_init__ = self.timed(post_init, "graphs.construct")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _claims(self, report) -> None:
        self.counts["structure.claims.checked"] += len(report.claims)
        self.counts["structure.claims.failed"] += sum(not c.ok for c in report.claims)

    def _accepted(self, members) -> None:
        self.counts["instances.accepted"] += len(members)

    # -- results -----------------------------------------------------------

    def totals(self, member_items: set[int]) -> tuple[Counter, Counter]:
        """Calls and self nanoseconds per span name; anchor calls made while
        a member item runs are also counted under ``anchor@member``."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        child_ns = [0] * len(self.span_name)
        anchor = self._ids.get("structure.anchor", -2)
        for idx in range(len(self.span_name)):
            dur = self.span_end[idx] - self.span_start[idx]
            parent = self.span_parent[idx]
            if parent >= 0:
                child_ns[parent] += dur
        for idx in range(len(self.span_name)):
            name = self.names[self.span_name[idx]]
            calls[name] += 1
            self_ns[name] += self.span_end[idx] - self.span_start[idx] - child_ns[idx]
            if self.span_name[idx] == anchor and self.span_item[idx] in member_items:
                calls["anchor@member"] += 1
        return calls, self_ns

    def metrics(self, member_items: set[int]) -> dict:
        """Every per-layer metric except the tracing overhead, which needs
        an untraced pass to compare with."""
        calls, self_ns = self.totals(member_items)
        counts = self.counts

        def s(name):
            return self_ns[name] / 1e9

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        out = {
            "classifier.corpus.self_s": s("classifier.corpus"),
            "classifier.embed.calls": counts["classifier.embed.calls"],
            "order.embed.unknown": counts["order.embed.unknown"],
            "uniform.search.found_ratio": per(
                counts["uniform.search.found"], calls["uniform.search"]
            ),
            "antichains.verify_family.self_s": s("antichains.verify_family"),
            "structure.anchor.per_member": per(calls["anchor@member"], len(member_items)),
            "structure.claims.checked": counts["structure.claims.checked"],
            "structure.claims.failed": counts["structure.claims.failed"],
            "instances.attempts": calls["instances.attempt"],
            "instances.accept_ratio": per(
                counts["instances.accepted"], calls["instances.attempt"]
            ),
            "instances.member.self_s": s("instances.member"),
        }
        for name in (
            "classifier.canonical_key",
            "classifier.equivalent_pairs",
            "classifier.classify",
            "graphs.construct",
            "graphs.induced",
            "graphs.complement",
            "graphs.build",
            "ops.apply_script",
            "ops.complement",
            "uniform.verify_witness",
            "uniform.transport",
            "antichains.reconstruct",
            "structure.route",
        ):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = s(name)
        for name in ("order.embed_free", "order.embed_incomp", "uniform.search"):
            nodes = counts[name + ".nodes"]
            out[name + ".calls"] = calls[name]
            out[name + ".nodes"] = nodes
            out[name + ".self_s"] = s(name)
            out[name + ".us_per_node"] = per(self_ns[name] / 1e3, nodes)
        out["structure.anchor.calls"] = calls["structure.anchor"]
        for attr in DECOMPOSERS:
            out[f"structure.{attr}.self_s"] = s("structure." + attr)
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: id, name, start_ns, end_ns, parent, item."""
        with gzip.open(path, "wt") as out:
            out.write("id,name,start_ns,end_ns,parent,item\n")
            for idx in range(len(self.span_name)):
                out.write(
                    f"{idx},{self.names[self.span_name[idx]]},{self.span_start[idx]},"
                    f"{self.span_end[idx]},{self.span_parent[idx]},{self.span_item[idx]}\n"
                )
