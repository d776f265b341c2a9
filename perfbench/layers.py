"""The per-layer metrics of the benchmark and the predictions about them.

For every metric: its unit and the end-to-end metric it should move on which
workload.  ``NONZERO_ON`` names, by metric prefix, the workloads meant to
exercise a layer, where the metric must not read 0; ``ZERO_ON`` the
workloads that bypass it, where it must read exactly 0.
"""

LAYER_METRICS = {
    "classifier.corpus.self_s": ("s", "verdicts_per_s on audit"),
    "classifier.canonical_key.calls": ("count", "verdicts_per_s, verdict_tail_ms on audit"),
    "classifier.canonical_key.self_s": ("s", "verdicts_per_s, verdict_tail_ms on audit"),
    "classifier.equivalent_pairs.calls": ("count", "verdicts_per_s on audit"),
    "classifier.equivalent_pairs.self_s": ("s", "verdicts_per_s on audit"),
    "classifier.classify.calls": ("count", "verdicts_per_s on audit"),
    "classifier.classify.self_s": ("s", "verdicts_per_s, verdict_tail_ms on audit"),
    "classifier.embed.calls": ("count", "verdicts_per_s on audit"),
    "order.embed_free.calls": ("count", "verdicts_per_s on certify; audit"),
    "order.embed_free.nodes": ("count", "verdicts_per_s on certify; audit"),
    "order.embed_free.self_s": ("s", "verdicts_per_s on certify; setup_s on certify"),
    "order.embed_free.us_per_node": ("us", "verdicts_per_s on certify; audit"),
    "order.embed_incomp.calls": ("count", "verdicts_per_s, verdict_tail_ms on antichain"),
    "order.embed_incomp.nodes": ("count", "verdicts_per_s, verdict_tail_ms on antichain"),
    "order.embed_incomp.self_s": ("s", "verdicts_per_s, verdict_tail_ms on antichain"),
    "order.embed_incomp.us_per_node": ("us", "verdicts_per_s, verdict_tail_ms on antichain"),
    "order.embed.unknown": ("count", "fail_ratio on every workload"),
    "graphs.construct.calls": ("count", "verdict_p50_ms on certify and uniform"),
    "graphs.construct.self_s": ("s", "verdict_p50_ms on certify and uniform"),
    "graphs.induced.calls": ("count", "verdict_p50_ms on certify and uniform"),
    "graphs.induced.self_s": ("s", "verdict_p50_ms on certify and uniform"),
    "graphs.complement.calls": ("count", "verdicts_per_s on audit"),
    "graphs.complement.self_s": ("s", "verdicts_per_s on audit"),
    "graphs.build.calls": ("count", "verdict_p50_ms on certify"),
    "graphs.build.self_s": ("s", "verdict_p50_ms on certify"),
    "ops.apply_script.calls": ("count", "verdicts_per_s on certify and uniform"),
    "ops.apply_script.self_s": ("s", "verdicts_per_s on certify and uniform"),
    "ops.complement.calls": ("count", "verdicts_per_s on certify and uniform"),
    "ops.complement.self_s": ("s", "verdicts_per_s on certify and uniform"),
    "uniform.search.calls": ("count", "verdicts_per_s, verdict_tail_ms on uniform"),
    "uniform.search.nodes": ("count", "verdicts_per_s, verdict_tail_ms on uniform"),
    "uniform.search.self_s": ("s", "verdicts_per_s, verdict_tail_ms on uniform"),
    "uniform.search.us_per_node": ("us", "verdicts_per_s, verdict_tail_ms on uniform"),
    "uniform.search.found_ratio": ("ratio", "verdicts_per_s on uniform"),
    "uniform.verify_witness.calls": ("count", "verdicts_per_s on uniform and certify"),
    "uniform.verify_witness.self_s": ("s", "verdicts_per_s on uniform and certify"),
    "uniform.transport.calls": ("count", "verdicts_per_s on uniform"),
    "uniform.transport.self_s": ("s", "verdicts_per_s on uniform"),
    "antichains.verify_family.self_s": ("s", "verdicts_per_s on antichain"),
    "antichains.reconstruct.calls": ("count", "verdicts_per_s on antichain"),
    "antichains.reconstruct.self_s": ("s", "verdicts_per_s on antichain"),
    "structure.route.calls": ("count", "verdicts_per_s, verdict_p50_ms on certify"),
    "structure.route.self_s": ("s", "verdicts_per_s, verdict_p50_ms on certify"),
    "structure.anchor.calls": ("count", "verdicts_per_s, verdict_p50_ms on certify"),
    "structure.anchor.per_member": ("1/member", "verdicts_per_s, verdict_p50_ms on certify"),
    "structure.decompose_k5.self_s": ("s", "verdicts_per_s on certify"),
    "structure.decompose_c5.self_s": ("s", "verdicts_per_s on certify"),
    "structure.decompose_c4.self_s": ("s", "verdicts_per_s on certify"),
    "structure.claims.checked": ("count", "verdicts_per_s on certify"),
    "structure.claims.failed": ("count", "fail_ratio on certify (mutants must fail)"),
    "instances.attempts": ("count", "setup_s on certify"),
    "instances.accept_ratio": ("ratio", "setup_s on certify"),
    "instances.member.self_s": ("s", "setup_s on certify"),
    "trace.overhead_ratio": ("ratio", "none: untraced over traced verdicts_per_s"),
}

ALL = ("audit", "antichain", "certify", "uniform")

# Workloads on which a metric must be non-zero, and on which it must be 0.
NONZERO_ON = {
    "classifier.": ("audit",),
    "order.embed_free.": ("audit", "antichain", "certify"),
    "order.embed_incomp.": ("antichain",),
    "graphs.construct.": ALL,
    "graphs.induced.": ("certify", "uniform"),
    "graphs.complement.": ("audit",),
    "graphs.build.": ("audit", "antichain", "certify"),
    "ops.": ("certify", "uniform"),
    "uniform.search.": ("uniform",),
    "uniform.verify_witness.": ("certify", "uniform"),
    "uniform.transport.": ("uniform",),
    "antichains.": ("antichain",),
    "structure.": ("certify",),
    "instances.": ("certify",),
    "trace.": ALL,
}
ZERO_ON = {
    "classifier.": ("antichain", "certify", "uniform"),
    "order.embed_incomp.": ("audit", "certify", "uniform"),
    "order.embed.unknown": ALL,
    "uniform.search.": ("audit", "antichain", "certify"),
}


def _lookup(table: dict, metric: str) -> tuple:
    for prefix, workloads in table.items():
        if metric.startswith(prefix):
            return workloads
    return ()


def check_predictions(workload: str, metrics: dict) -> list[str]:
    """Broken predictions: a metric that must be non-zero on this workload
    reads 0, or one predicted to be 0 here does not."""
    broken = []
    for name, value in metrics.items():
        if workload in _lookup(ZERO_ON, name):
            if value != 0:
                broken.append(f"{name} = {value}, predicted 0 on {workload}")
        elif workload in _lookup(NONZERO_ON, name) and value == 0:
            broken.append(f"{name} = 0 on {workload}, the workload meant to exercise it")
    return broken
