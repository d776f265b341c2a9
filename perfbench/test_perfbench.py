"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

(from the repository root).  The checkers must reject a tampered verdict,
so no check passes vacuously; the tampering edits copies of the verdicts
handed to the checker, never the library.  Call and node counts of one
seed must repeat exactly across fresh interpreters.  The predictions about
bypassed layers must catch a layer that is not bypassed.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def records():
    """Real verdicts of every workload for one seed, computed once."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.setup(SEED)
        state: dict = {}
        out[name] = [(item, item.run()) for item in wl.items(inputs, state)]
    return out


def first(records, kind, where=lambda item, verdict: True):
    return next(
        i for i, (item, verdict) in enumerate(records) if item.kind == kind and where(item, verdict)
    )


def tampered(records, index, edit):
    out = list(records)
    item, verdict = out[index]
    verdict = copy.deepcopy(verdict)
    out[index] = (item, edit(verdict))
    return out


def flip_edge(rows, u=0, v=1):
    rows = list(rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return rows


def reuse_slot(witness):
    witness["assign"][0] = list(witness["assign"][1])
    return witness


TRIANGLE = [6, 5, 3]


def audit_tamperings(recs):
    def open_pair(item, verdict):
        return item.kind == "named" and item.known.get("wqo") == "Open"

    def change_status(v):
        v[1]["wqo"] = "NotWqo" if v[1]["wqo"] != "NotWqo" else "WqoLabelled"
        return v

    def has_distinct_mirror(item, verdict):
        rows = verdict[0]
        mirror = [workloads._complement_rows(r) for r in rows]
        return sorted(map(workloads._canon, rows)) != sorted(map(workloads._canon, mirror))

    return [
        (first(recs, "corpus"), lambda v: v - 1),
        (first(recs, "corpus-pair", has_distinct_mirror), change_status),
        (first(recs, "named", open_pair), lambda v: {**v, "wqo": "WqoLabelled"}),
        (first(recs, "swapped"), lambda v: {k: "Unbounded" for k in v}),
        (first(recs, "complemented"), lambda v: {k: "Open!" for k in v}),
    ]


def antichain_tamperings(recs):
    def scramble(walks):
        walks[5] = walks[6]
        return walks

    return [
        (first(recs, "family"), lambda v: [False] + v[1:]),
        (first(recs, "free"), lambda v: [False, 0, [0, 1, 2]]),
        (first(recs, "incomparable"), lambda v: [0, 1, 2]),
        (first(recs, "reconstruct"), scramble),
        (first(recs, "reconstruct"), lambda v: v[:-1] + [None]),
    ]


def certify_tamperings(recs):
    def with_witness(item, verdict):
        return any(part[4] and len(part[4]["assign"]) > 1 for part in verdict["parts"])

    def bad_witness(v):
        for part in v["parts"]:
            if part[4] and len(part[4]["assign"]) > 1:
                reuse_slot(part[4])
        return v

    return [
        (first(recs, "member"), lambda v: {**v, "branch": "Sparse"}),
        (first(recs, "member"), lambda v: {**v, "failed": ["L4.1-X"]}),
        (first(recs, "member", lambda i, v: v["branch"] == "K5" and v["case"] in (1, 2)),
         lambda v: {**v, "image": TRIANGLE}),
        (first(recs, "member", lambda i, v: v["branch"] == "C5" and len(v["image"]) > 1),
         lambda v: {**v, "image": flip_edge(v["image"])}),
        (first(recs, "member", lambda i, v: v["branch"] == "C4"),
         lambda v: {**v, "p2p3_free": False}),
        (first(recs, "member", with_witness), bad_witness),
        (first(recs, "mutant-pool"), lambda v: [v[0] - 1, v[1]]),
        (first(recs, "mutant"), lambda v: []),
    ]


def uniform_tamperings(recs):
    def refuted(item, verdict):
        return verdict is None

    def found(item, verdict):
        return verdict is not None and len(verdict[1]["assign"]) > 1

    return [
        (first(recs, "search", refuted), lambda v: [1, {"k": 1, "f": [0], "K": [[0]], "assign": []}]),
        (first(recs, "search", found), lambda v: [v[0], reuse_slot(v[1])]),
        (first(recs, "expansion", found), lambda v: None),
        (first(recs, "transport", lambda i, v: len(v[0]) > 1),
         lambda v: [flip_edge(v[0]), v[1], v[2]]),
        (first(recs, "transport"), lambda v: [v[0], {**v[1], "k": v[1]["k"] + 1}, v[2]]),
        (first(recs, "transport"), lambda v: [v[0], v[1], False]),
    ]


TAMPERINGS = {
    "audit": audit_tamperings,
    "antichain": antichain_tamperings,
    "certify": certify_tamperings,
    "uniform": uniform_tamperings,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checker_accepts_real_and_rejects_tampered_verdicts(records, name):
    check = workloads.WORKLOADS[name].check
    recs = records[name]
    assert check(recs) == {}
    for index, edit in TAMPERINGS[name](recs):
        failures = check(tampered(recs, index, edit))
        assert failures, f"{name}: tampering item {index} ({recs[index][0].kind}) went unnoticed"


def traced_counts(name: str, limit: int) -> dict:
    code = (
        "import json, worker; "
        f"print(json.dumps(worker.run_pass({name!r}, {SEED}, True, limit={limit})['layers']))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v for k, v in metrics.items() if layers.LAYER_METRICS[k][0] not in ("s", "us")}


@pytest.mark.parametrize(
    "name, limit", [("audit", 150), ("antichain", 150), ("certify", 120), ("uniform", 40)]
)
def test_counts_repeat_exactly(name, limit):
    first_run = traced_counts(name, limit)
    assert any(first_run.values())
    assert traced_counts(name, limit) == first_run


def test_predictions_catch_a_layer_that_is_not_bypassed():
    assert layers.check_predictions("antichain", {"classifier.canonical_key.calls": 3})
    assert layers.check_predictions("certify", {"uniform.search.calls": 1})
    assert layers.check_predictions("audit", {"order.embed_incomp.calls": 2})
    assert layers.check_predictions("antichain", {"order.embed_incomp.calls": 0})
    assert not layers.check_predictions("antichain", {"order.embed_incomp.calls": 5})


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
