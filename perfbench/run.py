"""wqograph benchmark: one closed-loop, single-threaded caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``).  Each repetition is a fresh interpreter started after the
previous one has exited, so every pass starts with the library's memo
caches empty and pays for filling them, as a command-line invocation does;
that fill therefore counts in the pass, not in ``setup_s``.  Passes repeat
until ``--seconds`` have gone by (at least one), then extra set-up-only
interpreters run until there are five set-up samples.

With ``--trace 0`` the result holds the end-to-end metrics: throughput, and
median and tail latency per item, over each item's median time in the
passes; peak memory; and the median set-up time.  Times are CPU time scaled
to a nominal processor speed (see ``worker.py``).  With ``--trace 1`` untraced and traced passes
alternate; the result holds the per-layer metrics of the traced passes and
the tracing overhead, after checking that both kinds of pass return the same
verdicts, that counts repeat exactly, and that the layers each workload is
meant to exercise or bypass read non-zero or zero.

Every verdict is checked against a known answer; any failed item makes the
command exit 1.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402  (does not import wqograph)

WORKLOADS = ("audit", "antichain", "certify", "uniform")
SETUP_SAMPLES = 5
# Every run must end well inside three minutes.
DEADLINE_S = 170.0
TAIL_BEYOND = 10
SPANS_DIR = ".perfbench"


class BenchmarkError(RuntimeError):
    """A repetition could not run or returned something unusable."""


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it,
    with that percentile and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n, n


def per_item_median(passes: list[dict]) -> list[float]:
    """Each item's median time over the passes, in ms.  Every pass runs the
    same items from the same cold start."""
    return [statistics.median(times) for times in zip(*(p["latencies_ms"] for p in passes))]


class Runner:
    def __init__(self, workload: str, seed: int, root: str):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # fixed string hashing, so set iteration and thus counts repeat exactly
        self.env["PYTHONHASHSEED"] = "0"

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, *extra: str) -> dict:
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchmarkError("out of time before the next repetition")
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            *extra,
        ]
        try:
            done = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"repetition exceeded the {DEADLINE_S:.0f} s deadline") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchmarkError(
                f"repetition exited {done.returncode}: {done.stderr.strip()[-2000:]}"
            )
        return json.loads(lines[-1])


def untraced(runner: Runner, seconds: int):
    """Passes until ``seconds`` have gone by, then set-up-only repetitions
    until there are enough set-up samples."""
    passes = []
    while not passes or runner.elapsed() < seconds:
        passes.append(runner.child("--mode", "pass"))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("--mode", "setup")["setup_s"])
    latencies = per_item_median(passes)
    value, percentile, samples = tail(latencies)
    metrics = {
        "verdicts_per_s": (1000 * len(latencies) / sum(latencies), "1/s"),
        "verdict_p50_ms": (statistics.median(latencies), "ms"),
        "verdict_tail_ms": (value, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [
        f"passes {len(passes)}, set-up samples {len(setups)}",
        f"verdict_tail_ms is p{percentile:.2f} of {samples} items "
        f"({TAIL_BEYOND} beyond it), each item at its median over {len(passes)} passes",
    ]
    return metrics, passes, notes, []


def traced(runner: Runner, seconds: int):
    """Alternating untraced and traced passes; per-layer metrics from the
    traced ones, plus the checks of the traced run."""
    os.makedirs(os.path.join(runner.root, SPANS_DIR), exist_ok=True)
    spans = os.path.join(
        runner.root, SPANS_DIR, f"spans-{runner.workload}-seed{runner.seed}.csv.gz"
    )
    plain, traced_passes = [], []
    while not plain or runner.elapsed() < seconds:
        # alternate which kind of pass runs first, so drift hits both alike
        order = [False, True] if len(plain) % 2 == 0 else [True, False]
        for trace in order:
            if trace:
                traced_passes.append(runner.child("--mode", "pass", "--trace", "--spans", spans))
            else:
                plain.append(runner.child("--mode", "pass"))
    problems = []
    if {p["digest"] for p in plain} != {p["digest"] for p in traced_passes}:
        problems.append("traced and untraced passes returned different verdicts")
    per_pass = [p["layers"] for p in traced_passes]
    for name in sorted(per_pass[0]):
        values = [layer[name] for layer in per_pass]
        if layers.LAYER_METRICS[name][0] not in ("s", "us") and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
    # counts are equal in every traced pass (checked above); times vary
    metrics = {
        name: (
            statistics.median(layer[name] for layer in per_pass)
            if unit in ("s", "us") else per_pass[0][name],
            unit,
        )
        for name, (unit, _) in layers.LAYER_METRICS.items()
        if name in per_pass[0]
    }
    overhead = sum(per_item_median(traced_passes)) / sum(per_item_median(plain))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    problems += layers.check_predictions(
        runner.workload, {name: value for name, (value, _) in metrics.items()}
    )
    notes = [
        f"pairs of untraced and traced passes {len(plain)}, spans per traced pass "
        f"{traced_passes[0]['spans']}, written to {os.path.relpath(spans, runner.root)}",
        f"tracing overhead: untraced verdicts_per_s is {overhead:.3f} x the traced one",
    ]
    return metrics, plain + traced_passes, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wqograph benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wqograph", "__init__.py")):
        print("run from the root of a wqograph source checkout (src/wqograph missing)",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, root)
    try:
        metrics, passes, notes, problems = (traced if args.trace else untraced)(
            runner, args.seconds
        )
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if len({p["digest"] for p in passes}) > 1:
        problems.append("passes over the same inputs returned different verdicts")
    problems = [line for p in passes for line in p["failures"]] + problems
    # a broken run-level check counts as one more failed item
    failed += len(problems) - sum(len(p["failures"]) for p in passes)
    correct = failed == 0

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{runner.elapsed():.1f} s")
    for note in notes:
        print("  " + note)
    print(f"  fail_ratio {failed / attempted:.6f} ({failed} of {attempted} items)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for problem in problems[:20]:
        print("  FAILED " + problem)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
