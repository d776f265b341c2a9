"""One cold repetition of a workload, in a fresh interpreter.

The interpreter starts with every memo cache of the library empty
(``classifier.nonisomorphic_graphs``, the classifier pattern cache and the
uniform template cache), as a command-line invocation does, so the cost of
filling them falls inside the pass.  Set-up time runs from the start of the
process, through ``import wqograph``, until the seeded inputs exist.

Times are CPU time of this single-threaded process, scaled to a nominal
speed of the processor.  On a shared host the speed of one processor moves by
a third or more from one minute to the next (another tenant on the sibling
hardware thread, for one), and waiting for a processor is not CPU time at
all.  So a fixed pure-Python reference loop runs before the first item and
again after every ``REFERENCE_EVERY_NS`` of item time, and each item's time
is multiplied by ``REFERENCE_NOMINAL_NS`` over the median of the reference
times measured within ``REFERENCE_WINDOW_NS`` of item time around it.  One
reference time alone is too noisy to scale by.  Set-up time is scaled by the
median of five reference times measured right after it.

Usage: worker.py --workload NAME --seed N --mode setup|pass [--trace]
                 [--spans PATH]

Prints one JSON object on its last line of output.
"""

import argparse
import bisect
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback


# The reference loop takes about this long on the hardware the baseline was
# measured on, when nothing shares its processor; it only sets the scale.
REFERENCE_NOMINAL_NS = 700_000
REFERENCE_EVERY_NS = 20_000_000
REFERENCE_WINDOW_NS = 1_000_000_000


def reference_ns() -> int:
    """CPU time of a fixed loop of interpreted integer arithmetic."""
    start = time.process_time_ns()
    acc = 0
    for k in range(10_000):
        acc += k * k % 7
    return time.process_time_ns() - start


def scaled_setup_s() -> float:
    cpu_s = time.process_time()
    return cpu_s * REFERENCE_NOMINAL_NS / statistics.median(reference_ns() for _ in range(5))


def scaled(latencies_ns: list[int], references: list[tuple[int, int]]) -> list[float]:
    """Item times in ms at nominal speed.  ``references`` holds (item time
    elapsed before the sample, reference time) pairs in order."""
    positions = [at for at, _ in references]
    out = []
    elapsed = 0
    for ns in latencies_ns:
        middle = elapsed + ns // 2
        lo = bisect.bisect_left(positions, middle - REFERENCE_WINDOW_NS)
        hi = bisect.bisect_right(positions, middle + REFERENCE_WINDOW_NS)
        nearby = [ref for _, ref in references[lo:hi]] or [references[min(lo, len(references) - 1)][1]]
        out.append(ns * REFERENCE_NOMINAL_NS / statistics.median(nearby) / 1e6)
        elapsed += ns
    return out


def run_pass(workload: str, seed: int, trace: bool, spans: str | None = None, limit=None):
    """Set up, run every item once, check the verdicts; returns the report.

    ``limit`` stops the batch after that many items; the full benchmark
    never sets it, the benchmark's own tests use it to keep count checks
    short.
    """
    import workloads

    wl = workloads.WORKLOADS[workload]
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    inputs = wl.setup(seed)
    setup_s = scaled_setup_s()

    state: dict = {}
    records = []
    errors = {}
    latencies_ns = []
    references = [(0, reference_ns())]
    since_reference = 0
    for index, item in enumerate(wl.items(inputs, state)):
        if limit is not None and index >= limit:
            break
        if tracer is not None:
            tracer.item = index
        start = time.process_time_ns()
        try:
            verdict = item.run()
        except Exception:  # any exception is a failed item, never a crash
            verdict = None
            errors[index] = traceback.format_exc(limit=3)
        latencies_ns.append(time.process_time_ns() - start)
        records.append((item, verdict))
        since_reference += latencies_ns[-1]
        if since_reference >= REFERENCE_EVERY_NS:
            references.append((sum(latencies_ns), reference_ns()))
            since_reference = 0
    if tracer is not None:
        tracer.active = False
    references.append((sum(latencies_ns), reference_ns()))
    latencies_ms = scaled(latencies_ns, references)

    failures = dict(errors)
    returned = [(i, record) for i, record in enumerate(records) if i not in errors]
    try:
        found = wl.check([record for _, record in returned])
    except Exception:  # a verdict the checker cannot read is a failure too
        failures[-1] = traceback.format_exc(limit=3)
    else:
        failures.update({returned[j][0]: why for j, why in found.items()})

    digest = hashlib.sha256(
        json.dumps([v for _, v in records], sort_keys=True, default=repr).encode()
    ).hexdigest()
    report = {
        "setup_s": setup_s,
        "latencies_ms": latencies_ms,
        "attempted": len(records),
        "failed": len(failures),
        "failures": [
            f"#{i} {records[i][0].kind if i >= 0 else 'check'}: {why}"
            for i, why in sorted(failures.items())[:10]
        ],
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        members = {i for i, (item, _) in enumerate(records) if item.kind == "member"}
        report["layers"] = tracer.metrics(members)
        report["spans"] = len(tracer.span_name)
        if spans:
            tracer.write_spans(spans)
        tracer.uninstall()
    return report


def run_setup(workload: str, seed: int) -> dict:
    import workloads

    workloads.WORKLOADS[workload].setup(seed)
    return {"setup_s": scaled_setup_s()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "setup":
        report = run_setup(args.workload, args.seed)
    else:
        report = run_pass(args.workload, args.seed, args.trace, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
