"""One iteration of a benchmark workload in a fresh interpreter.

run.py starts this script once per iteration, so every iteration pays
the program's cold module caches the way a CLI invocation does:

    python3 perfbench/worker.py --workload catalogue --size full \
        --workdir DIR [--trace 1]

Set-up (interpreter start, ``import bcscan``, the base fields) ends at
the monotonic timestamp ``ready``; the timed region runs from after the
reference (``reference.json`` beside this script) is loaded to the last
output checked.  The last line of standard output is one JSON object
with the iteration's figures.  ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="write the trace's spans here (gzip JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads  # imports bcscan

    workloads.base_fields(args.workload, args.size)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)[args.size][args.workload]
    tracer = None
    mark = lambda label: None  # noqa: E731
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        mark = tracer.open_prime

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outcome = workloads.RUNNERS[args.workload](ref, args.size, args.seed, mark, args.workdir)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(max(outcome.attempted, 1))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
