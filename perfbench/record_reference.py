"""Record the benchmark's reference digests from the current sources.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json: for each size and workload, a digest
per prime of the output the workload checks (the catalogue JSON report,
the dual-route residue vector, the bigfield BC vector with its
valuations).  Re-record only on a commit whose output is trusted; a
change that alters output is caught by comparing against the old file.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bcscan  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# first entry of each pool is what seed 0 runs
BIGFIELD_DEFAULT = {
    "full": {2: "t^12 + t^3 + 1", 3: "t^8 + t^2 - 1"},
    "tiny": {2: "t^5 + t^2 + 1", 3: "t^3 - t + 1"},
}
POOL_SIZE = {"full": 12, "tiny": 4}


def record_catalogue(size: str, workdir: str) -> dict:
    out = {}
    for q, max_degree in wl.CATALOGUES[size]:
        F = wl.base_field(q)
        header, reports = wl.catalogue_scan(q, max_degree, workdir)
        names = [bcscan.poly_to_str(f) for d in range(1, max_degree + 1)
                 for f in bcscan.monic_irreducibles(F, d)]
        if not set(reports) <= set(names):
            raise SystemExit(f"q={q}: reports for primes outside the enumeration")
        out[f"q{q}-D{max_degree}"] = {
            "header": header,
            "primes": {n: wl.catalogue_digest(n, reports.get(n)) for n in names},
        }
    return out


def record_dual_route(size: str) -> dict:
    return {
        f"q{q}-d{d}": {bcscan.poly_to_str(f): wl.dual_route_digest(f)
                       for f in bcscan.monic_irreducibles(wl.base_field(q), d)}
        for q, d in wl.BANDS[size]
    }


def record_bigfield(size: str) -> dict:
    out = {}
    for q, d in wl.BIGFIELD[size]:
        F = wl.base_field(q)
        default = BIGFIELD_DEFAULT[size][q]
        others = [bcscan.poly_to_str(f) for f in bcscan.monic_irreducibles(F, d)]
        others.remove(default)
        pool = [default] + random.Random(q * 1000 + d).sample(others, POOL_SIZE[size] - 1)
        out[str(q)] = {}
        for name in pool:
            out[str(q)][name] = wl.bigfield_digest(bcscan.parse_poly(name, F), seed=0)
            print(f"bigfield {size} q={q} {name}", file=sys.stderr)
    return out


def main() -> int:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    ref = {"recorded_at_commit": commit}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        for size in ("tiny", "full"):
            ref[size] = {
                "catalogue": record_catalogue(size, workdir),
                "dual-route": record_dual_route(size),
                "bigfield": record_bigfield(size),
            }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
