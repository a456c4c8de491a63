"""The benchmark's workloads: what one iteration runs and how it is checked.

One operation is one prime.  An operation fails on any exception, on a
``ConsistencyError`` from the program's own dual-route checks, on a
benchmark check, or on a digest that differs from the reference.

Every bcscan callable is looked up as a module attribute at call time,
so the layer trace (which patches those attributes) sees every call.

- ``catalogue``: ``bcscan.cli.main(["scan", ...])`` for the published
  catalogues, JSON written to a file and read back; the path a user runs.
  Exercises herbrand, poly, carlitz, series, lseries and emit; never
  localfield.
- ``dual-route``: every prime of a few whole degree bands, BC residues by
  series inversion and again through the local model, which must agree
  at every 2 <= n <= Q-2.  Mostly localfield; never herbrand.
- ``bigfield``: one large prime per characteristic, chosen by the seed
  from a recorded pool: residue field, BC vector, irregular indices and
  the L-valuation at every in-scope n.  Series inversion and
  lseries/witt at Q in the thousands; never herbrand or localfield.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import bcscan
import bcscan.cli


class CheckFailed(Exception):
    """A benchmark-side check on the program's output did not hold."""


# (q, max degree) per catalogue scan
CATALOGUES = {
    "full": ((2, 5), (3, 4), (4, 3), (5, 3)),
    "tiny": ((2, 4), (3, 2)),
}

# (q, degree) per dual-route band
BANDS = {
    "full": ((2, 7), (3, 4), (4, 3)),
    "tiny": ((2, 4), (3, 2)),
}

# bigfield: (q, degree) per characteristic; the seed picks one prime of
# each from the pool recorded in the reference file
BIGFIELD = {
    "full": ((2, 12), (3, 8)),
    "tiny": ((2, 5), (3, 3)),
}

# in-scope indices per bigfield prime on which the polynomial route
# (l_report) re-derives the L-value against the closed form
L_REPORT_SAMPLE = 8
# Witt precision of the L-values: the CLI's default --precision, which
# pic_eigenspace_length also defaults to
WITT_PRECISION = 12

# published irregular sets: q -> (complete up to degree, {prime: (degree, indices)})
PUBLISHED = {
    2: (5, {"t^4 + t + 1": (4, (9,))}),
    3: (4, {
        "t^3 - t + 1": (3, (10,)),
        "t^3 - t - 1": (3, (10,)),
        "t^4 + t^2 - 1": (4, (40,)),
        "t^4 - t^2 - 1": (4, (32,)),
        "t^4 + t^3 + t^2 + 1": (4, (40,)),
        "t^4 + t^3 - t^2 - t - 1": (4, (32,)),
        "t^4 - t^3 + t^2 + 1": (4, (40,)),
        "t^4 - t^3 - t^2 + t - 1": (4, (32,)),
    }),
    4: (3, {
        name: (3, (33,))
        for name in (
            "t^3 + a", "t^3 + a^2",
            "t^3 + t^2 + t + a", "t^3 + t^2 + t + a^2",
            "t^3 + a*t^2 + a^2*t + a", "t^3 + a*t^2 + a^2*t + a^2",
            "t^3 + a^2*t^2 + a*t + a", "t^3 + a^2*t^2 + a*t + a^2",
        )
    }),
    5: (3, {}),
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# q -> (p, r) with the default modulus, as ``bcscan scan --q`` picks it
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def base_field(q: int):
    return bcscan.fq_make(*FIELDS[q])


def base_fields(workload: str, size: str) -> list:
    """The base fields a workload needs; building them is set-up."""
    if workload == "catalogue":
        qs = [q for q, _ in CATALOGUES[size]]
    elif workload == "dual-route":
        qs = [q for q, _ in BANDS[size]]
    else:
        qs = [q for q, _ in BIGFIELD[size]]
    return [base_field(q) for q in qs]


class Outcome:
    """Operation tally of one iteration."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(f"{label}: {error}")


def _compare(got: str, want: str | None) -> str | None:
    if want is None:
        return "not in the reference"
    return None if got == want else f"digest {got} != reference {want}"


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- catalogue ------------------------------------------------------------------

def _published_error(q: int, max_degree: int, prime: str, indices) -> str | None:
    complete_to, table = PUBLISHED[q]
    if max_degree > complete_to:
        return None
    expected = table.get(prime)
    expected = expected[1] if expected and expected[0] <= max_degree else None
    got = tuple(indices) if indices is not None else None
    if got != expected:
        return f"irregular indices {got} differ from the published {expected}"
    return None


def catalogue_scan(q: int, max_degree: int, workdir: str):
    """Run one catalogue through the CLI; (header digest, {prime: report})."""
    out = os.path.join(workdir, f"scan-q{q}-D{max_degree}.json")
    argv = ["scan", "--q", str(q), "--max-degree", str(max_degree),
            "--threads", "1", "--format", "json", "--out", out]
    code = bcscan.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"bcscan {' '.join(argv)} exited {code}")
    with open(out, encoding="utf-8") as fh:
        obj = json.load(fh)
    os.remove(out)
    reports = {rep["prime"]: rep for rep in obj.pop("reports")}
    return digest(obj), reports


def catalogue_digest(prime: str, report: dict | None) -> str:
    """A regular prime has no report; its digest still names it."""
    return digest(report if report is not None else ["regular", prime])


def run_catalogue(ref: dict, size: str, seed: int, mark, workdir: str) -> Outcome:
    res = Outcome()
    for q, max_degree in CATALOGUES[size]:
        key = f"q{q}-D{max_degree}"
        want = ref[key]
        try:
            header, reports = catalogue_scan(q, max_degree, workdir)
            whole = _compare(header, want["header"])
        except Exception as exc:  # every prime of this scan fails
            reports, whole = {}, _error(exc)
        unexpected = sorted(set(reports) - set(want["primes"]))
        for prime in list(want["primes"]) + unexpected:
            rep = reports.get(prime)
            error = (
                whole
                or _compare(catalogue_digest(prime, rep), want["primes"].get(prime))
                or _published_error(q, max_degree, prime,
                                    rep["irregular_indices"] if rep else None)
            )
            res.record(f"{key} {prime}", error)
    return res


# -- dual-route -----------------------------------------------------------------

def dual_route_digest(prime) -> str:
    """BC residues both ways; raises unless they agree at 2 <= n <= Q-2."""
    rf = bcscan.residue_field(prime)
    bc = bcscan.bc_numbers(rf)
    sweep = bcscan.bc_local_sweep(bcscan.local_model(prime))
    Q = rf.size
    bad = [n for n in range(2, Q - 1) if sweep.values.get(n) != bc.values[n]]
    if bad:
        raise CheckFailed(f"local route disagrees with the series route at n={bad[:5]}")
    return digest([list(bc.values), [sweep.vanished[n] for n in range(1, Q - 1)]])


def run_dual_route(ref: dict, size: str, seed: int, mark, workdir: str) -> Outcome:
    res = Outcome()
    for q, d in BANDS[size]:
        key = f"q{q}-d{d}"
        want = ref[key]
        mark(None)
        primes = {bcscan.poly_to_str(f): f for f in bcscan.monic_irreducibles(base_field(q), d)}
        for name in list(want) + sorted(set(primes) - set(want)):
            mark(f"q={q} {name}")
            try:
                if name not in primes:
                    raise CheckFailed("missing from the enumeration")
                error = _compare(dual_route_digest(primes[name]), want.get(name))
            except Exception as exc:
                error = _error(exc)
            res.record(f"{key} {name}", error)
    return res


# -- bigfield -------------------------------------------------------------------

def bigfield_digest(prime, seed: int) -> str:
    """Residue field, BC vector, irregular indices and every in-scope
    L-valuation; the polynomial route re-derives a seeded sample."""
    rf = bcscan.residue_field(prime)
    bc = bcscan.bc_numbers(rf)
    irregular = sorted(bcscan.irregular_indices(bc))
    q, Q = rf.q, rf.size
    scope = range(q - 1, Q - 1, q - 1)
    if irregular != [n for n in scope if bc.values[n] == 0]:
        raise CheckFailed("irregular_indices disagrees with the BC vector")
    vals = [bcscan.pic_eigenspace_length(rf, n) for n in scope]
    ctx = bcscan.character_context(rf, WITT_PRECISION)
    for i in sorted(random.Random(seed).sample(range(len(scope)), min(L_REPORT_SAMPLE, len(scope)))):
        rep = bcscan.l_report(ctx, scope[i])  # raises unless L agrees with the closed form
        if rep.valuation != min(vals[i], WITT_PRECISION):
            raise CheckFailed(f"l_report valuation {rep.valuation} != {vals[i]} at n={scope[i]}")
    return digest([list(bc.values), irregular, vals])


def bigfield_choice(pool: dict, size: str, seed: int) -> list[tuple[int, str]]:
    """Seed 0 takes the first pool entry of each characteristic."""
    rng = random.Random(seed)
    out = []
    for q, _ in BIGFIELD[size]:
        names = list(pool[str(q)])
        out.append((q, names[0] if seed == 0 else names[rng.randrange(len(names))]))
    return out


def run_bigfield(ref: dict, size: str, seed: int, mark, workdir: str) -> Outcome:
    res = Outcome()
    for q, name in bigfield_choice(ref, size, seed):
        mark(f"q={q} {name}")
        try:
            got = bigfield_digest(bcscan.parse_poly(name, base_field(q)), seed)
            error = _compare(got, ref[str(q)].get(name))
        except Exception as exc:
            error = _error(exc)
        res.record(f"q={q} {name}", error)
    return res


RUNNERS = {
    "catalogue": run_catalogue,
    "dual-route": run_dual_route,
    "bigfield": run_bigfield,
}
