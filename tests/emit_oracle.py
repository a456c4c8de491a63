"""Test-only whole-document renderers: the table, JSON and CSV built
from one IndexClassification object per index, the way the package
rendered before it wrote each report from its columns.

The package's writers must give these bytes exactly.  Nothing here
reads a report's columns; every value comes from the per-index views
(``PrimeReport.classifications``), and JSON goes through one
``json.dumps(indent=2)`` of the whole document.
"""

from __future__ import annotations

import csv
import io
import json

from bcscan.emit import LOWER_BOUND_NOTE, NO_INTERPRETATION_BANNER, SCHEMA_VERSION
from bcscan.herbrand import DIM_AT_LEAST_ONE, IndexClassification, PrimeReport, ScanResult


def _fmt_indices(ns) -> str:
    return "{" + ", ".join(str(n) for n in ns) + "}"


def _dim_column(report: PrimeReport) -> str:
    return ", ".join(c.h1_dim for c in report.classifications if c.bc_divisible)


def render_table(result: ScanResult, detail: bool = False) -> str:
    out = io.StringIO()
    rows = [("prime", "indices", "dim")]
    for rep in result.reports:
        rows.append((rep.prime, _fmt_indices(rep.irregular_indices), _dim_column(rep)))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for r in rows:
        out.write("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip() + "\n")
    field = f"F_{result.q}"
    if result.fq_modulus:
        field += f" = F_p[x]/({result.fq_modulus})"
    irregular = sum(1 for rep in result.reports if rep.irregular_indices)
    out.write(
        f"\nscanned {result.primes_scanned} primes of degree <= {result.max_degree}"
        f" over {field}; {irregular} irregular\n"
    )
    if any(DIM_AT_LEAST_ONE in r[2] for r in rows[1:]):
        out.write(LOWER_BOUND_NOTE + "\n")
    if detail:
        for rep in result.reports:
            out.write("\n" + _render_detail(rep))
    return out.getvalue()


def _render_detail(report: PrimeReport) -> str:
    out = io.StringIO()
    out.write(f"{report.prime}  (degree {report.degree}, q={report.q})\n")
    in_scope = [c for c in report.classifications if c.q_minus_1_divides]
    off = [c for c in report.classifications if not c.q_minus_1_divides]
    for c in in_scope:
        pic = "-" if c.pic_length is None else str(c.pic_length)
        flag = "BC_n = 0" if c.bc_divisible else "BC_n unit"
        out.write(f"  n={c.n:<4d} {flag:<9s}  v(L)={pic:<3s} dim {c.h1_dim}\n")
    if off:
        out.write(f"  {NO_INTERPRETATION_BANNER}\n")
        for c in off:
            out.write(f"  n={c.n:<4d} v(S_n(1))={c.diagnostics.get('s1_valuation')}\n")
    return out.getvalue()


def _classification_obj(c: IndexClassification) -> dict:
    return {
        "n": c.n,
        "q_minus_1_divides": c.q_minus_1_divides,
        "bc_divisible": c.bc_divisible,
        "pic_length": c.pic_length,
        "h1_dim": c.h1_dim,
        "diagnostics": dict(c.diagnostics),
    }


def render_json(result: ScanResult) -> str:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "q": result.q,
        "fq_modulus": result.fq_modulus,
        "max_degree": result.max_degree,
        "precision": result.precision,
        "primes_scanned": result.primes_scanned,
        "reports": [
            {
                "prime": rep.prime,
                "degree": rep.degree,
                "irregular_indices": list(rep.irregular_indices),
                "witt_precision": rep.witt_precision,
                "classifications": [_classification_obj(c) for c in rep.classifications],
            }
            for rep in result.reports
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def render_csv(result: ScanResult) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(
        ["q", "prime", "degree", "n", "in_scope", "bc_divisible", "pic_length", "h1_dim"]
    )
    for rep in result.reports:
        for c in rep.classifications:
            w.writerow(
                [
                    result.q,
                    rep.prime,
                    rep.degree,
                    c.n,
                    str(c.q_minus_1_divides).lower(),
                    str(c.bc_divisible).lower(),
                    "" if c.pic_length is None else c.pic_length,
                    c.h1_dim,
                ]
            )
    return out.getvalue()
