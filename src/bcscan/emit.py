"""Rendering of scan results: aligned text table, JSON, CSV.

Each format is written report by report, as a scan yields them, from
the report's columns: a run holds one prime's report at a time.  The
table aligns its columns, so it keeps its rows (three short strings
per irregular prime) and writes them once the last is known.
JSON carries a schema_version field and is the only format meant to be
read back; parse_scan_json inverts render_json exactly.  A report holds
results only (a scan's timings go to stderr as it runs), so equal scans
emit byte-identical output regardless of thread count or clock.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import io
import json
import os

import numpy as np

from .fields import FieldError
from .herbrand import DIM_AT_LEAST_ONE, IndexClassification, PrimeReport, ScanResult, classify_index

SCHEMA_VERSION = "1"

LOWER_BOUND_NOTE = (
    "(*) >=1 is a lower bound: the index has positive L-valuation, and the"
    " deduction chain pins the dimension only from below; settling exactness"
    " needs a direct curve-cohomology computation, which this tool does not do."
)

NO_INTERPRETATION_BANNER = (
    "indices with (q-1) not dividing n: raw data only, no dimension claim"
)


def _fmt_indices(ns) -> str:
    return "{" + ", ".join(str(n) for n in ns) + "}"


def _dim_column(report: PrimeReport) -> str:
    return ", ".join(classify_index(report, n).h1_dim for n in report.irregular_indices)


def _write_table(result: ScanResult, fh, detail: bool) -> None:
    """Three-column overview; with detail, per-index listings too."""
    rows = [("prime", "indices", "dim")]
    details = []
    for rep in result.reports:
        rows.append((rep.prime, _fmt_indices(rep.irregular_indices), _dim_column(rep)))
        if detail:
            details.append(_render_detail(rep))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for r in rows:
        fh.write("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip() + "\n")
    field = f"F_{result.q}"
    if result.fq_modulus:
        field += f" = F_p[x]/({result.fq_modulus})"
    irregular = sum(1 for r in rows[1:] if r[1] != "{}")
    fh.write(
        f"\nscanned {result.primes_scanned} primes of degree <= {result.max_degree}"
        f" over {field}; {irregular} irregular\n"
    )
    if any(DIM_AT_LEAST_ONE in r[2] for r in rows[1:]):
        fh.write(LOWER_BOUND_NOTE + "\n")
    for text in details:
        fh.write("\n" + text)


def _render_detail(report: PrimeReport) -> str:
    out = io.StringIO()
    out.write(f"{report.prime}  (degree {report.degree}, q={report.q})\n")
    classifications = [classify_index(report, n) for n in range(1, len(report.valuations) + 1)]
    in_scope = [c for c in classifications if c.q_minus_1_divides]
    off = [c for c in classifications if not c.q_minus_1_divides]
    for c in in_scope:
        pic = "-" if c.pic_length is None else str(c.pic_length)
        flag = "BC_n = 0" if c.bc_divisible else "BC_n unit"
        out.write(f"  n={c.n:<4d} {flag:<9s}  v(L)={pic:<3s} dim {c.h1_dim}\n")
    if off:
        out.write(f"  {NO_INTERPRETATION_BANNER}\n")
        for c in off:
            out.write(f"  n={c.n:<4d} v(S_n(1))={c.diagnostics.get('s1_valuation')}\n")
    return out.getvalue()


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_value(v) -> str:
    """v as json.dumps writes it, a bool, None or an int without a call."""
    if v is None or isinstance(v, bool):
        return _JSON_CONSTANTS[v]
    return str(v) if isinstance(v, int) else json.dumps(v)


# the keys and labels of the classifications are a handful of strings
_json_string = functools.lru_cache(maxsize=64)(json.dumps)


def _json_list(items, indent: str) -> str:
    """A list laid out as json.dumps(indent=2) lays it out with its items
    at ``indent``: one item per line, ``[]`` when empty."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(indent + item for item in items) + "\n" + indent[:-2] + "]"


def _json_classification(c: IndexClassification) -> str:
    """One index's object, as it sits four levels deep in the document."""
    diagnostics = "{}"
    if c.diagnostics:
        entries = (f"{_json_string(key)}: {_json_value(v)}" for key, v in c.diagnostics.items())
        diagnostics = "{\n" + ",\n".join("            " + e for e in entries) + "\n          }"
    return (
        "{\n"
        f'          "n": {c.n},\n'
        f'          "q_minus_1_divides": {_json_value(c.q_minus_1_divides)},\n'
        f'          "bc_divisible": {_json_value(c.bc_divisible)},\n'
        f'          "pic_length": {_json_value(c.pic_length)},\n'
        f'          "h1_dim": {_json_string(c.h1_dim)},\n'
        f'          "diagnostics": {diagnostics}\n'
        "        }"
    )


def _json_report(rep: PrimeReport) -> str:
    """A report's object, as it sits two levels deep in the document,
    each index through the public single-index view of the columns."""
    classifications = [
        _json_classification(classify_index(rep, n)) for n in range(1, len(rep.valuations) + 1)
    ]
    return (
        "{\n"
        f'      "prime": {json.dumps(rep.prime)},\n'
        f'      "degree": {rep.degree},\n'
        f'      "irregular_indices": {_json_list([str(n) for n in rep.irregular_indices], " " * 8)},\n'
        f'      "witt_precision": {rep.witt_precision},\n'
        f'      "classifications": {_json_list(classifications, " " * 8)}\n'
        "    }"
    )


def _write_json(result: ScanResult, fh, detail: bool = False) -> None:
    """The bytes of json.dumps(document, indent=2) + newline, one report
    at a time.  The reports are laid out by hand: the indented form of
    json.dumps has no C encoder, and at large scans it was most of the
    run."""
    head = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "q": result.q,
            "fq_modulus": result.fq_modulus,
            "max_degree": result.max_degree,
            "precision": result.precision,
            "primes_scanned": result.primes_scanned,
        },
        indent=2,
    )
    fh.write(head[:-2] + ',\n  "reports": [')
    sep = "\n"
    for rep in result.reports:
        fh.write(sep + "    " + _json_report(rep))
        sep = ",\n"
    fh.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def _parse_report(q: int, obj: dict) -> PrimeReport:
    """A report's columns from its JSON; the document's object must be
    the one ``_json_report`` renders from those columns."""
    cls = obj["classifications"]
    diags = [c["diagnostics"] for c in cls]
    local = None
    if any("local_component_vanished" in d for d in diags):
        local = np.array([d.get("local_component_vanished", False) for d in diags], dtype=bool)
    report = PrimeReport(
        q=q,
        prime=obj["prime"],
        degree=obj["degree"],
        irregular_indices=tuple(obj["irregular_indices"]),
        witt_precision=obj["witt_precision"],
        bc_residues=np.array([d.get("bc_residue", 0) for d in diags], dtype=np.int64),
        valuations=np.array(
            [c["pic_length"] if c["q_minus_1_divides"] else c["diagnostics"]["s1_valuation"]
             for c in cls],
            dtype=np.int64,
        ),
        local_vanished=local,
        cross_checked=any("l_valuation_graded" in d for d in diags),
    )
    if json.loads(_json_report(report)) != obj:
        raise FieldError(f"the report of {report.prime} does not follow from its columns")
    return report


def parse_scan_json(text: str) -> ScanResult:
    obj = json.loads(text)
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise FieldError(f"unsupported schema version {obj.get('schema_version')!r}")
    return ScanResult(
        q=obj["q"],
        fq_modulus=obj["fq_modulus"],
        max_degree=obj["max_degree"],
        precision=obj["precision"],
        primes_scanned=obj["primes_scanned"],
        reports=tuple(_parse_report(obj["q"], rep) for rep in obj["reports"]),
    )


def _write_csv(result: ScanResult, fh, detail: bool = False) -> None:
    """One row per (prime, n), fixed columns, RFC-style quoting."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(
        ["q", "prime", "degree", "n", "in_scope", "bc_divisible", "pic_length", "h1_dim"]
    )
    for rep in result.reports:
        for n in range(1, len(rep.valuations) + 1):
            c = classify_index(rep, n)
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


_WRITERS = {"table": _write_table, "json": _write_json, "csv": _write_csv}


def render_table(result: ScanResult, detail: bool = False) -> str:
    return emit(result, "table", detail=detail)


def render_json(result: ScanResult) -> str:
    return emit(result, "json")


def render_csv(result: ScanResult) -> str:
    return emit(result, "csv")


def emit(result: ScanResult, format: str = "table", out=None, detail: bool = False) -> str | None:
    """Write ``result`` in ``format`` as its reports arrive.

    ``out`` is None (the text is returned), a text stream, or a path.  A
    path is written through a temporary file beside it, moved into its
    place only once the whole output is written, so a run that fails
    part way leaves no partial file; the output already written to a
    stream stays there."""
    write = _WRITERS.get(format)
    if write is None:
        raise FieldError(f"unknown output format {format!r}")
    if out is None:
        buf = io.StringIO()
        write(result, buf, detail)
        return buf.getvalue()
    if not isinstance(out, (str, os.PathLike)):
        write(result, out, detail)
        return None
    with replacing(out) as fh:
        write(result, fh, detail)
    return None


@contextlib.contextmanager
def replacing(path):
    """A text file beside ``path``, moved into its place once the block
    completes; on failure ``path`` is as it was and no file is left.  A
    ``path`` that is a directory, or whose directory is missing, is
    refused on entry, before the block runs, by an error naming it."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
