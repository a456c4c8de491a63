"""Rendering: table, JSON round trip, CSV."""

import dataclasses
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emit_oracle
from scans import scanned

from bcscan.emit import (
    LOWER_BOUND_NOTE,
    NO_INTERPRETATION_BANNER,
    emit,
    parse_scan_json,
    render_csv,
    render_json,
    render_table,
)
from bcscan.fields import FieldError, fq_make
from bcscan.herbrand import PrimeReport, ScanOptions, ScanResult, classify_prime, scan
from bcscan.poly import parse_poly

F2 = fq_make(2, 1)
F3 = fq_make(3, 1)


@pytest.fixture(scope="module")
def q2_result():
    return scanned(F2, 4)


@pytest.fixture(scope="module")
def q3_result():
    return scanned(F3, 4)


def test_table_columns_and_footer(q2_result):
    text = render_table(q2_result)
    lines = text.splitlines()
    assert lines[0].split() == ["prime", "indices", "dim"]
    assert "t^4 + t + 1" in lines[1] and "{9}" in lines[1] and lines[1].rstrip().endswith("1")
    assert "scanned 8 primes of degree <= 4 over F_2; 1 irregular" in text
    assert LOWER_BOUND_NOTE not in text


def test_table_lower_bound_note_appears(q3_result):
    text = render_table(q3_result)
    assert ">=1" in text
    assert LOWER_BOUND_NOTE in text


def test_table_empty_scan():
    r = scan(fq_make(5, 1), 2)
    text = render_table(r)
    assert "0 irregular" in text
    assert len(text.splitlines()) == 3


def test_detail_table_has_banner(q3_result):
    text = render_table(q3_result, detail=True)
    assert NO_INTERPRETATION_BANNER in text
    assert "BC_n = 0" in text and "BC_n unit" in text
    assert "v(S_n(1))=" in text


def test_json_round_trip(q3_result):
    back = parse_scan_json(render_json(q3_result))
    assert back == q3_result


def test_json_rejects_unknown_schema(q2_result):
    text = render_json(q2_result).replace('"schema_version": "1"', '"schema_version": "9"')
    with pytest.raises(FieldError):
        parse_scan_json(text)


def test_json_schema_fields(q2_result):
    import json

    obj = json.loads(render_json(q2_result))
    assert obj["schema_version"] == "1"
    assert obj["q"] == 2 and obj["fq_modulus"] is None
    rep = obj["reports"][0]
    assert rep["irregular_indices"] == [9]
    ns = [c["n"] for c in rep["classifications"]]
    assert ns == list(range(1, 15))
    assert "timings" not in rep


def test_csv_one_row_per_index(q3_result):
    lines = render_csv(q3_result).splitlines()
    assert lines[0] == "q,prime,degree,n,in_scope,bc_divisible,pic_length,h1_dim"
    body = lines[1:]
    expected = sum(len(rep.classifications) for rep in q3_result.reports)
    assert len(body) == expected
    row10 = next(l for l in body if l.startswith("3,t^3 - t + 1,3,10,"))
    assert row10.endswith("true,true,0,1")
    off = next(l for l in body if l.startswith("3,t^3 - t + 1,3,11,"))
    assert off.endswith("false,false,,out-of-scope")


def test_emit_writes_file(tmp_path, q2_result):
    path = tmp_path / "out.json"
    assert emit(q2_result, "json", str(path)) is None
    assert path.read_text(encoding="utf-8") == emit(q2_result, "json")
    assert os.listdir(tmp_path) == ["out.json"]  # the temporary file was moved, not left


def test_emit_rejects_unknown_format(q2_result):
    with pytest.raises(FieldError):
        emit(q2_result, "yaml")


def test_round_trip_preserves_diagnostics(q3_result):
    back = parse_scan_json(render_json(q3_result))
    orig = {(r.prime, c.n): c.diagnostics for r in q3_result.reports for c in r.classifications}
    got = {(r.prime, c.n): c.diagnostics for r in back.reports for c in r.classifications}
    assert orig == got


# -- the column writers against the whole-document oracle ---------------------

CATALOGUES = ((2, 5), (3, 4), (4, 3), (5, 3))
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


@pytest.fixture(scope="module")
def catalogues():
    return {(q, d): scanned(fq_make(*FIELDS[q]), d) for q, d in CATALOGUES}


@pytest.mark.parametrize("q,d", CATALOGUES)
@pytest.mark.parametrize("format", ["table", "json", "csv"])
def test_streamed_writer_matches_the_oracle_on_the_catalogues(catalogues, q, d, format):
    want = getattr(emit_oracle, f"render_{format}")(catalogues[q, d])
    assert emit(catalogues[q, d], format) == want
    buf = io.StringIO()
    assert emit(scan(fq_make(*FIELDS[q]), d), format, buf) is None
    assert buf.getvalue() == want


@pytest.mark.parametrize("q,prime", [(3, "t^3 - t + 1"), (2, "t^4 + t + 1"), (3, "t + 1")])
def test_checked_reports_match_the_oracle(q, prime):
    # the local flags and the graded valuations reach the JSON per index
    base = fq_make(*FIELDS[q])
    report = classify_prime(parse_poly(prime, base), ScanOptions(check_local=True, cross_check=True))
    result = ScanResult(q, None, report.degree, 12, 1, (report,))
    assert render_json(result) == emit_oracle.render_json(result)
    assert render_table(result, detail=True) == emit_oracle.render_table(result, detail=True)
    assert render_csv(result) == emit_oracle.render_csv(result)
    assert parse_scan_json(render_json(result)) == result


@st.composite
def column_reports(draw, q: int, prime: str) -> PrimeReport:
    """A report as classify_prime lays one out: BC residues 0 off scope,
    off-scope valuations capped at k, local flags only at in-scope
    2 <= n <= Q-2, and the flags only where some index shows them."""
    degree = draw(st.integers(1, {2: 4, 3: 3, 4: 2, 5: 2}[q]))
    Q, k = q**degree, draw(st.integers(1, 20))
    ns = range(1, Q - 1)
    scope = [n % (q - 1) == 0 for n in ns]
    residue = st.one_of(st.just(0), st.integers(1, Q - 1))
    bc = [draw(residue) if s else 0 for s in scope]
    valuations = [draw(st.integers(0, 3 * k if s else k)) for s in scope]
    local_ns = range(max(2, q - 1), Q - 1, q - 1)
    local = None
    if local_ns and draw(st.booleans()):
        local = np.array([n in local_ns and draw(st.booleans()) for n in ns], dtype=bool)
    return PrimeReport(
        q=q,
        prime=prime,
        degree=degree,
        irregular_indices=tuple(n for n, s, b in zip(ns, scope, bc) if s and b == 0),
        witt_precision=k,
        bc_residues=np.array(bc, dtype=np.int64),
        valuations=np.array(valuations, dtype=np.int64),
        local_vanished=local,
        cross_checked=Q - 2 >= q - 1 and draw(st.booleans()),
    )


@st.composite
def column_results(draw) -> ScanResult:
    q = draw(st.sampled_from([2, 3, 4, 5]))
    primes = draw(st.lists(st.text(min_size=1, max_size=8), max_size=3, unique=True))
    reports = tuple(draw(column_reports(q, prime)) for prime in primes)
    return ScanResult(
        q=q,
        fq_modulus=draw(st.none() | st.text(max_size=8)),
        max_degree=max([r.degree for r in reports], default=1),
        precision=draw(st.integers(1, 96)),
        primes_scanned=len(reports) + draw(st.integers(0, 50)),
        reports=reports,
    )


@settings(max_examples=150, deadline=None)
@given(column_results())
def test_json_round_trip_of_column_reports(result):
    assert parse_scan_json(render_json(result)) == result


@settings(max_examples=150, deadline=None)
@given(column_results())
def test_column_writers_match_the_oracle(result):
    assert render_json(result) == emit_oracle.render_json(result)
    assert render_csv(result) == emit_oracle.render_csv(result)
    assert render_table(result, detail=True) == emit_oracle.render_table(result, detail=True)


def test_json_whose_labels_contradict_its_columns_is_refused(q2_result):
    text = render_json(q2_result).replace('"h1_dim": "1"', '"h1_dim": "0"')
    with pytest.raises(FieldError, match="does not follow from its columns"):
        parse_scan_json(text)


def test_a_checked_scan_matches_the_oracle():
    # the local flags and graded valuations of every index of a scan
    result = scanned(F3, 3, ScanOptions(check_local=True, cross_check=True))
    assert result.reports
    assert render_json(result) == emit_oracle.render_json(result)
