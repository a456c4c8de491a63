"""Classification and scan behavior."""

import dataclasses
import gc
import itertools
import os
import re
import weakref

import pytest

import bcscan
from bcscan import cli, fields, herbrand, lseries, poly
from bcscan.carlitz import bc_numbers, irregular_indices
from bcscan.fields import ConsistencyError, FieldError, fq_make
from bcscan.herbrand import (
    DIM_AT_LEAST_ONE,
    DIM_ONE,
    DIM_ZERO,
    OUT_OF_SCOPE,
    IndexClassification,
    ScanOptions,
    _resolve_threads,
    classify_index,
    classify_prime,
    scan,
    validate_report,
)
from bcscan.lseries import CharacterContext
from bcscan.poly import (
    Poly,
    monic_irreducibles,
    monic_polys,
    parse_poly,
    poly_to_str,
    residue_field,
)
from scans import scanned

F2 = fq_make(2, 1)
F3 = fq_make(3, 1)
F4 = fq_make(2, 2)


def test_classify_irregular_index_q2():
    f = parse_poly("t^4 + t + 1", F2)
    c = classify_index(f, 9)
    assert c.bc_divisible and c.q_minus_1_divides
    assert c.pic_length == 0
    assert c.h1_dim == DIM_ONE


def test_classify_regular_index_keeps_pic():
    f = parse_poly("t^4 + t + 1", F2)
    c = classify_index(f, 5)
    assert not c.bc_divisible
    assert c.h1_dim == DIM_ZERO
    # v(L) = 1 here even though the index is regular; recorded, not
    # interpreted (the dimension is pinned to 0 by the residue alone)
    assert c.pic_length == 1


def test_classify_positive_l_valuation_is_lower_bound():
    f = parse_poly("t^4 + t^2 - 1", F3)
    c = classify_index(f, 40)
    assert c.bc_divisible
    assert c.pic_length == 1
    assert c.h1_dim == DIM_AT_LEAST_ONE


def test_classify_out_of_scope_index():
    f = parse_poly("t^3 - t + 1", F3)
    c = classify_index(f, 7)
    assert c.h1_dim == OUT_OF_SCOPE
    assert c.pic_length is None
    assert not c.bc_divisible
    assert "s1_valuation" in c.diagnostics


def test_classify_index_range_guard():
    f = parse_poly("t^3 - t + 1", F3)
    with pytest.raises(FieldError):
        classify_index(f, 0)
    with pytest.raises(FieldError):
        classify_index(f, 26)


def test_classify_prime_covers_full_range():
    f = parse_poly("t^3 - t + 1", F3)
    rep = classify_prime(f)
    assert [c.n for c in rep.classifications] == list(range(1, 26))
    assert rep.irregular_indices == (10,)
    assert rep.degree == 3 and rep.q == 3
    labels = {c.n: c.h1_dim for c in rep.classifications}
    assert labels[10] == DIM_ONE
    assert labels[12] == DIM_ZERO
    assert labels[7] == OUT_OF_SCOPE


def test_residue_field_keeps_only_the_field_it_built_last():
    # classify_prime builds through residue_field's cache; once the next
    # prime's field is built, the first one's, with its tables, goes
    f, g = monic_irreducibles(F3, 4)[:2]
    classify_prime(f)
    field = weakref.ref(residue_field(f))
    assert field() is not None
    classify_prime(g)
    gc.collect()
    assert field() is None


def test_classify_prime_matches_bc_route():
    f = parse_poly("t^4 + t + 1", F2)
    rep = classify_prime(f)
    irr = irregular_indices(bc_numbers(residue_field(f)))
    assert set(rep.irregular_indices) == set(irr) == {9}


def test_check_local_option_records_vanishing():
    f = parse_poly("t^3 + t + 1", F2)
    rep = classify_prime(f, ScanOptions(check_local=True))
    for c in rep.classifications:
        if 2 <= c.n <= 6:
            assert c.diagnostics["local_component_vanished"] == c.bc_divisible


def test_classify_prime_builds_each_per_prime_quantity_once(monkeypatch):
    counts = {}
    for name in ("residue_field", "bc_numbers", "bc_local_sweep"):
        def counted(*args, _orig=getattr(herbrand, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _orig(*args)

        monkeypatch.setattr(herbrand, name, counted)
    rep = classify_prime(parse_poly("t^3 - t + 1", F3), ScanOptions(check_local=True))
    assert len(rep.classifications) == 25
    assert counts == {"residue_field": 1, "bc_numbers": 1, "bc_local_sweep": 1}


def test_check_local_disagreement_still_raises(monkeypatch):
    real = herbrand.bc_local_sweep

    def skewed(model):
        sweep = real(model)
        values = dict(sweep.values)
        values[12] = (values[12] + 1) % model.rf.size
        return dataclasses.replace(sweep, values=values)

    monkeypatch.setattr(herbrand, "bc_local_sweep", skewed)
    f = parse_poly("t^3 - t + 1", F3)
    assert classify_index(f, 10, ScanOptions(check_local=True)).bc_divisible
    with pytest.raises(ConsistencyError, match="n=12"):
        classify_prime(f, ScanOptions(check_local=True))


def test_cross_check_option_matches_pic():
    f = parse_poly("t^3 - t + 1", F3)
    rep = classify_prime(f, ScanOptions(cross_check=True))
    for c in rep.classifications:
        if c.q_minus_1_divides:
            assert c.diagnostics["l_valuation_graded"] == c.pic_length


@pytest.mark.parametrize("n,label", [(3, "S_3(1)"), (4, "L_4")])
def test_cross_check_compares_the_valuation_table(monkeypatch, n, label):
    real = CharacterContext.valuation
    monkeypatch.setattr(
        CharacterContext, "valuation", lambda self, m: real(self, m) + (m == n)
    )
    f = parse_poly("t^2 + 1", F3)
    classify_prime(f)  # without the cross-check the table is trusted
    with pytest.raises(ConsistencyError, match=re.escape(label)):
        classify_prime(f, ScanOptions(cross_check=True))


def test_scan_q2_table():
    r = scanned(F2, 5)
    validate_report(r)
    assert r.primes_scanned == 14
    assert [(rep.prime, rep.irregular_indices) for rep in r.reports] == [
        ("t^4 + t + 1", (9,))
    ]


def test_scan_empty_q5():
    r = scanned(fq_make(5, 1), 2)
    validate_report(r)
    assert r.reports == ()
    assert r.primes_scanned == 15


def test_a_default_scan_builds_no_field_at_degree_one(monkeypatch, capsys):
    # the enumerator searches the degree's field F_5[t]/(t), and a default
    # scan relabels it for no prime: a prime of degree one is regular
    searched, relabelled = [], []
    real_search, real_relabelled = fields._search_exp, fields.ResidueField.relabelled

    def counted_search(p, m, mul0, candidates):
        searched.append((p, m))
        return real_search(p, m, mul0, candidates)

    def counted_relabelled(home, coeffs, a):
        relabelled.append(coeffs)
        return real_relabelled(home, coeffs, a)

    fq_make(5, 1)  # interned before the count: F_5 itself is searched once
    monkeypatch.setattr(fields, "_search_exp", counted_search)
    monkeypatch.setattr(fields.ResidueField, "relabelled", staticmethod(counted_relabelled))
    assert cli.main(["scan", "--q", "5", "--max-degree", "1"]) == 0
    assert capsys.readouterr().out == (
        "prime  indices  dim\n\nscanned 5 primes of degree <= 1 over F_5; 0 irregular\n"
    )
    assert (searched, relabelled) == ([(5, 1)], [])
    # a check flag still classifies, and so relabels the home for, every prime
    assert scanned(fq_make(5, 1), 1, ScanOptions(cross_check=True)).reports == ()
    assert searched == [(5, 1)] * 2
    assert relabelled == [(c, 1) for c in range(5)]


def test_scan_thread_determinism():
    assert scanned(F3, 3, ScanOptions(threads=1)) == scanned(F3, 3, ScanOptions(threads=2))


def test_scan_threads_env_override(monkeypatch):
    monkeypatch.setenv("BCSCAN_THREADS", "2")
    r = scanned(F2, 4)
    validate_report(r)
    assert [rep.prime for rep in r.reports] == ["t^4 + t + 1"]
    monkeypatch.setenv("BCSCAN_THREADS", "zebra")
    with pytest.raises(FieldError):
        scan(F2, 2)


def test_thread_count_is_clamped(monkeypatch):
    # pure function: no pool is started
    monkeypatch.setattr(herbrand.os, "cpu_count", lambda: 4)
    monkeypatch.delenv("BCSCAN_THREADS", raising=False)
    assert _resolve_threads(ScanOptions(), 100) == 1
    assert _resolve_threads(ScanOptions(threads=64), 100) == 4
    assert _resolve_threads(ScanOptions(threads=64), 3) == 3
    assert _resolve_threads(ScanOptions(threads=2), 100) == 2
    assert _resolve_threads(ScanOptions(threads=0), 100) == 1
    monkeypatch.setenv("BCSCAN_THREADS", "100000")
    assert _resolve_threads(ScanOptions(), 100) == 4
    assert _resolve_threads(ScanOptions(threads=1), 100) == 1
    monkeypatch.setattr(herbrand.os, "cpu_count", lambda: None)
    assert _resolve_threads(ScanOptions(threads=8), 100) == 1


def test_scan_frees_each_regular_report_before_the_next_prime(monkeypatch):
    # a regular prime gets no report: its residue field, relabelled from
    # its degree's field, and its BC vector are all it holds.  Every
    # prime's field and BC vector, irregular or not, and the irregular
    # prime's character context and valuation table, go before the next
    # prime, by reference counting alone: no cycle is left for the
    # collector to find
    live, freed = [], []  # weak references to the last prime's objects

    def tracked_field(home, coeffs, a, _real=fields.ResidueField.relabelled):
        freed.extend(ref() is None for ref in live)
        live.clear()
        rf = _real(home, coeffs, a)
        live.append(weakref.ref(rf))
        return rf

    def tracked(real):
        def built(*args):
            out = real(*args)
            live.append(weakref.ref(out))
            return out

        return built

    monkeypatch.setattr(fields.ResidueField, "relabelled", staticmethod(tracked_field))
    monkeypatch.setattr(herbrand, "bc_numbers", tracked(herbrand.bc_numbers))
    monkeypatch.setattr(lseries, "character_context", tracked(lseries.character_context))
    monkeypatch.setattr(herbrand, "_valuation_table", tracked(herbrand._valuation_table))
    gc.collect()
    gc.disable()
    try:
        r = scanned(F2, 5, ScanOptions(threads=1))
    finally:
        gc.enable()
    assert [rep.prime for rep in r.reports] == ["t^4 + t + 1"]
    # the 12 primes of degree >= 2 build a field and a BC vector, 11 of
    # them have a next one, and one prime built a character context and
    # a valuation table
    assert len(freed) == 2 * 11 + 2 and all(freed)


@pytest.mark.parametrize("options", [ScanOptions(threads=1), ScanOptions(threads=1, cross_check=True)],
                         ids=["default", "cross-check"])
def test_a_scan_searches_one_field_per_degree_and_one_teich_table_per_precision(options, monkeypatch):
    searched, tables, contexts = [], [], set()
    real_search, real_table = fields._search_exp, lseries._teich_table

    def counted_search(p, m, mul0, candidates):
        searched.append(m)
        return real_search(p, m, mul0, candidates)

    def counted_table(W, order):
        tables.append((W.rf.d, W.k))
        return real_table(W, order)

    def recorded(rf, k, _real=lseries.character_context):
        contexts.add((rf.d, k))
        return _real(rf, k)

    monkeypatch.setattr(fields, "_search_exp", counted_search)
    monkeypatch.setattr(lseries, "_teich_table", counted_table)
    monkeypatch.setattr(lseries, "character_context", recorded)
    r = scanned(F3, 4, options)
    assert len(r.reports) == 8
    # the enumerator's field of each degree, and no other (F_3 is interned)
    assert searched == [1, 2, 3, 4]
    # one table per (degree, precision), shared by the primes of the degree
    assert sorted(tables) == sorted(contexts)
    assert {(3, 12), (4, 12)} <= contexts


def test_a_default_scan_builds_one_character_context_per_irregular_prime(monkeypatch):
    # perfbench counts the layer lseries.character_context, patched
    # wherever a module holds it: a default scan builds one context, at
    # the requested precision, for each irregular prime's valuation
    # table, and none at a regular prime
    built = []

    def recorded(rf, k, _real=lseries.character_context):
        built.append((poly_to_str(Poly(rf.base, rf.prime_coeffs)), k))
        return _real(rf, k)

    for module in (bcscan, herbrand, lseries):
        monkeypatch.setattr(module, "character_context", recorded)
    r = scanned(F3, 4, ScanOptions(threads=1))
    assert len(r.reports) == 8
    assert built == [(rep.prime, 12) for rep in r.reports]


def test_every_field_a_scan_builds_enters_the_residue_field_constructor(monkeypatch):
    # perfbench traces fields.ResidueField at __init__: a default scan
    # enters it once for each degree's home and once for each prime of
    # degree >= 2 that it relabels, so the trace covers every field built
    homes, relabelled = [], []
    real_init = fields.ResidueField.__init__

    def counted_init(self, *args, **kwargs):
        (relabelled if "_exp" in kwargs else homes).append(len(args[1]) - 1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(fields.ResidueField, "__init__", counted_init)
    r = scanned(fq_make(3), 4, ScanOptions(threads=1))
    assert r.primes_scanned == 32 and len(r.reports) == 8
    assert homes == [1, 2, 3, 4]
    assert sorted(relabelled) == [2] * 3 + [3] * 8 + [4] * 18


def count_irreducibility_tests(monkeypatch):
    """The polynomials the distinct-degree test runs on, at every name
    it is looked up by, recorded as coefficient tuples."""
    calls = []
    test = fields._pl_is_irreducible

    def counted(F, coeffs):
        calls.append(tuple(coeffs))
        return test(F, coeffs)

    monkeypatch.setattr(fields, "_pl_is_irreducible", counted)
    monkeypatch.setattr(poly, "_pl_is_irreducible", counted)
    return calls


def test_a_scan_tests_irreducibility_only_in_the_first_prime_searches(monkeypatch):
    # each degree's search for its first prime f0 tests the monic
    # polynomials up to f0 in canonical order, at degree one t alone; no
    # prime is tested again
    searched = []
    for d in range(1, 5):
        first = monic_irreducibles(F3, d)[0]
        searched += list(itertools.takewhile(lambda f: f != first, monic_polys(F3, d))) + [first]
    calls = count_irreducibility_tests(monkeypatch)
    r = scanned(F3, 4, ScanOptions(threads=1))
    assert r.primes_scanned == 32 and len(r.reports) == 8
    assert calls == [f.coeffs for f in searched]


def test_a_scan_worker_tests_neither_its_modulus_nor_its_prime(monkeypatch):
    # the payload carries the degree's first prime f0 and the prime's root
    # in F_4[t]/(f0); the worker builds that field itself, untested
    primes = monic_irreducibles(F4, 3)
    herbrand._home_field.cache_clear()
    calls = count_irreducibility_tests(monkeypatch)
    payload = (2, 2, F4.modulus, primes[0].coeffs, primes[7].coeffs, int(primes.roots[7]), ScanOptions())
    report = herbrand._scan_worker(payload)
    assert calls == []
    assert herbrand._home_field.cache_info().currsize == 1
    assert report == classify_prime(primes[7])  # irregular at n = 33


def test_scan_rejects_bad_degree_and_size():
    with pytest.raises(FieldError):
        scan(F2, 0)
    with pytest.raises(FieldError):
        scan(fq_make(5, 1), 8)  # 5^8 > 2^16
    with pytest.raises(FieldError, match="beyond 2\\^16"):
        scan(F2, 17)  # refused before 2^17 is formed


BAD_OPTIONS = {
    "threads=0": ScanOptions(threads=0),
    "threads=-3": ScanOptions(threads=-3),
    "precision=0": ScanOptions(precision=0),
    "precision=500": ScanOptions(precision=500),
}


@pytest.mark.parametrize("options", BAD_OPTIONS.values(), ids=BAD_OPTIONS.keys())
def test_scan_refuses_bad_options_before_enumerating(options, monkeypatch):
    def never(*_):
        raise AssertionError("a prime was enumerated")

    monkeypatch.setattr(herbrand, "monic_irreducibles", never)
    with pytest.raises(FieldError, match="threads must be at least 1|precision must be in 1..96"):
        scan(F2, 3, options)


@pytest.mark.parametrize("options", BAD_OPTIONS.values(), ids=BAD_OPTIONS.keys())
def test_classifying_a_prime_refuses_bad_options_before_its_field(options, monkeypatch):
    def never(*_):
        raise AssertionError("a field or BC vector was built")

    monkeypatch.setattr(herbrand, "residue_field", never)
    monkeypatch.setattr(herbrand, "bc_numbers", never)
    f = parse_poly("t^4 + t + 1", F2)
    with pytest.raises(FieldError, match="threads must be at least 1|precision must be in 1..96"):
        classify_prime(f, options)
    with pytest.raises(FieldError, match="threads must be at least 1|precision must be in 1..96"):
        classify_index(f, 9, options)


ROUTE_OPTIONS = {
    "default": ScanOptions(threads=1),
    "checks": ScanOptions(threads=1, check_local=True, cross_check=True),
}


# scanned fields are relabelled from one field per degree, classify_prime
# searches each prime's own: at every prime with q^d <= 256 over F_2,
# F_4, F_5, F_9 (both moduli) and F_16, and to degree 4 over F_3
ROUTE_SCANS = {
    "q2-D8": (F2, 8),
    "q3-D4": (F3, 4),
    "q4-D3": (F4, 3),
    "q5-D3": (fq_make(5, 1), 3),
    "q9-D2": (fq_make(3, 2), 2),
    "q9x-D2": (fq_make(3, 2, (2, 1, 1)), 2),
    "q16-D2": (fq_make(2, 4), 2),
}


@pytest.mark.parametrize("options", ROUTE_OPTIONS.values(), ids=ROUTE_OPTIONS.keys())
@pytest.mark.parametrize("base,max_degree", ROUTE_SCANS.values(), ids=ROUTE_SCANS.keys())
def test_a_scanned_report_is_the_one_classify_prime_gives(base, max_degree, options):
    reports = {rep.prime: rep for rep in scanned(base, max_degree, options).reports}
    for d in range(1, max_degree + 1):
        for f in monic_irreducibles(base, d):
            rep = classify_prime(f, options)
            if rep.irregular_indices:
                assert reports.pop(rep.prime) == rep
            else:  # a regular prime has no scanned report
                assert rep.prime not in reports
    assert reports == {}


def test_scan_fq_modulus_recorded():
    r = scan(F4, 2)
    assert r.fq_modulus == "x^2 + x + 1"
    assert scan(F2, 2).fq_modulus is None


def test_timings_gated_by_option(capfd):
    f = parse_poly("t^2 + t + 2", F3)
    quiet = classify_prime(f)
    assert capfd.readouterr().err == ""
    timed = classify_prime(f, ScanOptions(include_timings=True))
    assert timed == quiet
    (line,) = capfd.readouterr().err.splitlines()
    assert re.fullmatch(r"timing t\^2 \+ t - 1: field=\d+\.\d{6}s bc=\d+\.\d{6}s classify=\d+\.\d{6}s", line)


def _forge(result, rep, **columns):
    return dataclasses.replace(result, reports=(dataclasses.replace(rep, **columns),))


def test_validator_rejects_tampering():
    r = scanned(F2, 4)
    rep = r.reports[0]
    assert rep.irregular_indices == (9,) and rep.classification(9).h1_dim == DIM_ONE
    bc = rep.bc_residues.copy()
    bc[8] = 1  # BC_9 a unit: n=9 would read dim 0 against the irregular set
    with pytest.raises(ConsistencyError, match="irregular index set"):
        validate_report(_forge(r, rep, bc_residues=bc))
    valuations = rep.valuations.copy()
    valuations[8] = -1
    with pytest.raises(ConsistencyError, match="n=9"):
        validate_report(_forge(r, rep, valuations=valuations))


def test_validator_rejects_missing_indices():
    r = scanned(F2, 4)
    rep = r.reports[0]
    shrunk = _forge(r, rep, bc_residues=rep.bc_residues[:5], valuations=rep.valuations[:5])
    with pytest.raises(ConsistencyError):
        validate_report(shrunk)


def test_validator_rejects_offscope_claims():
    r = scanned(F3, 3)
    rep = r.reports[0]
    idx = next(i for i, c in enumerate(rep.classifications) if not c.q_minus_1_divides)
    bc = rep.bc_residues.copy()
    bc[idx] = 1
    with pytest.raises(ConsistencyError, match=f"n={idx + 1} carries claims"):
        validate_report(_forge(r, rep, bc_residues=bc))
    valuations = rep.valuations.copy()
    valuations[idx] = rep.witt_precision + 1  # off scope the table is capped at k
    with pytest.raises(ConsistencyError, match=f"n={idx + 1}"):
        validate_report(_forge(r, rep, valuations=valuations))


def _prime_of(rf):
    return poly_to_str(Poly(rf.base, rf.prime_coeffs))


def test_default_scan_builds_character_tables_only_at_irregular_primes(monkeypatch):
    built = []
    real_init = CharacterContext.__init__

    def counted(self, rf, k):
        built.append((_prime_of(rf), k))
        real_init(self, rf, k)

    monkeypatch.setattr(CharacterContext, "__init__", counted)
    r = scanned(F3, 4, ScanOptions(threads=1))
    assert sorted(built) == sorted((rep.prime, 12) for rep in r.reports)
    assert len(built) == 8 and r.primes_scanned == 32
    built.clear()
    # a check flag classifies, and so checks, every prime
    r = scanned(F3, 3, ScanOptions(threads=1, cross_check=True))
    assert len({prime for prime, _ in built}) == r.primes_scanned == 14


def test_classify_prime_reads_the_valuation_table_once(monkeypatch):
    # whole-array steps: no per-index escalation call unless an entry
    # saturates, and no per-index classification object
    calls = []
    real = herbrand.pic_eigenspace_length
    monkeypatch.setattr(
        herbrand, "pic_eigenspace_length", lambda rf, n, k: calls.append(n) or real(rf, n, k=k)
    )
    monkeypatch.setattr(herbrand, "classify_index", None)
    f = parse_poly("t^4 + t + 1", F2)
    assert classify_prime(f).classification(5).pic_length == 1
    assert calls == []
    rep = classify_prime(f, ScanOptions(precision=1))  # v(L_5) = v(L_10) = 1 saturate W_1
    assert calls == [5, 10]
    assert rep.classification(5).pic_length == 1 and rep.classification(5).diagnostics == {
        "bc_residue": int(bc_numbers(residue_field(f)).values[5])
    }


def test_classify_index_escalates_its_own_index_only(monkeypatch):
    calls = []
    real = herbrand.pic_eigenspace_length
    monkeypatch.setattr(
        herbrand, "pic_eigenspace_length", lambda rf, n, k: calls.append(n) or real(rf, n, k=k)
    )
    f = parse_poly("t^4 + t + 1", F2)
    low = ScanOptions(precision=1)  # v(L_5) = v(L_10) = 1 saturate W_1
    assert classify_index(f, 10, low).pic_length == 1 and calls == [10]
    calls.clear()
    assert classify_index(f, 9, low).pic_length == 0 and calls == []


def test_columns_and_views_agree():
    f = parse_poly("t^3 - t + 1", F3)
    options = ScanOptions(check_local=True, cross_check=True)
    rep = classify_prime(f, options)
    assert rep.classifications == tuple(classify_index(f, n, options) for n in range(1, 26))
    assert rep.classifications == tuple(classify_index(rep, n) for n in range(1, 26))
    for n in (0, 26):
        with pytest.raises(FieldError):
            classify_index(rep, n)


def test_workers_run_one_blas_thread_and_the_parent_keeps_its_environment(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    with herbrand._worker_pool(2) as pool:
        got = list(pool.map(os.getenv, list(herbrand.WORKER_BLAS_ENV)))
    assert got == ["1"] * len(herbrand.WORKER_BLAS_ENV)
    assert dict(os.environ) == before
