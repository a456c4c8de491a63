"""Acceptance suite: every published guarantee of the package, exercised
at its full stated range, one test and one pass/fail line per guarantee.

Criteria 1-4 freeze the irregular-prime catalogues for q = 2, 3, 4, 5;
criterion 2 also pins the dimension label and v_3(L) at each irregular
index.  Criteria 5-6 run the dual-route and deduction checks over every
prime with q^d <= 256.  Criterion 6 checks that the local dlog component
vanishes exactly when BC_n = 0, that v_p(L_n) from the Witt route equals
an independent oracle (l_valuation_oracle) at every in-scope index, and
that the labels follow the classification rule: a unit residue gives 0
whatever v_p(L_n) is (the 269 such indices with v_p(L_n) > 0 are
pinned), a vanishing one gives 1 or the lower bound >=1.  Criterion 7
hammers the algebraic laws with seeded randomized cases, at least a
thousand per law.  Criterion 8 is determinism and representation
independence.

The whole-range sweep shared by criteria 5 and 6 is computed once and
cached at module level; expect the first of the two to carry most of
the suite's runtime.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from unittest import mock

from bcscan import (
    DIM_AT_LEAST_ONE,
    DIM_ONE,
    DIM_ZERO,
    ScanOptions,
    TruncSeries,
    WittRing,
    bc_local_sweep,
    bc_numbers,
    character_context,
    classify_index,
    classify_prime,
    exp_coeffs,
    fq_make,
    l_report,
    l_value_at_one,
    local_model,
    monic_irreducibles,
    parse_poly,
    pic_eigenspace_length,
    poly_to_str,
    render_json,
    residue_field,
    scan,
    validate_report,
)
from bcscan.carlitz import additive_apply
from bcscan.poly import Poly
from carlitz_oracle import (
    carlitz_action,
    compose,
    cyclotomic_poly,
    eval_poly_coeffs,
    galois_image,
    twisted_apply,
)
from l_valuation_oracle import l_valuations
from scans import scanned
from steered_lift import steered_start

SINGLE = ScanOptions(threads=1)

# (p, r, degree cap): every base field and cap with q^d <= 256
RANGE_CAPS = ((2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 3))

_WHOLE_RANGE: list | None = None


def whole_range():
    """(rf, prime, bc vector, local sweep) for every prime with q^d <= 256."""
    global _WHOLE_RANGE
    if _WHOLE_RANGE is None:
        rows = []
        for p, r, cap in RANGE_CAPS:
            base = fq_make(p, r)
            for d in range(1, cap + 1):
                for f in monic_irreducibles(base, d):
                    rf = residue_field(f)
                    rows.append((rf, f, bc_numbers(rf), bc_local_sweep(local_model(f))))
        _WHOLE_RANGE = rows
    return _WHOLE_RANGE


def _small_primes(max_size):
    out = []
    for p, r, cap in RANGE_CAPS:
        base = fq_make(p, r)
        d = 1
        while base.size**d <= max_size:
            out.extend(monic_irreducibles(base, d))
            d += 1
    return out


# -- catalogues ---------------------------------------------------------------


def test_criterion_1_q2_catalogue_within_budget():
    t0 = time.perf_counter()
    result = scanned(fq_make(2), 5, SINGLE)
    elapsed = time.perf_counter() - t0
    validate_report(result)
    assert result.primes_scanned == 14
    assert {rep.prime: rep.irregular_indices for rep in result.reports} == {
        "t^4 + t + 1": (9,)
    }
    rep = result.reports[0]
    n9 = next(c for c in rep.classifications if c.n == 9)
    assert n9.pic_length == 0
    assert n9.h1_dim == DIM_ONE
    assert [c.h1_dim for c in rep.classifications if c.bc_divisible] == [DIM_ONE]
    assert elapsed < 10.0, f"q=2 scan took {elapsed:.2f}s, budget is 10s"


# irregular indices per prime, q = 3, degree <= 4
Q3_TABLE = {
    "t^3 - t + 1": (10,),
    "t^3 - t - 1": (10,),
    "t^4 - t^3 + t^2 + 1": (40,),
    "t^4 - t^2 - 1": (32,),
    "t^4 - t^3 - t^2 + t - 1": (32,),
    "t^4 + t^3 + t^2 + 1": (40,),
    "t^4 + t^3 - t^2 - t - 1": (32,),
    "t^4 + t^2 - 1": (40,),
}

# (dimension label, v_3(L_n)) at each irregular index of that catalogue;
# the three rows at n = 40 carry positive L-valuation, so the label is
# the lower bound >=1
Q3_DIMENSIONS = {
    ("t^3 - t + 1", 10): (DIM_ONE, 0),
    ("t^3 - t - 1", 10): (DIM_ONE, 0),
    ("t^4 + t^2 - 1", 40): (DIM_AT_LEAST_ONE, 1),
    ("t^4 - t^2 - 1", 32): (DIM_ONE, 0),
    ("t^4 + t^3 + t^2 + 1", 40): (DIM_AT_LEAST_ONE, 1),
    ("t^4 + t^3 - t^2 - t - 1", 32): (DIM_ONE, 0),
    ("t^4 - t^3 + t^2 + 1", 40): (DIM_AT_LEAST_ONE, 1),
    ("t^4 - t^3 - t^2 + t - 1", 32): (DIM_ONE, 0),
}

Q3_CANONICAL_ORDER = (
    "t^3 - t + 1",
    "t^3 - t - 1",
    "t^4 + t^2 - 1",
    "t^4 - t^2 - 1",
    "t^4 + t^3 + t^2 + 1",
    "t^4 + t^3 - t^2 - t - 1",
    "t^4 - t^3 + t^2 + 1",
    "t^4 - t^3 - t^2 + t - 1",
)


def test_criterion_2_q3_catalogue_with_exact_dimensions():
    t0 = time.perf_counter()
    result = scanned(fq_make(3), 4, SINGLE)
    elapsed = time.perf_counter() - t0
    validate_report(result)
    assert result.primes_scanned == 32
    assert tuple(rep.prime for rep in result.reports) == Q3_CANONICAL_ORDER
    assert {rep.prime: rep.irregular_indices for rep in result.reports} == Q3_TABLE
    assert elapsed < 60.0, f"q=3 scan took {elapsed:.2f}s, budget is 60s"
    got = {
        (rep.prime, c.n): (c.h1_dim, c.pic_length)
        for rep in result.reports
        for c in rep.classifications
        if c.bc_divisible
    }
    wrong = {
        row: (got.get(row), pinned)
        for row, pinned in Q3_DIMENSIONS.items()
        if got.get(row) != pinned
    }
    assert not wrong, "; ".join(
        f"{prime} n={n}: (dim, v_3(L)) is {g}, pinned {w}"
        for (prime, n), (g, w) in sorted(wrong.items())
    )
    F3 = fq_make(3)
    unconfirmed = {}
    for (prime, n), (_, pic) in Q3_DIMENSIONS.items():
        v = l_valuations(residue_field(parse_poly(prime, F3)), [n])[n]
        if v != pic:
            unconfirmed[(prime, n)] = (pic, v)
    assert not unconfirmed, "; ".join(
        f"{prime} n={n}: pinned v_3(L) = {pic}, independent oracle gives {v}"
        for (prime, n), (pic, v) in sorted(unconfirmed.items())
    )


Q4_CANONICAL_ORDER = (
    "t^3 + a",
    "t^3 + a^2",
    "t^3 + t^2 + t + a",
    "t^3 + t^2 + t + a^2",
    "t^3 + a*t^2 + a^2*t + a",
    "t^3 + a*t^2 + a^2*t + a^2",
    "t^3 + a^2*t^2 + a*t + a",
    "t^3 + a^2*t^2 + a*t + a^2",
)


def test_criterion_3_q4_catalogue():
    result = scanned(fq_make(2, 2), 3, SINGLE)
    validate_report(result)
    assert result.primes_scanned == 30
    assert result.fq_modulus == "x^2 + x + 1"
    assert tuple(rep.prime for rep in result.reports) == Q4_CANONICAL_ORDER
    for rep in result.reports:
        assert rep.irregular_indices == (33,)
        assert [c.h1_dim for c in rep.classifications if c.bc_divisible] == [DIM_ONE]
    # published tables write the F_4 generator as alpha; both spellings parse
    F4 = fq_make(2, 2)
    assert parse_poly("t^3 + α", F4) == parse_poly("t^3 + a", F4)
    assert poly_to_str(parse_poly("t^3 + α*t^2 + α^2*t + α", F4)) == result.reports[4].prime


def test_criterion_4_q5_catalogue_empty():
    result = scanned(fq_make(5), 3, SINGLE)
    validate_report(result)
    assert result.primes_scanned == 55
    assert result.reports == ()


# -- whole-range dual-route checks ---------------------------------------------


def test_criterion_5_local_extraction_matches_series_route():
    checked = 0
    mismatches = []
    rows = whole_range()
    assert len(rows) == 296  # prime counts per degree are mathematical facts
    for rf, f, bc, sweep in rows:
        for n in range(2, rf.size - 1):
            checked += 1
            if sweep.values[n] != bc.values[n]:
                mismatches.append((poly_to_str(f), n))
    assert checked == 45339
    assert not mismatches, (
        f"{len(mismatches)} of {checked} Bernoulli-Carlitz residues disagree"
        f" between the lambda-adic extraction and the power-series route;"
        f" first five: {mismatches[:5]}"
    )


# unit-residue in-scope indices with positive L-valuation: (prime, n, v_p(L))
POSITIVE_UNIT_COUNT = 269
POSITIVE_UNIT_FIRST = (
    ("t^4 + t + 1", 5, 1),
    ("t^4 + t + 1", 10, 1),
    ("t^6 + t + 1", 3, 2),
    ("t^6 + t + 1", 6, 2),
    ("t^6 + t + 1", 11, 1),
)


def test_criterion_6_vanishing_biconditional_and_eigenspace_deduction():
    clause1_failures = []
    oracle_failures = []
    positive_units = []
    vanishing = []
    checked1 = 0
    for rf, f, bc, sweep in whole_range():
        in_scope = [n for n in range(2, rf.size - 1) if n % (rf.q - 1) == 0]
        oracle = l_valuations(rf, in_scope) if in_scope else {}
        for n in range(2, rf.size - 1):
            if n % (rf.q - 1) != 0:
                continue
            checked1 += 1
            vanished = sweep.vanished[n]
            if vanished != (bc.values[n] == 0):
                clause1_failures.append((poly_to_str(f), n))
                continue
            v = pic_eigenspace_length(rf, n)
            if v != oracle[n]:
                oracle_failures.append((poly_to_str(f), n, v, oracle[n]))
            if vanished:
                vanishing.append((f, n, v))
            elif v > 0:
                positive_units.append((f, n, v))
    assert checked1 == 23894
    assert not clause1_failures, (
        f"dlog-component vanishing disagreed with Bernoulli-Carlitz"
        f" divisibility at {len(clause1_failures)} of {checked1} in-scope"
        f" indices; first five: {clause1_failures[:5]}"
    )
    assert not oracle_failures, (
        f"v_p(L_n) from the Witt route disagrees with the independent oracle"
        f" at {len(oracle_failures)} of {checked1} in-scope indices; first"
        f" five (prime, n, Witt route, oracle): {oracle_failures[:5]}"
    )
    found = [(poly_to_str(f), n, v) for f, n, v in positive_units]
    assert len(found) == POSITIVE_UNIT_COUNT, (
        f"{len(found)} unit-residue in-scope indices have positive"
        f" L-valuation, pinned {POSITIVE_UNIT_COUNT}; first five: {found[:5]}"
    )
    assert tuple(found[:5]) == POSITIVE_UNIT_FIRST, (
        f"first five unit-residue indices with positive L-valuation are"
        f" {found[:5]}, pinned {POSITIVE_UNIT_FIRST}"
    )
    assert len(vanishing) == 80, f"{len(vanishing)} vanishing in-scope residues, expected 80"
    # a unit residue gives 0 whatever v_p(L) is; only a vanishing one reads v
    expected = [(f, n, v, False, DIM_ZERO) for f, n, v in positive_units]
    expected += [
        (f, n, v, True, DIM_ONE if v == 0 else DIM_AT_LEAST_ONE) for f, n, v in vanishing
    ]
    mislabelled = []
    for f, n, v, divisible, label in expected:
        c = classify_index(f, n, SINGLE)
        if (c.bc_divisible, c.h1_dim) != (divisible, label):
            mislabelled.append((poly_to_str(f), n, v, c.bc_divisible, c.h1_dim))
    assert not mislabelled, (
        f"{len(mislabelled)} indices break the rule 'unit residue -> 0,"
        f" vanishing residue -> 1 if v_p(L) = 0 else >=1'; first five"
        f" (prime, n, v_p(L), bc_divisible, label): {mislabelled[:5]}"
    )


# -- randomized algebraic laws ---------------------------------------------------

CASES = 1000


def _random_poly(rng, F, max_deg):
    return Poly.make(F, [rng.randrange(F.size) for _ in range(rng.randrange(1, max_deg + 2))])


def test_criterion_7_randomized_algebraic_laws():
    rng = random.Random(0xBC5CA7)
    counts = Counter()
    failures = []

    def check(law, ok, detail):
        counts[law] += 1
        if not ok:
            failures.append((law, detail))

    rfs = [residue_field(f) for f in _small_primes(64)]

    fields = [fq_make(2), fq_make(3), fq_make(5), fq_make(7), fq_make(2, 2), fq_make(3, 2)]
    fields += rfs[::9][:6]
    for _ in range(CASES):
        F = rng.choice(fields)
        a, b, c = (rng.randrange(F.size) for _ in range(3))
        ok = (
            F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            and F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            and F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            and F.add(a, b) == F.add(b, a)
            and F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p), F.pow(b, F.p))
            and (a == 0 or F.mul(a, F.inv(a)) == 1)
        )
        check("field axioms", ok, (repr(F), a, b, c))

    for _ in range(CASES):
        R = rng.choice(rfs)
        n = rng.randrange(4, 33)
        f, g, h = (
            TruncSeries.from_coeffs(R, n, [rng.randrange(R.size) for _ in range(n)])
            for _ in range(3)
        )
        ok = (
            (f * g) * h == f * (g * h)
            and f * (g + h) == f * g + f * h
            and (f * g).derivative() == f.derivative() * g + f * g.derivative()
            and (f * g).frobenius_q() == f.frobenius_q() * g.frobenius_q()
        )
        if f[0] != 0:
            ok = ok and (f * f.inverse() - TruncSeries.one(R, n)).is_zero
        check("series ring laws", ok, (R.size, n))

    for _ in range(CASES):
        R = rng.choice(rfs)
        k = rng.randrange(2, 9)
        W = WittRing(R, k)
        x, y, z = (
            W.from_coords([rng.randrange(W.pk) for _ in range(W.m)]) for _ in range(3)
        )
        ok = (
            (x + y) + z == x + (y + z)
            and (x * y) * z == x * (y * z)
            and x * (y + z) == x * y + x * z
            and x * y == y * x
            and W.reduce_p(x * y) == R.mul(W.reduce_p(x), W.reduce_p(y))
            and W.reduce_p(x + y) == R.add(W.reduce_p(x), W.reduce_p(y))
        )
        check("witt ring laws", ok, (R.size, k))

    bases = [fq_make(2), fq_make(3), fq_make(2, 2), fq_make(5)]
    for _ in range(CASES):
        F = rng.choice(bases)
        a, b = _random_poly(rng, F, 3), _random_poly(rng, F, 3)
        pa, pb = carlitz_action(a), carlitz_action(b)
        ok = (
            carlitz_action(a + b) == pa + pb
            and carlitz_action(a * b) == pa * pb
            and pa * pb == pb * pa
        )
        check("carlitz module homomorphism", ok, (F.size, a.coeffs, b.coeffs))

    for _ in range(CASES):
        R = rng.choice(rfs)
        N = R.size
        a = _random_poly(rng, R.base, 2)
        x = TruncSeries.from_coeffs(
            R, N, [0] + [rng.randrange(R.size) for _ in range(N - 1)]
        )
        ec = exp_coeffs(R)
        lhs = additive_apply(ec, x.scale(R.reduce_list(a.coeffs)))
        rhs = twisted_apply(carlitz_action(a), additive_apply(ec, x))
        check("exponential functional equation", lhs == rhs, (R.size, a.coeffs))

    for _ in range(CASES):
        R = rng.choice(rfs)
        k = rng.randrange(2, 7)
        W = WittRing(R, k)
        u, v = rng.randrange(1, R.size), rng.randrange(1, R.size)
        offs = tuple(rng.randrange(-3, 4) for _ in range(W.m))
        wu, wv = W.teichmuller(u), W.teichmuller(v)
        # a ring iterates omega(gamma) once, so the steered start needs its own
        with mock.patch.object(WittRing, "_omega_start", steered_start(offs)):
            wu_steered = WittRing(R, k).teichmuller(u)
        ok = (
            wu * wv == W.teichmuller(R.mul(u, v))
            and wu_steered.coords == wu.coords
            and wu ** (R.size - 1) == W.one()
            and W.reduce_p(wu) == u
        )
        check("teichmuller laws", ok, (R.size, k, u, v))

    for _ in range(CASES):
        R = rng.choice(rfs)
        k = rng.randrange(2, 7)
        W = WittRing(R, k)
        order = R.size - 1
        n = rng.randrange(1, 3 * order + 1)
        wgn = W.teichmuller(R.generator) ** n
        total, cur = W.zero(), W.one()
        for _ in range(order):
            total = total + cur
            cur = cur * wgn
        expected = (
            W.from_coords([order] + [0] * (W.m - 1)) if n % order == 0 else W.zero()
        )
        check("character orthogonality", total == expected, (R.size, k, n))

    # a context is built per case; the field keeps its Teichmuller and
    # valuation tables, so only the context's own work repeats
    s1_pool = [R for R in rfs if R.d >= 2]
    for _ in range(CASES):
        R = rng.choice(s1_pool)
        k = rng.choice((6, 12))
        step = R.q - 1
        n = step * rng.randrange(1, (R.size - 2) // step + 1)
        ctx = character_context(R, k)
        rep = l_report(ctx, n)  # raises if S_n(1) fails to vanish exactly
        ok = rep.in_scope and rep.s_at_one.is_zero and rep.l_value == l_value_at_one(ctx, n)
        check("character sum vanishing at T=1", ok, (R.size, k, n))

    torsion_pool = _small_primes(32)
    models = {f: local_model(f) for f in torsion_pool}
    sched = []
    for _ in range(2 * CASES):
        f = rng.choice(torsion_pool)
        sched.append((f, rng.randrange(1, residue_field(f).size)))
    torsion_coeffs: dict = {}
    for f, g in sched[:CASES]:
        model = models[f]
        if f not in torsion_coeffs:
            ts = model.t_series
            torsion_coeffs[f] = [eval_poly_coeffs(ts, c.coeffs) for c in cyclotomic_poly(f).coeffs]
        cs = torsion_coeffs[f]
        x = galois_image(model, g)
        acc = TruncSeries.zero(model.rf, x.n)
        for i, cseries in enumerate(cs):
            acc = acc + cseries * x
            if i + 1 < len(cs):
                x = x.frobenius_q()
        check("galois orbit stays torsion", acc.is_zero, (poly_to_str(f), g))
    for f, g in sched[CASES:]:
        model = models[f]
        pi = model.eigen_uniformizer()
        # the model is exact mod lambda^N, not over all of its working precision
        lhs = compose(pi, galois_image(model, g)).truncate(model.N)
        check("uniformizer eigenproperty", lhs == pi.scale(g).truncate(model.N), (poly_to_str(f), g))

    assert not failures, f"{len(failures)} law violations; first three: {failures[:3]}"
    assert len(counts) == 10
    for law, cnt in sorted(counts.items()):
        assert cnt >= 1000, f"law {law!r} ran only {cnt} cases"


# -- determinism and representation independence ----------------------------------


def _iso_key(base, max_degree):
    """Multiset of per-prime classification data that any field isomorphism
    must preserve: indices, flags, valuations, labels.  Excludes packed
    residue encodings, which are representation artifacts."""
    rows = []
    for d in range(1, max_degree + 1):
        for f in monic_irreducibles(base, d):
            rep = classify_prime(f, SINGLE)
            rows.append(
                (
                    d,
                    tuple(
                        (
                            c.n,
                            c.q_minus_1_divides,
                            c.bc_divisible,
                            c.pic_length,
                            c.h1_dim,
                            c.diagnostics.get("s1_valuation"),
                        )
                        for c in rep.classifications
                    ),
                )
            )
    return Counter(rows)


def test_criterion_8_determinism_and_representation_independence(monkeypatch):
    F3 = fq_make(3)
    j1 = render_json(scan(F3, 3, SINGLE))
    assert render_json(scan(F3, 3, ScanOptions(threads=2))) == j1

    # every ring's omega(gamma) is iterated from a steered start, offsets
    # (7, 3) cycled to the ring dimension; a scan builds its fields, and
    # so their tables, afresh
    start, steered = steered_start((7, 3)), []

    def steer(self):
        steered.append(self.rf)
        return start(self)

    monkeypatch.setattr(WittRing, "_omega_start", steer)
    assert render_json(scan(F3, 3, SINGLE)) == j1
    assert steered, "the steered Teichmuller start never ran"
    monkeypatch.undo()
    assert render_json(scan(F3, 3, SINGLE)) == j1

    # F_4 admits exactly one quadratic modulus, so modulus independence is
    # only testable one field up: F_9 has genuinely distinct moduli
    F2 = fq_make(2)
    assert [poly_to_str(f, var="x") for f in monic_irreducibles(F2, 2)] == ["x^2 + x + 1"]
    key_a = _iso_key(fq_make(3, 2, (1, 0, 1)), 2)
    key_b = _iso_key(fq_make(3, 2, (2, 1, 1)), 2)
    assert sum(key_a.values()) == sum(key_b.values()) == 45
    assert key_a == key_b
