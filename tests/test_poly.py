"""Polynomial layer: ring laws, parsing round trips, canonical order."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcscan.fields import MAX_FIELD_SIZE, FieldError, _pl_gcd, fq_make
from bcscan.poly import (
    Poly,
    PolyParseError,
    lift_to_poly,
    monic_irreducibles,
    monic_polys,
    parse_poly,
    poly_to_str,
    residue_field,
    residue_to_str,
)
from carlitz_oracle import canonical_key, eval_at, poly_derivative, poly_frobenius


def rand_poly(F, rng, maxdeg=6, monic=False):
    d = rng.randrange(0, maxdeg + 1)
    c = [rng.randrange(F.size) for _ in range(d + 1)]
    if monic:
        c[-1] = 1
    return Poly.make(F, c)


FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("p,r", FIELDS)
def test_ring_laws_randomized(p, r):
    F = fq_make(p, r)
    rng = random.Random(100 * p + r)
    for _ in range(200):
        a, b, c = (rand_poly(F, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Poly.zero(F)
        assert a * Poly.one(F) == a
        if not a.is_zero and not b.is_zero:
            assert (a * b).degree == a.degree + b.degree


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_divmod_round_trip(data):
    p, r = data.draw(st.sampled_from(FIELDS))
    F = fq_make(p, r)
    acoeffs = data.draw(st.lists(st.integers(0, F.size - 1), min_size=0, max_size=9))
    bcoeffs = data.draw(st.lists(st.integers(0, F.size - 1), min_size=1, max_size=5))
    blead = data.draw(st.integers(1, F.size - 1))
    a = Poly.make(F, acoeffs)
    b = Poly.make(F, bcoeffs + [blead])
    q, rem = divmod(a, b)
    assert q * b + rem == a
    assert rem.degree < b.degree


def test_parse_known_cubic_over_f3():
    F = fq_make(3, 1)
    f = parse_poly("t^3 - t + 1", F)
    assert f.coeffs == (1, 2, 0, 1)
    assert poly_to_str(f) == "t^3 - t + 1"


def test_parse_tolerates_spacing_stars_and_alpha():
    F4 = fq_make(2, 2)
    base = parse_poly("t^3 + a*t^2 + a^2*t + a", F4)
    assert parse_poly("t^3+a t^2+a^2 t+a".replace(" ", ""), F4) == base
    assert parse_poly("t^3 + α*t^2 + α^2*t + α", F4) == base
    assert parse_poly("t **3 + a * t**2 + a^2*t + a".replace(" ", ""), F4) == base


def test_parse_rejects_garbage():
    F = fq_make(3, 1)
    for bad in ["t +", "+ + t", "t^-2", "(t", "b*t", "t^", "t^\u00b2 + 1", "\u00b2*t + 1"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad, F)
    # digits of other scripts, which str.isdecimal and \d accept: Arabic-Indic
    # 4, 1 and 2, Devanagari 2 and fullwidth 3
    F4 = fq_make(2, 2)
    for bad in ["t^\u0664 + t + \u0661", "t^4 + \u0662*t + 1"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad, F)
    for bad in ["t^2 + a^\u0968*t + 1", "t^2 + \uff13*a*t + a", "(a + \u0661)*t + 1"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad, F4)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_render_parse_round_trip(data):
    p, r = data.draw(st.sampled_from(FIELDS))
    F = fq_make(p, r)
    f = Poly.make(F, data.draw(st.lists(st.integers(0, F.size - 1), max_size=9)))
    assert parse_poly(poly_to_str(f), F) == f


def test_parse_rejects_exponents_past_the_field_size_cap():
    # refused before a coefficient list that long is allocated
    with pytest.raises(PolyParseError, match="exceeds the supported limit"):
        parse_poly("t^1000000000000000000000000000000 + 1", fq_make(2, 1))
    with pytest.raises(PolyParseError):
        parse_poly(f"t^{MAX_FIELD_SIZE + 1}", fq_make(2, 1))
    with pytest.raises(PolyParseError):
        parse_poly("t^" + "1" * 5000, fq_make(2, 1))  # past int()'s digit limit
    assert parse_poly(f"t^{MAX_FIELD_SIZE}", fq_make(2, 1)).degree == MAX_FIELD_SIZE


@pytest.mark.parametrize(
    "text,q",
    [
        ("1" * 5000 + "*t + 1", (2, 1)),  # integer coefficient
        ("t^2 + a^" + "1" * 5000 + "*t + 1", (2, 2)),  # a^N
        ("t^2 + " + "1" * 5000 + "*a^2*t + 1", (2, 2)),  # N*a^M
        ("t^2 + 2*a^" + "1" * 5000 + "*t + 1", (2, 2)),
        (f"{MAX_FIELD_SIZE + 1}*t + 1", (3, 1)),
    ],
)
def test_parse_rejects_oversized_coefficient_integers(text, q):
    # past int()'s digit limit or the field-size cap: a parse error, not a ValueError
    with pytest.raises(PolyParseError, match="exceeds the supported limit"):
        parse_poly(text, fq_make(*q))


def test_parse_reduces_integer_coefficients_up_to_the_cap():
    F4 = fq_make(2, 2)
    assert parse_poly(f"{MAX_FIELD_SIZE}*t + 3", fq_make(3, 1)).coeffs == (0, 1)
    assert parse_poly("t + 0007", fq_make(5, 1)).coeffs == (2, 1)
    assert parse_poly("t + a^3", F4).coeffs == (1, 1)  # a^3 = 1 in F_4
    assert parse_poly("t + 3*a^0004", F4) == parse_poly("t + a", F4)


def test_parse_x_variable():
    m = parse_poly("x^2 + x + 1", fq_make(2, 1), var="x")
    assert m.coeffs == (1, 1, 1)


def test_render_balanced_signs_over_prime_field():
    F5 = fq_make(5, 1)
    f = Poly.make(F5, [4, 0, 3, 1])  # t^3 + 3t^2 + 4 = t^3 - 2t^2 - 1
    assert poly_to_str(f) == "t^3 - 2*t^2 - 1"
    assert parse_poly("t^3 - 2*t^2 - 1", F5) == f


def test_render_parse_round_trip_randomized():
    rng = random.Random(5)
    for p, r in FIELDS:
        F = fq_make(p, r)
        for _ in range(200):
            f = rand_poly(F, rng)
            assert parse_poly(poly_to_str(f), F) == f


def test_round_trip_polynomial_in_a_coefficients():
    # F_9 with modulus x^2+1: 'a' does not generate, coefficients render
    # as integer combinations of a-powers
    F9 = fq_make(3, 2)
    f = parse_poly("(a + 2)*t^2 + 2*t + a", F9)
    assert parse_poly(poly_to_str(f), F9) == f


def test_zero_and_constants():
    F = fq_make(2, 1)
    assert poly_to_str(Poly.zero(F)) == "0"
    assert parse_poly("0", F) == Poly.zero(F)
    assert parse_poly("1", F) == Poly.one(F)
    assert parse_poly("t - t", fq_make(3, 1)) == Poly.zero(fq_make(3, 1))


def test_canonical_order_tables():
    F3 = fq_make(3, 1)
    f = parse_poly("t^3 - t + 1", F3)
    g = parse_poly("t^3 - t - 1", F3)
    assert canonical_key(f) < canonical_key(g)
    # degree dominates
    assert canonical_key(parse_poly("t^2 + 2*t + 2", F3)) < canonical_key(f)


def test_monic_polys_emitted_in_canonical_order():
    F4 = fq_make(2, 2)
    seq = [canonical_key(f) for f in monic_polys(F4, 2)]
    assert seq == sorted(seq)
    assert len(seq) == 16


def necklace_count(q, d):
    def mu(n):
        m, cnt, f = n, 0, 2
        while f * f <= m:
            if m % f == 0:
                m //= f
                if m % f == 0:
                    return 0
                cnt += 1
            f += 1
        if m > 1:
            cnt += 1
        return -1 if cnt % 2 else 1

    return sum(mu(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_irreducible_counts_match_necklace_formula(p, r):
    # every degree up to the residue-field cap, and the next one refused
    F = fq_make(p, r)
    d = 1
    while F.size**d <= MAX_FIELD_SIZE:
        assert len(monic_irreducibles(F, d)) == necklace_count(F.size, d)
        d += 1
    with pytest.raises(FieldError, match="exceeds supported limit"):
        monic_irreducibles(F, d)


def irreducibles_by_test(F, d):
    """The enumeration the orbit enumerator replaced, kept as its oracle:
    the distinct-degree test on every monic polynomial of degree d."""
    return [f for f in monic_polys(F, d) if f.is_irreducible()]


# (p, r, modulus over F_p or None for the default); q in {2, 3, 4, 5, 7,
# 8, 9, 16}, and F_8 and F_9 once more under a modulus that is not theirs
# by default: x^3 + x^2 + 1 and x^2 + x + 2
ORACLE_FIELDS = [(2, 1, None), (3, 1, None), (2, 2, None), (5, 1, None), (7, 1, None),
                 (2, 3, None), (3, 2, None), (2, 4, None), (2, 3, (1, 0, 1, 1)), (3, 2, (2, 1, 1))]


@pytest.mark.parametrize("p,r,modulus", ORACLE_FIELDS)
def test_orbit_enumeration_matches_the_irreducibility_test(p, r, modulus):
    F = fq_make(p, r, modulus)
    d = 1
    while F.size**d <= 1 << 12:
        got = monic_irreducibles(F, d)
        assert got == irreducibles_by_test(F, d), (F, d)
        assert all(type(c) is int for f in got for c in f.coeffs)
        assert all(parse_poly(poly_to_str(f), F) == f for f in got)
        d += 1


def test_scan_range_prime_counts():
    # totals over the degree ranges the acceptance scans use
    assert sum(len(monic_irreducibles(fq_make(2, 1), d)) for d in range(1, 6)) == 14
    assert sum(len(monic_irreducibles(fq_make(3, 1), d)) for d in range(1, 5)) == 32
    assert sum(len(monic_irreducibles(fq_make(2, 2), d)) for d in range(1, 4)) == 30
    assert sum(len(monic_irreducibles(fq_make(5, 1), d)) for d in range(1, 4)) == 55


def test_first_quartic_irreducible_over_f2():
    F2 = fq_make(2, 1)
    assert poly_to_str(monic_irreducibles(F2, 4)[0]) == "t^4 + t + 1"


def test_gcd_and_factor_check():
    F2 = fq_make(2, 1)
    a = parse_poly("t^5 + t + 1", F2)
    b = parse_poly("t^2 + t + 1", F2)
    assert poly_to_str(Poly(F2, tuple(_pl_gcd(F2, a.coeffs, b.coeffs)))) == "t^2 + t + 1"
    assert (a % b).is_zero


def test_eval_in_residue_field_and_lift():
    F2 = fq_make(2, 1)
    b = parse_poly("t^2 + t + 1", F2)
    R = residue_field(b)
    t = R.t_res
    assert eval_at(parse_poly("t^5 + t + 1", F2), t, R) == 0
    assert eval_at(parse_poly("t + 1", F2), t, R) == R.add(t, 1)
    assert residue_to_str(R, R.add(t, 1)) == "t + 1"
    assert lift_to_poly(R, 0).is_zero


def test_frobenius_merges_power_and_substitution():
    F4 = fq_make(2, 2)
    rng = random.Random(11)
    for _ in range(50):
        f = rand_poly(F4, rng, maxdeg=4)
        assert poly_frobenius(f) == f * f * f * f  # q = 4


def test_derivative_product_rule():
    F3 = fq_make(3, 1)
    rng = random.Random(17)
    for _ in range(100):
        f, g = rand_poly(F3, rng), rand_poly(F3, rng)
        lhs = poly_derivative(f * g)
        rhs = poly_derivative(f) * g + f * poly_derivative(g)
        assert lhs == rhs
