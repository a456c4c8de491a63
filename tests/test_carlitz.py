"""Carlitz layer: exponential and BC residues in the package; operator
laws and torsion through the test oracle."""

import random

import numpy as np
import pytest

from bcscan.fields import fq_make
from bcscan.carlitz import additive_apply, bc_numbers, exp_coeffs, irregular_indices
from bcscan.poly import Poly, monic_irreducibles, parse_poly, poly_to_str, residue_field
from bcscan.series import TruncSeries, mul_rows
from series_oracle import inverse_rows
from carlitz_oracle import (
    eval_at,
    TwistedPoly,
    carlitz_action,
    cyclotomic_poly,
    poly_frobenius,
    twisted_apply,
)


def rand_poly(F, rng, maxdeg, monic=True):
    d = rng.randrange(0, maxdeg + 1)
    c = [rng.randrange(F.size) for _ in range(d)]
    c.append(rng.randrange(1, F.size) if not monic else 1)
    return Poly.make(F, c)


def test_phi_t_squared_worked_example():
    # phi(t)^2 = t^2 + (t^q + t) F + F^2
    F3 = fq_make(3, 1)
    op = carlitz_action(parse_poly("t^2", F3))
    assert [str(c) for c in op.coeffs] == ["t^2", "t^3 + t", "1"]


def test_twist_rule_moves_frobenius_past_constants():
    # (F)(c) must equal (c^q)(F) as operators
    F3 = fq_make(3, 1)
    Fop = TwistedPoly(F3, (Poly.zero(F3), Poly.one(F3)))
    rng = random.Random(23)
    for _ in range(50):
        c = rand_poly(F3, rng, 3, monic=False)
        lhs = Fop * TwistedPoly.const(F3, c)
        rhs = TwistedPoly.const(F3, poly_frobenius(c)) * Fop
        assert lhs == rhs


@pytest.mark.parametrize("p,r,maxdeg", [(2, 1, 3), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_carlitz_action_is_ring_hom(p, r, maxdeg):
    F = fq_make(p, r)
    rng = random.Random(61 * p + r)
    for _ in range(50):
        a = rand_poly(F, rng, maxdeg, monic=False)
        b = rand_poly(F, rng, maxdeg, monic=False)
        if a.is_zero or b.is_zero:
            continue
        assert carlitz_action(a * b) == carlitz_action(a) * carlitz_action(b)
        assert carlitz_action(a + b) == carlitz_action(a) + carlitz_action(b)


def test_operator_composition_matches_product_on_series():
    # phi(ab) acting on a series equals phi(a) after phi(b); exercises the
    # twisted product through a route that never multiplies operators
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^3 + t + 1", F2))
    rng = random.Random(3)
    for _ in range(30):
        a, b = rand_poly(F2, rng, 3), rand_poly(F2, rng, 3)
        x = TruncSeries.from_coeffs(R, 10, [rng.randrange(8) for _ in range(10)])
        via_product = twisted_apply(carlitz_action(a * b), x)
        via_compose = twisted_apply(carlitz_action(a), twisted_apply(carlitz_action(b), x))
        assert via_product == via_compose


def test_twisted_apply_is_additive_on_residue_elements():
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^2 + t + 1", F2))
    op = carlitz_action(parse_poly("t^3 + t", F2))
    for x in range(4):
        for y in range(4):
            lhs = twisted_apply(op, R.add(x, y), R)
            rhs = R.add(twisted_apply(op, x, R), twisted_apply(op, y, R))
            assert lhs == rhs


def test_twisted_apply_routes_agree():
    # polynomial route evaluated at t-bar == packed route
    F3 = fq_make(3, 1)
    prime = parse_poly("t^2 + 1", F3)
    R = residue_field(prime)
    rng = random.Random(29)
    for _ in range(40):
        a = rand_poly(F3, rng, 3, monic=False)
        x = rand_poly(F3, rng, 1, monic=False)  # an A-representative
        op = carlitz_action(a)
        poly_route = eval_at(twisted_apply(op, x), R.t_res, R)
        packed_route = twisted_apply(op, eval_at(x, R.t_res, R), R)
        assert poly_route == packed_route


def test_exp_coeffs_q2_quadratic():
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^2 + t + 1", F2))
    assert exp_coeffs(R) == (1, 1)


def test_exp_coeffs_satisfy_recursion_and_cap():
    F3 = fq_make(3, 1)
    R = residue_field(parse_poly("t^3 - t + 1", F3))
    e = exp_coeffs(R)
    assert len(e) == 3 and e[0] == 1
    tq = R.t_res
    for i in range(1, 3):
        tq = R.pow(tq, 3)
        assert R.mul(e[i], R.sub(tq, R.t_res)) == R.pow(e[i - 1], 3)


def test_bc_q2_quadratic_oracle():
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^2 + t + 1", F2))
    bc = bc_numbers(R)
    assert bc.values == (1, 1, 1)
    assert irregular_indices(bc) == frozenset()


def test_bc_degree_one_prime():
    # q^d - 1 = 1: only BC_0 = 1 exists, nothing to be irregular
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t", F2))
    bc = bc_numbers(R)
    assert bc.values == (1,)
    assert irregular_indices(bc) == frozenset()


def test_bc_support_only_on_multiples_of_q_minus_1():
    F3 = fq_make(3, 1)
    R = residue_field(parse_poly("t^3 - t + 1", F3))
    bc = bc_numbers(R)
    for n, v in enumerate(bc.values):
        if n % 2 == 1:  # q - 1 = 2
            assert v == 0
    F5 = fq_make(5, 1)
    R5 = residue_field(parse_poly("t^2 + 2", F5))
    for n, v in enumerate(bc_numbers(R5).values):
        if n % 4 != 0:
            assert v == 0


def exp_over_z(R) -> np.ndarray:
    """E = e(z)/z mod z^(Q-1) as one dense row of packed coefficients."""
    q, e = R.q, exp_coeffs(R)
    row = np.zeros(R.size - 1, dtype=np.int32)
    for i in range(R.d):
        row[q**i - 1] = e[i]
    return row


# seeded primes with Q near 2^16, over F_2, F_4, F_16, F_3 and F_251
NEAR_2_16 = [((2, 1), 16), ((2, 2), 8), ((2, 4), 4), ((3, 1), 10), ((251, 1), 2)]


def test_bc_times_exp_is_one():
    # an independent reconstruction, b E = 1 mod z^(Q-1), by the row
    # kernel's product: one pass per term of E, so O(Q d)
    rng = random.Random(16)
    for pr, d in NEAR_2_16:
        f = rng.choice(monic_irreducibles(fq_make(*pr), d))
        R = residue_field(f)
        b = np.array(bc_numbers(R).values, dtype=np.int32)
        product = mul_rows(R, b[None], exp_over_z(R)[None])[0]
        assert product[0] == 1 and not product[1:].any(), str(f)


def bc_by_newton(R):
    """1/E mod z^(Q-1) by Newton iteration on the dense series: the route
    the sparse recurrence replaced, kept as its oracle."""
    E = TruncSeries(R, R.size - 1, exp_over_z(R))
    return E, tuple(int(v) for v in inverse_rows(R, E.c[None])[0])


# every prime with q^d <= 256 for q = 2, 3, 4, 5: the torsion check's range
TORSION_CASES = [((2, 1), 8), ((3, 1), 5), ((2, 2), 4), ((5, 1), 3)]
# the same range for q = 7, 8, 9, 13 and 16 as well: q - 1 > 1 at p = 2,
# odd p with m > 1, and gamma^((Q-1)/2) = -1, where a sum of two terms
# is zero; and the two Q ~ 5000 primes the benchmark draws at seed 0
RECURRENCE_CASES = TORSION_CASES + [((7, 1), 2), ((2, 3), 2), ((3, 2), 2), ((13, 1), 2), ((2, 4), 2)]
LARGE_PRIMES = [((2, 1), "t^12 + t^3 + 1"), ((3, 1), "t^8 + t^2 - 1")]


@pytest.mark.parametrize("pr,max_d", RECURRENCE_CASES)
def test_bc_recurrence_equals_newton_and_the_log_derivative(pr, max_d):
    F = fq_make(*pr)
    for d in range(1, max_d + 1):
        for f in monic_irreducibles(F, d):
            R = residue_field(f)
            E, newton = bc_by_newton(R)
            values = bc_numbers(R).values
            assert values == newton, str(f)
            if len(values) > 1:
                # z E' = 1 - E because q^i - 1 = -1 mod p, so E'/E =
                # (1/E - 1)/z: its coefficient of z^(n-1) is BC_n
                dlog = E.derivative() * E.inverse()
                assert tuple(int(v) for v in dlog.c) == values[1:], str(f)


@pytest.mark.parametrize("pr,prime", LARGE_PRIMES)
def test_bc_recurrence_equals_newton_at_the_benchmark_primes(pr, prime):
    R = residue_field(parse_poly(prime, fq_make(*pr)))
    assert bc_numbers(R).values == bc_by_newton(R)[1]


def test_bc_numbers_does_not_invert_a_series(monkeypatch):
    from bcscan import series

    def refuse(*_):
        raise AssertionError("bc_numbers ran a series division")

    monkeypatch.setattr(series, "divide_rows", refuse)
    R = residue_field(parse_poly("t^4 + t^2 - 1", fq_make(3, 1)))
    assert irregular_indices(bc_numbers(R)) == frozenset({40})


def test_irregular_table_q2():
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^4 + t + 1", F2))
    assert irregular_indices(bc_numbers(R)) == frozenset({9})
    # every other prime of degree <= 5 over F_2 is regular
    count = 0
    for d in range(1, 6):
        for f in monic_irreducibles(F2, d):
            irr = irregular_indices(bc_numbers(residue_field(f)))
            if irr:
                count += 1
                assert poly_to_str(f) == "t^4 + t + 1"
    assert count == 1


Q3_TABLE = {
    "t^3 - t + 1": {10},
    "t^3 - t - 1": {10},
    "t^4 - t^3 + t^2 + 1": {40},
    "t^4 - t^2 - 1": {32},
    "t^4 - t^3 - t^2 + t - 1": {32},
    "t^4 + t^3 + t^2 + 1": {40},
    "t^4 + t^3 - t^2 - t - 1": {32},
    "t^4 + t^2 - 1": {40},
}


def test_irregular_table_q3():
    F3 = fq_make(3, 1)
    seen = {}
    for d in range(1, 5):
        for f in monic_irreducibles(F3, d):
            irr = irregular_indices(bc_numbers(residue_field(f)))
            if irr:
                seen[poly_to_str(f)] = set(irr)
    assert seen == Q3_TABLE


Q4_IRREGULAR = [
    "t^3 + a",
    "t^3 + a^2",
    "t^3 + t^2 + t + a",
    "t^3 + t^2 + t + a^2",
    "t^3 + a*t^2 + a^2*t + a",
    "t^3 + a*t^2 + a^2*t + a^2",
    "t^3 + a^2*t^2 + a*t + a",
    "t^3 + a^2*t^2 + a*t + a^2",
]


def test_irregular_table_q4():
    F4 = fq_make(2, 2)
    seen = {}
    for d in range(1, 4):
        for f in monic_irreducibles(F4, d):
            irr = irregular_indices(bc_numbers(residue_field(f)))
            if irr:
                seen[poly_to_str(f)] = set(irr)
    assert seen == {s: {33} for s in Q4_IRREGULAR}


def test_no_irregular_primes_q5_low_degree():
    F5 = fq_make(5, 1)
    for d in range(1, 4):
        for f in monic_irreducibles(F5, d):
            assert irregular_indices(bc_numbers(residue_field(f))) == frozenset()


def test_torsion_poly_shape_and_eisenstein():
    """phi(f) is Eisenstein at f at every prime with q^d <= 256, q <= 5,
    built by the oracle's twisted product: the fact behind the depth
    the local model's Newton solve checks at its first residual."""
    count = 0
    for pr, max_d in TORSION_CASES:
        F = fq_make(*pr)
        for d in range(1, max_d + 1):
            for f in monic_irreducibles(F, d):
                tp = cyclotomic_poly(f)
                assert tp.d == f.degree
                assert tp.coeffs[0] == f
                assert tp.coeffs[-1] == Poly.one(F)
                assert tp.eisenstein_ok(), str(f)
                for c in tp.coeffs[1:-1]:
                    assert (c % f).is_zero and not c.is_zero, str(f)
                count += 1
    assert count == 296


# -- torsion-module structure, checked bivariately --------------------------
# Elements of A[X] as {X-exponent: Poly}; reduction mod the torsion
# polynomial Phi(X) = sum(coeffs[i] X^(q^i - 1)), monic of X-degree q^d - 1.


def _bi_reduce(field, terms, tp, q):
    phi_deg = q**tp.d - 1
    phi = {q**i - 1: c for i, c in enumerate(tp.coeffs) if not c.is_zero}
    work = dict(terms)
    while True:
        top = max((e for e, c in work.items() if not c.is_zero), default=-1)
        if top < phi_deg:
            break
        c = work.pop(top)
        for e, pc in phi.items():
            tgt = top - phi_deg + e
            work[tgt] = work.get(tgt, Poly.zero(field)) + (-(c * pc) if e != phi_deg else Poly.zero(field))
        # leading term of phi is monic, so subtracting c*X^(top-phi_deg)*phi
        # cancels the top exactly; the e == phi_deg contribution was `top` itself
    return {e: c for e, c in work.items() if not c.is_zero}


def _phi_applied_to_X(a, q):
    op = carlitz_action(a)
    return {q**i: c for i, c in enumerate(op.coeffs) if not c.is_zero}


def test_torsion_action_depends_only_on_a_mod_f():
    # phi(a)(X) mod Phi(X) is unchanged by a -> a + f*g
    F2 = fq_make(2, 1)
    f = parse_poly("t^2 + t + 1", F2)
    tp = cyclotomic_poly(f)
    rng = random.Random(47)
    for _ in range(12):
        a = rand_poly(F2, rng, 2, monic=False)
        g = rand_poly(F2, rng, 1, monic=False)
        lhs = _bi_reduce(F2, _phi_applied_to_X(a, 2), tp, 2)
        rhs = _bi_reduce(F2, _phi_applied_to_X(a + f * g, 2), tp, 2)
        assert lhs == rhs


def test_torsion_is_annihilated_by_multiples_of_f():
    F2 = fq_make(2, 1)
    f = parse_poly("t^2 + t + 1", F2)
    tp = cyclotomic_poly(f)
    rng = random.Random(53)
    for _ in range(8):
        g = rand_poly(F2, rng, 1, monic=False)
        if g.is_zero:
            continue
        red = _bi_reduce(F2, _phi_applied_to_X(f * g, 2), tp, 2)
        assert red == {}


def test_additive_apply_matches_twisted_apply():
    """additive_apply on a (3, n) matrix, row by row: the oracle's
    twisted_apply, and each term scalar * x^(q^i) as a power of the row's
    series, which runs no Frobenius."""
    for prime, a, F in (("t^3 + t^2 + 1", "t^2 + 1", fq_make(2, 1)), ("t^2 + 1", "t^2 - t", fq_make(3, 1))):
        R = residue_field(parse_poly(prime, F))
        rng = random.Random(59)
        op = carlitz_action(parse_poly(a, F))
        X = np.array([[rng.randrange(R.size) for _ in range(12)] for _ in range(3)], dtype=np.int32)
        out = additive_apply(R, op.scalar_coeffs(R), X)
        assert out.shape == X.shape
        for row, got in zip(X, out):
            x = TruncSeries(R, 12, row)
            by_powers = TruncSeries.zero(R, 12)
            for i, s in enumerate(op.scalar_coeffs(R)):
                by_powers = by_powers + (x ** (R.q**i)).scale(s)
            assert twisted_apply(op, x).c.tolist() == got.tolist() == by_powers.c.tolist()
