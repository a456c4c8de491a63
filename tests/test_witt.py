"""Witt rings: construction edge cases, Teichmuller laws, valuation."""

import random

import pytest

from bcscan.fields import FieldError, fq_make
from bcscan.poly import parse_poly, residue_field
from bcscan.witt import WittRing
from steered_lift import steered_lift


def test_q2_quadratic_worked_example():
    # W_4 of F_4 is (Z/16)[x]/(x^2+x+1), theta the class of t
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^2 + t + 1", F2))
    W = WittRing(R, 4)
    assert (W.pk, W.m) == (16, 2)
    assert W.theta == R.t_res
    assert W.modulus == (1, 1, 1)
    w_t = W.teichmuller(R.t_res)
    assert w_t == W.from_coords((0, 1))
    assert W.teichmuller(R.add(R.t_res, 1)) == w_t * w_t
    assert w_t**3 == W.one()
    assert W.reduce_p(w_t) == R.t_res


def test_degree_one_prime_gives_plain_zp_truncation():
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t", F2))
    W = WittRing(R, 3)
    assert (W.m, W.pk) == (1, 8)
    assert W.theta == 0 and W.modulus == (0, 1)
    assert W.teichmuller(1) == W.one()
    assert W.teichmuller(0).is_zero


def test_theta_search_falls_through_to_a_shift():
    # q=4, prime t: t-bar = 0 cannot generate F_4 over F_2, t-bar + a can
    F4 = fq_make(2, 2)
    R = residue_field(parse_poly("t", F4))
    W = WittRing(R, 3)
    assert W.theta == 2  # packed 'a'
    assert W.modulus == (1, 1, 1)


def test_minimal_polynomial_has_prime_subfield_coeffs():
    F3 = fq_make(3, 1)
    for s in ["t^2 + 1", "t^3 - t + 1"]:
        R = residue_field(parse_poly(s, F3))
        W = WittRing(R, 5)
        assert all(0 <= c < 3 for c in W.modulus)
        assert W.modulus[-1] == 1
        # modulus reduces mod p to the minimal polynomial: theta satisfies it
        acc, cur = 0, 1
        for c in W.modulus:
            acc = R.add(acc, R.mul(c, cur))
            cur = R.mul(cur, W.theta)
        assert acc == 0


def test_ring_laws_randomized():
    F3 = fq_make(3, 1)
    R = residue_field(parse_poly("t^3 - t + 1", F3))
    W = WittRing(R, 6)
    rng = random.Random(71)
    for _ in range(80):
        a, b, c = (
            W.from_coords([rng.randrange(W.pk) for _ in range(W.m)]) for _ in range(3)
        )
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == W.zero()
        assert a * W.one() == a


def test_reduction_is_ring_hom():
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^3 + t + 1", F2))
    W = WittRing(R, 7)
    rng = random.Random(13)
    for _ in range(60):
        a = W.from_coords([rng.randrange(W.pk) for _ in range(3)])
        b = W.from_coords([rng.randrange(W.pk) for _ in range(3)])
        assert W.reduce_p(a + b) == R.add(W.reduce_p(a), W.reduce_p(b))
        assert W.reduce_p(a * b) == R.mul(W.reduce_p(a), W.reduce_p(b))


def test_lift_section_of_reduction():
    F3 = fq_make(3, 1)
    R = residue_field(parse_poly("t^2 + 1", F3))
    W = WittRing(R, 4)
    for v in range(9):
        assert W.reduce_p(W.lift(v)) == v
        assert W.reduce_p(steered_lift((2, 1))(W, v)) == v  # the tests' steered lift is one too


def test_teichmuller_is_multiplicative_and_torsion():
    F3 = fq_make(3, 1)
    R = residue_field(parse_poly("t^3 - t + 1", F3))
    W = WittRing(R, 6)
    rng = random.Random(4)
    for _ in range(40):
        u, v = rng.randrange(1, 27), rng.randrange(1, 27)
        assert W.teichmuller(R.mul(u, v)) == W.teichmuller(u) * W.teichmuller(v)
    for u in [1, 2, 5, 26]:
        assert W.teichmuller(u) ** 26 == W.one()
        assert W.reduce_p(W.teichmuller(u)) == u


def test_teichmuller_independent_of_initial_lift(monkeypatch):
    F3 = fq_make(3, 1)
    R = residue_field(parse_poly("t^3 - t + 1", F3))
    W = WittRing(R, 6)
    plain = [W.teichmuller(u) for u in range(27)]
    for offsets in ((1, 2, 1), (7, 0, 3)):
        monkeypatch.setattr(WittRing, "lift", steered_lift(offsets))
        assert W.lift(5) != W.from_coords(W.theta_coords(5))
        assert [W.teichmuller(u) for u in range(27)] == plain


def test_valuation():
    F3 = fq_make(3, 1)
    R = residue_field(parse_poly("t^3 - t + 1", F3))
    W = WittRing(R, 6)
    assert W.valuation(W.zero()) == 6
    assert W.valuation(W.one()) == 0
    assert W.valuation(W.from_coords((9, 0, 0))) == 2
    assert W.valuation(W.from_coords((9, 3, 0))) == 1
    assert W.valuation(W.from_coords((0, 0, 3**5))) == 5
    # valuation is multiplicative-ish: p * unit has valuation 1
    assert W.valuation(W.from_coords(3 * c for c in W.one().coords)) == 1


def test_teichmuller_lifts_agree_across_precisions():
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^2 + t + 1", F2))
    lo, hi = WittRing(R, 2), WittRing(R, 9)
    for v in range(4):
        assert lo.teichmuller(v).coords == tuple(c % lo.pk for c in hi.teichmuller(v).coords)


def test_precision_bounds():
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^2 + t + 1", F2))
    with pytest.raises(FieldError):
        WittRing(R, 0)
    with pytest.raises(FieldError):
        WittRing(R, 97)
