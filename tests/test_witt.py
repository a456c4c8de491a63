"""Witt rings: construction edge cases, Teichmuller laws, valuation."""

import random

import pytest

from bcscan.fields import FieldError, fq_make
from bcscan.poly import parse_poly, residue_field
from bcscan.witt import WittRing
from steered_lift import steered_start


def test_q2_quadratic_worked_example():
    # W_4 of F_4 is (Z/16)[x]/(x^2+x+1), theta the generator, here the class of t
    F2 = fq_make(2, 1)
    R = residue_field(parse_poly("t^2 + t + 1", F2))
    W = WittRing(R, 4)
    assert (W.pk, W.m) == (16, 2)
    assert W.theta == R.generator == R.t_res
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
    # F_2 = {0, 1}: gamma = 1, whose minimal polynomial is x + 1
    assert W.theta == R.generator == 1 and W.modulus == (1, 1)
    assert W.teichmuller(1) == W.one()
    assert W.teichmuller(0).is_zero


def test_minimal_polynomial_has_prime_subfield_coeffs():
    F3 = fq_make(3, 1)
    for s in ["t^2 + 1", "t^3 - t + 1"]:
        R = residue_field(parse_poly(s, F3))
        W = WittRing(R, 5)
        assert all(0 <= c < 3 for c in W.modulus)
        assert W.modulus[-1] == 1
        # modulus reduces mod p to the minimal polynomial: gamma satisfies it
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


def test_iteration_start_lifts_the_generator():
    # the ring is presented on gamma: theta is gamma, and the plain start x
    # and the tests' steered starts all reduce to it
    for pr, prime in [((3, 1), "t^2 + 1"), ((3, 1), "t + 1"), ((2, 1), "t"), ((5, 1), "t^2 + 2"), ((2, 2), "t^2 + t + a")]:
        R = residue_field(parse_poly(prime, fq_make(*pr)))
        W = WittRing(R, 4)
        assert W.theta == R.generator
        assert W.theta_pows == tuple(R.exp_of(j) for j in range(R.m))
        assert W.reduce_p(W._omega_start()) == R.generator
        for offsets in ((2, 1), (1, 0, 2)):
            steered = steered_start(offsets)(W)
            assert steered != W._omega_start() and W.reduce_p(steered) == R.generator


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
    plain = [WittRing(R, 6).teichmuller(u) for u in range(27)]
    for offsets in ((1, 2, 1), (7, 0, 3)):
        monkeypatch.setattr(WittRing, "_omega_start", steered_start(offsets))
        W = WittRing(R, 6)  # omega(gamma) is iterated once per ring
        assert W._omega_start() != W.from_coords((0, 1, 0))
        assert [W.teichmuller(u).coords for u in range(27)] == [w.coords for w in plain]


def test_omega_gamma_is_iterated_once_per_ring(monkeypatch):
    R = residue_field(parse_poly("t^3 - t + 1", fq_make(3, 1)))
    W = WittRing(R, 6)
    starts = []
    start = WittRing._omega_start

    def counted(self):
        starts.append(self)
        return start(self)

    monkeypatch.setattr(WittRing, "_omega_start", counted)
    for u in range(27):
        W.teichmuller(u)
    assert starts == [W]
    assert W.teichmuller(R.generator).coords == W._omega


# (base field, prime): F_4 and F_9 residue fields among them, m from 1 to 4
ORACLE_PRIMES = [
    ((2, 1), "t^2 + t + 1"),
    ((3, 1), "t^2 + 1"),
    ((2, 2), "t + a"),
    ((2, 2), "t^2 + t + a"),
    ((5, 1), "t + 3"),
    ((3, 1), "t^3 - t + 1"),
]


@pytest.mark.parametrize("pr,prime", ORACLE_PRIMES)
def test_teichmuller_equals_the_iteration_from_each_residue(pr, prime):
    # an independent route to omega(v): y -> y^(p^m) from the steered lift
    # x^(dlog v) + p * offsets of v itself, not from a lift of gamma
    R = residue_field(parse_poly(prime, fq_make(*pr)))
    W = WittRing(R, 5)
    x = W.from_coords((R.generator,) if W.m == 1 else (0, 1) + (0,) * (W.m - 2))
    offsets = (2, 0, 1, 3)
    for v in range(R.size):
        y = W.zero()
        if v:
            y = x ** R.dlog(v)
            y = W.from_coords(c + W.p * offsets[i % 4] for i, c in enumerate(y.coords))
            for _ in range(W.k):
                y = y ** R.size
        assert y == W.teichmuller(v), v
        assert W.reduce_p(y) == v


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
