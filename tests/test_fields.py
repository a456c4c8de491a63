"""Field-layer tests: packed arithmetic, tables, residue construction."""

import functools
import random

import numpy as np
import pytest

from bcscan.fields import (
    FieldError,
    default_modulus,
    fq_make,
    residue_field_raw,
)
from bcscan.poly import parse_poly, residue_field

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4), (3, 2)]


def test_default_moduli_are_the_documented_ones():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(3, 2) == (1, 0, 1)
    assert default_modulus(5, 1) == (0, 1)


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, r):
    F = fq_make(p, r)
    q = F.size
    for a in range(q):
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.sub(F.add(a, b), b) == a
            if b:
                assert F.mul(F.div(a, b), b) == a
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, q - 1) == 1
        assert F.exp_of(F.dlog(a)) == a
    assert F.add(0, 0) == 0 and F.mul(1, 1) == 1


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_distributivity_randomized(p, r):
    F = fq_make(p, r)
    rng = random.Random(7 * p + r)
    for _ in range(300):
        a, b, c = (rng.randrange(F.size) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_frobenius_is_additive_on_base_field():
    F = fq_make(3, 2)
    for a in range(9):
        for b in range(9):
            s = F.pow(F.add(a, b), 3)
            assert s == F.add(F.pow(a, 3), F.pow(b, 3))


def test_a_generator_flags():
    assert fq_make(2, 2).a_is_generator
    assert fq_make(2, 3).a_is_generator
    assert fq_make(2, 4).a_is_generator
    # a^2 = -1 in F_9 with modulus x^2+1, so a has order 4 < 8
    assert not fq_make(3, 2).a_is_generator


def test_a_dlog_round_trip():
    F = fq_make(2, 3)
    for v in range(1, 8):
        j = F.a_dlog(v)
        assert F.pow(F.a_packed, j) == v


def test_coeff_repr_balanced_integers():
    F5 = fq_make(5, 1)
    assert F5.coeff_repr(0) == (1, "0", False)
    assert F5.coeff_repr(2) == (1, "2", False)
    assert F5.coeff_repr(3) == (-1, "2", False)
    assert F5.coeff_repr(4) == (-1, "1", False)


def test_coeff_repr_a_powers():
    F4 = fq_make(2, 2)
    assert F4.coeff_repr(1) == (1, "1", False)
    assert F4.coeff_repr(2) == (1, "a", False)
    assert F4.coeff_repr(3) == (1, "a^2", False)
    # F_9 with x^2+1: 'a' is not a generator, falls back to polynomial form
    F9 = fq_make(3, 2)
    sign, text, parens = F9.coeff_repr(5)  # 5 = 2 + a
    assert sign == 1 and parens and "a" in text


def test_memoization_returns_identical_objects():
    assert fq_make(3, 2) is fq_make(3, 2)
    F = fq_make(2, 1)
    assert residue_field_raw(F, (1, 1, 1)) is residue_field_raw(F, (1, 1, 1))


def test_construction_rejections():
    with pytest.raises(FieldError):
        fq_make(4, 1)  # not prime
    with pytest.raises(FieldError):
        fq_make(2, 17)  # 2^17 over the size cap
    with pytest.raises(FieldError):
        fq_make(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    F3 = fq_make(3, 1)
    with pytest.raises(FieldError):
        residue_field_raw(F3, (2, 0, 1))  # t^2-1 splits
    with pytest.raises(FieldError):
        residue_field_raw(F3, (1, 2))  # not monic
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_residue_field_size_cap_precedes_irreducibility_test():
    # 2^200 elements: rejected for its size before the irreducibility
    # test, which takes seconds at this degree, ever runs
    with pytest.raises(FieldError, match="exceeds supported limit"):
        residue_field(parse_poly("t^200 + t + 1", fq_make(2, 1)))


def test_residue_field_q2_quadratic():
    F = fq_make(2, 1)
    R = residue_field_raw(F, (1, 1, 1))  # t^2 + t + 1
    t = R.t_res
    assert R.size == 4 and t == 2
    assert R.mul(t, t) == R.add(t, 1)
    assert R.pow(t, 3) == 1
    assert R.frob_exponent == 2


def test_residue_field_degree_one():
    F = fq_make(2, 1)
    assert residue_field_raw(F, (0, 1)).t_res == 0  # t = 0 mod t
    assert residue_field_raw(F, (1, 1)).t_res == 1  # t = 1 mod t+1
    F3 = fq_make(3, 1)
    assert residue_field_raw(F3, (2, 1)).t_res == 1  # t = 1 mod t-1


def test_residue_field_over_extension_base():
    F4 = fq_make(2, 2)
    R = residue_field_raw(F4, (2, 1, 1))  # t^2 + t + a
    assert R.size == 16 and R.q == 4 and R.frob_exponent == 4
    tr = R.t_res
    assert R.mul(tr, tr) == R.add(tr, 2)
    for v in range(16):
        assert R.reduce_list(list(R.lift_coeffs(v))) == v
    assert R.reduce_list([0, 0, 1]) == R.add(tr, 2)


def test_residue_representative_degree():
    F3 = fq_make(3, 1)
    R = residue_field_raw(F3, (1, 2, 0, 1))
    assert R.degree_of(1) == 0
    assert R.degree_of(3) == 1
    assert R.degree_of(9) == 2
    assert R.degree_of(26) == 2
    with pytest.raises(FieldError):
        R.degree_of(0)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 2), (5, 1)])
def test_vector_ops_match_scalar_ops(p, r):
    F = fq_make(p, r)
    rng = random.Random(13 * p + r)
    n = 257
    a = F.varr([rng.randrange(F.size) for _ in range(n)])
    b = F.varr([rng.randrange(F.size) for _ in range(n)])
    va, vs, vm = F.vadd(a, b), F.vsub(a, b), F.vmul(a, b)
    vn, vf = F.vneg(a), F.vfrobq(a)
    for i in range(n):
        ai, bi = int(a[i]), int(b[i])
        assert va[i] == F.add(ai, bi)
        assert vs[i] == F.sub(ai, bi)
        assert vm[i] == F.mul(ai, bi)
        assert vn[i] == F.neg(ai)
        assert vf[i] == F.pow(ai, F.frob_exponent)
    assert F.vsum(a) == functools.reduce(F.add, (int(x) for x in a), 0)
    c = rng.randrange(1, F.size)
    sc = F.vscale(c, a)
    for i in range(n):
        assert sc[i] == F.mul(c, int(a[i]))


def test_vsum_axis_on_matrix():
    F = fq_make(3, 1)
    m = F.varr([[1, 2, 0], [2, 2, 1]])
    assert list(F.vsum(m, axis=0)) == [0, 1, 1]
    assert list(F.vsum(m, axis=1)) == [0, 2]


def test_residue_frobenius_fixes_base_scalars():
    # ^q fixes F_q embedded as degree-0 representatives
    F4 = fq_make(2, 2)
    R = residue_field_raw(F4, (2, 1, 1))
    for c in range(4):
        assert R.pow(c, 4) == c
    arr = R.varr(list(range(4)))
    assert list(R.vfrobq(arr)) == list(range(4))
