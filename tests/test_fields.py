"""Field-layer tests: packed arithmetic, tables, residue construction."""

import copy
import functools
import random

import numpy as np
import pytest

from bcscan import fields, lseries
from bcscan.fields import (
    BaseField,
    ConsistencyError,
    FieldError,
    ResidueField,
    default_modulus,
    fq_make,
    residue_field_raw,
)
from bcscan.carlitz import bc_numbers
from bcscan.poly import monic_irreducibles, parse_poly, residue_field

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


def test_a_built_residue_field_is_not_tested_again(monkeypatch):
    calls = []
    irreducible = fields._pl_is_irreducible

    def counted(F, coeffs):
        calls.append(tuple(coeffs))
        return irreducible(F, coeffs)

    monkeypatch.setattr(fields, "_pl_is_irreducible", counted)
    f = parse_poly("t^2 + 2", fq_make(13, 1))
    first = residue_field(f)
    tested = len(calls)
    assert tested <= 1
    assert residue_field(f) is first
    assert len(calls) == tested


def test_a_reducible_prime_is_refused_on_every_call():
    f = parse_poly("t^2 + 1", fq_make(2, 1))  # (t + 1)^2
    for _ in range(2):
        with pytest.raises(FieldError, match="not irreducible"):
            residue_field(f)


def test_a_reducible_prime_is_refused_before_any_table_is_built(monkeypatch):
    def never(*_):
        raise AssertionError("a table was built")

    monkeypatch.setattr(fields, "ResidueField", never)
    f = parse_poly("t^2 + 1", fq_make(2, 1))  # (t + 1)^2
    for _ in range(2):
        with pytest.raises(FieldError, match="not irreducible"):
            residue_field(f)


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


@pytest.mark.parametrize("p,r", [(2, 1), (3, 2), (5, 1)])
def test_vector_ops_match_scalar_ops(p, r):
    F = fq_make(p, r)
    rng = random.Random(13 * p + r)
    n = 257
    a = np.array([rng.randrange(F.size) for _ in range(n)], dtype=np.int32)
    b = np.array([rng.randrange(F.size) for _ in range(n)], dtype=np.int32)
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
    m = np.array([[1, 2, 0], [2, 2, 1]], dtype=np.int32)
    assert list(F.vsum(m, axis=0)) == [0, 1, 1]
    assert list(F.vsum(m, axis=1)) == [0, 2]


def field_of(p, m):
    """A field of p^m elements: F_p, or F_p[t] modulo its first prime of degree m."""
    if m == 1:
        return fq_make(p, 1)
    f = monic_irreducibles(fq_make(p, 1), m)[0]
    return ResidueField(f.field, f.coeffs)


@pytest.mark.parametrize("p,m", [(3, 8), (3, 10), (5, 6), (7, 5)])
def test_vsum_at_the_accumulators_block_boundary(p, m):
    # a block is the most values whose m digits add in bit fields of
    # floor(62 / m) bits without overflowing: fill one with the value whose
    # digits are all p - 1, then overflow it by one copy
    F = field_of(p, m)
    block = ((1 << 62 // m) - 1) // (p - 1)
    assert F._acc_block == block
    top = F.size - 1
    fold = lambda count: functools.reduce(F.add, [top] * count, 0)
    for count in (block, block + 1, 2 * block + 1):
        assert F.vsum(np.full(count, top, dtype=np.int32)) == fold(count)
        for axis in range(3):
            shape = [2, 3, 2]
            shape[axis] = count
            got = F.vsum(np.full(shape, top, dtype=np.int32), axis=axis)
            assert got.shape == tuple(np.delete(shape, axis)) and (got == fold(count)).all()
    assert F.vsum(np.zeros(0, dtype=np.int32)) == 0
    empty = F.vsum(np.zeros((2, 0, 3), dtype=np.int32), axis=1)
    assert empty.shape == (2, 3) and not empty.any()


@pytest.mark.parametrize("p", [3, 65521])
def test_vsum_over_a_prime_field_is_the_fold(p):
    # at m = 1 a block is longer than any array: one sum, reduced once
    F = fq_make(p, 1)
    a = np.random.default_rng(p).integers(0, p, 100_000).astype(np.int32)
    assert F.vsum(a) == functools.reduce(F.add, (int(x) for x in a), 0)
    assert F.vsum(a.reshape(4, -1), axis=1).tolist() == [F.vsum(row) for row in a.reshape(4, -1)]


def schoolbook_matmul(F, A, B):
    return F.vsum(F.vmul(A[:, :, None], B[None]), axis=1)


@pytest.mark.parametrize("p,r", SMALL_FIELDS + [(251, 1)])
@pytest.mark.parametrize("cells", [1, fields.MATMUL_CELLS, 1 << 30])
def test_vmatmul_matches_the_schoolbook(p, r, cells, monkeypatch):
    monkeypatch.setattr(fields, "MATMUL_CELLS", cells)
    F = fq_make(p, r)
    rng = np.random.default_rng(17 * p + r)
    rand = lambda *shape: rng.integers(0, F.size, shape).astype(np.int32)
    zero = lambda *shape: np.zeros(shape, dtype=np.int32)
    cases = [(rand(1, 9), rand(9, 6)), (rand(7, 5), rand(5, 1)), (rand(6, 11), rand(11, 13)),
             (rand(1, 1), rand(1, 1)), (zero(4, 6), rand(6, 3)), (rand(4, 6), zero(6, 3))]
    for A, B in cases:
        got = F.vmatmul(A, B)
        assert got.dtype == np.int32 and got.shape == (len(A), B.shape[1])
        assert np.array_equal(got, schoolbook_matmul(F, A, B))


def test_vmatmul_is_exact_where_float32_is_not():
    # k m (p-1)^2 = 999 * 250^2 is above 2^24, and the sum 999 * 249^2
    # is an odd integer above 2^25, which float32 cannot hold
    F = fq_make(251, 1)
    A, B = np.full((2, 999), 249, dtype=np.int32), np.full((999, 3), 249, dtype=np.int32)
    assert np.array_equal(F.vmatmul(A, B), schoolbook_matmul(F, A, B))
    assert F.vmatmul(A, B)[0, 0] == 4 * 999 % 251


@pytest.mark.parametrize("bad", [np.nan, np.inf, 7.0])
def test_vmatmul_refuses_a_product_that_is_not_exact(bad):
    # a copy of F_3 whose digit table gives the value 1 a NaN, an
    # infinite or an out-of-range digit: every product through it breaks
    F = copy.copy(fq_make(3, 1))
    unpack = F._unpack.astype(np.float64)
    unpack[1, 0] = bad
    F._unpack = unpack
    A = np.ones((2, 4), dtype=np.int32)
    with pytest.raises(ConsistencyError, match="vmatmul"):
        F.vmatmul(A, A.T.copy())


def test_vmatmul_over_a_residue_field():
    R = residue_field(parse_poly("t^3 + 2*t + 1", fq_make(3, 1)))
    rng = np.random.default_rng(5)
    A, B = rng.integers(0, R.size, (8, 26)).astype(np.int32), rng.integers(0, R.size, (26, 9)).astype(np.int32)
    assert np.array_equal(R.vmatmul(A, B), schoolbook_matmul(R, A, B))


def test_residue_frobenius_fixes_base_scalars():
    # ^q fixes F_q embedded as degree-0 representatives
    F4 = fq_make(2, 2)
    R = residue_field_raw(F4, (2, 1, 1))
    for c in range(4):
        assert R.pow(c, 4) == c
    arr = np.arange(4, dtype=np.int32)
    assert list(R.vfrobq(arr)) == list(range(4))


# -- table construction against the sequential build --------------------------


def _digits(v, radix, n):
    return [v // radix**i % radix for i in range(n)]


def reference_mul0(F):
    """Multiplication in F by schoolbook polynomial arithmetic on packed
    digits, reading none of F's tables."""
    p = F.p
    if isinstance(F, ResidueField):
        cmul, radix, mod, n = reference_mul0(F.base), F.q, F.prime_coeffs, F.d
    elif F.r == 1:
        return lambda a, b: a * b % p
    else:
        cmul, radix, mod, n = (lambda a, b: a * b % p), p, F.modulus, F.r
    r = F.m // n  # F_p-digits per coefficient

    def cadd(a, b, sign=1):
        return sum((x + sign * y) % p * p**i for i, (x, y) in enumerate(zip(_digits(a, p, r), _digits(b, p, r))))

    def mul0(a, b):
        A, B = _digits(a, radix, n), _digits(b, radix, n)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(A):
            for j, y in enumerate(B):
                if x and y:
                    prod[i + j] = cadd(prod[i + j], cmul(x, y))
        for i in range(2 * n - 2, n - 1, -1):  # mod is monic of degree n
            c, prod[i] = prod[i], 0
            for j in range(n):
                if c and mod[j]:
                    prod[i - n + j] = cadd(prod[i - n + j], cmul(c, mod[j]), -1)
        return sum(c * radix**i for i, c in enumerate(prod[:n]))

    return mul0


def assert_tables_match_sequential_build(F):
    mul0, order, g = reference_mul0(F), F.order, F.generator
    exp = [1]
    for _ in range(order - 1):
        exp.append(mul0(exp[-1], g))
    assert mul0(exp[-1], g) == 1
    log = [2 * order] + [0] * (F.size - 1)  # 0 has the sentinel log
    for j, v in enumerate(exp):
        log[v] = j
    inv = [exp[-log[v] % order] for v in range(1, F.size)]
    frobq = [0] + [exp[log[v] * F.frob_exponent % order] for v in range(1, F.size)]
    assert F._npexp.tolist() == exp == F._exp, F
    assert F._nplog.tolist() == log == F._log, F
    assert [F.inv(v) for v in range(1, F.size)] == inv
    assert F._npfrobq.tolist() == frobq
    assert F._zexp.tolist() == exp + exp + [0] * (2 * order + 1)
    neg = [sum((-c) % F.p * F.p**i for i, c in enumerate(_digits(v, F.p, F.m))) for v in range(F.size)]
    assert (neg if F.p != 2 else None) == (None if F._neg_t is None else F._neg_t.tolist())
    for t in (F._npexp, F._nplog, F._npfrobq, F._zexp):
        assert t.dtype == np.int32


def reference_generator(F):
    """The first candidate, in the order each construction tries them, none
    of whose powers c^(order / l) is 1, by square-and-multiply through
    reference_mul0."""
    mul0, order = reference_mul0(F), F.order
    if isinstance(F, ResidueField):
        candidates = range(2, F.size)
    elif F.r == 1:
        candidates = range(2, F.p)
    else:
        candidates = [F.p] + list(range(2, F.size))

    def power(a, e):
        out = 1
        while e:
            if e & 1:
                out = mul0(out, a)
            a, e = mul0(a, a), e >> 1
        return out

    if order == 1:
        return 1
    ells = fields._prime_factors(order)
    return next(c for c in candidates if c > 1 and all(power(c, order // ell) != 1 for ell in ells))


BASE_FIELDS = [(p, r) for p in range(2, 257) if fields._is_prime(p) for r in range(1, 9) if p**r <= 256]


def test_doubled_base_field_tables_equal_the_sequential_build():
    assert len(BASE_FIELDS) == 70  # 54 primes and 16 higher powers
    for p, r in BASE_FIELDS:
        assert_tables_match_sequential_build(fq_make(p, r))


def test_base_field_generator_is_the_first_passing_candidate():
    for p, r in BASE_FIELDS:
        F = fq_make(p, r)
        assert F.generator == reference_generator(F), F


def _residue_fields(p, r):
    """Every residue field with q^d <= 256 over F_q, q = p^r."""
    F = fq_make(p, r)
    d = 1
    while F.size**d <= 256:
        for f in monic_irreducibles(F, d):
            yield residue_field(f)
        d += 1


# every residue field with q^d <= 256 over the base fields up to q = 16
@pytest.mark.parametrize("p,r", [(p, r) for p, r in BASE_FIELDS if p**r <= 16])
def test_doubled_residue_tables_equal_the_sequential_build(p, r):
    for R in _residue_fields(p, r):
        assert_tables_match_sequential_build(R)


@pytest.mark.parametrize("p,r", [(p, r) for p, r in BASE_FIELDS if p**r <= 16])
def test_residue_field_generator_is_the_first_passing_candidate(p, r):
    for R in _residue_fields(p, r):
        assert R.generator == reference_generator(R), R


@pytest.mark.parametrize("shift", [1, -1])
def test_a_table_that_does_not_close_is_refused(shift, monkeypatch):
    # rows of M^(j + shift) still enumerate the units, but gen^(order-1)
    # no longer sits in the last row
    doubled = fields.power_rows

    def shifted(first, M, count, modulus):
        rows = doubled(first, M, count, modulus)
        return np.roll(rows, -shift, axis=0)

    monkeypatch.setattr(fields, "power_rows", shifted)
    with pytest.raises(FieldError, match="does not close"):
        BaseField(2, 3, (1, 1, 0, 1))
    with pytest.raises(FieldError, match="does not close"):
        ResidueField(fq_make(3, 1), (2, 1, 1))


def test_a_table_that_repeats_an_element_is_refused(monkeypatch):
    doubled = fields.power_rows

    def repeated(first, M, count, modulus):
        rows = doubled(first, M, count, modulus)
        rows[count // 2] = rows[count // 2 - 1]
        return rows

    monkeypatch.setattr(fields, "power_rows", repeated)
    with pytest.raises(FieldError, match="enumerate the unit group"):
        ResidueField(fq_make(2, 1), (1, 1, 0, 0, 1))


def test_the_generator_search_skips_the_constants_below_q(monkeypatch):
    # at degree >= 2 a constant below q (or p) has order dividing q - 1 and
    # never generates, so the search starts at q; it still finds the first
    # passing candidate of the full range
    F5, mod25 = fq_make(5), default_modulus(5, 2)
    tried = []
    search = fields._search_exp

    def recorded(p, m, mul0, candidates):
        def each():
            for c in candidates:
                tried.append(c)
                yield c

        return search(p, m, mul0, each())

    monkeypatch.setattr(fields, "_search_exp", recorded)
    for build_field in (lambda: ResidueField(F5, (2, 0, 1)), lambda: BaseField(5, 2, mod25)):
        F = build_field()  # t^2 + 2 over F_5, then F_25 itself
        assert tried and min(tried) >= 5, F
        assert F.generator == tried[-1] == reference_generator(F), F
        tried.clear()


# q in {2, 3, 4, 5, 7, 8, 9, 16}, F_9 under both of its moduli
RELABEL_BASES = [(2, 1, None), (3, 1, None), (2, 2, None), (5, 1, None), (7, 1, None),
                 (2, 3, None), (3, 2, (1, 0, 1)), (3, 2, (2, 1, 1)), (2, 4, None)]


def assert_same_field(R, S, rng):
    """S multiplies, adds, applies Frobenius and inverts as R does, names
    the same prime and class of t, and gives the same BC residues and
    valuation table."""
    Q = R.size
    if Q <= 64:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(Q), np.arange(Q)))
    else:
        a, b = (np.array([rng.randrange(Q) for _ in range(4096)]) for _ in range(2))
    a, b = a.astype(np.int32), b.astype(np.int32)
    assert np.array_equal(S.vmul(a, b), R.vmul(a, b))
    assert np.array_equal(S.vadd(a, b), R.vadd(a, b))
    pairs = list(zip(a[:256].tolist(), b[:256].tolist()))
    assert [S.mul(x, y) for x, y in pairs] == [R.mul(x, y) for x, y in pairs]
    assert np.array_equal(S.vfrobq(np.arange(Q)), R.vfrobq(np.arange(Q)))
    assert [S.inv(v) for v in range(1, Q)] == [R.inv(v) for v in range(1, Q)]
    assert (S.t_res, S.prime_coeffs, S.d, S.q) == (R.t_res, R.prime_coeffs, R.d, R.q)
    assert bc_numbers(S).values == bc_numbers(R).values
    assert np.array_equal(lseries._valuation_table(S, 4), lseries._valuation_table(R, 4))


@pytest.mark.parametrize("p,r,modulus", RELABEL_BASES)
def test_a_relabelled_field_is_the_searched_one(p, r, modulus):
    # every prime with q^d <= 256, degree one included
    F = fq_make(p, r, modulus)
    rng = random.Random(F.size)
    d = 1
    while F.size**d <= 256:
        primes = monic_irreducibles(F, d)
        for f, a in zip(primes, primes.roots.tolist()):
            assert_same_field(residue_field(f), ResidueField.relabelled(primes.home, f.coeffs, a), rng)
        d += 1


@pytest.mark.parametrize("p,r,modulus", RELABEL_BASES)
def test_the_primes_of_degree_one_come_from_the_field_of_t(p, r, modulus):
    # t + c in canonical order, each with the root -c in F_q[t]/(t)
    F = fq_make(p, r, modulus)
    primes = monic_irreducibles(F, 1)
    assert [f.coeffs for f in primes] == [(c, 1) for c in range(F.size)]
    assert primes.roots.tolist() == [F.neg(c) for c in range(F.size)]
    assert (primes.home.prime_coeffs, primes.home.size) == ((0, 1), F.size)


def test_a_relabelling_by_a_non_root_or_a_non_generator_is_refused():
    primes = monic_irreducibles(fq_make(2, 1), 4)
    with pytest.raises(FieldError, match="not a root"):
        ResidueField.relabelled(primes.home, primes[1].coeffs, int(primes.roots[0]))
    # t^4 + t^2 + 1 = (t^2 + t + 1)^2 has the cube roots of unity of F_16
    # as roots, and t -> such a root is not one to one
    with pytest.raises(ConsistencyError, match="one to one"):
        ResidueField.relabelled(primes.home, (1, 0, 1, 0, 1), primes.home.exp_of(5))


def test_fields_of_equal_size_share_one_set_of_digit_tables():
    # F_16, the residue fields of t^4 + t + 1 over F_2 and of a quadratic
    # over F_4, and a field relabelled from a degree's home, all built
    # here: an interned field built many sizes ago may hold tables the
    # bounded cache has since let go
    F2, F4 = fq_make(2, 1), fq_make(2, 2)
    primes = monic_irreducibles(F2, 4)
    fields16 = [BaseField(2, 4, default_modulus(2, 4)), ResidueField(F2, (1, 1, 0, 0, 1)),
                ResidueField(F4, monic_irreducibles(F4, 2)[0].coeffs),
                ResidueField.relabelled(primes.home, primes[2].coeffs, int(primes.roots[2]))]
    unpack, packw, neg = fields._digit_tables(2, 4)
    for F in fields16:
        assert F.size == 16
        assert F._unpack is unpack and F._packw is packw and F._neg_t is neg is None
    R, F9 = ResidueField(fq_make(3, 1), (1, 0, 1)), BaseField(3, 2, default_modulus(3, 2))
    assert R._unpack is F9._unpack and R._neg_t is F9._neg_t is not None


def test_an_exp_table_that_misses_a_unit_is_refused():
    F = fq_make(2, 3)
    exp = F._npexp.copy()
    assert fields.PackedField(2, 3, exp)._nplog.tolist() == F._nplog.tolist()
    repeated, with_zero = exp.copy(), exp.copy()
    repeated[3] = repeated[2]
    with_zero[5] = 0
    for bad in (repeated, with_zero, exp[:-1]):
        with pytest.raises(FieldError, match="enumerate the unit group"):
            fields.PackedField(2, 3, bad)


@pytest.mark.parametrize("p,r,modulus", RELABEL_BASES)
def test_a_relabelled_fields_generator_maps_to_its_homes(p, r, modulus):
    # t -> a sends the relabelled field's generator, a polynomial in t,
    # to the generator gamma_0 of home: it is L^-1(gamma_0)
    F = fq_make(p, r, modulus)
    d = 1
    while F.size**d <= 256:
        primes = monic_irreducibles(F, d)
        home = primes.home
        for f, a in zip(primes, primes.roots.tolist()):
            S = ResidueField.relabelled(home, f.coeffs, a)
            image = 0
            for c in reversed(S.lift_coeffs(S.generator)):
                image = home.add(home.mul(image, a), c)
            assert image == home.generator, (f, a)
        d += 1
