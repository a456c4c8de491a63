"""Truncated series: arithmetic vs naive reference, precision honesty."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcscan.fields import FieldError, fq_make, power_rows, residue_field_raw
from bcscan.poly import monic_irreducibles
from bcscan.series import TruncSeries, derivative_rows, divide_rows, frobenius_rows, mul_rows
from carlitz_oracle import compose, eval_poly_coeffs
from series_oracle import inverse_rows

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


def rand_series(F, n, rng, unit=False):
    c = [rng.randrange(F.size) for _ in range(n)]
    if unit:
        c[0] = rng.randrange(1, F.size)
    return TruncSeries.from_coeffs(F, n, c)


def ref_mul(a, b):
    """Schoolbook truncated product, the oracle for the table-driven mul."""
    F = a.field
    m = min(a.n, b.n)
    out = [0] * m
    for i in range(m):
        ai = int(a.c[i])
        if ai == 0:
            continue
        for j in range(m - i):
            out[i + j] = F.add(out[i + j], F.mul(ai, int(b.c[j])))
    return TruncSeries.from_coeffs(F, m, out)


@pytest.mark.parametrize("p,r", FIELDS)
def test_mul_matches_schoolbook(p, r):
    F = fq_make(p, r)
    rng = random.Random(31 * p + r)
    for _ in range(60):
        a, b = rand_series(F, 17, rng), rand_series(F, 17, rng)
        assert a * b == ref_mul(a, b)


@pytest.mark.parametrize("p,r", FIELDS)
def test_ring_laws(p, r):
    F = fq_make(p, r)
    rng = random.Random(37 * p + r)
    one = TruncSeries.one(F, 13)
    for _ in range(50):
        a, b, c = (rand_series(F, 13, rng) for _ in range(3))
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert (a - b) + b == a
        assert (-a) + a == TruncSeries.zero(F, 13)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_inverse_is_two_sided(data):
    p, r = data.draw(st.sampled_from(FIELDS))
    F = fq_make(p, r)
    n = data.draw(st.integers(1, 24))
    coeffs = [data.draw(st.integers(1, F.size - 1))] + data.draw(
        st.lists(st.integers(0, F.size - 1), min_size=n - 1, max_size=n - 1)
    )
    u = TruncSeries.from_coeffs(F, n, coeffs)
    inv = u.inverse()
    assert u * inv == TruncSeries.one(F, n)
    assert inv * u == TruncSeries.one(F, n)


def test_inverse_rejects_nonunit():
    F = fq_make(2, 1)
    with pytest.raises(ZeroDivisionError):
        TruncSeries.monomial(F, 4, 1).inverse()


def test_geometric_series_inverse():
    # (1 - z)^-1 = 1 + z + z^2 + ... over F_3
    F = fq_make(3, 1)
    u = TruncSeries.from_coeffs(F, 9, [1, F.neg(1)])
    assert list(u.inverse().c) == [1] * 9


def test_derivative_drops_one_index():
    F = fq_make(3, 1)
    a = TruncSeries.from_coeffs(F, 6, [1, 2, 0, 1, 2, 2])
    d = a.derivative()
    assert d.n == 5
    # coefficient i of d is (i+1) * a_{i+1} mod 3
    assert list(d.c) == [2, 0, 0, 2, 1]


def test_derivative_kills_pth_powers():
    F = fq_make(2, 1)
    R = residue_field_raw(F, (1, 1, 1))
    rng = random.Random(3)
    x = rand_series(R, 15, rng)
    assert x.frobenius_q().derivative().is_zero


def test_derivative_product_rule():
    F = fq_make(5, 1)
    rng = random.Random(41)
    for _ in range(30):
        a, b = rand_series(F, 12, rng), rand_series(F, 12, rng)
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        # both sides known mod z^11
        assert lhs == rhs


def test_shift_semantics():
    F = fq_make(3, 1)
    s = TruncSeries.from_coeffs(F, 8, [0, 0, 1, 2, 0, 1, 0, 2])
    down = s.shift_down(2)
    assert down.n == 6 and list(down.c) == [1, 2, 0, 1, 0, 2]
    up = down.shift_up(2)
    assert up.n == 6 and list(up.c) == [0, 0, 1, 2, 0, 1]
    with pytest.raises(FieldError):
        s.shift_down(3)  # coefficient at index 2 is nonzero


def test_truncate_only_shrinks():
    F = fq_make(2, 1)
    s = TruncSeries.one(F, 4)
    assert s.truncate(2).n == 2
    with pytest.raises(FieldError):
        s.truncate(9)


def test_mixed_precision_operations_use_min():
    F = fq_make(3, 1)
    rng = random.Random(9)
    a, b = rand_series(F, 10, rng), rand_series(F, 7, rng)
    assert (a + b).n == 7
    assert (a * b).n == 7
    assert (a * b) == (a.truncate(7) * b)


def test_frobenius_q_spreads_exponents():
    F2 = fq_make(2, 1)
    R = residue_field_raw(F2, (1, 1, 1))
    rng = random.Random(12)
    x = rand_series(R, 12, rng)
    y = rand_series(R, 12, rng)
    fx = x.frobenius_q()
    assert fx == x * x  # q = 2
    assert (x + y).frobenius_q() == fx + y.frobenius_q()
    # over F_9's residue-free base: q = 9 pushes everything past n for small n
    F9 = fq_make(3, 2)
    s = TruncSeries.from_coeffs(F9, 5, [0, 3, 1, 0, 2])
    fs = s.frobenius_q()
    assert list(fs.c) == [F9.pow(0, 9), 0, 0, 0, 0]


def test_frobenius_q_is_q_power():
    F3 = fq_make(3, 1)
    R = residue_field_raw(F3, (1, 2, 0, 1))  # q = 3, degree 3
    rng = random.Random(8)
    x = rand_series(R, 11, rng)
    assert x.frobenius_q() == x * x * x


def test_compose_monomial():
    F = fq_make(3, 1)
    f = TruncSeries.from_coeffs(F, 10, [1, 1, 1])
    fg = compose(f, TruncSeries.monomial(F, 10, 2))
    assert list(fg.c) == [1, 0, 1, 0, 1, 0, 0, 0, 0, 0]


def test_compose_requires_positive_valuation():
    F = fq_make(3, 1)
    f = TruncSeries.one(F, 5)
    with pytest.raises(FieldError):
        compose(f, TruncSeries.one(F, 5))


def test_compose_is_ring_hom():
    F = fq_make(2, 1)
    rng = random.Random(77)
    g = rand_series(F, 11, rng)
    g = TruncSeries.from_coeffs(F, 11, [0] + [int(v) for v in g.c[1:]])
    a, b = rand_series(F, 11, rng), rand_series(F, 11, rng)
    assert compose(a + b, g) == compose(a, g) + compose(b, g)
    assert compose(a * b, g) == compose(a, g) * compose(b, g)


def test_eval_poly_coeffs_matches_compose_style_horner():
    F = fq_make(3, 1)
    rng = random.Random(4)
    s = rand_series(F, 9, rng)
    # t^2 + 2t + 1 evaluated at s
    got = eval_poly_coeffs(s, [1, 2, 1])
    want = s * s + s.scale(2) + TruncSeries.one(F, 9)
    assert got == want


def test_valuation_and_indexing():
    F = fq_make(3, 1)
    assert TruncSeries.zero(F, 5).valuation() == 5
    assert TruncSeries.monomial(F, 5, 3).valuation() == 3
    s = TruncSeries.from_coeffs(F, 4, [0, 2, 0, 1])
    assert s[1] == 2 and s[0] == 0
    with pytest.raises(IndexError):
        s[4]


def test_pow_matches_repeated_mul():
    F = fq_make(5, 1)
    rng = random.Random(19)
    s = rand_series(F, 10, rng)
    acc = TruncSeries.one(F, 10)
    for e in range(6):
        assert s**e == acc
        acc = acc * s


# -- the row kernel against the schoolbook oracle ----------------------------


def rand_rows(F, rows, n, rng, density=1.0, unit=False):
    M = np.array(
        [[rng.randrange(F.size) if rng.random() < density else 0 for _ in range(n)] for _ in range(rows)],
        dtype=np.int32,
    )
    if unit:
        M[:, 0] = [rng.randrange(1, F.size) for _ in range(rows)]
    return M


def as_series(F, M):
    return [TruncSeries(F, M.shape[1], row) for row in M]


@pytest.mark.parametrize("p,r", FIELDS)
def test_mul_rows_matches_schoolbook_row_by_row(p, r):
    F = fq_make(p, r)
    rng = random.Random(43 * p + r)
    n = 19
    dense = rand_rows(F, 5, n, rng)
    dense[:, 4] = 0  # an all-zero column
    sparse = np.zeros((5, n), dtype=np.int32)
    sparse[:, [0, 3, 11]] = rand_rows(F, 5, 3, rng)  # rows share the columns
    sparse[2] = 0  # and one row has no support at all
    mixed = rand_rows(F, 5, n, rng, density=0.3)  # supports differ by row
    for A, B in [(dense[:1], mixed[:1]), (dense, mixed), (dense, sparse), (sparse, dense), (mixed, mixed)]:
        got = mul_rows(F, A, B)
        assert got.shape == A.shape and got.dtype == np.int32
        for a, b, c in zip(as_series(F, A), as_series(F, B), as_series(F, got)):
            assert c == ref_mul(a, b)


@pytest.mark.parametrize("p,r", FIELDS)
def test_mul_rows_broadcasts_a_one_row_operand(p, r):
    F = fq_make(p, r)
    rng = random.Random(59 * p + r)
    A, x = rand_rows(F, 5, 13, rng), rand_rows(F, 1, 13, rng, density=0.4)
    (xs,) = as_series(F, x)
    for got in (mul_rows(F, A, x), mul_rows(F, x, A)):
        assert got.shape == A.shape
        for a, c in zip(as_series(F, A), as_series(F, got)):
            assert c == ref_mul(a, xs)


@pytest.mark.parametrize("p,r", FIELDS)
@pytest.mark.parametrize("count", [1, 2, 5, 8, 13])
def test_power_rows_with_mul_rows_equals_successive_products(p, r, count):
    # the local sweep fills pi^0 .. pi^(N-3) this way
    F = fq_make(p, r)
    rng = random.Random(61 * p + 7 * r + count)
    first, x = rand_rows(F, 1, 12, rng)[0], rand_rows(F, 1, 12, rng, density=0.5)
    rows = power_rows(first, x, count, lambda a, b: mul_rows(F, a, b))
    assert rows.shape == (count, 12) and rows.dtype == np.int32
    cur, (xs,) = TruncSeries(F, 12, first), as_series(F, x)
    for row in rows:
        assert TruncSeries(F, 12, row) == cur
        cur = cur * xs


@pytest.mark.parametrize("p,r", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 7, 8, 16, 21])
def test_inverse_rows_is_checked_by_schoolbook(p, r, n):
    # lengths that are and are not powers of two: the last Newton step is
    # truncated to n in the second case
    F = fq_make(p, r)
    rng = random.Random(47 * p + 5 * r + n)
    A = np.concatenate([rand_rows(F, 4, n, rng, unit=True), rand_rows(F, 2, n, rng, 0.2, unit=True)])
    Y = inverse_rows(F, A)
    assert Y.shape == A.shape
    for a, y in zip(as_series(F, A), as_series(F, Y)):
        assert ref_mul(a, y) == TruncSeries.one(F, n)


@pytest.mark.parametrize("p,r", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 7, 8, 16, 21])
def test_divide_rows_equals_the_product_with_the_inverse(p, r, n):
    F = fq_make(p, r)
    rng = random.Random(53 * p + 3 * r + n)

    def on_columns(cols):  # rows share the columns, as the Galois rows do
        out = np.zeros((5, n), dtype=np.int32)
        cols = [c for c in cols if c < n]
        out[:, cols] = rand_rows(F, 5, len(cols), rng, unit=True)
        return out

    dense = rand_rows(F, 5, n, rng, unit=True)
    sparse = on_columns([0, 1, 3, 7, 15])
    gapped = on_columns([0, 3, 4, 11])  # filled three columns per step
    mixed = rand_rows(F, 5, n, rng, density=0.3, unit=True)  # supports differ by row
    constant = rand_rows(F, 5, n, rng, unit=True) * (np.arange(n) == 0)
    num = rand_rows(F, 5, n, rng)
    for den in (dense, sparse, gapped, mixed, constant):
        got = divide_rows(F, num, den)
        assert got.shape == (5, n) and got.dtype == np.int32
        assert np.array_equal(got, mul_rows(F, num, inverse_rows(F, den)))
    # a one-row numerator is broadcast against the denominators
    assert np.array_equal(divide_rows(F, num[:1], mixed), mul_rows(F, num[:1], inverse_rows(F, mixed)))


@pytest.mark.parametrize("p,d", [(3, 10), (5, 6)])
def test_odd_p_row_kernel_past_the_accumulators_block(p, d):
    # more nonzero terms per coefficient than one accumulator block holds
    # (31 over F_3^10, 255 over F_5^6): mul_rows against the schoolbook,
    # divide_rows against Newton's inverse
    f = monic_irreducibles(fq_make(p, 1), d)[0]
    F = residue_field_raw(f.field, f.coeffs)
    n = F._acc_block + 40
    rng = random.Random(p + d)
    A, B = rand_rows(F, 2, n, rng, unit=True), rand_rows(F, 2, n, rng, unit=True)
    # row 0: ones times the value whose digits are all p - 1, so every
    # term of a coefficient carries the largest digits
    A[0], B[0] = 1, F.size - 1
    got = mul_rows(F, A, B)
    for a, b, c in zip(as_series(F, A), as_series(F, B), as_series(F, got)):
        assert c == ref_mul(a, b)
    assert np.array_equal(divide_rows(F, B, A), mul_rows(F, B, inverse_rows(F, A)))


def test_divide_rows_rejects_a_nonunit_denominator():
    F = fq_make(3, 1)
    num = np.ones((2, 3), dtype=np.int32)
    with pytest.raises(ZeroDivisionError):
        divide_rows(F, num, np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int32))


def test_inverse_rows_rejects_a_nonunit_row():
    F = fq_make(3, 1)
    with pytest.raises(ZeroDivisionError):
        inverse_rows(F, np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int32))


@pytest.mark.parametrize("p,r", FIELDS)
def test_derivative_rows_is_the_coefficient_formula(p, r):
    F = fq_make(p, r)
    rng = random.Random(53 * p + r)
    A = rand_rows(F, 4, 14, rng)
    D = derivative_rows(F, A)
    assert D.shape == (4, 13)
    for row, drow in zip(A, D):
        for i in range(13):
            want = 0  # (i+1) * a_{i+1} as repeated addition
            for _ in range(i + 1):
                want = F.add(want, int(row[i + 1]))
            assert int(drow[i]) == want
    with pytest.raises(FieldError):
        derivative_rows(F, A[:, :1])


@pytest.mark.parametrize(
    "F",
    [fq_make(p, r) for p, r in FIELDS] + [residue_field_raw(fq_make(3, 1), (1, 2, 0, 1))],
    ids=[f"F{p}^{r}" for p, r in FIELDS] + ["F3[t]/(t^3+2t+1)"],
)
def test_frobenius_rows_matches_frobenius_q_row_by_row(F):
    """Each row of frobenius_rows on a 4-row matrix is that row's
    frobenius_q and its definition: coefficient i, raised to the q, at
    z^(i q).  n runs around the stride q = F.frob_exponent."""
    q = F.frob_exponent
    rng = random.Random(q)
    for n in sorted({1, q - 1, q, q + 1, 2 * q + 3}):
        A = np.array([[rng.randrange(F.size) for _ in range(n)] for _ in range(4)], dtype=np.int32)
        out = frobenius_rows(F, A)
        assert out.shape == A.shape and out.dtype == np.int32
        for row, got in zip(A, out):
            want = [F.pow(int(row[i // q]), q) if i % q == 0 else 0 for i in range(n)]
            assert got.tolist() == TruncSeries(F, n, row).frobenius_q().c.tolist() == want, n
