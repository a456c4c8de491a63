"""Truncated power series over a packed finite field.

A ``TruncSeries`` holds coefficients 0..n-1 of a series known mod z^n.
Operations are precision-honest: anything that genuinely loses knowledge
of top coefficients (derivative, division by z) returns a shorter
series, and binary operations between different truncation orders work
at the shorter one.  No coefficient in a result is ever a guess.

Coefficients live in a numpy int32 array (packed field elements).
Product, quotient (an inverse is 1 over the series) and derivative have
one implementation each, the row kernel below: ``mul_rows``,
``divide_rows`` and ``derivative_rows`` act on (rows, n) coefficient
matrices, one series per row.  ``TruncSeries`` calls them on a one-row
view, and the local model's dlog table and its powers of the uniformizer
call them on all of their rows at once, so numpy overhead is paid per
column rather than per element.  Newton's inverse, composition and
Horner evaluation at a series are not here: nothing in the package runs
them, and the tests keep them as references in ``tests/series_oracle.py``
and ``tests/carlitz_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from . import fields
from .fields import FieldError


# -- the row kernel ----------------------------------------------------------


def mul_rows(F, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise product mod z^n of two (rows, n) coefficient matrices; a
    one-row operand is broadcast against the other.

    Schoolbook: one shifted, scaled copy of the other operand per nonzero
    column of whichever operand has fewer of them, so a sparse operand
    costs one pass per nonzero term.  Both discrete logs are looked up
    once per product."""
    A, B = np.broadcast_arrays(A, B)
    n = A.shape[1]
    if np.count_nonzero(A.any(axis=0)) > np.count_nonzero(B.any(axis=0)):
        A, B = B, A
    cols = np.flatnonzero(A.any(axis=0))
    logA, logB = F._nplog[A], F._nplog[B]
    if F.p == 2:
        out = np.zeros_like(A)
        for j in cols:
            out[:, j:] ^= F._zexp[logA[:, j, None] + logB[:, : n - j]]
        return out
    # one int64 accumulator per coefficient (fields._digit_accumulator),
    # reduced mod p after every block - 1 terms: with the reduced sum
    # before them they make at most a block
    acc = np.zeros(A.shape, dtype=np.int64)
    for i, j in enumerate(cols, 1):
        acc[:, j:] += F._acc[F._zexp[logA[:, j, None] + logB[:, : n - j]]]
        if i % (F._acc_block - 1) == 0:
            acc = F._acc_carry(acc)
    return F._acc_pack(acc)


def divide_rows(F, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Row-wise num / den mod z^n, den with unit constant terms, by the
    recurrence y_k = den_0^-1 (num_k - sum over s in S of den_s y_(k-s)),
    S the nonzero columns s >= 1 of den.  Columns k..k+min(S)-1 read only
    y below k, so each step fills up to min(S) columns of every row in
    one gather over the s in S that reach them: a den nonzero at a few
    columns costs a few cells per coefficient, not a dense inverse.  A
    step takes fewer columns where min(S) of them would gather more than
    CHUNK_CELLS cells, unless a single column does."""
    num, den = np.broadcast_arrays(num, den)
    if not den[:, 0].all():
        raise ZeroDivisionError("series has no inverse: zero constant term")
    rows, n = den.shape
    inv0 = F._zexp[F.order - F._nplog[den[:, :1]]]
    cols = np.flatnonzero(den[:, 1:].any(axis=0)) + 1
    step = min(int(cols[0]), max(1, fields.CHUNK_CELLS // (rows * cols.size))) if cols.size else n
    # y_k = num_k / den_0 + sum(-den_s / den_0 * y_(k-s)); the logs of y
    # are kept beside it, with a last column holding the log of 0 for
    # the y_(k-s) at k < s
    logc = F._nplog[F.vneg(F.vmul(inv0, den[:, cols]))][:, :, None]
    y = F.vmul(inv0, num)
    logy = np.full((rows, n + 1), 2 * F.order, dtype=np.int32)
    for k in range(0, n, step):
        hi = min(k + step, n)
        a = np.searchsorted(cols, hi)  # the s < hi, which reach column hi - 1
        if a:
            back = np.arange(k, hi) - cols[:a, None]
            terms = F._zexp[logc[:, :a] + logy[:, np.where(back < 0, n, back)]]
            y[:, k:hi] = F.vsum(np.concatenate((y[:, None, k:hi], terms), axis=1), axis=1)
        logy[:, k:hi] = F._nplog[y[:, k:hi]]
    return y


def derivative_rows(F, A: np.ndarray) -> np.ndarray:
    """Row-wise d/dz; column i of the result needs column i+1 of A."""
    n = A.shape[1]
    if n == 1:
        raise FieldError("cannot differentiate a series known only mod z")
    out = np.zeros((A.shape[0], n - 1), dtype=np.int32)
    scalars = np.arange(1, n) % F.p
    # i * c_i is a scale by (i mod p)
    for s in range(1, F.p):
        sel = np.flatnonzero(scalars == s)
        out[:, sel] = F.vscale(s, A[:, sel + 1])
    return out


class TruncSeries:
    __slots__ = ("field", "n", "c")

    def __init__(self, field, n: int, coeffs: np.ndarray):
        if n < 1:
            raise FieldError("truncation order must be >= 1")
        if coeffs.shape != (n,):
            raise FieldError("coefficient array length mismatch")
        self.field = field
        self.n = n
        self.c = coeffs.astype(np.int32, copy=False)
        self.c.setflags(write=False)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field, n: int) -> "TruncSeries":
        return TruncSeries(field, n, np.zeros(n, dtype=np.int32))

    @staticmethod
    def const(field, n: int, c0: int) -> "TruncSeries":
        out = np.zeros(n, dtype=np.int32)
        out[0] = c0
        return TruncSeries(field, n, out)

    @staticmethod
    def one(field, n: int) -> "TruncSeries":
        return TruncSeries.const(field, n, 1)

    @staticmethod
    def monomial(field, n: int, k: int, coeff: int = 1) -> "TruncSeries":
        out = np.zeros(n, dtype=np.int32)
        if 0 <= k < n:
            out[k] = coeff
        return TruncSeries(field, n, out)

    @staticmethod
    def from_coeffs(field, n: int, coeffs) -> "TruncSeries":
        out = np.zeros(n, dtype=np.int32)
        m = min(n, len(coeffs))
        out[:m] = [int(v) for v in coeffs[:m]]
        return TruncSeries(field, n, out)

    # -- inspection -------------------------------------------------------

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"coefficient {i} outside known range 0..{self.n - 1}")
        return int(self.c[i])

    @property
    def is_zero(self) -> bool:
        return not self.c.any()

    def valuation(self) -> int:
        """Index of first nonzero coefficient; n when the series is 0 mod z^n."""
        nz = np.flatnonzero(self.c)
        return int(nz[0]) if nz.size else self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.field is other.field
            and self.n == other.n
            and bool(np.array_equal(self.c, other.c))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"TruncSeries({self.to_str()} + O(z^{self.n}))"

    def to_str(self, var: str = "z") -> str:
        terms = []
        for i in np.flatnonzero(self.c):
            c = int(self.c[i])
            head = "" if (c == 1 and i > 0) else f"{c}*"
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(terms) if terms else "0"

    # -- precision management ---------------------------------------------

    def truncate(self, m: int) -> "TruncSeries":
        if m > self.n:
            raise FieldError(f"cannot extend precision {self.n} to {m}")
        if m == self.n:
            return self
        return TruncSeries(self.field, m, self.c[:m].copy())

    def _align(self, other: "TruncSeries") -> tuple[int, np.ndarray, np.ndarray]:
        if self.field is not other.field:
            raise FieldError("series live over different fields")
        n = min(self.n, other.n)
        return n, self.c[:n], other.c[:n]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n, a, b = self._align(other)
        return TruncSeries(self.field, n, self.field.vadd(a, b))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n, a, b = self._align(other)
        return TruncSeries(self.field, n, self.field.vsub(a, b))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.field, self.n, self.field.vneg(self.c))

    def scale(self, k: int) -> "TruncSeries":
        return TruncSeries(self.field, self.n, self.field.vscale(k, self.c))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n, a, b = self._align(other)
        return TruncSeries(self.field, n, mul_rows(self.field, a[None], b[None])[0])

    def __pow__(self, e: int) -> "TruncSeries":
        if e < 0:
            raise ValueError("negative exponent")
        result = TruncSeries.one(self.field, self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse mod z^n; constant term must be a unit."""
        one = np.eye(1, self.n, dtype=np.int32)
        return TruncSeries(self.field, self.n, divide_rows(self.field, one, self.c[None])[0])

    def shift_up(self, k: int) -> "TruncSeries":
        """Multiply by z^k (same truncation order)."""
        if k == 0:
            return self
        out = np.zeros(self.n, dtype=np.int32)
        if k < self.n:
            out[k:] = self.c[: self.n - k]
        return TruncSeries(self.field, self.n, out)

    def shift_down(self, k: int) -> "TruncSeries":
        """Exact division by z^k; the result is known only mod z^(n-k)."""
        if k == 0:
            return self
        if self.c[:k].any():
            raise FieldError(f"series is not divisible by z^{k}")
        return TruncSeries(self.field, self.n - k, self.c[k:].copy())

    def derivative(self) -> "TruncSeries":
        """d/dz; coefficient i of the result needs coefficient i+1 here."""
        return TruncSeries(self.field, self.n - 1, derivative_rows(self.field, self.c[None])[0])

    def frobenius_q(self) -> "TruncSeries":
        """q-power: sum a_i z^(i q) with coefficients raised to the q."""
        F, n = self.field, self.n
        q = F.frob_exponent
        out = np.zeros(n, dtype=np.int32)
        top = (n - 1) // q
        idx = np.arange(top + 1)
        out[idx * q] = F.vfrobq(self.c[idx])
        return TruncSeries(F, n, out)
