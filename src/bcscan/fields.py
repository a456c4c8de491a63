"""Exact arithmetic in small finite fields, packed-integer representation.

An element of a field with p^m elements is stored as a plain int in
[0, p^m): the F_p-coordinate vector (c_0, ..., c_{m-1}) packs to
sum(c_i * p**i).  Two constructions share this core:

* ``BaseField`` is F_q, q = p^r, as F_p[x]/(modulus) with root ``a``;
  coordinates are taken against the basis 1, a, ..., a^{r-1}.
* ``ResidueField`` is F_q[t]/(f) for f monic irreducible of degree d;
  coordinates are taken against t^i a^j.  Because q = p^r, the packed
  form coincides with base-q packing of the coefficient vector of the
  degree-< d representative, which keeps lifting and reduction trivial.

A field is its exp table, the packed powers of its generator: the one
constructor, ``PackedField.__init__``, derives every other table from
it.  Every prime of degree d has the residue field F_(q^d), up to the
choice of labels, and exp comes from a generator search from f alone
(``_search_exp``) or from ``ResidueField.relabelled``, which maps the
exp table of a searched field R0 = F_q[t]/(f0) of the same degree
through the isomorphism t -> a, for a root a of f in R0.  Both give f's
packing, multiplication and Frobenius; only the generator may differ,
and nothing computed from a field depends on it.  A scan relabels one
R0 per degree, degree one included, for all its primes;
``residue_field`` searches.  Each field's label-free Witt tables live
in ``lifts``: a searched field owns its own, and a relabelled field
shares its home's.

Multiplication, inversion and q-power Frobenius run through discrete-log
tables of size p^m; addition is coordinatewise mod p, through F_p-digit
tables kept once per (p, m) (``_digit_tables``).  At odd p a sum of
many elements maps each to one int64 that holds its digits in bit
fields (``_digit_accumulator``), adds those, and reduces the digits
mod p once per block of terms that no field can overflow.  The search
fills exp by doubling (``power_rows``), since multiplication by the
generator is an F_p-linear map on coordinate vectors; ``power_rows``
takes the product as an argument and also fills the Teichmuller table
and the local powers of pi.  ``char_sums`` gathers a character sum at
each of a few exponents, for the exact L-value sums, the mod-p
screen's power sums where a gather is cheaper than Carlitz's series,
and the local dlog components, and
``orbit_polys`` multiplies out the minimal polynomials of Frobenius
orbits, for the prime enumeration and the Witt modulus.  Everything
is exact integer arithmetic.  The log of 0 is the sentinel 2 (Q - 1),
which the zero tail of the exp table maps back to 0, so the vectorized
helpers (``vadd``, ``vmul``, ``vscale``, ``vsum``, ``vfrobq``) that the
truncated-series layer is built on multiply packed arrays with one add
and one gather; ``vmatmul`` is a matrix product over the field done as
float BLAS products of F_p digits whose sums are small enough to stay
exact.

Field tables are immutable after construction and safe to share across
threads.  ``fq_make`` interns its fields, so equal parameters give the
identical object, and ``residue_field_raw`` keeps the last field it
built.  A residue field holds arrays only: its own tables, and the
tables ``lseries`` derives from it (``screen``, ``lifts`` and
``valuations``).  None of them refers back to the field, so reference
counting frees it, and them, when its last user drops it.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_FIELD_SIZE = 1 << 16


class FieldError(ValueError):
    """Invalid field construction or a domain violation in field ops."""


class ConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed."""


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    i = 2
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            while n % i == 0:
                n //= i
        i += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == (n,)


# ---------------------------------------------------------------------------
# Coefficient-list polynomial helpers.
#
# Polynomials are little-endian lists of packed field elements with no
# trailing zeros.  These private routines parameterize over the scalar
# field F and are the single implementation backing both the public Poly
# class and the bootstrap needed to build field tables themselves.

def _pl_trim(c: list[int]) -> list[int]:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    del c[n:]
    return c


def _pl_add(F, a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = F.add(out[i], v)
    return _pl_trim(out)


def _pl_neg(F, a) -> list[int]:
    return [F.neg(v) for v in a]


def _pl_sub(F, a, b) -> list[int]:
    return _pl_add(F, a, _pl_neg(F, b))


def _pl_mul(F, a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            if v:
                out[i + j] = F.add(out[i + j], F.mul(u, v))
    return _pl_trim(out)


def _pl_divmod(F, a, b) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, lead_inv = len(b) - 1, F.inv(b[-1])
    if len(r) - 1 < db:
        return [], _pl_trim(r)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c == 0:
            continue
        c = F.mul(c, lead_inv)
        q[i - db] = c
        for j, v in enumerate(b):
            if v:
                r[i - db + j] = F.sub(r[i - db + j], F.mul(c, v))
    return _pl_trim(q), _pl_trim(r)


def _pl_rem(F, a, b) -> list[int]:
    return _pl_divmod(F, a, b)[1]


def _pl_gcd(F, a, b) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pl_rem(F, a, b)
    if a:
        c = F.inv(a[-1])
        a = [F.mul(v, c) for v in a]
    return a


def _pl_powmod(F, a, e: int, mod) -> list[int]:
    if e < 0:
        raise ValueError("negative exponent")
    result = [1]
    base = _pl_rem(F, a, mod)
    while e:
        if e & 1:
            result = _pl_rem(F, _pl_mul(F, result, base), mod)
        base = _pl_rem(F, _pl_mul(F, base, base), mod)
        e >>= 1
    return result


def _pl_is_irreducible(F, f) -> bool:
    # Distinct-degree criterion: f of degree n is irreducible over F_q
    # iff x^(q^n) = x mod f and gcd(x^(q^(n/l)) - x, f) = 1 for every
    # prime l dividing n.
    n = len(f) - 1
    if n < 1 or f[-1] == 0:
        return False
    if n == 1:
        return True
    q = F.size
    x = [0, 1]
    chain = [list(x)]  # chain[i] = x^(q^i) mod f
    cur = x
    for _ in range(n):
        cur = _pl_powmod(F, cur, q, f)
        chain.append(cur)
    if chain[n] != x:
        return False
    for ell in _prime_factors(n):
        g = _pl_gcd(F, _pl_sub(F, chain[n // ell], x), f)
        if len(g) - 1 != 0:
            return False
    return True


# ---------------------------------------------------------------------------


def power_rows(first, x, count: int, mul) -> np.ndarray:
    """Rows first * x^j for 0 <= j < count under the product mul: a matrix
    x with ``a @ b % modulus`` (an object x computes in Python integers),
    or a one-row series x with ``series.mul_rows``.

    Filled by doubling: with rows 0..N-1 known, rows N..2N-1 are those
    rows times x^N, and x^N squares to x^(2N); log2(count) products."""
    rows = np.empty((count, len(first)), dtype=x.dtype)
    rows[0] = first
    n = 1
    while n < count:
        take = min(n, count - n)
        rows[n : n + take] = mul(rows[:take], x)
        n += take
        if n < count:
            x = mul(x, x)
    return rows


def orbit_polys(F, roots: np.ndarray, sub: int) -> np.ndarray:
    """Row i: the coefficients, constant term first, of the product of
    (x - roots[i, j]) over j in F, multiplied out across all rows at once:
    each root shifts the product up and subtracts root times it.  Each
    row of roots is a Frobenius orbit, so every coefficient must be in
    the subfield of packed values below ``sub``; one that is not raises."""
    coeffs = np.zeros((len(roots), roots.shape[1] + 1), dtype=np.int32)
    coeffs[:, 0] = 1
    for i in range(roots.shape[1]):
        shifted = np.zeros_like(coeffs)
        shifted[:, 1:] = coeffs[:, :-1]
        coeffs = F.vsub(shifted, F.vmul(roots[:, i : i + 1], coeffs))
    if (coeffs >= sub).any():
        raise ConsistencyError(f"a minimal polynomial in F_{F.size} is not over F_{sub}")
    return coeffs


# cells one gather of the character-sum primitive or of a step of
# series.divide_rows may produce: 32K int64 cells are 256 KB, so the
# temporaries of a chunk stay well under 1 MB
CHUNK_CELLS = 1 << 15


def char_sums(order: int, table, logs: np.ndarray, reduce, ns) -> np.ndarray:
    """reduce(table[-n * logs mod order]) for each n in ns, stacked.

    Row i of ``table`` is a function of gamma^i, gamma of order ``order``:
    gamma^i, its F_p-coordinates or omega(gamma^i) in W_k.  ``reduce``
    folds axis 1 of a (rows, len(logs), ...) gather; ns is taken a bounded
    chunk of rows at a time, so no chunk exceeds CHUNK_CELLS cells unless
    a single row does."""
    ns = np.asarray(ns, dtype=np.int64)
    step = max(1, CHUNK_CELLS // max(1, logs.size * table[0].size))
    starts = range(0, ns.size, step) or [0]  # an empty ns gives an empty stack
    return np.concatenate([reduce(table[(-ns[s : s + step, None] * logs) % order]) for s in starts])


# float cells one operand or sum block of ``PackedField.vmatmul`` may
# hold: 1M float32 cells are 4 MB
MATMUL_CELLS = 1 << 20


def _first_rows_of_powers(M: np.ndarray, exps, p: int) -> list[np.ndarray]:
    """Row 0 of M^e mod p for each e in exps: the squarings of M are
    shared, and each power is taken as a row vector times them."""
    squares = [M]
    for _ in range(max(exps).bit_length() - 1):
        squares.append(squares[-1] @ squares[-1] % p)
    rows = []
    for e in exps:
        v = np.eye(len(M), dtype=np.int64)[0]
        for b, S in enumerate(squares):
            if e >> b & 1:
                v = v @ S % p
        rows.append(v)
    return rows


@functools.lru_cache(maxsize=17)
def _digit_tables(p: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The F_p-digit tables of the packed values below p^m: ``unpack``
    (row v holds the m digits of v), the place values p^i and, at odd p,
    the negation table.  Shared by every field of p^m elements; the bound
    holds the sizes one scan touches, its base field and one size per
    degree.  A size above MAX_FIELD_SIZE is refused before any table is
    allocated."""
    size = p**m
    if size > MAX_FIELD_SIZE:
        raise FieldError(f"field size {size} exceeds supported limit {MAX_FIELD_SIZE}")
    unpack = np.zeros((size, m), dtype=np.int16 if p <= 1 << 15 else np.int32)
    vals = np.arange(size)
    for i in range(m):
        unpack[:, i] = (vals // p**i) % p
    packw = (p ** np.arange(m)).astype(np.int64)
    neg = None if p == 2 else (((p - unpack) % p).astype(np.int64) @ packw).astype(np.int32)
    for arr in (unpack, packw, neg):
        if arr is not None:
            arr.setflags(write=False)
    return unpack, packw, neg


@functools.lru_cache(maxsize=17)
def _digit_accumulator(p: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The accumulator table of the packed values below p^m, p odd:
    ``acc`` (entry v holds the m digits of v in bit fields of B =
    floor(62 / m) bits, digit i at bit B i), the field offsets B i, their
    place values 2^(B i), the field mask 2^B - 1, and the block length
    floor((2^B - 1) / (p - 1)), the count of values with digits below p
    whose accumulators add with no field overflowing.  A sum of packed
    values is then one int64 add per value and, per block, one unpacking
    of its m fields mod p.  Cached as ``_digit_tables`` is."""
    unpack, _, _ = _digit_tables(p, m)
    bits = 62 // m
    shifts = bits * np.arange(m, dtype=np.int64)
    acc = np.zeros(p**m, dtype=np.int64)
    for i in range(m):
        acc |= unpack[:, i].astype(np.int64) << shifts[i]
    place = np.int64(1) << shifts
    for arr in (acc, shifts, place):
        arr.setflags(write=False)
    return acc, shifts, place, (1 << bits) - 1, ((1 << bits) - 1) // (p - 1)


def _float_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place for a float array of integers, as x - p floor(x / p)
    through one temporary: exact below 2^24 in float32 and 2^53 in
    float64, where np.remainder takes several times as long."""
    t = x / p
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _search_exp(p: int, m: int, mul0, gen_candidates) -> np.ndarray:
    """The packed powers gen^j, 0 <= j < p^m - 1, of the first of
    gen_candidates that generates the units of the field of p^m elements
    whose product is mul0 (in F_2, of gen = 1).

    Multiplication by c is F_p-linear: row i of its matrix holds the
    coordinates of p^i * c, so row 0 of the matrix's e-th power holds
    those of c^e, and c generates iff no c^(order / l) is 1.  The
    coordinates of gen^j are row 0 of M^j, and power_rows fills all of
    them in log2(order) steps; gen^(order-1) * gen must be 1."""
    unpack, packw, _ = _digit_tables(p, m)
    order = p**m - 1

    def mul_matrix(c: int) -> np.ndarray:
        return unpack[[mul0(p**i, c) for i in range(m)]].astype(np.int64)

    gen = 1
    if order > 1:
        exps = [order // ell for ell in _prime_factors(order)]
        for cand in gen_candidates:
            M = mul_matrix(cand)
            if not any(np.array_equal(v, unpack[1]) for v in _first_rows_of_powers(M, exps, p)):
                gen = cand
                break
        else:  # pragma: no cover - a generator always exists
            raise FieldError("no multiplicative generator found")
    else:
        M = mul_matrix(1)
    exp = (power_rows(unpack[1], M, order, lambda a, b: a @ b % p) @ packw).astype(np.int32)
    if mul0(int(exp[-1]), gen) != 1:
        raise FieldError("exp table does not close: gen^(order-1) * gen != 1")
    return exp


class PackedField:
    """Arithmetic core shared by BaseField and ResidueField."""

    def __init__(self, p: int, m: int, exp: np.ndarray):
        """The field of p^m elements whose generator's powers, packed and
        int32, are exp: the one place where log, Frobenius and the
        zero-aware tables are derived.  An exp that does not enumerate
        the units is refused."""
        self._unpack, self._packw, self._neg_t = _digit_tables(p, m)
        if p != 2:
            self._acc, self._acc_shifts, self._acc_place, self._acc_mask, self._acc_block = _digit_accumulator(p, m)
        self.p = p
        self.m = m
        self.size = p**m
        self.order = order = self.size - 1
        # the log of 0 is the sentinel 2*order, and every sum involving
        # it indexes the zero tail of _zexp, so a product of packed
        # arrays is one add and one gather, with no mod and no mask
        log = np.full(self.size, 2 * order, dtype=np.int32)
        log[exp] = np.arange(len(exp), dtype=np.int32)
        if len(exp) != order or log[0] != 2 * order or (log[1:] == 2 * order).any():
            raise FieldError("generator does not enumerate the unit group")
        self._zexp = np.concatenate((exp, exp, np.zeros(2 * order + 1, np.int32)))
        self._npfrobq = exp[log.astype(np.int64) * self.frob_exponent % order]
        self._npfrobq[0] = 0
        for arr in (self._zexp, log, self._npfrobq):
            arr.setflags(write=False)
        self._npexp = self._zexp[:order]
        self._nplog = log
        self._exp = exp.tolist()
        self._log = log.tolist()
        self.generator = self._exp[1 % order]

    # q-power used by series Frobenius; residue fields override.
    @property
    def frob_exponent(self) -> int:
        return self.size

    # -- scalar operations --------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return int(self._neg_t[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[a] % self.order]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % self.order]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("discrete log of zero")
        return self._log[a]

    def exp_of(self, j: int) -> int:
        return self._exp[j % self.order]

    # -- vectorized operations (packed int32 numpy arrays) -------------

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._acc_pack(self._acc[a] + self._acc[b])

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a
        return self._neg_t[a]

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vadd(a, self.vneg(b))

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._zexp[self._nplog[np.asarray(a)] + self._nplog[np.asarray(b)]]

    def vscale(self, c: int, a: np.ndarray) -> np.ndarray:
        if c == 0:
            return np.zeros_like(a)
        if c == 1:
            return a.copy()
        return self._zexp[self._nplog[a] + self._log[c]]

    def vsum(self, a: np.ndarray, axis: int = 0) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        if a.shape[axis] == 0:
            return np.zeros(np.delete(a.shape, axis), dtype=np.int32)
        return np.take(self._run_sums(a, [0], axis), 0, axis=axis)

    def _run_sums(self, a: np.ndarray, starts, axis: int) -> np.ndarray:
        """Sums along axis of the runs of a from each of the increasing
        starts to the next, the last to the end; no run is empty.  At odd
        p a run longer than the accumulator's block is summed a block at
        a time, each block sum reduced mod p and summed again."""
        if self.p == 2:
            return np.bitwise_xor.reduceat(a, starts, axis=axis)
        x, starts, block = self._acc[a], np.asarray(starts), self._acc_block
        while True:
            ends = np.append(starts[1:], x.shape[axis])
            if (ends - starts).max() <= block:
                return self._acc_pack(np.add.reduceat(x, starts, axis=axis))
            cuts = np.concatenate([np.arange(s, e, block) for s, e in zip(starts, ends)])
            x = self._acc_carry(np.add.reduceat(x, cuts, axis=axis))
            starts = np.searchsorted(cuts, starts)

    # -- the odd-p accumulator (``_digit_accumulator``) ------------------

    def _acc_digits(self, x: np.ndarray) -> np.ndarray:
        """The m fields of the accumulators x, each reduced mod p, on a new last axis."""
        digits = x[..., None] >> self._acc_shifts
        digits &= self._acc_mask
        digits %= self.p
        return digits

    def _acc_carry(self, x: np.ndarray) -> np.ndarray:
        """The accumulators x with every field reduced mod p: each then
        holds a field element's digits, and a block more can be added."""
        return self._acc_digits(x) @ self._acc_place

    def _acc_pack(self, x: np.ndarray) -> np.ndarray:
        """The packed field elements whose digits are the fields of x mod p."""
        return (self._acc_digits(x) @ self._packw).astype(np.int32)

    def vfrobq(self, a: np.ndarray) -> np.ndarray:
        return self._npfrobq[a]

    def vmatmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact product of a (r, k) and a (k, n) packed matrix.

        With beta_i = p^i packed and a_i the F_p-digit planes of a,
        a @ b = sum_i a_i (beta_i b), and addition is digitwise mod p: so
        the digits of a @ b are sum_i a_i @ digits(beta_i b) mod p, m float
        BLAS products (r, k) @ (k, n m) whose sums stay below k m (p-1)^2,
        exact in float32 below 2^24 and in float64 beyond.  b is taken by
        column blocks and a by row blocks, so no operand or sum block
        holds more than MATMUL_CELLS cells unless one row or column does.
        One digit plane of a and one expanded block of b are held at a
        time: b is expanded once per row block of a (r k / MATMUL_CELLS
        of them) and a's planes gathered once per column block of b
        (n k m / MATMUL_CELLS).  Holding all m expanded blocks of b in
        the same budget would gather a's planes m times as often.

        Some BLAS builds raise the invalid flag on such exact operands
        without a wrong value (it was seen once, in a full test run), so
        the flag is ignored inside the products and their values are
        checked instead: every digit sum finite and in [0, k m (p-1)^2],
        every packed entry finite and below p^m."""
        p, m = self.p, self.m
        (r, k), n = a.shape, b.shape[1]
        bound = k * m * (p - 1) ** 2
        dtype = np.float32 if bound < 1 << 24 else np.float64
        digits = self._unpack.astype(dtype)
        planes = digits.T.copy()  # planes[i][v] is digit i of v
        beta_logs = self._nplog[self._packw]
        cstep = max(1, MATMUL_CELLS // max(1, k * m))
        out = np.empty((r, n), dtype=np.int32)
        for c in range(0, n, cstep):
            logb = self._nplog[b[:, c : c + cstep]]
            width = logb.shape[1] * m
            rstep = max(1, MATMUL_CELLS // max(1, k, width))
            for s in range(0, r, rstep):
                A = a[s : s + rstep]
                acc = np.zeros((len(A), width), dtype)
                with np.errstate(invalid="ignore"):
                    for i in range(m):
                        beta_b = digits[self._zexp[logb + beta_logs[i]]].reshape(k, width)
                        acc += planes[i][A] @ beta_b
                _check_exact(acc, bound, "digit sum")
                with np.errstate(invalid="ignore"):
                    acc = _float_mod(acc.reshape(len(A), -1, m), p) @ self._packw.astype(dtype)
                _check_exact(acc, self.order, "packed entry")
                out[s : s + rstep, c : c + cstep] = acc
        return out


def _check_exact(x: np.ndarray, bound: int, what: str) -> None:
    """x, a float block of ``vmatmul``, holds finite values in [0, bound]."""
    if not (np.isfinite(x).all() and (x >= 0).all() and (x <= bound).all()):
        raise ConsistencyError(f"vmatmul: a {what} is not finite or not in [0, {bound}]")


def _weight_ordered(p: int, r: int):
    # Monic degree-r candidates x^r + (packed tail c), ordered by number
    # of nonzero tail coefficients, then by packed value.
    tails = sorted(range(p**r), key=lambda c: (sum(d != 0 for d in _digits(c, p, r)), c))
    return tails


def _digits(v: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(v % p)
        v //= p
    return out


class BaseField(PackedField):
    """F_q = F_p[x]/(modulus), q = p^r; coefficient generator named 'a'."""

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.r = r
        self.modulus = modulus
        if r == 1:
            mul0 = lambda a, b: (a * b) % p  # noqa: E731
            cands = range(2, p)
        else:
            fp = fq_make(p, 1)
            mod = list(modulus)

            def mul0(a, b, fp=fp, mod=mod):
                prod = _pl_mul(fp, _digits(a, p, r), _digits(b, p, r))
                rem = _pl_rem(fp, prod, mod)
                return sum(c * p**i for i, c in enumerate(rem))

            cands = range(p, p**r)  # the constants below p have order dividing p - 1
        super().__init__(p, r, _search_exp(p, r, mul0, cands))
        self.q = self.size
        self.a_packed = p if r >= 2 else 1
        if r >= 2 and self.order > 1:
            la = self._log[self.a_packed]
            import math

            self.a_is_generator = math.gcd(la, self.order) == 1
            if self.a_is_generator:
                self._a_dlog_mult = pow(la, -1, self.order)
        else:
            self.a_is_generator = False

    def a_dlog(self, v: int) -> int:
        """Exponent j with a^j = v, for nonzero v; requires a generator."""
        if not self.a_is_generator:
            raise FieldError("'a' does not generate the unit group")
        return (self._log[v] * self._a_dlog_mult) % self.order

    def coeff_repr(self, v: int) -> tuple[int, str, bool]:
        """(sign, text, needs_parens) for rendering v as a coefficient.

        Prime fields use balanced integers (3 -> -2 over F_5 etc.); other
        fields render powers of 'a' when 'a' generates the units, else a
        polynomial expression in 'a'.
        """
        if self.r == 1:
            half = self.p // 2
            if v > half:
                return -1, str(self.p - v), False
            return 1, str(v), False
        if v and self.a_is_generator:
            j = self.a_dlog(v)
            if j == 0:
                return 1, "1", False
            if j == 1:
                return 1, "a", False
            return 1, f"a^{j}", False
        terms = []
        digs = _digits(v, self.p, self.r)
        for i in range(self.r - 1, -1, -1):
            c = digs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}a" + (f"^{i}" if i > 1 else ""))
        if not terms:
            return 1, "0", False
        return 1, " + ".join(terms), len(terms) > 1

    def __repr__(self) -> str:
        return f"F_{self.size}"


class ResidueField(PackedField):
    """F_q[t]/(f) for f monic irreducible of degree d over a BaseField.

    Packed values encode the degree-< d representative: base-q digit i is
    the (packed) coefficient of t^i.  Built from f alone, the field
    searches a generator for its exp table; ``relabelled`` builds the
    same field from another field of its size that holds a root of f,
    and hands the constructor that field's exp table mapped into f's
    labels (``_exp``, private to this module)."""

    def __init__(self, base: BaseField, prime_coeffs: tuple[int, ...], *, _exp: np.ndarray | None = None):
        self.base = base
        self.prime_coeffs = prime_coeffs
        self.d = d = len(prime_coeffs) - 1
        self.q = q = base.size  # before the tables: frob_exponent reads it
        # the class of t: the root -c of t + c, else t itself, packed as q
        self.t_res = base.neg(prime_coeffs[0]) if d == 1 else q
        # the mod-p screen of its character sums, set by
        # lseries.mod_p_screen on first use and shared by every precision
        self.screen = None
        # read-only int8 valuation tables by Witt precision, filled by
        # lseries on first use
        self.valuations: dict = {}
        # label-free Witt tables by precision, filled by lseries and shared
        # by every field relabelled from this one
        self.lifts: dict = {}
        if _exp is None:
            mod = list(prime_coeffs)

            def mul0(a, b):
                prod = _pl_mul(base, _digits(a, q, d), _digits(b, q, d))
                rem = _pl_rem(base, prod, mod)
                return sum(c * q**i for i, c in enumerate(rem))

            # at d >= 2 the constants below q have order dividing q - 1
            _exp = _search_exp(base.p, base.r * d, mul0, range(q if d >= 2 else 2, q**d))
        super().__init__(base.p, base.r * d, _exp)

    @classmethod
    def relabelled(cls, home: "ResidueField", prime_coeffs, a: int) -> "ResidueField":
        """F_q[t]/(f) for the prime f with the root a in ``home``, the
        field R0 = F_q[t]/(f0) of a prime f0 of f's degree.

        Sending t to a is an F_q-isomorphism from F_q[t]/(f) onto home.
        Packed, it is the table L, L[sum c_i q^i] = sum c_i a^i, built as
        one product of F_p digits with the m x m matrix of its images of
        the basis, and f's exp table is home's mapped back through it,
        exp = L^-1[exp_0], which the constructor takes as it takes a
        searched one.  The field multiplies, packs and applies Frobenius
        as f's searched field does, with generator L^-1(gamma_0); it
        searches nothing, multiplies no polynomial, and shares home's
        ``lifts``.  f is taken as irreducible, as the enumerator makes
        it; an a that is not a root of f is refused."""
        p, base, d = home.p, home.base, len(prime_coeffs) - 1
        if functools.reduce(lambda acc, c: home.add(home.mul(acc, a), c), reversed(prime_coeffs), 0):
            raise FieldError(f"{a} is not a root of the prime in {home!r}")
        # row i r + j: the digits of alpha^j a^i, the image of the basis
        # element alpha^j t^i packed as p^(i r + j), alpha the root of F_q;
        # the digit sums stay below m (p-1)^2, exact in float32 below 2^24.
        # BLAS may raise the invalid flag on exact operands (see vmatmul):
        # it is ignored, and L is checked to be a bijection instead
        A = home._unpack[[home.mul(p**j, home.pow(a, i)) for i in range(d) for j in range(base.r)]]
        dtype = np.float32 if home.m * (p - 1) ** 2 < 1 << 24 else np.float64
        with np.errstate(invalid="ignore"):
            digits = home._unpack.astype(dtype) @ A.astype(dtype)
            L = (_float_mod(digits, p) @ home._packw.astype(dtype)).astype(np.int32)
        inv_L = np.full_like(L, -1)
        inv_L[L] = np.arange(home.size, dtype=np.int32)
        if (inv_L < 0).any():
            raise ConsistencyError("t -> a does not relabel the field one to one")
        rf = cls(base, tuple(prime_coeffs), _exp=inv_L[home._npexp])
        rf.lifts = home.lifts
        return rf

    @property
    def frob_exponent(self) -> int:
        return self.q

    def lift_coeffs(self, v: int) -> tuple[int, ...]:
        """Coefficients over F_q of the degree-< d representative."""
        return tuple(_digits(v, self.q, self.d))

    def reduce_list(self, coeffs) -> int:
        rem = _pl_rem(self.base, list(coeffs), list(self.prime_coeffs))
        return sum(c * self.q**i for i, c in enumerate(rem))

    def __repr__(self) -> str:
        return f"F_{self.base.size}[t] mod prime of degree {self.d}"


@functools.lru_cache(maxsize=None)
def _fq_cached(p: int, r: int, modulus: tuple[int, ...]) -> BaseField:
    return BaseField(p, r, modulus)


def default_modulus(p: int, r: int) -> tuple[int, ...]:
    """Deterministic modulus choice: fewest nonzero terms, then smallest."""
    if r == 1:
        return (0, 1)
    fp = fq_make(p, 1)
    for tail in _weight_ordered(p, r):
        cand = _digits(tail, p, r) + [1]
        if _pl_is_irreducible(fp, cand):
            return tuple(cand)
    raise FieldError(f"no irreducible of degree {r} over F_{p}")  # pragma: no cover


def fq_make(p: int, r: int = 1, modulus=None) -> BaseField:
    """Construct (memoized) F_q with q = p^r, optionally with a chosen modulus.

    ``modulus`` is a little-endian coefficient sequence over F_p for a monic
    irreducible of degree r; omitted, a built-in minimal-weight choice is
    used (e.g. x^2+x+1 for F_4, x for any prime field).
    """
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    if r < 1:
        raise FieldError("extension degree must be >= 1")
    if p**r > MAX_FIELD_SIZE:
        raise FieldError(f"q = {p}^{r} exceeds supported limit {MAX_FIELD_SIZE}")
    if modulus is None:
        mod = default_modulus(p, r)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != r + 1 or mod[-1] != 1:
            raise FieldError("modulus must be monic of degree r")
        if r >= 2 and not _pl_is_irreducible(fq_make(p, 1), list(mod)):
            raise FieldError("modulus is reducible")
    return _fq_cached(p, r, mod)


@functools.lru_cache(maxsize=1)
def _residue_cached(p, r, modulus, prime_coeffs) -> ResidueField:
    """Where a polynomial from outside the enumerator is tested for
    irreducibility before its field is built, once per field: a field
    found in the cache is not tested again.  lru_cache keeps no
    exception, so a reducible prime is refused on every call, before any
    table is built.  It keeps the last field it built, so a caller that
    asks again for the prime it just asked for (the dual-route check
    does) builds it once, and one that visits many primes holds only the
    last; a scan builds its enumerated primes' fields directly, untested,
    and never comes here."""
    base = _fq_cached(p, r, modulus)
    if not _pl_is_irreducible(base, list(prime_coeffs)):
        raise FieldError("polynomial is not irreducible")
    return ResidueField(base, prime_coeffs)


def residue_field_raw(base: BaseField, prime_coeffs) -> ResidueField:
    """Residue field from raw coefficients of a monic irreducible."""
    coeffs = tuple(int(c) for c in prime_coeffs)
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise FieldError("prime must be monic of degree >= 1")
    if any(not 0 <= c < base.size for c in coeffs):
        raise FieldError("prime coefficients out of range")
    if base.size ** (len(coeffs) - 1) > MAX_FIELD_SIZE:
        raise FieldError(
            f"residue field size q^d = {base.size ** (len(coeffs) - 1)} exceeds "
            f"supported limit {MAX_FIELD_SIZE}"
        )
    return _residue_cached(base.p, base.r, base.modulus, coeffs)
