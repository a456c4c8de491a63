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

Multiplication, inversion and q-power Frobenius run through discrete-log
tables of size p^m; addition is coordinatewise mod p.  The exp table is
filled by doubling (``power_rows``), since multiplication by the
generator is an F_p-linear map on coordinate vectors.  Everything is
exact integer arithmetic.  numpy mirrors of the tables drive the
vectorized helpers (``vadd``, ``vmul``, ``vscale``, ``vsum``, ``vfrobq``)
that the truncated-series layer is built on.

Field objects are immutable after construction and safe to share across
threads; the factory functions memoize so equal parameters give the
identical object.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

MAX_FIELD_SIZE = 1 << 16


class FieldError(ValueError):
    """Invalid field construction or a domain violation in field ops."""


class ConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


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


def _pl_deriv(F, a) -> list[int]:
    out = []
    for i in range(1, len(a)):
        out.append(F.mul(a[i], i % F.p))
    return _pl_trim(out)


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


def power_rows(first, M: np.ndarray, count: int, modulus: int) -> np.ndarray:
    """Rows first @ M^j mod modulus for 0 <= j < count, one per row.

    Filled by doubling: with rows 0..N-1 known, rows N..2N-1 are those
    rows times M^N, and M^N squares to M^(2N); log2(count) matrix
    products in all.  Entries stay exact when M's dtype holds
    m * (modulus - 1)^2 for the m x m matrix M; an object M computes in
    Python integers."""
    rows = np.empty((count, M.shape[0]), dtype=M.dtype)
    rows[0] = first
    n = 1
    while n < count:
        take = min(n, count - n)
        rows[n : n + take] = rows[:take] @ M % modulus
        n += take
        if n < count:
            M = M @ M % modulus
    return rows


class PackedField:
    """Arithmetic core shared by BaseField and ResidueField."""

    def __init__(self, p: int, m: int, mul0, gen_candidates):
        self.p = p
        self.m = m
        self.size = p**m
        self.order = self.size - 1
        if self.size > MAX_FIELD_SIZE:
            raise FieldError(
                f"field size {self.size} exceeds supported limit {MAX_FIELD_SIZE}"
            )
        self._build_tables(mul0, gen_candidates)

    # -- construction -------------------------------------------------

    def _pow0(self, mul0, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = mul0(r, a)
            a = mul0(a, a)
            e >>= 1
        return r

    def _build_tables(self, mul0, gen_candidates) -> None:
        order = self.order
        factors = _prime_factors(order) if order > 1 else ()
        gen = 1
        if order > 1:
            for cand in gen_candidates:
                if cand in (0, 1):
                    continue
                if all(self._pow0(mul0, cand, order // ell) != 1 for ell in factors):
                    gen = cand
                    break
            else:  # pragma: no cover - a generator always exists
                raise FieldError("no multiplicative generator found")
        self.generator = gen

        p, m, size = self.p, self.m, self.size
        unpack = np.zeros((size, m), dtype=np.int16)
        vals = np.arange(size)
        for i in range(m):
            unpack[:, i] = (vals // p**i) % p
        self._unpack = unpack
        self._packw = (p ** np.arange(m)).astype(np.int64)
        if p != 2:
            digs = (p - unpack) % p
            self._neg_t = (digs.astype(np.int64) @ self._packw).astype(np.int32)
            self._neg_t.setflags(write=False)
        else:
            self._neg_t = None

        # multiplication by gen is F_p-linear; row i of M holds the
        # coordinates of p^i * gen, so the coordinates of gen^j are row 0
        # of M^j and power_rows fills all of them in log2(order) steps
        M = unpack[[mul0(p**i, gen) for i in range(m)]].astype(np.int64)
        exp = (power_rows(unpack[1], M, order, p) @ self._packw).astype(np.int32)
        seen = np.zeros(size, dtype=bool)
        seen[exp] = True
        if seen[0] or not seen[1:].all():
            raise FieldError("generator does not enumerate the unit group")
        if mul0(int(exp[-1]), gen) != 1:
            raise FieldError("exp table does not close: gen^(order-1) * gen != 1")
        log = np.zeros(size, dtype=np.int32)
        log[exp] = np.arange(order, dtype=np.int32)
        inv = exp[(order - log) % order]
        inv[0] = 0
        frobq = exp[log.astype(np.int64) * self.frob_exponent % order]
        frobq[0] = 0
        self._exp = exp.tolist()
        self._log = log.tolist()
        self._inv_t = inv.tolist()
        self._npexp = exp
        self._nplog = log
        self._npfrobq = frobq
        # Zero-aware pair: the log of 0 is the sentinel 2*order, and every
        # sum involving it indexes the zero tail of _zexp, so a product of
        # packed arrays is one add and one gather, with no mod and no mask.
        self._zlog = self._nplog.copy()
        self._zlog[0] = 2 * order
        self._zexp = np.concatenate((self._npexp, self._npexp, np.zeros(2 * order + 1, np.int32)))
        for arr in (self._npexp, self._nplog, self._zlog, self._zexp, self._npfrobq, self._unpack):
            arr.setflags(write=False)

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
        return self._inv_t[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        if self.order == 0:
            return 1
        return self._exp[(self._log[a] * e) % self.order]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("discrete log of zero")
        return self._log[a]

    def exp_of(self, j: int) -> int:
        return self._exp[j % self.order] if self.order else 1

    def coords(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def elements(self) -> range:
        return range(self.size)

    # -- vectorized operations (packed int32 numpy arrays) -------------

    def varr(self, values) -> np.ndarray:
        return np.asarray(values, dtype=np.int32)

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        digs = (self._unpack[a].astype(np.int64) + self._unpack[b]) % self.p
        return (digs @ self._packw).astype(np.int32)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a
        return self._neg_t[a]

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vadd(a, self.vneg(b))

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._zexp[self._zlog[np.asarray(a)] + self._zlog[np.asarray(b)]]

    def vscale(self, c: int, a: np.ndarray) -> np.ndarray:
        if c == 0:
            return np.zeros_like(a)
        if c == 1:
            return a.copy()
        return self._zexp[self._zlog[a] + self._log[c]]

    def vsum(self, a: np.ndarray, axis: int = 0) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        digs = self._unpack[a].sum(axis=axis, dtype=np.int64) % self.p
        return (digs @ self._packw).astype(np.int32)

    def vfrobq(self, a: np.ndarray) -> np.ndarray:
        return self._npfrobq[a]


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

            cands = itertools.chain((p,), range(2, p**r))
        super().__init__(p, r, mul0, cands)
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
    the (packed) coefficient of t^i.
    """

    def __init__(self, base: BaseField, prime_coeffs: tuple[int, ...]):
        self.base = base
        self.prime_coeffs = prime_coeffs
        self.d = len(prime_coeffs) - 1
        q = base.size
        self.q = q  # before table build: frob_exponent reads it
        mod = list(prime_coeffs)

        def mul0(a, b, base=base, mod=mod, q=q, d=self.d):
            prod = _pl_mul(base, _digits(a, q, d), _digits(b, q, d))
            rem = _pl_rem(base, prod, mod)
            return sum(c * q**i for i, c in enumerate(rem))

        super().__init__(base.p, base.r * self.d, mul0, range(2, q**self.d))
        if self.d == 1:
            self.t_res = base.neg(prime_coeffs[0])
        else:
            self.t_res = q  # the class of t packs to q: digit 1 in slot 1

    @property
    def frob_exponent(self) -> int:
        return self.q

    def lift_coeffs(self, v: int) -> tuple[int, ...]:
        """Coefficients over F_q of the degree-< d representative."""
        return tuple(_digits(v, self.q, self.d))

    def reduce_list(self, coeffs) -> int:
        rem = _pl_rem(self.base, list(coeffs), list(self.prime_coeffs))
        return sum(c * self.q**i for i, c in enumerate(rem))

    def degree_of(self, v: int) -> int:
        """Degree of the canonical representative (v nonzero)."""
        if v == 0:
            raise FieldError("zero residue has no representative degree")
        d = 0
        q = self.q
        while v >= q:
            v //= q
            d += 1
        return d

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


@functools.lru_cache(maxsize=None)
def _residue_cached(p, r, modulus, prime_coeffs) -> ResidueField:
    return ResidueField(_fq_cached(p, r, modulus), prime_coeffs)


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
    if not _pl_is_irreducible(base, list(coeffs)):
        raise FieldError("polynomial is not irreducible")
    return _residue_cached(base.p, base.r, base.modulus, coeffs)
