"""Truncated Witt vectors of a residue field: W_k = (Z/p^k)[x]/(g).

For a residue field with p^m elements, g lifts the minimal polynomial
over F_p of a primitive element theta, so W_k is the length-k truncation
of the unramified extension of Z_p with that residue field.  Elements
are coordinate tuples against 1, x, ..., x^(m-1) with entries in Z/p^k.

The two operations everything else needs are exact Teichmuller lifts
(the unique (p^m - 1)-th root of unity over a given residue) and p-adic
valuation of elements, both used by the L-value layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldError, ResidueField


class PrecisionError(ArithmeticError):
    """A quantity stayed indistinguishable from zero at the precision cap."""


MAX_PRECISION = 96


def _gauss_inverse_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    m = len(rows)
    aug = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] % p), None)
        if piv is None:
            raise FieldError("basis matrix is singular mod p")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return [r[m:] for r in aug]


class WittRing:
    def __init__(self, rf: ResidueField, k: int):
        if not 1 <= k <= MAX_PRECISION:
            raise FieldError(f"precision must be in 1..{MAX_PRECISION}")
        self.rf = rf
        self.p = rf.p
        self.m = rf.m
        self.k = k
        self.pk = rf.p**k
        self.theta = self._find_theta()
        self.modulus = self._minimal_polynomial(self.theta)
        self._build_basis()

    # -- residue-side setup -----------------------------------------------

    def _orbit_size(self, v: int) -> int:
        seen = v
        cur = self.rf.pow(v, self.p)
        size = 1
        while cur != seen:
            cur = self.rf.pow(cur, self.p)
            size += 1
        return size

    def _find_theta(self) -> int:
        rf = self.rf
        candidates = [rf.t_res]
        if rf.base.r >= 2:
            a_img = rf.base.a_packed
            for c in range(1, self.p):
                candidates.append(rf.add(rf.t_res, rf.mul(c, a_img)))
        for v in candidates:
            if self._orbit_size(v) == self.m:
                return v
        for v in rf.elements():
            if self._orbit_size(v) == self.m:
                return v
        raise FieldError("no primitive element found")  # pragma: no cover

    def _minimal_polynomial(self, theta: int) -> tuple[int, ...]:
        # product of (x - theta^(p^i)) over the p-power orbit; the result
        # must have prime-subfield coefficients, i.e. packed values < p
        rf = self.rf
        coeffs = [1]
        cur = theta
        for _ in range(self.m):
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = rf.add(nxt[i + 1], c)
                nxt[i] = rf.add(nxt[i], rf.mul(rf.neg(cur), c))
            coeffs = nxt
            cur = rf.pow(cur, self.p)
        if any(c >= self.p for c in coeffs):
            raise FieldError("minimal polynomial left the prime subfield")
        return tuple(coeffs)

    def _build_basis(self):
        rf = self.rf
        pows = [1]
        for _ in range(self.m - 1):
            pows.append(rf.mul(pows[-1], self.theta))
        self.theta_pows = tuple(pows)
        cols = [list(rf.coords(v)) for v in pows]
        # rows[i][j] = F_p-coordinate i of theta^j
        rows = [[cols[j][i] for j in range(self.m)] for i in range(self.m)]
        self._basis_inv = _gauss_inverse_mod_p(rows, self.p)

    # -- element plumbing ---------------------------------------------------

    def zero(self) -> "WittElem":
        return WittElem(self, (0,) * self.m)

    def one(self) -> "WittElem":
        return WittElem(self, (1,) + (0,) * (self.m - 1))

    def from_coords(self, coords) -> "WittElem":
        return WittElem(self, tuple(int(c) % self.pk for c in coords))

    def theta_coords(self, v: int) -> tuple[int, ...]:
        """F_p-coordinates of a residue element against the theta basis."""
        vec = self.rf.coords(v)
        return tuple(
            sum(self._basis_inv[i][j] * vec[j] for j in range(self.m)) % self.p
            for i in range(self.m)
        )

    def lift(self, v: int) -> "WittElem":
        """A lift of a residue element: digit 0 is exact, higher digits
        are free, and this one leaves them 0."""
        return self.from_coords(self.theta_coords(v))

    def reduce_p(self, w: "WittElem") -> int:
        """Image in the residue field."""
        rf = self.rf
        acc = 0
        for c, pw in zip(w.coords, self.theta_pows):
            acc = rf.add(acc, rf.mul(c % self.p, pw))
        return acc

    def teichmuller(self, v: int) -> "WittElem":
        """The unique root of unity (or 0) over the residue v, iterated
        from ``lift(v)``; the result does not depend on that lift."""
        y = self.lift(v)
        e = self.p**self.m
        for _ in range(self.k + 2):
            y2 = y**e
            if y2 == y:
                if self.reduce_p(y) != v:
                    raise FieldError("Teichmuller lift drifted off its residue")
                return y
            y = y2
        raise FieldError("Teichmuller iteration failed to stabilize")

    def valuation(self, w: "WittElem") -> int:
        """Largest j <= k with w in p^j W_k; k means 0 at this precision."""
        best = self.k
        for c in w.coords:
            if c == 0:
                continue
            v = 0
            while c % self.p == 0:
                c //= self.p
                v += 1
            best = min(best, v)
            if best == 0:
                break
        return best

    def __repr__(self) -> str:
        return f"W_{self.k}(F_{self.p}^{self.m})"


@dataclass(frozen=True)
class WittElem:
    ring: WittRing
    coords: tuple[int, ...]

    def __add__(self, other: "WittElem") -> "WittElem":
        pk = self.ring.pk
        return WittElem(self.ring, tuple((a + b) % pk for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "WittElem":
        pk = self.ring.pk
        return WittElem(self.ring, tuple((-a) % pk for a in self.coords))

    def __sub__(self, other: "WittElem") -> "WittElem":
        pk = self.ring.pk
        return WittElem(self.ring, tuple((a - b) % pk for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other: "WittElem") -> "WittElem":
        ring = self.ring
        m, pk, mod = ring.m, ring.pk, ring.modulus
        conv = [0] * (2 * m - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i]
            if c:
                conv[i] = 0
                for j in range(m):
                    conv[i - m + j] -= c * mod[j]
        return WittElem(ring, tuple(v % pk for v in conv[:m]))

    def __pow__(self, e: int) -> "WittElem":
        if e < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return f"WittElem{self.coords}"
