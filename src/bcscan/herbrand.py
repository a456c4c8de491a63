"""Eigenspace classification and the irregular-prime scan.

For a prime f of degree d over F_q, Q = q^d, the eigenspaces in play
are indexed by powers n of the Teichmuller character with 0 < n < Q-1.
Only multiples of q-1 can carry anything; for those the Bernoulli-
Carlitz residue at n decides whether the eigenspace of the cyclotomic
H^1 is trivial, and the Witt-vector L-value decides whether it is
exactly one-dimensional:

    BC_n a unit        -> dim 0
    BC_n = 0, v(L) = 0 -> dim 1
    BC_n = 0, v(L) > 0 -> dim >= 1   (a lower bound, not an equality)

A prime is irregular when at least one in-scope index has BC_n = 0.

Indices with (q-1) not dividing n get no dimension claim at all: BC_n
is identically zero there for trivial support reasons, and the theorem
range stops at multiples of q-1.  Reports still carry raw data for
them (the valuation of the unnormalized character sum S_n(1)) so the
off-scope landscape can be inspected without any interpretation being
attached.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .carlitz import bc_numbers, irregular_indices
from .fields import BaseField, ConsistencyError, FieldError, fq_make
from .lseries import character_context, l_report, pic_eigenspace_length
from .localfield import LocalSweep, bc_local_sweep, check_local_size, local_model
from .poly import Poly, monic_irreducibles, poly_to_str, residue_field

DIM_ZERO = "0"
DIM_ONE = "1"
DIM_AT_LEAST_ONE = ">=1"
OUT_OF_SCOPE = "out-of-scope"

THREADS_ENV = "BCSCAN_THREADS"


@dataclass(frozen=True)
class ScanOptions:
    precision: int = 12
    check_local: bool = False
    cross_check: bool = False
    threads: int | None = None
    include_timings: bool = False
    witt_lift_offsets: tuple[int, ...] | None = None


@dataclass(frozen=True)
class IndexClassification:
    n: int
    q_minus_1_divides: bool
    bc_divisible: bool
    pic_length: int | None
    h1_dim: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PrimeReport:
    q: int
    prime: str
    degree: int
    irregular_indices: tuple[int, ...]
    witt_precision: int
    classifications: tuple[IndexClassification, ...]
    timings: dict | None = None


@dataclass(frozen=True)
class ScanResult:
    q: int
    fq_modulus: str | None
    max_degree: int
    precision: int
    primes_scanned: int
    reports: tuple[PrimeReport, ...]


class PrimeContext:
    """What classification needs at one prime, built once: the residue
    field, the Bernoulli-Carlitz vector and the options.  The local
    sweep is built on first use, which only check_local asks for; its
    size bound is checked first."""

    def __init__(self, prime: Poly, options: ScanOptions):
        if options.check_local:
            check_local_size(prime.field.size**prime.degree)
        self.prime = prime
        self.options = options
        self.rf = residue_field(prime)
        self.bc = bc_numbers(self.rf)

    @functools.cached_property
    def sweep(self) -> LocalSweep:
        return bc_local_sweep(local_model(self.prime))


def classify_index(
    at: Poly | PrimeContext, n: int, options: ScanOptions | None = None
) -> IndexClassification:
    """Classify a single character power at a prime; any 0 < n < Q-1.

    ``at`` is a prime, classified under ``options``, or the context of
    one, which carries its own options.  In-scope n (multiples of q-1)
    always get a pic_length, whether or not BC_n vanishes; the
    L-valuation at a regular index carries no dimension information but
    is honest data.  bc_divisible means an in-scope divisibility event:
    for (q-1) not dividing n the residue is zero for support reasons and
    the flag stays False.
    """
    ctx = at if isinstance(at, PrimeContext) else PrimeContext(at, options or ScanOptions())
    options, rf = ctx.options, ctx.rf
    order = rf.size - 1
    if not 0 < n < order:
        raise FieldError(f"character power must satisfy 0 < n < {order}")
    if n % (rf.q - 1) != 0:
        chars = character_context(rf, options.precision, options.witt_lift_offsets)
        s1_valuation = chars.valuation(n)
        if options.cross_check and chars.W.valuation(l_report(chars, n).s_at_one) != s1_valuation:
            raise ConsistencyError(f"graded S_{n}(1) and the valuation table disagree")
        diag = {"s1_valuation": s1_valuation}
        return IndexClassification(n, False, False, None, OUT_OF_SCOPE, diag)
    residue = int(ctx.bc.values[n])
    diag = {"bc_residue": residue}
    if options.check_local and 2 <= n <= rf.size - 2:
        diag["local_component_vanished"] = ctx.sweep.vanished[n]
        if ctx.sweep.values[n] != residue:
            raise ConsistencyError(
                f"local extraction and power-series route disagree at n={n}"
            )
    pic = pic_eigenspace_length(
        rf, n, k=options.precision, lift_offsets=options.witt_lift_offsets
    )
    if options.cross_check:
        # polynomial route recomputes S_n, checks its exact vanishing at
        # T=1 and the prefix-sum L against the closed form internally
        chars = character_context(rf, options.precision, options.witt_lift_offsets)
        rep = l_report(chars, n)
        diag["l_valuation_graded"] = chars.W.valuation(rep.l_value)
        if diag["l_valuation_graded"] != min(pic, options.precision):
            raise ConsistencyError(f"graded L_{n} and the valuation table disagree")
    if residue != 0:
        return IndexClassification(n, True, False, pic, DIM_ZERO, diag)
    return IndexClassification(
        n, True, True, pic, DIM_ONE if pic == 0 else DIM_AT_LEAST_ONE, diag
    )


def classify_prime(prime: Poly, options: ScanOptions | None = None) -> PrimeReport:
    """Full per-index report for one prime: every 1 <= n <= q^d - 2."""
    options = options or ScanOptions()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    ctx = PrimeContext(prime, options)
    rf = ctx.rf
    irr = sorted(irregular_indices(ctx.bc))
    timings["bc"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    # a module-level call, so a wrapper patched onto
    # herbrand.classify_index sees every index
    classifications = tuple(classify_index(ctx, n) for n in range(1, rf.size - 1))
    timings["classify"] = time.perf_counter() - t0
    return PrimeReport(
        q=rf.q,
        prime=poly_to_str(prime),
        degree=prime.degree,
        irregular_indices=tuple(irr),
        witt_precision=options.precision,
        classifications=classifications,
        timings=timings if options.include_timings else None,
    )


def _requested_threads(options: ScanOptions) -> int:
    """The requested worker count: the option, else the environment,
    else 1.  An environment value must be an integer of at least 1."""
    if options.threads is not None:
        return options.threads
    env = os.environ.get(THREADS_ENV)
    if not env:
        return 1
    try:
        requested = int(env)
    except ValueError:
        raise FieldError(f"{THREADS_ENV} must be an integer, got {env!r}")
    if requested < 1:
        raise FieldError(f"{THREADS_ENV} must be at least 1, got {env!r}")
    return requested


def _resolve_threads(options: ScanOptions, jobs: int) -> int:
    """Worker count: the requested one, at most os.cpu_count() and at
    most ``jobs``, and at least 1."""
    return max(1, min(_requested_threads(options), os.cpu_count() or 1, jobs))


def fq_modulus_str(base: BaseField) -> str | None:
    """The modulus of a non-prime F_q over F_p as text in x; None for F_p."""
    if base.r == 1:
        return None
    return poly_to_str(Poly.make(fq_make(base.p, 1), base.modulus), var="x")


def _classify_worker(payload):
    p, r, modulus, coeffs, options = payload
    F = fq_make(p, r, modulus)
    return classify_prime(Poly.make(F, coeffs), options)


def scan(base: BaseField, max_degree: int, options: ScanOptions | None = None) -> ScanResult:
    """Classify every monic irreducible of degree <= max_degree; the
    result keeps a report per irregular prime, in canonical order."""
    options = options or ScanOptions()
    if max_degree < 1:
        raise FieldError("max_degree must be at least 1")
    if base.size**max_degree > 1 << 16:
        raise FieldError("residue fields beyond 2^16 elements are not supported")
    if options.check_local:
        check_local_size(base.size**max_degree)
    _requested_threads(options)  # refuse a bad environment value before enumerating
    primes = [f for d in range(1, max_degree + 1) for f in monic_irreducibles(base, d)]
    threads = _resolve_threads(options, len(primes))
    if threads > 1:
        payloads = [
            (base.p, base.r, base.modulus, f.coeffs, options) for f in primes
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            all_reports = list(pool.map(_classify_worker, payloads, chunksize=8))
    else:
        all_reports = [classify_prime(f, options) for f in primes]
    reports = tuple(r for r in all_reports if r.irregular_indices)
    return ScanResult(
        q=base.size,
        fq_modulus=fq_modulus_str(base),
        max_degree=max_degree,
        precision=options.precision,
        primes_scanned=len(primes),
        reports=reports,
    )


def strip_timings(result: ScanResult) -> ScanResult:
    if all(r.timings is None for r in result.reports):
        return result
    return replace(
        result, reports=tuple(replace(r, timings=None) for r in result.reports)
    )


def validate_report(result: ScanResult) -> None:
    """Internal coherence of a scan result; raises ConsistencyError."""
    if result.primes_scanned < len(result.reports):
        raise ConsistencyError("more irregular reports than primes scanned")
    q = result.q
    seen = set()
    for rep in result.reports:
        if rep.q != q:
            raise ConsistencyError("mixed base fields in one scan result")
        if not 1 <= rep.degree <= result.max_degree:
            raise ConsistencyError(f"prime degree {rep.degree} outside the scan range")
        if rep.prime in seen:
            raise ConsistencyError(f"duplicate prime {rep.prime}")
        seen.add(rep.prime)
        order = q**rep.degree - 1
        if tuple(c.n for c in rep.classifications) != tuple(range(1, order)):
            raise ConsistencyError("classification list does not cover 1..q^d-2 in order")
        derived = tuple(c.n for c in rep.classifications if c.bc_divisible)
        if derived != rep.irregular_indices:
            raise ConsistencyError("irregular index set does not match its classifications")
        for c in rep.classifications:
            if c.q_minus_1_divides != (c.n % (q - 1) == 0):
                raise ConsistencyError(f"divisibility flag wrong at n={c.n}")
            if not c.q_minus_1_divides:
                if c.h1_dim != OUT_OF_SCOPE or c.bc_divisible or c.pic_length is not None:
                    raise ConsistencyError(f"off-scope index n={c.n} carries claims")
                continue
            if not isinstance(c.pic_length, int) or c.pic_length < 0:
                raise ConsistencyError(f"in-scope index n={c.n} lacks a pic length")
            if not c.bc_divisible:
                expected = DIM_ZERO
            else:
                expected = DIM_ONE if c.pic_length == 0 else DIM_AT_LEAST_ONE
            if c.h1_dim != expected:
                raise ConsistencyError(f"dimension label at n={c.n} is inconsistent")
