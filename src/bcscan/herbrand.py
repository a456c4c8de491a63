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

One route classifies a prime from its residue field: the BC vector,
then a report holding the classification as columns over n, filled in
whole-array steps.  ``scan`` takes a base field and a degree bound, and
builds each enumerated prime's field untested, by relabelling the one
field its degree was enumerated in; ``classify_prime`` takes a prime,
and ``classify_index`` a prime or a report, and a prime is tested and
its field searched first.  An ``IndexClassification`` is a view of one
index.  The BC vector alone shows a prime regular, so a scan builds the
character tables and classifies only at irregular primes, unless a
check flag asks for every prime to be checked.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing.context import SpawnContext, SpawnProcess

import numpy as np

from .carlitz import bc_numbers, irregular_indices
from .fields import MAX_FIELD_SIZE, BaseField, ConsistencyError, FieldError, ResidueField, _fq_cached, fq_make
from .lseries import _valuation_table, character_context, l_report, pic_eigenspace_length
from .localfield import LocalModel, bc_local_sweep, check_local_size
from .poly import Poly, monic_irreducibles, poly_to_str, residue_field
from .witt import MAX_PRECISION

DIM_ZERO = "0"
DIM_ONE = "1"
DIM_AT_LEAST_ONE = ">=1"
OUT_OF_SCOPE = "out-of-scope"

THREADS_ENV = "BCSCAN_THREADS"

# BLAS reads its thread count once, when numpy loads it; a worker starts
# with these set, so N workers do not each run a pool as wide as the host
WORKER_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class ScanOptions:
    precision: int = 12
    check_local: bool = False
    cross_check: bool = False
    threads: int | None = None
    include_timings: bool = False


@dataclass(frozen=True)
class IndexClassification:
    n: int
    q_minus_1_divides: bool
    bc_divisible: bool
    pic_length: int | None
    h1_dim: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class PrimeReport:
    """One prime's classification as columns over n = 1 .. Q-2, entry
    i holding n = i + 1:

    - ``bc_residues``: BC_n as a packed residue, 0 off scope;
    - ``valuations``: v(L_n) in scope, escalated past witt_precision
      where the table saturates; v(S_n(1)) off scope, capped at it;
    - ``local_vanished``: under check_local, whether the n-th dlog
      component vanished, at in-scope 2 <= n <= Q-2 (False elsewhere);
      None when not asked for or when no index has it;
    - ``cross_checked``: the graded route re-derived each valuation.

    Every field of an IndexClassification follows from these.
    """

    q: int
    prime: str
    degree: int
    irregular_indices: tuple[int, ...]
    witt_precision: int
    bc_residues: np.ndarray
    valuations: np.ndarray
    local_vanished: np.ndarray | None = None
    cross_checked: bool = False

    def __eq__(self, other):
        if not isinstance(other, PrimeReport):
            return NotImplemented
        scalars = lambda r: (r.q, r.prime, r.degree, r.irregular_indices, r.witt_precision,
                             r.cross_checked, r.local_vanished is None)
        return (
            scalars(self) == scalars(other)
            and np.array_equal(self.bc_residues, other.bc_residues)
            and np.array_equal(self.valuations, other.valuations)
            and (self.local_vanished is None
                 or np.array_equal(self.local_vanished, other.local_vanished))
        )

    @property
    def in_scope(self) -> np.ndarray:
        return np.arange(1, len(self.valuations) + 1) % (self.q - 1) == 0

    def classification(self, n: int) -> IndexClassification:
        """The view of one index, 0 < n < Q-1."""
        if not 0 < n <= len(self.valuations):
            raise FieldError(f"character power must satisfy 0 < n < {len(self.valuations) + 1}")
        v = int(self.valuations[n - 1])
        if n % (self.q - 1):
            return IndexClassification(n, False, False, None, OUT_OF_SCOPE, {"s1_valuation": v})
        residue = int(self.bc_residues[n - 1])
        diag = {"bc_residue": residue}
        if self.local_vanished is not None and n >= 2:
            diag["local_component_vanished"] = bool(self.local_vanished[n - 1])
        if self.cross_checked:
            diag["l_valuation_graded"] = min(v, self.witt_precision)
        if residue != 0:
            return IndexClassification(n, True, False, v, DIM_ZERO, diag)
        return IndexClassification(n, True, True, v, DIM_ONE if v == 0 else DIM_AT_LEAST_ONE, diag)

    @property
    def classifications(self) -> tuple[IndexClassification, ...]:
        """Every index as a view, built on each access."""
        return tuple(self.classification(n) for n in range(1, len(self.valuations) + 1))


@dataclass(frozen=True)
class ScanResult:
    """A scan's header and its reports, one per irregular prime in
    canonical order.  From ``scan`` the reports are a one-pass iterator
    that classifies each prime as it is drawn."""

    q: int
    fq_modulus: str | None
    max_degree: int
    precision: int
    primes_scanned: int
    reports: Iterable[PrimeReport]


def _timed(seconds: dict, step: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    seconds[step] = time.perf_counter() - t0
    return out


def _write_timing(prime: Poly, seconds: dict) -> None:
    """A prime's timing line on stderr: the seconds of each step that ran
    at it, of ``field`` (its residue field), ``bc`` and ``classify``.
    Workers share stderr, so the line and its newline go in one write:
    print writes them apart, and another worker's line can land between."""
    parts = "".join(f" {step}={s:.6f}s" for step, s in seconds.items())
    sys.stderr.write(f"timing {poly_to_str(prime)}:{parts}\n")
    sys.stderr.flush()


def _check_options(options: ScanOptions, size: int) -> None:
    """Refuse, before any field is built, fewer than one thread, a precision
    outside 1..MAX_PRECISION, and check_local at fields of ``size`` elements."""
    if options.threads is not None and options.threads < 1:
        raise FieldError(f"threads must be at least 1, got {options.threads}")
    if not 1 <= options.precision <= MAX_PRECISION:
        raise FieldError(f"precision must be in 1..{MAX_PRECISION}, got {options.precision}")
    if options.check_local:
        check_local_size(size)


def _classified(rf: ResidueField, options: ScanOptions, checked, seconds: dict,
                keep_regular: bool) -> PrimeReport | None:
    """The BC vector, then the report at an irregular prime, or at any
    under ``keep_regular``, else None; the ``bc`` and ``classify`` seconds
    go into ``seconds``.  Saturated valuations are escalated, and the
    local and graded checks run, at the indices in ``checked`` only."""
    bc_vector = _timed(seconds, "bc", bc_numbers, rf)
    irregular = tuple(sorted(irregular_indices(bc_vector)))
    if not (irregular or keep_regular):
        return None
    start = time.perf_counter()
    q, Q, k = rf.q, rf.size, options.precision
    scope = np.arange(1, Q - 1) % (q - 1) == 0
    bc = np.array(bc_vector.values[1 : Q - 1], dtype=np.int64)
    valuations = _valuation_table(rf, k)[1:].copy()
    idx = np.asarray(checked, dtype=np.int64) - 1
    for i in idx[scope[idx] & (valuations[idx] == k)]:  # k means "zero as far as W_k sees"
        valuations[i] = pic_eigenspace_length(rf, int(i) + 1, k=k)
    # a column or flag is kept only where some index shows it, so the
    # JSON, which shows it per index, reads back to the same report
    local = None
    local_ns = range(max(2, q - 1), Q - 1, q - 1)
    if options.check_local and local_ns:
        sweep = bc_local_sweep(LocalModel(rf))
        local = np.zeros(Q - 2, dtype=bool)
        local[np.array(local_ns) - 1] = [sweep.vanished[n] for n in local_ns]
        for n in checked:
            if n in local_ns and sweep.values[n] != bc[n - 1]:
                raise ConsistencyError(f"local extraction and power-series route disagree at n={n}")
    if options.cross_check:
        # the polynomial route recomputes S_n, checks its exact vanishing
        # at T=1 and the prefix-sum L against the closed form internally
        chars = character_context(rf, k)
        for n in checked:
            rep = l_report(chars, n)
            value, what = (rep.l_value, f"L_{n}") if rep.in_scope else (rep.s_at_one, f"S_{n}(1)")
            if chars.W.valuation(value) != chars.valuation(n):
                raise ConsistencyError(f"graded {what} and the valuation table disagree")
    report = PrimeReport(
        q, poly_to_str(Poly(rf.base, rf.prime_coeffs)), rf.d, irregular, k, bc, valuations,
        local_vanished=local, cross_checked=options.cross_check and Q - 2 >= q - 1,
    )
    seconds["classify"] = time.perf_counter() - start
    return report


def _tested_report(prime: Poly, options: ScanOptions | None, n: int | None) -> PrimeReport:
    """The report at a prime from outside the enumerator, which
    ``residue_field`` tests, checked at index ``n`` only or, for None, at
    every index; under include_timings it writes its timing line."""
    options = options or ScanOptions()
    order = prime.field.size**prime.degree - 1
    _check_options(options, order + 1)
    if n is not None and not 0 < n < order:
        raise FieldError(f"character power must satisfy 0 < n < {order}")
    seconds = {}
    rf = _timed(seconds, "field", residue_field, prime)
    report = _classified(rf, options, range(1, order) if n is None else (n,), seconds, True)
    if options.include_timings:
        _write_timing(prime, seconds)
    return report


def classify_index(
    at: Poly | PrimeReport, n: int, options: ScanOptions | None = None
) -> IndexClassification:
    """Classify a single character power at a prime; any 0 < n < Q-1.

    ``at`` is a prime, classified under ``options`` as by classify_prime
    but with the check flags checking index n only, or a report, read as
    it stands.  The result is a view of the prime's columns.  In-scope n
    (multiples of q-1) always get a pic_length, whether or not BC_n
    vanishes; the L-valuation at a regular index carries no dimension
    information but is honest data.  bc_divisible means an in-scope
    divisibility event: for (q-1) not dividing n the residue is zero for
    support reasons and the flag stays False.
    """
    if isinstance(at, PrimeReport):
        return at.classification(n)
    return _tested_report(at, options, n).classification(n)


def classify_prime(prime: Poly, options: ScanOptions | None = None) -> PrimeReport:
    """Full per-index report for one prime, every 1 <= n <= q^d - 2,
    regular or not.  ``prime`` is a monic polynomial, tested for
    irreducibility before its field is built; under include_timings its
    timing line is written, as a scanned prime's is."""
    return _tested_report(prime, options, None)


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


class _WorkerProcess(SpawnProcess):
    """A spawned worker whose environment holds WORKER_BLAS_ENV from its
    first instruction.  A spawned child inherits the parent's
    environment, so os.environ holds those values while the child
    starts and is restored after: another thread of the parent that
    reads the environment meanwhile sees them.  Being spawned, a worker
    imports the parent's main module, so a script that scans with more
    than one thread needs an ``if __name__ == "__main__":`` guard."""

    _env_lock = threading.Lock()

    def start(self):
        with self._env_lock:
            saved = {key: os.environ.get(key) for key in WORKER_BLAS_ENV}
            os.environ.update(WORKER_BLAS_ENV)
            try:
                super().start()
            finally:
                for key, value in saved.items():
                    if value is None:
                        os.environ.pop(key, None)
                    else:
                        os.environ[key] = value


class _WorkerContext(SpawnContext):
    Process = _WorkerProcess


def _worker_pool(threads: int) -> ProcessPoolExecutor:
    """The process pool a scan runs its primes on."""
    return ProcessPoolExecutor(max_workers=threads, mp_context=_WorkerContext())


def _scan_prime(home: ResidueField, prime: Poly, a: int, options: ScanOptions) -> PrimeReport | None:
    """The report at an irregular prime, None at a regular one, which a
    check flag still classifies, for its checks.  The prime comes from
    the enumerator with its root a in ``home``, the one field of its
    degree (``monic_irreducibles``), so its own field is home relabelled
    by t -> a, untested.  Nothing the field holds refers back to it, so
    reference counting frees it and all its tables when this returns.  No
    multiple of q - 1 lies strictly between 0 and q - 1, so a prime of
    degree one is regular and gets no field unless a check flag asks
    for one.  The process that scans a prime writes its timing line; its
    ``field`` step is the relabelling."""
    checks = options.check_local or options.cross_check
    seconds, report = {}, None
    if prime.degree > 1 or checks:
        rf = _timed(seconds, "field", ResidueField.relabelled, home, prime.coeffs, a)
        report = _classified(rf, options, range(1, rf.size - 1), seconds, checks)
    if options.include_timings:
        _write_timing(prime, seconds)
    return report if report is not None and report.irregular_indices else None


@functools.lru_cache(maxsize=1)
def _home_field(p: int, r: int, modulus: tuple[int, ...], f0: tuple[int, ...]) -> ResidueField:
    """A worker's field for the degree of f0, the first prime of that
    degree: F_q[t]/(f0), as ``monic_irreducibles`` builds it.  A worker
    takes its chunks of primes in order, so it builds each degree's
    field once and holds one at a time.  The modulus and f0 come from a
    scan's base field and enumerator, so neither is tested again here."""
    return ResidueField(_fq_cached(p, r, modulus), f0)


def _scan_worker(payload):
    p, r, modulus, f0, coeffs, a, options = payload
    home = _home_field(p, r, modulus, f0)
    return _scan_prime(home, Poly(_fq_cached(p, r, modulus), coeffs), a, options)


def _irregular_reports(base: BaseField, degrees: list, options: ScanOptions, threads: int):
    """Each irregular prime's report in order, from the primes of each
    degree as ``monic_irreducibles`` lists them.  Each prime's tables
    are dropped before the next prime, and each degree's field once its
    primes are scanned or sent to the workers."""
    if threads == 1:
        while degrees:
            primes = degrees.pop(0)
            for f, a in zip(primes, primes.roots.tolist()):
                report = _scan_prime(primes.home, f, a, options)
                if report is not None:
                    yield report
        return
    payloads = [(base.p, base.r, base.modulus, primes[0].coeffs, f.coeffs, a, options)
                for primes in degrees for f, a in zip(primes, primes.roots.tolist())]
    degrees.clear()
    pool = _worker_pool(threads)
    try:
        for report in pool.map(_scan_worker, payloads, chunksize=8):
            if report is not None:
                yield report
    finally:
        # a reader that stops early, or SIGTERM, leaves chunks queued:
        # they are dropped, not run, before the workers are joined
        pool.shutdown(cancel_futures=True)


def scan(base: BaseField, max_degree: int, options: ScanOptions | None = None) -> ScanResult:
    """Classify every monic irreducible of degree <= max_degree; the
    result yields a report per irregular prime, in canonical order.  The
    arguments are checked and the primes enumerated at once; the
    reports are a one-pass iterator, each prime classified as it is
    drawn."""
    options = options or ScanOptions()
    if max_degree < 1:
        raise FieldError("max_degree must be at least 1")
    # q >= 2, so a degree above log2 of the cap is over it before q^max_degree is formed
    log2_cap = MAX_FIELD_SIZE.bit_length() - 1
    if max_degree > log2_cap or base.size**max_degree > MAX_FIELD_SIZE:
        raise FieldError(f"residue fields beyond 2^{log2_cap} elements are not supported")
    _check_options(options, base.size**max_degree)
    _requested_threads(options)  # refuse a bad environment value before enumerating
    degrees = [monic_irreducibles(base, d) for d in range(1, max_degree + 1)]
    primes_scanned = sum(map(len, degrees))
    threads = _resolve_threads(options, primes_scanned)
    return ScanResult(
        q=base.size,
        fq_modulus=fq_modulus_str(base),
        max_degree=max_degree,
        precision=options.precision,
        primes_scanned=primes_scanned,
        reports=_irregular_reports(base, degrees, options, threads),
    )


def validated(result: ScanResult) -> ScanResult:
    """The same result, each report checked as it is drawn, as
    validate_report checks it."""
    return replace(result, reports=_checked_reports(result))


def validate_report(result: ScanResult) -> None:
    """Internal coherence of a scan result; raises ConsistencyError.
    A one-pass result is drawn to its end."""
    for _ in _checked_reports(result):
        pass


def _checked_reports(result: ScanResult):
    seen: set[str] = set()
    for rep in result.reports:
        _check_report(result, rep, seen)
        if len(seen) > result.primes_scanned:
            raise ConsistencyError("more irregular reports than primes scanned")
        yield rep


def _check_report(result: ScanResult, rep: PrimeReport, seen: set[str]) -> None:
    q = result.q
    if rep.q != q:
        raise ConsistencyError("mixed base fields in one scan result")
    if not 1 <= rep.degree <= result.max_degree:
        raise ConsistencyError(f"prime degree {rep.degree} outside the scan range")
    if rep.prime in seen:
        raise ConsistencyError(f"duplicate prime {rep.prime}")
    seen.add(rep.prime)
    columns = [rep.bc_residues, rep.valuations]
    if rep.local_vanished is not None:
        columns.append(rep.local_vanished)
    if any(np.shape(c) != (q**rep.degree - 2,) for c in columns):
        raise ConsistencyError("report columns do not cover 1..q^d-2")
    scope = rep.in_scope
    derived = tuple((np.flatnonzero(scope & (rep.bc_residues == 0)) + 1).tolist())
    if derived != rep.irregular_indices:
        raise ConsistencyError("irregular index set does not match its BC residues")
    claims = rep.bc_residues != 0
    if rep.local_vanished is not None:
        claims = claims | rep.local_vanished
    bad = np.flatnonzero(~scope & claims)
    if bad.size:
        raise ConsistencyError(f"off-scope index n={bad[0] + 1} carries claims")
    bad = np.flatnonzero((rep.valuations < 0) | (~scope & (rep.valuations > rep.witt_precision)))
    if bad.size:
        raise ConsistencyError(f"valuation at n={bad[0] + 1} is out of range")
