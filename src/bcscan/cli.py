"""Command line front end.

    bcscan scan --q 3 --max-degree 4
    bcscan classify --q 2 --prime "t^4 + t + 1"
    bcscan bc --q 2 --prime "t^4 + t + 1"

Exit codes: 0 clean, 1 usage or input error, 2 internal consistency
failure (a dual-route check or validator tripped; the output cannot be
trusted and the bug is in this package, not in the input).

A scan writes each irregular prime's report as soon as it is
classified, so on exit 1 or 2 standard output may already hold part of
the output.  ``--out FILE`` is written through a temporary file beside
it and appears only when the run succeeds; a FILE that is a directory,
or whose directory is missing, exits 1 before any work.  A reader that
closes standard output early ends the run at once, with exit 0.
SIGTERM ends it with exit 143, once the worker processes are stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import signal
import sys
import threading

from .carlitz import bc_numbers
from .fields import MAX_FIELD_SIZE, BaseField, ConsistencyError, FieldError, _prime_factors, fq_make
from .emit import emit, replacing
from .herbrand import ScanOptions, ScanResult, classify_prime, fq_modulus_str, scan, validated
from .poly import PolyParseError, parse_poly, residue_field, residue_to_str
from .witt import MAX_PRECISION, PrecisionError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for
    # consistency failures here, so route usage problems through 1
    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    """An integer option in ASCII digits; int() alone reads other scripts' digits too."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _q_to_base(q: int, fq_modulus: str | None) -> BaseField:
    if q < 2:
        raise FieldError("q must be a prime power >= 2")
    if q > MAX_FIELD_SIZE:  # before trial division, which takes sqrt(q) steps
        raise FieldError(f"q = {q} exceeds the supported field size {MAX_FIELD_SIZE}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise FieldError(f"q = {q} is not a prime power")
    p, r = factors[0], 1
    while p**r < q:
        r += 1
    modulus = None
    if fq_modulus is not None:
        if r == 1:
            raise FieldError("--fq-modulus only applies to non-prime q")
        fp = fq_make(p, 1)
        modulus = parse_poly(fq_modulus, fp, var="x").coeffs
    return fq_make(p, r, modulus)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--q", type=_integer, required=True, help="base field size, a prime power")
    sp.add_argument("--fq-modulus", help="modulus of F_q over F_p, a polynomial in x")
    sp.add_argument("--precision", type=_integer, default=12, help="Witt vector length (default 12)")
    sp.add_argument("--check-local", action="store_true",
                    help="cross-check Bernoulli-Carlitz residues against the local model")
    sp.add_argument("--cross-check", action="store_true",
                    help="recompute L-values along the graded route as well")
    sp.add_argument("--threads", type=_integer,
                    help="worker processes (default 1 or BCSCAN_THREADS), at most the cpu count")
    sp.add_argument("--timings", action="store_true",
                    help="write one line per scanned prime to stderr: the seconds of each"
                         " step that ran there (field, bc, classify)")
    sp.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sp.add_argument("--out", help="write output to a file instead of stdout")


def _options(args) -> ScanOptions:
    if args.threads is not None and args.threads < 1:
        raise FieldError(f"--threads must be at least 1, got {args.threads}")
    if not 1 <= args.precision <= MAX_PRECISION:
        raise FieldError(f"--precision must be in 1..{MAX_PRECISION}, got {args.precision}")
    return ScanOptions(
        precision=args.precision,
        check_local=args.check_local,
        cross_check=args.cross_check,
        threads=args.threads,
        include_timings=args.timings,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bcscan", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("scan", help="classify all primes up to a degree bound")
    _add_common(sp)
    sp.add_argument("--max-degree", type=_integer, required=True)

    cp = sub.add_parser("classify", help="full per-index report for one prime")
    _add_common(cp)
    cp.add_argument("--prime", required=True, help="monic irreducible polynomial in t")

    bp = sub.add_parser("bc", help="print Bernoulli-Carlitz residues at one prime")
    bp.add_argument("--q", type=_integer, required=True)
    bp.add_argument("--fq-modulus")
    bp.add_argument("--prime", required=True)
    bp.add_argument("--out")
    return parser


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run one command.  In the main thread SIGTERM raises SystemExit
    while it runs, so a scan's worker pool is shut down on the way out
    instead of being left running; the previous handler is restored on
    return."""
    if threading.current_thread() is not threading.main_thread():
        return _run(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(argv)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


def _output(path):
    """Where a command writes: the file at ``path`` through emit.replacing,
    which refuses a directory or a missing parent on entry, so that a
    command enters it before any work; else standard output."""
    return replacing(path) if path else contextlib.nullcontext(sys.stdout)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        base = _q_to_base(args.q, args.fq_modulus)
        options = None if args.command == "bc" else _options(args)
        with _output(args.out) as out:
            if args.command == "scan":
                emit(validated(scan(base, args.max_degree, options)), args.format, out)
            elif args.command == "classify":
                prime = parse_poly(args.prime, base)
                result = ScanResult(
                    q=base.size,
                    fq_modulus=fq_modulus_str(base),
                    max_degree=prime.degree,
                    precision=args.precision,
                    primes_scanned=1,
                    reports=(classify_prime(prime, options),),
                )
                emit(validated(result), args.format, out, detail=True)
            else:
                prime = parse_poly(args.prime, base)
                rf = residue_field(prime)
                bc = bc_numbers(rf)
                out.writelines(
                    f"{n}\t{residue_to_str(rf, int(bc.values[n]))}\n" for n in range(1, len(bc.values))
                )
        return 0
    except BrokenPipeError:
        # the reader closed early and has all it asked for; point stdout
        # at devnull so the flush at exit does not fail once more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _UsageError as exc:
        print(f"bcscan: {exc}", file=sys.stderr)
        return 1
    except (FieldError, PolyParseError, PrecisionError, OSError) as exc:
        print(f"bcscan: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"bcscan: consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
