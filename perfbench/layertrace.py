"""Outside-in layer trace for the bcscan benchmark.

The wrappers live here, in the benchmark's own files; nothing under
``src/`` is modified.  Each traced callable is replaced at every name a
caller looks it up by: a function at each ``bcscan`` module attribute
bound to it (``herbrand`` imports ``bc_numbers`` by name, so
``bcscan.herbrand.bc_numbers`` is patched as well as
``bcscan.carlitz.bc_numbers``), a method on its class.  All of those
sites feed one layer name, ``<module>.<callable>`` after the module
that defines it.

Every call becomes a span (id, name, start, end, parent, prime) kept in
memory and written out by ``write_spans`` when the run ends.  Per layer
the tracer counts calls and sums total time (outermost activations only,
so recursion is not counted twice) and self time (duration minus the
time of directly nested traced calls).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

# (layer name, defining module, attribute path); a dotted path is a
# method patched on its class, "Class.__init__" counts constructions
LAYERS = (
    ("herbrand.classify_prime", "bcscan.herbrand", "classify_prime"),
    ("herbrand.classify_index", "bcscan.herbrand", "classify_index"),
    ("poly.residue_field", "bcscan.poly", "residue_field"),
    ("poly.monic_irreducibles", "bcscan.poly", "monic_irreducibles"),
    ("fields.ResidueField", "bcscan.fields", "ResidueField.__init__"),
    ("carlitz.bc_numbers", "bcscan.carlitz", "bc_numbers"),
    ("series.TruncSeries.__mul__", "bcscan.series", "TruncSeries.__mul__"),
    ("series.TruncSeries.inverse", "bcscan.series", "TruncSeries.inverse"),
    ("lseries.pic_eigenspace_length", "bcscan.lseries", "pic_eigenspace_length"),
    ("lseries.character_context", "bcscan.lseries", "character_context"),
    ("witt.WittRing.teichmuller", "bcscan.witt", "WittRing.teichmuller"),
    ("localfield.local_model", "bcscan.localfield", "local_model"),
    ("localfield.LocalModel.galois_rows", "bcscan.localfield", "LocalModel.galois_rows"),
    ("localfield.LocalModel.dlog_matrix", "bcscan.localfield", "LocalModel.dlog_matrix"),
    ("localfield.bc_local_sweep", "bcscan.localfield", "bc_local_sweep"),
    ("emit.emit", "bcscan.emit", "emit"),
)

# spans under this layer belong to the prime passed as its first
# argument, so a scan driven through the CLI still gets one id per prime
PRIME_ENTRY = "herbrand.classify_prime"

CHARACTER_CONTEXT = "lseries.character_context"
# the Witt precision every workload asks for (the CLI default); a
# character context built above it is a precision escalation
REQUESTED_PRECISION = 12


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.primes: list[str] = []
        self.prime_id: int | None = None
        self.calls = {name: 0 for name, _, _ in LAYERS}
        self.total = {name: 0.0 for name, _, _ in LAYERS}
        self.self_time = {name: 0.0 for name, _, _ in LAYERS}
        self.escalations = 0
        self._active = {name: 0 for name, _, _ in LAYERS}
        self._stack: list[list] = []  # [span id, time spent in children]

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every layer; bcscan and all its modules must be imported."""
        modules = [m for n, m in sys.modules.items() if n == "bcscan" or n.startswith("bcscan.")]
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(module, path)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    # -- recording ------------------------------------------------------------

    def open_prime(self, prime: str | None) -> None:
        """Attribute the following spans to ``prime`` (None: to no prime)."""
        if prime is None:
            self.prime_id = None
            return
        self.primes.append(prime)
        self.prime_id = len(self.primes) - 1

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        outer_prime = self.prime_id
        if name == PRIME_ENTRY:
            self.open_prime(str(args[0]))
        if name == CHARACTER_CONTEXT:
            k = args[1] if len(args) > 1 else kwargs["k"]
            if k > REQUESTED_PRECISION:
                self.escalations += 1
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [span_id, 0.0]
        stack.append(frame)
        self._active[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.self_time[name] += dur - frame[1]
            self._active[name] -= 1
            if not self._active[name]:
                self.total[name] += dur
            self.spans[span_id] = (span_id, name, t0, t1, parent, self.prime_id)
            self.prime_id = outer_prime

    # -- output ---------------------------------------------------------------

    def metrics(self, primes: int) -> dict[str, float]:
        """Flat per-layer figures; ``primes`` is the workload's prime count."""
        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.calls_per_prime"] = self.calls[name] / primes
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out[f"{CHARACTER_CONTEXT}.escalations"] = self.escalations
        return out

    def write_spans(self, path: str) -> None:
        """One JSON header line (the prime table), then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"primes": self.primes,
                                 "fields": ["id", "name", "start", "end", "parent", "prime"]}))
            fh.write("\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span))
                    fh.write("\n")
