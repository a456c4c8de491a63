"""Bernoulli-Carlitz irregularity scanner for F_q[t].

Exact arithmetic throughout: packed finite fields, truncated power
series over them, the Carlitz module and its torsion, truncated Witt
vectors for characteristic-0 L-values, and a lambda-adic local model
at each prime.  The herbrand module ties these into the per-prime
eigenspace classification; emit and cli are the output surface.
"""

from .carlitz import bc_numbers, exp_coeffs, irregular_indices
from .emit import emit, parse_scan_json, render_csv, render_json, render_table
from .fields import BaseField, ConsistencyError, FieldError, ResidueField, fq_make
from .herbrand import (
    DIM_AT_LEAST_ONE,
    DIM_ONE,
    DIM_ZERO,
    OUT_OF_SCOPE,
    IndexClassification,
    PrimeReport,
    ScanOptions,
    ScanResult,
    classify_index,
    classify_prime,
    scan,
    validate_report,
)
from .localfield import LocalModel, bc_local_sweep, local_model
from .lseries import (
    CharacterContext,
    LReport,
    character_context,
    l_report,
    l_value_at_one,
    pic_eigenspace_length,
)
from .poly import Poly, monic_irreducibles, parse_poly, poly_to_str, residue_field
from .series import TruncSeries
from .witt import WittRing

__version__ = "0.1.0"

__all__ = [
    "BaseField",
    "CharacterContext",
    "ConsistencyError",
    "DIM_AT_LEAST_ONE",
    "DIM_ONE",
    "DIM_ZERO",
    "FieldError",
    "IndexClassification",
    "LReport",
    "LocalModel",
    "OUT_OF_SCOPE",
    "Poly",
    "PrimeReport",
    "ResidueField",
    "ScanOptions",
    "ScanResult",
    "TruncSeries",
    "WittRing",
    "bc_local_sweep",
    "bc_numbers",
    "character_context",
    "classify_index",
    "classify_prime",
    "emit",
    "exp_coeffs",
    "fq_make",
    "irregular_indices",
    "l_report",
    "l_value_at_one",
    "local_model",
    "monic_irreducibles",
    "parse_poly",
    "parse_scan_json",
    "pic_eigenspace_length",
    "poly_to_str",
    "render_csv",
    "render_json",
    "render_table",
    "residue_field",
    "scan",
    "validate_report",
]
