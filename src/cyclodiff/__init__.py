"""cyclodiff: exact p-adic arithmetic in cyclotomic towers and the lattice
toolkit for Kaehler differentials and perp-series over the completed top
field."""

__version__ = "0.1.0"

from .errors import (
    DivisionByZeroPadic,
    DomainError,
    InsufficientPrecision,
    PadicError,
    ValuationOfZero,
)
from .padic import PadicScalar, vp
from .tower import CyclotomicTower, GaloisElement, TowerElement, TowerParams
from .differentials import (
    LatticeBasis,
    OmegaClass,
    base_change_compare,
    commensurability_check,
    different,
    differential,
    divisibility_exponent,
    elementary_divisor_valuations,
    flat_decompose,
    kernel_lattice,
    kernel_mixed_columns,
    layer_sum_columns,
    level_transition_factor,
    mixed_coords,
    modulus_valuation,
    random_kernel_element,
)
from .completion import (
    PerpSeries,
    flatness_test,
    layered_sum_membership,
    perp_margins,
    perp_series_decompose,
    perp_series_from_json,
    series_invert,
    series_reconstruct,
    w2_valuation,
)
from .constants import ConstantsReport, cell_rng, estimate_constants
from .harness import SUITE_NAMES, run_all, run_suite
from .reportio import (
    canonical_dumps,
    constants_to_report,
    emit_report,
    validate_report,
)

__all__ = [
    "CyclotomicTower",
    "ConstantsReport",
    "DivisionByZeroPadic",
    "DomainError",
    "GaloisElement",
    "InsufficientPrecision",
    "LatticeBasis",
    "OmegaClass",
    "PadicError",
    "PadicScalar",
    "PerpSeries",
    "SUITE_NAMES",
    "TowerElement",
    "TowerParams",
    "ValuationOfZero",
    "__version__",
    "base_change_compare",
    "canonical_dumps",
    "cell_rng",
    "commensurability_check",
    "constants_to_report",
    "different",
    "differential",
    "divisibility_exponent",
    "elementary_divisor_valuations",
    "emit_report",
    "estimate_constants",
    "flat_decompose",
    "flatness_test",
    "kernel_lattice",
    "kernel_mixed_columns",
    "layer_sum_columns",
    "layered_sum_membership",
    "level_transition_factor",
    "mixed_coords",
    "modulus_valuation",
    "perp_margins",
    "perp_series_decompose",
    "perp_series_from_json",
    "random_kernel_element",
    "run_all",
    "run_suite",
    "series_invert",
    "series_reconstruct",
    "validate_report",
    "vp",
    "w2_valuation",
]
