"""Exact intersection numbers of mixed psi and kappa classes.

The package computes rational intersection values on moduli spaces of
stable curves: mixed correlators, higher intersection volumes (open and
closed), and pairings against the top Hodge weightings, all in exact
arithmetic.  Every main route has an independently coded counterpart
wired into the verify suites.
"""

from .cache import (
    CACHE_HEADER,
    check_cache,
    default_cache_path,
    load_cache,
    save_new_records,
    seed_engine,
)
from .constants import (
    ALPHA,
    GAMMA_FACT,
    GAMMA_ODD,
    ConstantTable,
    alpha,
    gamma_fact,
    gamma_odd,
    shift_polynomial,
)
from .correlator import (
    INITIAL_VALUES,
    CorrelatorEngine,
    CorrelatorKey,
    check_dilaton_identity,
    check_kdv_identity,
    check_shift_identity,
    check_string_identity,
    check_transfer_identity,
)
from .hodge import (
    LAMBDA_G,
    LAMBDA_G_GM1,
    BaseValueProvider,
    DefaultBaseValues,
    FileBaseValues,
    HodgeEngine,
    check_pairing_reduction,
    pairing_degree,
)
from .kmz import KmzOracle, kappa_partition_terms
from .multiindex import (
    ZERO,
    MultiIndex,
    delta,
    indices_of_weight,
    multi_binomial,
    multi_multinomial,
)
from .numbers import IdentityReport
from .series import (
    ShiftReport,
    TruncatedSeries,
    build_mixed_series,
    build_psi_series,
    canonical_shifts,
    shift_check,
)
from .volumes import VolumeEngine, check_expanded_volume

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "CACHE_HEADER",
    "GAMMA_FACT",
    "GAMMA_ODD",
    "INITIAL_VALUES",
    "LAMBDA_G",
    "LAMBDA_G_GM1",
    "ZERO",
    "BaseValueProvider",
    "ConstantTable",
    "CorrelatorEngine",
    "CorrelatorKey",
    "DefaultBaseValues",
    "FileBaseValues",
    "HodgeEngine",
    "IdentityReport",
    "KmzOracle",
    "MultiIndex",
    "ShiftReport",
    "TruncatedSeries",
    "VolumeEngine",
    "alpha",
    "build_mixed_series",
    "build_psi_series",
    "canonical_shifts",
    "check_cache",
    "check_dilaton_identity",
    "check_expanded_volume",
    "check_kdv_identity",
    "check_pairing_reduction",
    "check_shift_identity",
    "check_string_identity",
    "check_transfer_identity",
    "default_cache_path",
    "delta",
    "gamma_fact",
    "gamma_odd",
    "indices_of_weight",
    "kappa_partition_terms",
    "load_cache",
    "multi_binomial",
    "multi_multinomial",
    "pairing_degree",
    "save_new_records",
    "seed_engine",
    "shift_check",
    "shift_polynomial",
    "__version__",
]
