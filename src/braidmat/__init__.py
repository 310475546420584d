"""Multiparameter braid matrices: construction, verification, entanglement.

The package builds the even-dimensional multiparameter braid matrices and
their unified odd/even form, in nonunitary (real-exponent) and unitary
(imaginary-exponent) modes, and machine-checks the algebra they satisfy:
the spectral-parameter braid equation, projector decompositions,
unitarity, factorization, the exponential-generator form, the reference
single-parameter family with its composition law, and the entangling
action on product states.
"""

from .braid import (
    BlockStructureReport,
    BraidFamily,
    block_structure,
    canonical_keys,
    make_parameters,
)
from .config import ReferenceConfig, load_config, parse_config
from .entangle import (
    PeriodResult,
    degenerate_classes,
    detect_period,
    exceptional_scan,
    scan_products,
)
from .errors import (
    AccuracyError,
    BraidmatError,
    ConfigError,
    ConstructionError,
    DimensionError,
    DomainError,
    ModeError,
    SizeLimitError,
)
from .linalg import matrix_exponential, matrix_from_json, matrix_to_json
from .projectors import ProjectorFamily, ProjectorKey, projector_family
from .verify import (
    check_braid,
    check_composition_law,
    check_exponential,
    check_factorization,
    check_unitarity,
    normalized_residual,
    projector_checks,
    reference_checks,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BlockStructureReport",
    "BraidFamily",
    "BraidmatError",
    "ConfigError",
    "ConstructionError",
    "DimensionError",
    "DomainError",
    "ModeError",
    "PeriodResult",
    "ProjectorFamily",
    "ProjectorKey",
    "ReferenceConfig",
    "SizeLimitError",
    "block_structure",
    "canonical_keys",
    "check_braid",
    "check_composition_law",
    "check_exponential",
    "check_factorization",
    "check_unitarity",
    "degenerate_classes",
    "detect_period",
    "exceptional_scan",
    "load_config",
    "make_parameters",
    "matrix_exponential",
    "matrix_from_json",
    "matrix_to_json",
    "normalized_residual",
    "parse_config",
    "projector_checks",
    "projector_family",
    "reference_checks",
    "run_suite",
    "scan_products",
]
