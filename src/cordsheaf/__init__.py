"""Exact computation of framed-cord-algebra augmentations and simple
microlocal sheaves for braid closures, and brute-force verification of the
correspondence between them over small finite fields."""

from .braid import (BraidWord, ComponentMap, MeridianWord,
                    NonMonotoneComponentsError, component_map, permutation,
                    relabel_for_components)
from .cordaug import (AugCandidate, DilationParam, IndexSets, apply_dilation,
                      canonical_form, check_relations, degenerate_components,
                      index_sets, loop_matrix, zero_column_components,
                      zero_row_components)
from .correspondence import (InvalidTrivializationError, LocalTrivialization,
                             NotAnAugmentationError, aug_to_sheaf, aug_to_subsheaf,
                             canonical_trivialization, choose_trivialization,
                             extend_by_constant, pure_cord_trace, roundtrip_aug,
                             roundtrip_sheaf, sheaf_to_aug)
from .field import FieldSpec, MixedFieldError, NotEnumerableError, Scalar, WireFormatError
from .linalg import Matrix, Subspace
from .moduli import (BudgetExceededError, ComparisonReport, ModuliReport, Orbit,
                     enumerate_augs, enumerate_sheaves_direct, markov_compare,
                     quotient_by_dilation, verify_bijection)
from .reports import DiffReport, ValidationReport
from .sheafmodel import (DegenerateSummand, SheafData, global_sections,
                         is_reduced, is_stable, isomorphic, once_stabilized,
                         stabilized_space, validate)

# the API names above; the submodules stay reachable as attributes
# (cordsheaf.moduli) but are not part of a star import
__all__ = [
    "BraidWord", "ComponentMap", "MeridianWord", "NonMonotoneComponentsError",
    "component_map", "permutation", "relabel_for_components",
    "AugCandidate", "DilationParam", "IndexSets", "apply_dilation", "canonical_form",
    "check_relations", "degenerate_components", "index_sets", "loop_matrix",
    "zero_column_components", "zero_row_components",
    "InvalidTrivializationError", "LocalTrivialization", "NotAnAugmentationError",
    "aug_to_sheaf", "aug_to_subsheaf", "canonical_trivialization",
    "choose_trivialization", "extend_by_constant", "pure_cord_trace", "roundtrip_aug",
    "roundtrip_sheaf", "sheaf_to_aug",
    "FieldSpec", "MixedFieldError", "NotEnumerableError", "Scalar", "WireFormatError",
    "Matrix", "Subspace",
    "BudgetExceededError", "ComparisonReport", "ModuliReport", "Orbit", "enumerate_augs",
    "enumerate_sheaves_direct", "markov_compare", "quotient_by_dilation",
    "verify_bijection",
    "DiffReport", "ValidationReport",
    "DegenerateSummand", "SheafData", "global_sections", "is_reduced", "is_stable",
    "isomorphic", "once_stabilized", "stabilized_space", "validate",
]
__version__ = "0.1.0"
