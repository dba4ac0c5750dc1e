"""Exact characters of folded alphabets and their decomposition identities."""

from .laurent import InexactDivisionError, LaurentPoly, VarTable
from .partitions import Partition, PartitionClass, RectSubset, as_partition, conjugate
from .schur import (
    Alphabet,
    BracketType,
    bialternant_schur,
    bracket_schur,
    bracket_schur_altform,
    h_list,
    schur_expand,
    super_schur,
)
from .lr import lr_coeff, lr_rect_sum, lr_rectangle
from .weights import AlgebraFamily, FamilyKind, hw_from_diagram, is_finite_dimensional, kd_labels
from .folding import (
    DC_RELATIONS,
    DecompBranch,
    FoldingCase,
    FoldingTag,
    decomposition_rhs,
    fold_alphabets,
    general_dc_check,
    kr_supercharacter,
    verify_decomposition,
)
from .report import VerificationReport
from .verify import SuiteConfig, cauchy_check, littlewood_sum_check, power_det_check, run_suite

__version__ = "0.1.0"


def clear_caches() -> None:
    """Reset every memoized layer (series, characters, coefficients)."""
    from . import lr as _lr, schur as _schur

    for cached in (
        _schur._h_list_cached,
        _schur.super_schur,
        _schur.bracket_schur,
        _schur.bracket_schur_altform,
        _schur._bialternant_in,
        _lr.lr_coeff,
        _lr.lr_table,
        _lr._class_table,
    ):
        cached.cache_clear()
    _schur._pair_series.clear()


__all__ = [
    "Alphabet",
    "AlgebraFamily",
    "BracketType",
    "DC_RELATIONS",
    "DecompBranch",
    "FamilyKind",
    "FoldingCase",
    "FoldingTag",
    "InexactDivisionError",
    "LaurentPoly",
    "Partition",
    "PartitionClass",
    "RectSubset",
    "SuiteConfig",
    "VarTable",
    "VerificationReport",
    "as_partition",
    "bialternant_schur",
    "bracket_schur",
    "bracket_schur_altform",
    "cauchy_check",
    "clear_caches",
    "conjugate",
    "decomposition_rhs",
    "fold_alphabets",
    "general_dc_check",
    "h_list",
    "hw_from_diagram",
    "is_finite_dimensional",
    "kd_labels",
    "kr_supercharacter",
    "littlewood_sum_check",
    "lr_coeff",
    "lr_rect_sum",
    "lr_rectangle",
    "power_det_check",
    "run_suite",
    "schur_expand",
    "super_schur",
    "verify_decomposition",
]
