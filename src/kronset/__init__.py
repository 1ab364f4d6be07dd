"""Certified interpolation-constant brackets for finite character sets.

The package computes two-sided brackets for the angular and chordal
worst-case approximation constants of finite sets of characters of
finitely generated discrete abelian groups, builds greedy separated-set
witnesses with the associated counting bounds, runs quasi-independence and
pair-sum diagnostics, and classifies sets against sufficient interpolation
thresholds.
"""
from .engine import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    ErrorBracket,
    KroneckerResult,
    TargetMap,
    WorkStats,
    alpha,
    alpha_n,
    approx_error,
    best_point,
    grid_cap,
)
from .errors import BudgetExceededError, GroupMismatchError, KronsetError, SetSpecError
from .groups import (
    Character,
    CharacterSet,
    DualPoint,
    GroupSpec,
    angular_distance,
    chordal_of_angle,
    evaluate_arg,
    evaluate_turns,
)

__version__ = "0.1.0"

__all__ = [
    "alpha",
    "alpha_n",
    "approx_error",
    "angular_distance",
    "best_point",
    "BudgetExceededError",
    "Character",
    "CharacterSet",
    "chordal_of_angle",
    "DEFAULT_BUDGET",
    "DEFAULT_TOL",
    "DualPoint",
    "ErrorBracket",
    "evaluate_arg",
    "evaluate_turns",
    "grid_cap",
    "GroupMismatchError",
    "GroupSpec",
    "KroneckerResult",
    "KronsetError",
    "SetSpecError",
    "TargetMap",
    "WorkStats",
]
