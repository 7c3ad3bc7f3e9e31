"""Exact and interval-certified computations for the overpartition function.

The package computes overpartition counts exactly (arbitrary precision, with a
persistent table format), evaluates the convergent series for them with
certified error enclosures, and mechanically verifies a family of
log-concavity, multiplicativity and third-order inequalities over user-chosen
ranges, each verdict backed by exact integer or outward-rounded interval
arithmetic.
"""

from .exact_core import (
    MemoryBudgetError,
    OverpartitionTable,
    TableFormatError,
    build_table,
    load_table,
    save_table,
)
from .intervals import CertifiedInterval
from .asymptotics import (
    SeriesParams,
    UndecidedRealError,
    main_term,
    mu,
    omega,
    rademacher_truncation,
    refined_bounds,
    series_multiplier,
    series_term_derivative,
    simple_bounds,
    truncation_error_bound,
)
from .ratio_bounds import (
    DomainError,
    diagonal_gap,
    higher_turan_integer,
    jensen_cubic,
    quadratic_upper_root,
    quadratic_upper_root_exact,
    ratio_lower_bound,
    ratio_upper_bound,
    trunc_exp_lower,
    trunc_exp_upper,
    turan_quadratic_roots,
    u_ratio,
)
from .verifiers import (
    BracketError,
    CheckItem,
    CheckResult,
    CheckSpec,
    LambdaTable,
    Verdict,
    check_delta2_log,
    check_f_vs_q,
    check_fg_sandwich,
    check_g_vs_f_shift,
    check_higher_turan,
    check_log_concavity,
    check_multiplicative,
    check_strong_log_concavity,
    check_u_monotone,
    pair_threshold_gap,
    run_campaign,
    solve_lambda_table,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CertifiedInterval",
    "CheckItem",
    "CheckResult",
    "CheckSpec",
    "DomainError",
    "LambdaTable",
    "MemoryBudgetError",
    "OverpartitionTable",
    "SeriesParams",
    "TableFormatError",
    "UndecidedRealError",
    "Verdict",
    "build_table",
    "check_delta2_log",
    "check_f_vs_q",
    "check_fg_sandwich",
    "check_g_vs_f_shift",
    "check_higher_turan",
    "check_log_concavity",
    "check_multiplicative",
    "check_strong_log_concavity",
    "check_u_monotone",
    "diagonal_gap",
    "higher_turan_integer",
    "jensen_cubic",
    "load_table",
    "main_term",
    "mu",
    "omega",
    "pair_threshold_gap",
    "quadratic_upper_root",
    "quadratic_upper_root_exact",
    "rademacher_truncation",
    "ratio_lower_bound",
    "ratio_upper_bound",
    "refined_bounds",
    "run_campaign",
    "save_table",
    "series_multiplier",
    "series_term_derivative",
    "simple_bounds",
    "solve_lambda_table",
    "trunc_exp_lower",
    "trunc_exp_upper",
    "truncation_error_bound",
    "turan_quadratic_roots",
    "u_ratio",
]
