"""recres: exact resultants of recursively defined polynomial sequences.

Polynomial sequences r_n over Q or F_p defined by the nonlinear
recurrence

    r_n = g_n r_{n-1}^m + sum_{|alpha| < m} t_{alpha,n} r^alpha r_{n-1}
          + v_n x^l r_{n-2}^m

admit closed forms for deg r_n, lc(r_n), r_n(0) and Res(r_n, r_{n-1}).
This package evaluates those closed forms and differentially checks
them against two independent resultant algorithms (Sylvester
determinant and Euclidean remainder sequence), both exact.
"""

from .field import (
    DescriptorMismatch,
    DivisionByZero,
    FieldDescriptor,
    InvalidModulus,
    Scalar,
    is_prime,
    prime_field,
    rationals,
)
from .poly import NEG_INFINITY, Poly
from .resultant import (
    BothZeroError,
    determinant,
    resultant_euclid,
    resultant_sylvester,
    sylvester_matrix,
)
from .recurrence import (
    DegreeMismatchError,
    MissingStepError,
    RecurrenceSpec,
    StepCoeffs,
    TTerm,
    ValidationReport,
    Violation,
    WindowSizeError,
    generate,
    linear_recurrence,
    order_two_recurrence,
    schur_recurrence,
    step,
    validate,
)
from .closedform import FormulaContext, degree_formula

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # field
    "FieldDescriptor", "Scalar", "rationals", "prime_field", "is_prime",
    "DescriptorMismatch", "DivisionByZero", "InvalidModulus",
    # poly
    "Poly", "NEG_INFINITY",
    # resultant
    "sylvester_matrix", "determinant",
    "resultant_sylvester", "resultant_euclid", "BothZeroError",
    # recurrence
    "RecurrenceSpec", "StepCoeffs", "TTerm", "ValidationReport", "Violation",
    "validate", "step", "generate",
    "schur_recurrence", "linear_recurrence", "order_two_recurrence",
    "MissingStepError", "WindowSizeError", "DegreeMismatchError",
    # closedform
    "FormulaContext", "degree_formula",
]
