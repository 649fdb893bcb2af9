"""Exception types shared across the package.

Every error raised by the library derives from RghwError, and each class
carries a stable machine-readable ``code`` used by the CLI.
"""


class RghwError(Exception):
    code = "Error"


class NonPrime(RghwError):
    code = "NonPrime"


class SizeCapExceeded(RghwError):
    code = "SizeCapExceeded"


class NotASubfield(RghwError):
    code = "NotASubfield"


class FieldMismatch(RghwError):
    code = "FieldMismatch"


class ZeroElement(RghwError):
    code = "ZeroElement"


class ZeroArgument(RghwError):
    code = "ZeroArgument"


class ConjugateNonzeros(RghwError):
    code = "ConjugateNonzeros"


class DegenerateOrder(RghwError):
    code = "DegenerateOrder"


class NotAFieldGenerator(RghwError):
    code = "NotAFieldGenerator"


class BadIndex(RghwError):
    code = "BadIndex"


class LengthMismatch(RghwError):
    code = "LengthMismatch"


class RangeError(RghwError):
    code = "RangeError"


class CapExceeded(RghwError):
    code = "CapExceeded"


class NonCoprimeOrders(RghwError):
    code = "NonCoprimeOrders"


class HypothesisViolated(RghwError):
    code = "HypothesisViolated"


class PrecisionFailure(RghwError):
    code = "PrecisionFailure"


class OutputError(RghwError):
    code = "OutputError"


class UsageError(RghwError):
    """A command line the argument parser rejects."""

    code = "UsageError"


class InvariantViolated(RghwError):
    """Two computations that must agree did not: a defect, not bad input."""

    code = "InvariantViolated"


# CLI exit codes: 0 ok, 1 route disagreement or failed cross-check, 2 bad
# input (every RghwError not listed here), 3 cap exceeded.
CAP_ERRORS = (SizeCapExceeded, CapExceeded)
DISAGREE_ERRORS = (InvariantViolated, PrecisionFailure)
