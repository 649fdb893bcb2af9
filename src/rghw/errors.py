"""Exception types shared across the package.

Every error raised by the library derives from RghwError, and each class
carries a stable machine-readable ``code`` and the CLI's ``exit_code``:
1 for a failed cross-check, 2 for bad input (the default), 3 for an
exceeded cap.
"""


class RghwError(Exception):
    code = "Error"
    exit_code = 2


class NonPrime(RghwError):
    code = "NonPrime"


class SizeCapExceeded(RghwError):
    code = "SizeCapExceeded"
    exit_code = 3


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
    exit_code = 3


class NonCoprimeOrders(RghwError):
    code = "NonCoprimeOrders"


class HypothesisViolated(RghwError):
    code = "HypothesisViolated"


class PrecisionFailure(RghwError):
    code = "PrecisionFailure"
    exit_code = 1


class OutputError(RghwError):
    code = "OutputError"


class UsageError(RghwError):
    """A command line the argument parser rejects."""

    code = "UsageError"


class InvariantViolated(RghwError):
    """Two computations that must agree did not: a defect, not bad input."""

    code = "InvariantViolated"
    exit_code = 1
