"""Cyclic codes with two nonzeros and their relative generalized Hamming weights."""

from .charsum import (
    CharacterHandle,
    gauss_sum,
    nj_via_charsum,
    orthogonality_sum,
    unit_roots,
)
from .closed_forms import detect_family, evaluate_closed_form
from .codes import (
    CodeSpec,
    basis_codewords,
    build_code,
    codewords,
    parity_check_polynomial,
)
from .errors import RghwError
from .gf import (
    DEFAULT_SIZE_CAP,
    Embedding,
    FieldTable,
    Polynomial,
    build_field,
    element_order,
    embed_subfield,
    field_for_size,
    minimal_polynomial,
)
from .subspaces import (
    SubspaceBasis,
    dual_subspace,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_with_cyclic_group,
    rref_stack,
    stack_members,
    subspace_from_rows,
)
from .weights import (
    DEFAULT_ENUM_CAP,
    RghwReport,
    RouteOutcome,
    compute_report,
    ghw_bruteforce,
    mj_dual_count,
    nj_of_subspace,
    rghw_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterHandle",
    "CodeSpec",
    "DEFAULT_ENUM_CAP",
    "DEFAULT_SIZE_CAP",
    "Embedding",
    "FieldTable",
    "Polynomial",
    "RghwError",
    "RghwReport",
    "RouteOutcome",
    "SubspaceBasis",
    "basis_codewords",
    "build_code",
    "build_field",
    "codewords",
    "compute_report",
    "detect_family",
    "dual_subspace",
    "element_order",
    "embed_subfield",
    "enumerate_subspaces",
    "evaluate_closed_form",
    "field_for_size",
    "gauss_sum",
    "gaussian_binomial",
    "ghw_bruteforce",
    "intersect_with_cyclic_group",
    "minimal_polynomial",
    "mj_dual_count",
    "nj_of_subspace",
    "nj_via_charsum",
    "orthogonality_sum",
    "parity_check_polynomial",
    "rghw_bruteforce",
    "rref_stack",
    "stack_members",
    "subspace_from_rows",
    "unit_roots",
]
