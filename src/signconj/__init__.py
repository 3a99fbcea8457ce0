"""Exact arithmetic for sign conjugation of square matrices.

Conjugating a matrix by a signature matrix diag(c), with c a ±1 vector
whose first coordinate is +1, preserves trace, determinant, permanent,
rank, every principal minor and permanent, and both the characteristic
and permanental polynomials, whose coefficients are the order-k principal
minor and permanent sums.  This package computes those quantities
exactly over the rationals, exposes the abelian group the maps form, the
fixed/negated decomposition with its block canonical forms, and the
census of distinct conjugates via graph connectivity.
"""

from .blockform import (
    AntisymBlockForm,
    IndexPartition,
    SymBlockForm,
    antisym_block_form,
    assemble_antidiag,
    assemble_diag,
    index_partition,
    sym_block_form,
)
from .core import (
    Matrix,
    Scalar,
    SignVector,
    admissible_sign_vectors,
    as_scalar,
    conjugate_by_signature,
    parse_sign_vector,
    sign_conjugate,
    signature_matrix,
)
from .decomposition import (
    DecompositionPair,
    Symmetry,
    antisym_part,
    classic_split,
    classify,
    order2_minor_sum,
    order2_permanent_sum,
    split,
    subspace_dims,
    sym_part,
)
from .errors import (
    DimensionMismatchError,
    EmptySignVectorError,
    FirstCoordinateNotOneError,
    InternalConsistencyError,
    MalformedSignError,
    MatrixParseError,
    NotSignAntisymmetricError,
    NotSignSymmetricError,
    NotSquareError,
    RangeError,
    SignConjError,
    SizeCapExceededError,
)
from .group import (
    CayleyTable,
    cayley_table,
    compose,
    from_bits,
    identity_element,
    to_bits,
)
from .invariants import (
    Polynomial,
    char_poly,
    determinant,
    perm_poly,
    permanent,
    rank,
    trace,
)
from .orbit import (
    ComponentLabeling,
    OrbitReport,
    graph_components,
    orbit_size,
)
from .verification import CheckOutcome, VerificationReport, verify_matrix

__version__ = "0.1.0"

__all__ = [
    "AntisymBlockForm",
    "CayleyTable",
    "CheckOutcome",
    "ComponentLabeling",
    "DecompositionPair",
    "DimensionMismatchError",
    "EmptySignVectorError",
    "FirstCoordinateNotOneError",
    "IndexPartition",
    "InternalConsistencyError",
    "MalformedSignError",
    "Matrix",
    "MatrixParseError",
    "NotSignAntisymmetricError",
    "NotSignSymmetricError",
    "NotSquareError",
    "OrbitReport",
    "Polynomial",
    "RangeError",
    "Scalar",
    "SignConjError",
    "SignVector",
    "SizeCapExceededError",
    "SymBlockForm",
    "Symmetry",
    "VerificationReport",
    "admissible_sign_vectors",
    "antisym_block_form",
    "antisym_part",
    "as_scalar",
    "assemble_antidiag",
    "assemble_diag",
    "cayley_table",
    "char_poly",
    "classic_split",
    "classify",
    "compose",
    "conjugate_by_signature",
    "determinant",
    "from_bits",
    "graph_components",
    "identity_element",
    "index_partition",
    "orbit_size",
    "order2_minor_sum",
    "order2_permanent_sum",
    "parse_sign_vector",
    "perm_poly",
    "permanent",
    "rank",
    "sign_conjugate",
    "signature_matrix",
    "split",
    "subspace_dims",
    "sym_block_form",
    "sym_part",
    "to_bits",
    "trace",
    "verify_matrix",
]
