"""Exact arithmetic for skein algebras of marked surfaces.

The package computes in the Kauffman-bracket skein algebra of a disc
with marked boundary points, embeds it into quantum tori attached to
triangulations, and carries the quantum cluster algebra structure:
seeds, mutation, flips of triangulated surfaces, and the membership
test against every seed torus.  All coefficients live in the ring of
integer Laurent polynomials in q^(1/2); every identity the package
verifies is checked by bit-equality of canonical forms.
"""

from .annulus import AnnulusModel
from .disc import (
    DiscElement,
    InhomogeneousError,
    LocalizationError,
    all_chords,
    boundary_chords,
    crosses,
    enumerate_triangulations,
    expand_laurent,
    flip_diagonal,
    is_boundary_chord,
    leading_smoothing,
    localize,
    mu,
    mu_delta,
    multiset_key,
    product,
    reduce_word,
    triangulation_form,
    triangulation_seed,
)
from .qcoeff import UNKNOT_SCALAR, DivisionFailure, QCoeff, exact_divide, parse, render
from .qseed import (
    CompatibilityError,
    QuantumSeed,
    banff_step,
    enumerate_seeds,
    is_acyclic,
    matrix_mutate,
    quasi_commutation_exponent,
    seeds_equal,
    sinks,
    sources,
    upper_membership,
)
from .qtorus import SkewForm, TorusElement
from .surface import (
    Arc,
    CutError,
    FlipError,
    TriangulatedSurface,
    b_matrix,
    build_annulus,
    build_disc,
    cut,
    disjoint_union,
    flip,
    from_chords,
    lambda_matrix,
    q_matrix,
    to_seed,
)

__version__ = "0.1.0"

#: The arithmetic kernel in use.  There is one, in pure Python; the name is
#: kept so that saved results record it.
KERNEL_BACKEND = "python"

__all__ = [
    "AnnulusModel",
    "Arc",
    "CompatibilityError",
    "CutError",
    "DiscElement",
    "DivisionFailure",
    "FlipError",
    "InhomogeneousError",
    "KERNEL_BACKEND",
    "LocalizationError",
    "QCoeff",
    "QuantumSeed",
    "SkewForm",
    "TorusElement",
    "TriangulatedSurface",
    "UNKNOT_SCALAR",
    "all_chords",
    "b_matrix",
    "banff_step",
    "boundary_chords",
    "build_annulus",
    "build_disc",
    "crosses",
    "cut",
    "disjoint_union",
    "enumerate_seeds",
    "enumerate_triangulations",
    "exact_divide",
    "expand_laurent",
    "flip",
    "flip_diagonal",
    "from_chords",
    "is_acyclic",
    "is_boundary_chord",
    "lambda_matrix",
    "leading_smoothing",
    "localize",
    "matrix_mutate",
    "mu",
    "mu_delta",
    "multiset_key",
    "parse",
    "product",
    "q_matrix",
    "quasi_commutation_exponent",
    "reduce_word",
    "render",
    "seeds_equal",
    "sinks",
    "sources",
    "to_seed",
    "triangulation_form",
    "triangulation_seed",
    "upper_membership",
    "__version__",
]
