"""Exact computations with equigenerated codimension-3 Gorenstein ideals.

Colon constructions, Pfaffian models, Macaulay inverse systems with Newton
duality, socle and Betti data, and rank-based certificates, all in exact
arithmetic over the rationals or a prime field.
"""

from .apolarity import (
    InverseForm,
    NotGorensteinError,
    annihilator,
    contract,
    directrix_form,
    macaulay_inverse,
    newton_dual,
    socle_newton_dual,
)
from .betti import (
    BettiTable,
    betti_table,
    has_linear_resolution,
    socle_decomposition_from_betti,
)
from .criteria import (
    LinresReport,
    QuadricsReport,
    SpansReport,
    five_quadrics_certificate,
    is_equigen_linres,
    linres_matrix,
    spans_target,
)
from .fields import GF, QQ, FieldError, PrimeField, RationalField, field_from_spec
from .ideals import (
    DatumViolationError,
    GradedIdeal,
    NotArtinianError,
    NotEquigeneratedError,
    ReductionReport,
    SocleReport,
    VirtualDatum,
    check_reduction_two,
    colon_form,
    colon_iteration_check,
    hilbert_function,
    ideal_graded_piece,
    ideal_power_piece,
    minimal_generator_profile,
    pure_power_gap,
    pure_power_ideal,
    pure_power_index,
    rewrite_in_linear_forms,
    socle_report,
    variable_lines,
    variable_power_ideal,
    virtual_datum,
)
from .linalg import ExactMatrix, kernel_rows, row_rank
from .monomials import monomial_count, monomials_of_degree
from .parsing import PolyParseError, parse_poly, parse_poly_list
from .pfaffians import (
    SkewPolyMatrix,
    generic_power_model,
    maximal_pfaffians,
    pfaffian,
    pfaffian_ideal,
)
from .pieces import GradedPiece
from .poly import MultiPoly, power_substitution, substitute

__version__ = "0.1.0"
