"""Exact deformation cohomology for finite-dimensional Zinbiel algebras
and morphisms between them: cochain complexes in degrees 1..4, degree-2/3
cohomology, obstruction classes, order-by-order extension and the
cohomological rigidity criterion.  All arithmetic is exact, over Q or a
prime field.
"""

from .algebra import (AlgebraMorphism, Bimodule, IdentityError, Violation,
                      ZinbielAlgebra, bimodule_via_morphism,
                      identity_morphism, morphism_violations, zero_morphism,
                      zinbiel_violations)
from .cochains import (Cochain, cohomology_dim, differential,
                       differential_matrix, identity_cochain,
                       product_cochain)
from .deformation import (Certificate, DeformationError, ExtensionStep,
                          ExtensionTrace, FormalIsomorphism, LeadingTerm,
                          RigidityReport, TruncatedDeformation,
                          check_deformation, conjugate, extend_from_cocycle,
                          extend_one_order, extend_to, infinitesimal,
                          infinitesimal_difference_is_coboundary,
                          invert_truncated, normalize_leading_term,
                          obstruction, order_residual, rigidity_check,
                          theta_zero, trivial_deformation, trivialize,
                          verify_obstruction_identity)
from .fields import QQ, Field, FieldError, ModInt, PrimeField, field_from_spec
from .linalg import Matrix, inverse, rank_nullspace, solve
from .morphism_complex import (TripleCochain, coboundary_preimage, is_cocycle,
                               morphism_cochain, morphism_cohomology_dim,
                               morphism_differential,
                               morphism_differential_matrix,
                               push_forward_left, push_forward_right,
                               triple_dim)
from .problem_io import Problem, ProblemFileError, parse, serialize

__version__ = "0.1.0"
