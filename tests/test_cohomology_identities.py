"""Two exact identities of the deformation cohomology on the seeded suite.

Identity morphisms.  The complex of f: R -> S is the mapping cone of
Phi(xi, pi) = f.xi - pi.f, from C(R,R) (+) C(S,S) to C(R,S_f), so it has
the long exact sequence

  ... -> H^{n-1}(R,S_f) -> H^n(f) -> H^n(R) (+) H^n(S) -Phi*-> H^n(R,S_f)

For f = id_A, Phi*(x, y) = x - y is onto in every degree, so the
sequence gives dim H^n(id_A) = dim H^n(A, A).

Change of basis.  Isomorphisms a: R -> R' and b: S -> S' carry the
complex of f onto that of f' = b f a^-1, so H^n(f) and H^n(f') have the
same dimension.  R and S are moved along random dense invertible
matrices (`catalog.change_of_basis`), and f' is built with `inverse` and
`@`, over every field of the suite.
"""

import random

from instances import FIELDS, SEED
from zinbiel.algebra import AlgebraMorphism, identity_morphism
from zinbiel.catalog import change_of_basis
from zinbiel.cochains import COHOMOLOGY_DEGREES, cohomology_dim
from zinbiel.linalg import inverse
from zinbiel.morphism_complex import morphism_cohomology_dim
from zinbiel.sampling import random_dense_invertible


def _distinct_algebras(suite) -> list:
    out = []
    for f in suite:
        for algebra in (f.source, f.target):
            if not any(algebra == seen for seen in out):
                out.append(algebra)
    return out


def test_the_identity_has_the_cohomology_of_its_algebra(suite):
    algebras = _distinct_algebras(suite)
    assert len(algebras) == 91
    differ = [(algebra, n) for algebra in algebras
              for n in COHOMOLOGY_DEGREES
              if morphism_cohomology_dim(identity_morphism(algebra), n)
              != cohomology_dim(algebra, algebra.regular_bimodule(), n)]
    assert differ == []


def _moved(f, rng) -> AlgebraMorphism:
    """b f a^-1 for random dense changes of basis a of R and b of S."""
    field = f.source.field
    _, a = change_of_basis(
        f.source, random_dense_invertible(field, f.source.dim, rng))
    _, b = change_of_basis(
        f.target, random_dense_invertible(field, f.target.dim, rng))
    return AlgebraMorphism(a.target, b.target,
                           b.matrix @ f.matrix @ inverse(a.matrix))


def test_cohomology_is_invariant_under_change_of_basis(small_suite):
    rng = random.Random(SEED + 31)
    assert {f.source.field for f in small_suite} == set(FIELDS)
    differ = []
    for f in small_suite:
        moved = _moved(f, rng)
        differ += [(f, n) for n in COHOMOLOGY_DEGREES
                   if morphism_cohomology_dim(moved, n)
                   != morphism_cohomology_dim(f, n)]
    assert len(small_suite) * len(COHOMOLOGY_DEGREES) == 260
    assert differ == []
