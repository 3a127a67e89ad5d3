"""Exact identities of the deformation theory on the seeded suite.

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
`@`, over every field of the suite.  The isomorphism of complexes

  T(xi; pi; phi) = (a xi (a^-1)^n; b pi (b^-1)^n; b phi (a^-1)^(n-1))

is also compatible with the deformation sums, so it carries the
obstruction of a deformation theta to that of T theta, the conjugate of
theta by a formal isomorphism phi to that of T theta by T phi, and an
extended series of f to a valid series of f'.  T is evaluated term by
term (`oracle_helpers.evaluate`), apart from the library's sums.

Characteristic p.  The rank of an integer matrix mod p is at most its
rank over Q.  So for morphisms with integer structure constants and
matrix, dim H^n over F_p is at least dim H^n over Q.  It is larger over
F2 and F3, where the symmetrized product xy + yx = 2xy (F2) and some
binomial structure constants of the truncated polynomials vanish.
"""

import random

from instances import FIELDS, SEED, grown_deformations
from oracle_helpers import evaluate
from zinbiel.algebra import AlgebraMorphism, identity_morphism
from zinbiel.catalog import (change_of_basis, truncated_polynomials,
                             weight_scaling)
from zinbiel.cochains import (COHOMOLOGY_DEGREES, Cochain, all_tuples,
                              cohomology_dim)
from zinbiel.deformation import (FormalIsomorphism, TruncatedDeformation,
                                 conjugate, extend_to, obstruction)
from zinbiel.fields import QQ, PrimeField
from zinbiel.linalg import inverse
from zinbiel.morphism_complex import TripleCochain, morphism_cohomology_dim
from zinbiel.sampling import (random_dense_invertible,
                              random_formal_isomorphism)


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


def _moves(f, rng) -> tuple:
    """Random dense changes of basis a of R and b of S, and b f a^-1."""
    field = f.source.field
    _, a = change_of_basis(
        f.source, random_dense_invertible(field, f.source.dim, rng))
    _, b = change_of_basis(
        f.target, random_dense_invertible(field, f.target.dim, rng))
    return a, b, AlgebraMorphism(a.target, b.target,
                                 b.matrix @ f.matrix @ inverse(a.matrix))


def test_cohomology_is_invariant_under_change_of_basis(small_suite):
    rng = random.Random(SEED + 31)
    assert {f.source.field for f in small_suite} == set(FIELDS)
    differ = []
    for f in small_suite:
        _, _, moved = _moves(f, rng)
        differ += [(f, n) for n in COHOMOLOGY_DEGREES
                   if morphism_cohomology_dim(moved, n)
                   != morphism_cohomology_dim(f, n)]
    assert len(small_suite) * len(COHOMOLOGY_DEGREES) == 260
    assert differ == []


def _transport(a, b, moved):
    """T: C(f) -> C(f') for f' = b f a^-1, on triples:
    T(xi; pi; phi) = (a xi (a^-1)^n; b pi (b^-1)^n; b phi (a^-1)^(n-1)),
    evaluated term by term on the columns of a^-1 and b^-1."""
    r, s = moved.source, moved.target

    def columns(iso):
        inv = inverse(iso.matrix)
        return [inv.column(j) for j in range(inv.ncols)]
    back_r, back_s = columns(a), columns(b)

    def part(c, back, out, source, module):
        return Cochain(source, module, c.arity, [
            out.matrix.matvec(evaluate(c, [back[i] for i in tup]))
            for tup in all_tuples(source.dim, c.arity)])

    def transport(t):
        parts = [part(t.xi, back_r, a, r, r.regular_bimodule()),
                 part(t.pi, back_s, b, s, s.regular_bimodule())]
        if t.phi is not None:
            parts.append(part(t.phi, back_r, b, r, moved.as_bimodule()))
        return TripleCochain(moved, t.degree, *parts)
    return transport


def test_a_change_of_basis_commutes_with_the_deformation_theory(small_suite):
    # T carries obstructions, conjugates and extended series of f to those
    # of f'.  The extension of T theta itself is not compared with T of the
    # extension: its representative (free coefficients zero) depends on
    # the basis
    rng = random.Random(SEED + 13)
    thetas = []
    for field in FIELDS:
        thetas += grown_deformations(
            [f for f in small_suite if f.source.field == field], rng, 15)
    nonzero = extended = 0
    for theta in thetas:
        f = theta.morphism
        a, b, moved = _moves(f, rng)
        t = _transport(a, b, moved)
        moved_theta = TruncatedDeformation(moved, [t(u) for u in theta.terms])
        ob = obstruction(theta)
        assert t(ob) == obstruction(moved_theta)
        nonzero += not ob.is_zero()
        phi = random_formal_isomorphism(f, theta.order, rng)
        moved_phi = FormalIsomorphism(moved, [t(u) for u in phi.terms])
        assert [t(u) for u in conjugate(theta, phi).terms] == \
            conjugate(moved_theta, moved_phi).terms
        grown = extend_to(theta, theta.order + 2).deformation
        moved_grown = TruncatedDeformation(moved, [t(u) for u in grown.terms])
        assert moved_grown.order == grown.order
        extended += grown.order > theta.order
    assert len(thetas) == 60 and nonzero > 0 and extended > 0


def _integral(field) -> dict:
    """Morphisms whose structure constants and matrices are integers."""
    t = {d: truncated_polynomials(field, d) for d in (2, 3, 4)}
    return {"id_T2": identity_morphism(t[2]), "id_T3": identity_morphism(t[3]),
            "id_T4": identity_morphism(t[4]),
            "ws(T2)": weight_scaling(t[2], 2), "ws(T3)": weight_scaling(t[3], 2)}


def _dims(field) -> dict:
    return {name: tuple(morphism_cohomology_dim(f, n) for n in (2, 3))
            for name, f in _integral(field).items()}


def test_cohomology_mod_p_is_at_least_that_over_q():
    # the rank of an integer matrix mod p is at most its rank over Q, so
    # dim H^n over F_p >= dim H^n over Q; the jumps are pinned
    over_q = _dims(QQ)
    assert set(over_q.values()) == {(1, 1)}
    jumps = {
        2: {"id_T2": (2, 4), "id_T3": (2, 3), "id_T4": (3, 8),
            "ws(T2)": (6, 10), "ws(T3)": (7, 9)},
        3: {"id_T3": (2, 4), "id_T4": (2, 4), "ws(T3)": (2, 4)},
    }
    for p in (2, 3, 5, 7, 101):
        over_p = _dims(PrimeField(p))
        assert all(over_p[name][i] >= dims[i]
                   for name, dims in over_q.items() for i in (0, 1))
        assert over_p == {**over_q, **jumps.get(p, {})}
