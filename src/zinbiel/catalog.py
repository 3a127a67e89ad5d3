"""Stock algebras and morphisms used by tests, the sampler and the demos."""

from __future__ import annotations

from math import comb

from .algebra import AlgebraMorphism, ZinbielAlgebra
from .fields import Field
from .linalg import Matrix, inverse


def zero_algebra(field: Field, dim: int) -> ZinbielAlgebra:
    """All products zero; satisfies the Zinbiel identity trivially."""
    z = field.zero()
    gamma = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    return ZinbielAlgebra(field, dim, gamma)


def truncated_polynomials(field: Field, dim: int) -> ZinbielAlgebra:
    """Basis u_1..u_dim with u_p * u_q = C(p+q-1, q) u_{p+q}, zero past u_dim.

    This is the span of x, x^2/2!, ... with the half-integration product,
    cut off above degree dim; the grading makes the truncation closed under
    the Zinbiel identity.  dim=2 gives the e1*e1 = e2 algebra.
    """
    z = field.zero()
    gamma = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            k = i + j + 1
            if k < dim:
                gamma[i][j][k] = field.from_int(comb(i + j + 1, j + 1))
    return ZinbielAlgebra(field, dim, gamma)


def single_product_algebra(field: Field, dim: int, i: int, j: int, k: int,
                           c) -> ZinbielAlgebra:
    """One nonzero product e_i*e_j = c e_k (validated on construction)."""
    z = field.zero()
    gamma = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    gamma[i][j][k] = field.coerce(c)
    return ZinbielAlgebra(field, dim, gamma)


def direct_sum(a: ZinbielAlgebra, b: ZinbielAlgebra) -> ZinbielAlgebra:
    """Componentwise product on the concatenated basis."""
    if a.field != b.field:
        raise ValueError("direct sum across different fields")
    field = a.field
    d = a.dim + b.dim
    z = field.zero()
    gamma = [[[z] * d for _ in range(d)] for _ in range(d)]
    for i in range(a.dim):
        for j in range(a.dim):
            for k, g in enumerate(a.gamma[i][j]):
                if g:
                    gamma[i][j][k] = g
    off = a.dim
    for i in range(b.dim):
        for j in range(b.dim):
            for k, g in enumerate(b.gamma[i][j]):
                if g:
                    gamma[off + i][off + j][off + k] = g
    return ZinbielAlgebra(field, d, gamma)


def change_of_basis(r: ZinbielAlgebra,
                    p: Matrix) -> tuple[ZinbielAlgebra, AlgebraMorphism]:
    """Transport the product along an invertible matrix.

    The new basis vector e'_i is P applied to e_i, so the transported
    product is x ** y = P^{-1}(P(x) P(y)).  Returns the transported algebra
    together with the isomorphism r -> r' (whose matrix is P^{-1}).
    """
    if p.nrows != r.dim or p.ncols != r.dim:
        raise ValueError("change of basis matrix has wrong shape")
    pinv = inverse(p)
    if pinv is None:
        raise ValueError("change of basis matrix is singular")
    cols = [p.column(i) for i in range(r.dim)]
    gamma = [[pinv.matvec(r.product(cols[i], cols[j])) for j in range(r.dim)]
             for i in range(r.dim)]
    transported = ZinbielAlgebra(r.field, r.dim, gamma)
    return transported, AlgebraMorphism(r, transported, pinv)


def inclusion_first(a: ZinbielAlgebra, b: ZinbielAlgebra) -> AlgebraMorphism:
    """The inclusion of a into direct_sum(a, b)."""
    total = direct_sum(a, b)
    field = a.field
    rows = [[field.one() if r == c else field.zero() for c in range(a.dim)]
            for r in range(total.dim)]
    return AlgebraMorphism(a, total, rows)


def projection_first(a: ZinbielAlgebra, b: ZinbielAlgebra) -> AlgebraMorphism:
    """The projection of direct_sum(a, b) onto a."""
    total = direct_sum(a, b)
    field = a.field
    rows = [[field.one() if r == c else field.zero()
             for c in range(total.dim)] for r in range(a.dim)]
    return AlgebraMorphism(total, a, rows)


def weight_scaling(algebra: ZinbielAlgebra, c) -> AlgebraMorphism:
    """u_p -> c^p u_p on a truncated_polynomials algebra."""
    field = algebra.field
    c = field.coerce(c)
    d = algebra.dim
    rows = [[field.zero()] * d for _ in range(d)]
    power = field.one()
    for i in range(d):
        power = power * c
        rows[i][i] = power
    return AlgebraMorphism(algebra, algebra, rows)
