"""Dense identity checks: the reference for the validators of
`zinbiel.algebra`.

These are the library's former `zinbiel_violations` (with its dense
`_zinbiel_residual`), `morphism_violations` and `bimodule_violations`,
kept unchanged as an independent code path: every residual is built term
by term on dense vectors, through `matvec`, the algebra product and the
actions.  The library now computes all three with its order-0 product
and morphism sums; it must reproduce them exactly, value for value and
repr for repr.
"""

from zinbiel.algebra import Violation
from zinbiel.linalg import vec_add, vec_sub, zero_vector


def zinbiel_violations(field, dim, gamma) -> list[Violation]:
    """Residuals of (x*y)*z - x*(y*z) - x*(z*y) on all basis triples."""
    out = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                res = _zinbiel_residual(field, dim, gamma, i, j, k)
                if any(res):
                    out.append(Violation("zinbiel", (i, j, k), res))
    return out


def _zinbiel_residual(field, dim, gamma, i, j, k):
    res = zero_vector(field, dim)
    for p, c in enumerate(gamma[i][j]):      # (e_i e_j) e_k
        if c:
            for b, g in enumerate(gamma[p][k]):
                if g:
                    res[b] = res[b] + c * g
    for q, c in enumerate(gamma[j][k]):      # e_i (e_j e_k)
        if c:
            for b, g in enumerate(gamma[i][q]):
                if g:
                    res[b] = res[b] - c * g
    for q, c in enumerate(gamma[k][j]):      # e_i (e_k e_j)
        if c:
            for b, g in enumerate(gamma[i][q]):
                if g:
                    res[b] = res[b] - c * g
    return res


def morphism_violations(source, target, matrix) -> list[Violation]:
    """Residuals of f(e_i e_j) - f(e_i) f(e_j) on all basis pairs."""
    out = []
    cols = [matrix.column(i) for i in range(source.dim)]
    for i in range(source.dim):
        for j in range(source.dim):
            lhs = matrix.matvec(source.product_basis(i, j))
            rhs = target.product(cols[i], cols[j])
            res = vec_sub(lhs, rhs)
            if any(res):
                out.append(Violation("morphism", (i, j), res))
    return out


def bimodule_violations(algebra, dim, left, right) -> list[Violation]:
    """Mixed-identity residuals, one family per placement of the module slot."""
    field = algebra.field
    d = algebra.dim
    gamma = algebra.gamma

    def lact(i, avec):
        out = zero_vector(field, dim)
        for a, c in enumerate(avec):
            if c:
                for b, v in enumerate(left[i][a]):
                    if v:
                        out[b] = out[b] + c * v
        return out

    def ract(avec, i):
        out = zero_vector(field, dim)
        for a, c in enumerate(avec):
            if c:
                for b, v in enumerate(right[a][i]):
                    if v:
                        out[b] = out[b] + c * v
        return out

    def by_gamma(i, j, table):
        # table[k] for e_k, combined along the product e_i e_j
        out = zero_vector(field, dim)
        for k, g in enumerate(gamma[i][j]):
            if g:
                for b, v in enumerate(table[k]):
                    if v:
                        out[b] = out[b] + g * v
        return out

    out = []
    for a in range(dim):
        for j in range(d):
            for k in range(d):
                # (a*y)*z = a*(y z) + a*(z y)
                lhs = ract(right[a][j], k)
                rhs = vec_add(by_gamma(j, k, right[a]),
                              by_gamma(k, j, right[a]))
                res = vec_sub(lhs, rhs)
                if any(res):
                    out.append(Violation("module-first", (a, j, k), res))
    for i in range(d):
        for a in range(dim):
            for k in range(d):
                # (x*a)*z = x*(a*z) + x*(z*a)
                lhs = ract(left[i][a], k)
                rhs = vec_add(lact(i, right[a][k]), lact(i, left[k][a]))
                res = vec_sub(lhs, rhs)
                if any(res):
                    out.append(Violation("module-middle", (i, a, k), res))
    for i in range(d):
        for j in range(d):
            for a in range(dim):
                # (x y)*a = x*(y*a) + x*(a*y)
                lhs = zero_vector(field, dim)
                for k, g in enumerate(gamma[i][j]):
                    if g:
                        for b, v in enumerate(left[k][a]):
                            if v:
                                lhs[b] = lhs[b] + g * v
                rhs = vec_add(lact(i, left[j][a]), lact(i, right[a][j]))
                res = vec_sub(lhs, rhs)
                if any(res):
                    out.append(Violation("module-last", (i, j, a), res))
    return out
