"""Tuple-by-tuple differentials: the reference for the assembled matrices.

These are the library's former differentials, kept as an independent code
path: d1, d2 and d3 are evaluated on each basis tuple straight from the
formulas in the `zinbiel.cochains` docstring, through `Cochain.eval` and
the bimodule actions, and the morphism-complex differential is put
together from them and the tuple push-forwards.  `differential_matrix`,
`morphism_differential_matrix` and the library's `differential` and
`morphism_differential`, which apply those matrices, must reproduce them
exactly.
"""

from zinbiel.cochains import MAX_ARITY as MAX_DEGREE, Cochain
from zinbiel.linalg import vec_add, vec_sub
from zinbiel.morphism_complex import (TripleCochain, push_forward_left,
                                      push_forward_right)


def differential(phi: Cochain) -> Cochain:
    """Apply the complex differential; defined for arities 1, 2, 3."""
    if phi.arity == 1:
        return _d1(phi)
    if phi.arity == 2:
        return _d2(phi)
    if phi.arity == 3:
        return _d3(phi)
    raise ValueError(f"no differential out of arity {phi.arity}")


def _d1(phi: Cochain) -> Cochain:
    r, a = phi.source, phi.module
    rows = []
    for i in range(r.dim):
        for j in range(r.dim):
            out = a.left_act(i, phi.eval_basis((j,)))
            out = vec_sub(out, phi.eval([r.product_basis(i, j)]))
            out = vec_add(out, a.right_act(phi.eval_basis((i,)), j))
            rows.append(out)
    return Cochain(r, a, 2, rows)


def _d2(phi: Cochain) -> Cochain:
    r, a = phi.source, phi.module
    rows = []
    for i in range(r.dim):
        for j in range(r.dim):
            for k in range(r.dim):
                out = a.left_act(i, vec_add(phi.eval_basis((j, k)),
                                            phi.eval_basis((k, j))))
                out = vec_sub(out, phi.eval([r.product_basis(i, j), k]))
                sym = vec_add(r.product_basis(j, k), r.product_basis(k, j))
                out = vec_add(out, phi.eval([i, sym]))
                out = vec_sub(out, a.right_act(phi.eval_basis((i, j)), k))
                rows.append(out)
    return Cochain(r, a, 3, rows)


def _d3(phi: Cochain) -> Cochain:
    r, a = phi.source, phi.module
    rows = []
    for i in range(r.dim):
        for j in range(r.dim):
            for k in range(r.dim):
                for l in range(r.dim):
                    inner = vec_sub(phi.eval_basis((j, k, l)),
                                    phi.eval_basis((k, l, j)))
                    inner = vec_add(inner, phi.eval_basis((k, j, l)))
                    inner = vec_sub(inner, phi.eval_basis((l, k, j)))
                    out = a.left_act(i, inner)
                    out = vec_sub(out,
                                  phi.eval([r.product_basis(i, j), k, l]))
                    sym = vec_add(r.product_basis(j, k),
                                  r.product_basis(k, j))
                    out = vec_add(out, phi.eval([i, sym, l]))
                    sym = vec_add(r.product_basis(k, l),
                                  r.product_basis(l, k))
                    out = vec_sub(out, phi.eval([i, j, sym]))
                    out = vec_add(
                        out, a.right_act(phi.eval_basis((i, j, k)), l))
                    rows.append(out)
    return Cochain(r, a, 4, rows)


def morphism_differential(theta: TripleCochain) -> TripleCochain:
    """d(xi; pi; phi) = (d xi; d pi; f.xi - pi.f - d phi); degrees 1..3."""
    if theta.degree >= MAX_DEGREE:
        raise ValueError(f"no differential out of degree {theta.degree}")
    f = theta.morphism
    third = push_forward_left(f, theta.xi) - push_forward_right(f, theta.pi)
    if theta.phi is not None:
        third = third - differential(theta.phi)
    return TripleCochain(f, theta.degree + 1, differential(theta.xi),
                         differential(theta.pi), third)
