"""Tuple-by-tuple differentials: the reference for the assembled matrices.

These are the library's former differentials, kept as an independent code
path: d1, d2 and d3 are evaluated on each basis tuple straight from the
formulas in the `zinbiel.cochains` docstring, through the dense
evaluation and actions of oracle_helpers.py, and the morphism-complex
differential is put together from them and the two tuple push-forwards
below.  `differential_matrix`, `morphism_differential_matrix` and the
library's `differential`, `morphism_differential`, `push_forward_left`
and `push_forward_right`, which apply those matrices, must reproduce
them exactly.
"""

import itertools

from oracle_helpers import evaluate, left_act, right_act, unit_vector
from zinbiel.cochains import (MAX_ARITY as MAX_DEGREE, Cochain, all_tuples,
                              complex_dim)
from zinbiel.linalg import vec_add, vec_sub, zero_vector
from zinbiel.morphism_complex import TripleCochain


def differential(phi: Cochain) -> Cochain:
    """Apply the complex differential; defined for arities 1, 2, 3."""
    if phi.arity == 1:
        return _d1(phi)
    if phi.arity == 2:
        return _d2(phi)
    if phi.arity == 3:
        return _d3(phi)
    raise ValueError(f"no differential out of arity {phi.arity}")


def basis_cochain(algebra, module, n: int, c: int) -> Cochain:
    """The c-th basis cochain of arity n, in flat order."""
    return Cochain.from_flat(algebra, module, n, unit_vector(
        algebra.field, complex_dim(algebra, module, n), c))


def _frozen(tensor) -> tuple:
    return tuple(tuple(map(tuple, plane)) for plane in tensor)


# the columns of every d^n built so far, keyed by the values they depend on
_COLUMNS = {}


def columns(algebra, module, n: int) -> tuple:
    """The columns of d^n on algebra with coefficients in module, in flat
    order: column c is `differential` of `basis_cochain` c, flattened, as
    a tuple of field values.  Kept per value of the field, the structure
    constants, the actions and n, so equal complexes built as different
    objects share one entry."""
    key = (algebra.field.spec(), algebra.dim, _frozen(algebra.gamma),
           module.dim, _frozen(module.left), _frozen(module.right), n)
    if key not in _COLUMNS:
        zero = algebra.field.zero()
        # one shared zero keeps the mostly-zero columns small
        _COLUMNS[key] = tuple(
            tuple(x if x else zero for x in
                  differential(basis_cochain(algebra, module, n, c)).flatten())
            for c in range(complex_dim(algebra, module, n)))
    return _COLUMNS[key]


def _d1(phi: Cochain) -> Cochain:
    r, a = phi.source, phi.module
    rows = []
    for i in range(r.dim):
        for j in range(r.dim):
            out = left_act(a, i, phi.eval_basis((j,)))
            out = vec_sub(out, evaluate(phi, [r.product_basis(i, j)]))
            out = vec_add(out, right_act(a, phi.eval_basis((i,)), j))
            rows.append(out)
    return Cochain(r, a, 2, rows)


def _d2(phi: Cochain) -> Cochain:
    r, a = phi.source, phi.module
    rows = []
    for i in range(r.dim):
        for j in range(r.dim):
            for k in range(r.dim):
                out = left_act(a, i, vec_add(phi.eval_basis((j, k)),
                                             phi.eval_basis((k, j))))
                out = vec_sub(out, evaluate(phi, [r.product_basis(i, j), k]))
                sym = vec_add(r.product_basis(j, k), r.product_basis(k, j))
                out = vec_add(out, evaluate(phi, [i, sym]))
                out = vec_sub(out, right_act(a, phi.eval_basis((i, j)), k))
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
                    out = left_act(a, i, inner)
                    out = vec_sub(out, evaluate(
                        phi, [r.product_basis(i, j), k, l]))
                    sym = vec_add(r.product_basis(j, k),
                                  r.product_basis(k, j))
                    out = vec_add(out, evaluate(phi, [i, sym, l]))
                    sym = vec_add(r.product_basis(k, l),
                                  r.product_basis(l, k))
                    out = vec_sub(out, evaluate(phi, [i, j, sym]))
                    out = vec_add(
                        out, right_act(a, phi.eval_basis((i, j, k)), l))
                    rows.append(out)
    return Cochain(r, a, 4, rows)


def push_forward_left(f, xi: Cochain) -> Cochain:
    """Compose with f on the output: (f.xi)(x1..xn) = f(xi(x1..xn)), each
    value summed from the columns of f."""
    cols = [f.apply_basis(a) for a in range(f.source.dim)]
    rows = []
    for row in xi.coeffs:
        out = zero_vector(f.source.field, f.target.dim)
        for a, x in enumerate(row):
            if x:
                out = vec_add(out, [x * v for v in cols[a]])
        rows.append(out)
    return Cochain(f.source, f.as_bimodule(), xi.arity, rows)


def push_forward_right(f, pi: Cochain) -> Cochain:
    """Precompose with f in every slot: (pi.f)(x1..xn) = pi(f x1, .., f xn),
    expanded tuple by tuple over the columns of f."""
    n = pi.arity
    src = f.source
    cols = [[(j, v) for j, v in enumerate(f.apply_basis(i)) if v]
            for i in range(src.dim)]
    rows = []
    for tup in all_tuples(src.dim, n):
        out = zero_vector(src.field, f.target.dim)
        for combo in itertools.product(*(cols[i] for i in tup)):
            coef = None
            jt = 0
            for j, v in combo:
                jt = jt * f.target.dim + j
                coef = v if coef is None else coef * v
            row = pi.coeffs[jt]
            if coef is None:
                for b, x in enumerate(row):
                    if x:
                        out[b] = out[b] + x
            else:
                for b, x in enumerate(row):
                    if x:
                        out[b] = out[b] + coef * x
        rows.append(out)
    return Cochain(src, f.as_bimodule(), n, rows)


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
