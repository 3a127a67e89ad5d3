"""Term-by-term deformation sums: the reference for the sparse
contraction in `zinbiel.deformation`.

These are the library's former `order_residual`, `_violations` and
`conjugate` (with the series inversion under them), kept unchanged as an
independent code path: every term is a dense `evaluate`
(oracle_helpers.py), summed with `vec_add`, one order and one basis
tuple at a time.  The library must
reproduce them exactly, value for value and repr for repr.
"""

from oracle_helpers import evaluate
from zinbiel.algebra import AlgebraMorphism
from zinbiel.cochains import Cochain, all_tuples, identity_cochain
from zinbiel.deformation import (ConditionViolation, FormalIsomorphism,
                                 TruncatedDeformation, theta_zero)
from zinbiel.linalg import vec_add, vec_sub, zero_vector
from zinbiel.morphism_complex import TripleCochain, morphism_cochain


def _product_residual(algebra, ms, n, x, y, z):
    """sum_l m_l(m_{n-l}(x,y), z) - sum_l m_l(x, m_{n-l}(y,z) + m_{n-l}(z,y)),
    with m_l = 0 past the end of ms (those terms are skipped)"""
    field = algebra.field
    res = zero_vector(field, algebra.dim)
    top = len(ms) - 1
    for l in range(max(0, n - top), min(n, top) + 1):
        inner = ms[n - l].eval_basis((x, y))
        res = vec_add(res, evaluate(ms[l], [inner, z]))
        sym = vec_add(ms[n - l].eval_basis((y, z)), ms[n - l].eval_basis((z, y)))
        res = vec_sub(res, evaluate(ms[l], [x, sym]))
    return res


def _morphism_residual(f, ms_r, ms_s, fs, n, x, y):
    """sum_i f_i(m_{R,n-i}(x,y)) - sum_{i+j+k=n} m_{S,i}(f_j(x), f_k(y)),
    with every series zero past the end of its list"""
    field = f.source.field
    res = zero_vector(field, f.target.dim)
    top = len(fs) - 1
    for i in range(max(0, n - top), min(n, top) + 1):
        res = vec_add(res,
                      evaluate(fs[i], [ms_r[n - i].eval_basis((x, y))]))
    for i in range(min(n, top) + 1):
        for j in range(max(0, n - i - top), min(n - i, top) + 1):
            k = n - i - j
            res = vec_sub(res, evaluate(ms_s[i], [fs[j].eval_basis((x,)),
                                                  fs[k].eval_basis((y,))]))
    return res


def order_residual(f: AlgebraMorphism, terms: list[TripleCochain],
                   n: int) -> TripleCochain:
    """The order-n deformation conditions of a series as a degree-3 triple:
    the product residual on basis triples of R and of S, the morphism
    residual on basis pairs of R.  Terms past the end of the series count
    as zero; terms[0] is expected to be (m_R; m_S; f)."""
    ms_r = [t.xi for t in terms[:n + 1]]
    ms_s = [t.pi for t in terms[:n + 1]]
    fs = [t.phi for t in terms[:n + 1]]

    def product(algebra, ms):
        rows = [_product_residual(algebra, ms, n, x, y, z)
                for (x, y, z) in all_tuples(algebra.dim, 3)]
        return Cochain(algebra, algebra.regular_bimodule(), 3, rows)

    rows = [_morphism_residual(f, ms_r, ms_s, fs, n, x, y)
            for (x, y) in all_tuples(f.source.dim, 2)]
    return TripleCochain(f, 3, product(f.source, ms_r),
                         product(f.target, ms_s),
                         Cochain(f.source, f.as_bimodule(), 2, rows))



def violations(n: int, res: TripleCochain):
    """None when the order-n residual vanishes, otherwise (n, list of
    ConditionViolation at order n): the library's former `_violations`,
    which read the failures off a dense residual triple."""
    items = []
    for kind, component, part in (("product", "R", res.xi),
                                  ("product", "S", res.pi),
                                  ("morphism", "f", res.phi)):
        for where, row in zip(all_tuples(part.source.dim, part.arity),
                              part.coeffs):
            if any(row):
                items.append(ConditionViolation(kind, component, n, where,
                                                row))
    return (n, items) if items else None


def _compose1(outer: Cochain, inner: Cochain) -> Cochain:
    """outer after inner, both 1-cochains with matching middle space."""
    rows = [evaluate(outer, [row]) for row in inner.coeffs]
    return Cochain(inner.source, outer.module, 1, rows)


def _invert_series(terms: list[Cochain], order: int,
                   ident: Cochain) -> list[Cochain]:
    """psi with sum_i terms[i] . psi[n-i] = 0 for 1 <= n <= order."""
    psi = [ident]
    for n in range(1, order + 1):
        acc = None
        for i in range(1, n + 1):
            if i < len(terms) and not terms[i].is_zero():
                piece = _compose1(terms[i], psi[n - i])
                acc = piece if acc is None else acc + piece
        psi.append(-acc if acc is not None else ident.scale(0))
    return psi


def invert_truncated(phi: FormalIsomorphism,
                     order: int | None = None) -> FormalIsomorphism:
    """The inverse series mod t^{order+1}: composing the two gives the
    identity pair in every order up to the truncation."""
    if order is None:
        order = phi.order
    f = phi.morphism
    r, s = f.source, f.target
    terms_r = [t.xi for t in phi.terms]
    terms_s = [t.pi for t in phi.terms]
    psi_r = _invert_series(terms_r, order, identity_cochain(r))
    psi_s = _invert_series(terms_s, order, identity_cochain(s))
    return FormalIsomorphism(f, [TripleCochain(f, 1, a, b, None)
                                 for a, b in zip(psi_r, psi_s)])


def conjugate(theta: TruncatedDeformation,
              phi: FormalIsomorphism) -> TruncatedDeformation:
    """Transport theta along phi, truncated at the order of theta.

    Products become phi . m(psi x, psi y) and the morphism series becomes
    phi_S . f(psi_R x), with psi the truncated inverse of phi.  The result
    is re-validated on construction.
    """
    f = theta.morphism
    n_max = theta.order
    r, s = f.source, f.target
    pr = [t.xi for t in phi.padded(n_max)]
    ps = [t.pi for t in phi.padded(n_max)]
    psi = invert_truncated(phi, n_max).terms
    qr, qs = [t.xi for t in psi], [t.pi for t in psi]
    ms_r = [t.xi for t in theta.terms]
    ms_s = [t.pi for t in theta.terms]
    fs = [morphism_cochain(f)] + [t.phi for t in theta.terms[1:]]

    def conj_product(algebra, module, outer, ms, inner, n):
        rows = []
        for (x, y) in all_tuples(algebra.dim, 2):
            acc = zero_vector(algebra.field, algebra.dim)
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    for c in range(n + 1 - a - b):
                        dd = n - a - b - c
                        mid = evaluate(ms[b], [inner[c].eval_basis((x,)),
                                               inner[dd].eval_basis((y,))])
                        acc = vec_add(acc, evaluate(outer[a], [mid]))
            rows.append(acc)
        return Cochain(algebra, module, 2, rows)

    def conj_map(n):
        rows = []
        for x in range(r.dim):
            acc = zero_vector(r.field, s.dim)
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    c = n - a - b
                    mid = evaluate(fs[b], [qr[c].eval_basis((x,))])
                    acc = vec_add(acc, evaluate(ps[a], [mid]))
            rows.append(acc)
        return Cochain(r, f.as_bimodule(), 1, rows)

    new_terms = []
    for n in range(n_max + 1):
        xi = conj_product(r, r.regular_bimodule(), pr, ms_r, qr, n)
        pi = conj_product(s, s.regular_bimodule(), ps, ms_s, qs, n)
        term = TripleCochain(f, 2, xi, pi, conj_map(n))
        if n == 0 and term != theta_zero(f):
            raise AssertionError("conjugation moved the constant term")
        new_terms.append(term)
    return TruncatedDeformation(f, new_terms)
