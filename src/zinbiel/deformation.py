"""Truncated deformations of a morphism: validation, infinitesimals,
equivalence by formal isomorphisms, obstruction classes, order-by-order
extension and the rigidity criterion (f is rigid when H^2(f) = 0, the
one fact `rigidity_check` computes).

A deformation of order N of f: R -> S is a list theta_0..theta_N of
degree-2 triples, theta_0 = (m_R; m_S; f), such that for every order
n <= N and all basis arguments

  (product, in R and in S)
      sum_l m_l(m_{n-l}(x,y), z) = sum_l m_l(x, m_{n-l}(y,z) + m_{n-l}(z,y))
  (morphism)
      sum_i f_i(m_{R,n-i}(x,y)) = sum_{i+j+k=n} m_{S,i}(f_j(x), f_k(y)).

All series are finite truncations; arithmetic is modulo t^{N+1}.
`order_residual` evaluates the order-n conditions, left side minus right
side, as a degree-3 triple (res_R; res_S; res_f).  The obstruction of an
order-N deformation is that residual at order N+1 with theta_{N+1} = 0
and the f-column negated, (res_R; res_S; -res_f); with this sign theta
extends to order N+1 exactly when d(theta_{N+1}) = obstruction(theta) has
a solution.

Order 0 is never validated here.  With theta_0 = (m_R; m_S; f), which
`TruncatedDeformation` checks, its conditions are the Zinbiel identities
of R and S and f(xy) = f(x)f(y), and the constructors in
`zinbiel.algebra` verify exactly those, with the same order-0 sums.  So
`deformation_violations` starts at order 1.

Every sum here is a sparse contraction (the product and morphism sums
live in `zinbiel.algebra`).  Each m_l, f_l and phi_i is read once per
call as sparse int rows (for each basis input, the pairs (output, value)
of its nonzero values) by the one reader `linalg._ints`: every series of
a call over one denominator den, 1 over F_p, where the ints are the
values mod p.  The terms are accumulated straight from those rows, and
each result is divided back once, by `linalg._scalar`.  A zero term adds
nothing, so the sums take only the orders of the nonzero terms of each
series (`_pairs`, `_triples`), found once per read series (`_orders`).
The scalars are exact, so the order of summation changes no value.
Conjugation composes whole series: m with psi in its first slot, then in
its second, then phi after it, each a convolution of two series: an
order is summed once, or is zero rows when no pair of nonzero terms
reaches it.  Its inverse series psi, to order N, is kept
as psi times den^N (`_invert_series`, which visits only the nonzero
terms of phi), so the conjugated products are over den^(2N+2) and the
conjugated maps over den^(N+2).

Every order is validated on one path, `_violations`: it reads the
order's conditions off the whole int sums, as `zinbiel.algebra` reads
the identities (`_found`), so a residual vector is built only for a
basis tuple where a condition fails, and no residual triple at all.
`deformation_violations` runs it on orders 1..N, and `extend_one_order`
on the new order N+1 of the grown series.  Each triple is read part by
part (`TripleCochain.parts`), and the residuals, conjugates and inverse
series that are returned are written by the one writer `_triple`, part
by part over the components of C^n(f) (`morphism_complex._spaces`): each
part is taken unchecked (`Cochain._of`), the triple by its constructor.

Deformations and formal isomorphisms are one series type, `_Series`, of
elements of C^2(f) and of C^1(f) = C^1(R,R) (+) C^1(S,S): it holds the
one shape check, zero term and constant-term check, against theta_zero(f)
or the identity pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .algebra import (AlgebraMorphism, _found, _morphism_sums, _product_sums,
                      _settle)
from .cochains import (Cochain, all_tuples, coboundary_preimage,
                       differential, identity_cochain, product_cochain)
from .linalg import _dense, _ints
from .morphism_complex import (TripleCochain, _spaces, morphism_cochain,
                               morphism_cohomology_dim, push_forward_left,
                               push_forward_right)


@dataclass
class ConditionViolation:
    """One failed deformation condition at one basis tuple."""
    kind: str            # "product" or "morphism"
    component: str       # "R", "S", or "f"
    order: int
    where: tuple
    residual: list


class DeformationError(ValueError):
    """A candidate series fails the deformation conditions.

    .order is the smallest failing order; .violations lists every failed
    basis instance at that order.
    """

    def __init__(self, message: str, order: int,
                 violations: list[ConditionViolation]):
        super().__init__(message)
        self.order = order
        self.violations = violations


def theta_zero(f: AlgebraMorphism) -> TripleCochain:
    """The constant term (m_R; m_S; f) every deformation starts from,
    built once per morphism and kept on it, read-only."""
    if f._theta_zero is None:
        f._theta_zero = TripleCochain(
            f, 2, product_cochain(f.source), product_cochain(f.target),
            morphism_cochain(f))
    return f._theta_zero


def _identity_pair(f: AlgebraMorphism) -> TripleCochain:
    """The constant term (Id_R; Id_S) of every formal isomorphism."""
    return TripleCochain(f, 1, identity_cochain(f.source),
                         identity_cochain(f.target))


class _Series:
    """A series in t of elements of one degree of the deformation complex
    of a morphism, cut after t^order, with a fixed constant term;
    terms[i] is the t^i coefficient.  Subclasses give the degree, the
    constant term and the error texts."""

    __slots__ = ("morphism", "order", "terms")

    def __init__(self, morphism: AlgebraMorphism, terms: list):
        if not terms:
            raise ValueError(self._empty)
        terms = list(terms)
        if any(not isinstance(t, TripleCochain) or t.morphism != morphism
               or t.degree != self._degree for t in terms):
            raise ValueError(self._wrong_shape)
        if terms[0] != self._constant(morphism):
            raise ValueError(self._wrong_constant)
        self.morphism, self.order, self.terms = morphism, len(terms) - 1, terms

    @classmethod
    def _of(cls, morphism: AlgebraMorphism, terms: list):
        """The series with these terms, unchecked: one the library built."""
        series = object.__new__(cls)
        series.morphism, series.order = morphism, len(terms) - 1
        series.terms = list(terms)
        return series

    @classmethod
    def _trivial(cls, morphism: AlgebraMorphism, order: int):
        """The constant term alone, zero-padded to the given order."""
        one = cls._of(morphism, [cls._constant(morphism)])
        return cls._of(morphism, one.padded(order))

    def padded(self, order: int) -> list:
        """Terms zero-extended (or cut) to the given order."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        terms = self.terms[:order + 1]
        if order > self.order:
            terms += [TripleCochain.zero(self.morphism, self._degree)] * (
                order - self.order)
        return terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.morphism == other.morphism and self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order})"


class TruncatedDeformation(_Series):
    """A validated order-N deformation; terms[i] is the t^i coefficient."""

    __slots__ = ()
    _degree = 2
    _constant = staticmethod(theta_zero)
    _empty = "a deformation needs at least its constant term"
    _wrong_shape = "terms must be degree-2 triples over the morphism"
    _wrong_constant = "constant term differs from (m_R; m_S; f)"

    def __init__(self, morphism: AlgebraMorphism, terms: list[TripleCochain]):
        super().__init__(morphism, terms)
        _raise_on(deformation_violations(morphism, self.terms, self.order))

    def truncate(self, order: int) -> "TruncatedDeformation":
        return self if order >= self.order else self._of(
            self.morphism, self.padded(order))

    def leading_order(self) -> int | None:
        """The order of the first nonzero term past the constant term, or
        None when there is none."""
        return next((i for i in range(1, self.order + 1)
                     if not self.terms[i].is_zero()), None)

    def is_trivial(self) -> bool:
        return self.leading_order() is None


def check_deformation(f: AlgebraMorphism, terms: list[TripleCochain],
                      order: int | None = None) -> TruncatedDeformation:
    """Validate a candidate series (theta_0 included) through the given order.

    Missing high-order terms are taken to be zero.  Raises DeformationError
    with the smallest failing order and all residuals at that order; raises
    ValueError when theta_0 differs from (m_R; m_S; f).
    """
    if not terms:
        raise ValueError("candidate series is empty")
    series = TruncatedDeformation._of(f, terms)
    return TruncatedDeformation(f, series.padded(
        series.order if order is None else order))


def trivial_deformation(f: AlgebraMorphism,
                        order: int = 0) -> TruncatedDeformation:
    return TruncatedDeformation._trivial(f, order)


def _triple(f: AlgebraMorphism, degree: int, rows, dens) -> TripleCochain:
    """The degree-`degree` triple whose parts, in the order of `_spaces`,
    have the given rows of (output, int) pairs, each int divided by that
    part's den (1 over F_p)."""
    return TripleCochain(f, degree, *(
        Cochain._of(source, module, arity,
                    _dense(source.field, module.dim, part, den))
        for (_, source, module, arity), part, den
        in zip(_spaces(f, degree), rows, dens)))


def _orders(series: list) -> set:
    """The orders of the nonzero terms of a series of sparse rows."""
    return {i for i, rows in enumerate(series) if any(rows)}


def _pairs(n: int, a: set, b: set) -> list:
    """(l, n - l) with l in the orders a and n - l in the orders b: a
    zero term adds nothing to a sum."""
    return [(l, n - l) for l in a if l <= n and n - l in b]


def _triples(n: int, a: set, b: set, c: set) -> list:
    """(i, j, n - i - j) with i in the orders a, j in b and n - i - j in
    c."""
    return [(i, j, n - i - j) for i in a if i <= n for j in b
            if i + j <= n and n - i - j in c]


def _read_series(f: AlgebraMorphism, terms: list[TripleCochain]) -> tuple:
    """The m_R, m_S and f series of the terms, each term as sparse rows of
    ints, the orders of the nonzero terms of each (`_orders`) and their
    common denominator, as `_ints` reads them: so the sums run on ints
    over both fields."""
    groups, den = _ints([c.coeffs for t in terms for c in t.parts],
                        f.source.field.characteristic)
    series = groups[0::3], groups[1::3], groups[2::3]
    return series, tuple(map(_orders, series)), den


def _contract(f: AlgebraMorphism, series: tuple, n: int) -> tuple:
    """The order-n sums of a series read by _read_series, one
    (component, source, module, arity, sums, scale) per component of a
    degree-3 triple: sums holds one accumulated int row per basis
    arity-tuple of source, each the residual in module times scale.  They
    are the product sums on basis triples of R and of S, scaled by den^2,
    and the morphism sums on basis pairs of R, scaled by den^3.  Terms
    past the end of the series, and zero terms, add nothing."""
    r, s = f.source, f.target
    (ms_r, ms_s, fs), (on_r, on_s, on_f), den = series
    sums = (_product_sums(r.dim, ms_r, _pairs(n, on_r, on_r),
                          all_tuples(r.dim, 3)),
            _product_sums(s.dim, ms_s, _pairs(n, on_s, on_s),
                          all_tuples(s.dim, 3)),
            _morphism_sums(r.dim, s.dim, ms_r, ms_s, fs,
                           _pairs(n, on_f, on_r),
                           _triples(n, on_s, on_f, on_f), den))
    return tuple(space + (part, scale) for space, part, scale
                 in zip(_spaces(f, 3), sums, (den ** 2, den ** 2, den ** 3)))


def order_residual(f: AlgebraMorphism, terms: list[TripleCochain],
                   n: int) -> TripleCochain:
    """The order-n deformation conditions of a series as a degree-3 triple:
    the product residual on basis triples of R and of S, the morphism
    residual on basis pairs of R.  Terms past the end of the series count
    as zero; terms[0] is expected to be (m_R; m_S; f)."""
    contracted = _contract(f, _read_series(f, terms[:n + 1]), n)
    return _triple(f, 3, [(a.items() for a in sums)
                          for *_, sums, _ in contracted],
                   [scale for *_, scale in contracted])


def _violations(f: AlgebraMorphism, series: tuple, n: int):
    """None when the order-n conditions of a series read by _read_series
    hold, otherwise (n, list of ConditionViolation at order n).  They are
    read off the int sums of `_contract`, as the identities of
    `zinbiel.algebra` are; a residual vector is built only for a basis
    tuple where they fail."""
    items = []
    for component, source, module, arity, sums, scale in \
            _contract(f, series, n):
        kind = "morphism" if component == "f" else "product"
        items += _found(partial(ConditionViolation, kind, component, n),
                        source.field, module.dim,
                        all_tuples(source.dim, arity), sums, scale)
    return (n, items) if items else None


def deformation_violations(f: AlgebraMorphism, terms: list[TripleCochain],
                           order: int):
    """None when the conditions hold through the given order, otherwise
    (smallest failing order, list of ConditionViolation at that order).

    Requires terms[0] == theta_zero(f), as TruncatedDeformation checks.
    Order 0 is then not evaluated: its conditions are the Zinbiel
    identities of R and S and f(xy) = f(x)f(y), which the constructors of
    R, S and f verified."""
    series = _read_series(f, terms[:order + 1])
    for n in range(1, order + 1):
        report = _violations(f, series, n)
        if report is not None:
            return report
    return None


def _raise_on(report) -> None:
    if report is not None:
        n, items = report
        raise DeformationError(
            f"deformation conditions fail first at order {n}", n, items)


@dataclass
class LeadingTerm:
    """First nonzero coefficient past the constant term, with its cocycle
    residual (zero exactly when the two-sided differential vanishes)."""
    order: int | None
    term: TripleCochain | None
    residual: TripleCochain | None

    @property
    def is_trivial(self) -> bool:
        return self.order is None

    @property
    def is_cocycle(self) -> bool:
        return self.residual is not None and self.residual.is_zero()


def infinitesimal(theta: TruncatedDeformation) -> LeadingTerm:
    """Locate the first nonzero theta_i (i >= 1) and certify d(theta_i) = 0."""
    i = theta.leading_order()
    if i is None:
        return LeadingTerm(None, None, None)
    return LeadingTerm(i, theta.terms[i], differential(theta.terms[i]))


class FormalIsomorphism(_Series):
    """A truncated series of degree-1 triples with identity constant term.

    terms[i] = (phi_R_i; phi_S_i), an element of C^1(f); acting on a
    deformation by conjugation transports both products and the morphism
    series.
    """

    __slots__ = ()
    _degree = 1
    _constant = staticmethod(_identity_pair)
    _empty = "a formal isomorphism needs its constant term"
    _wrong_shape = "terms must be pairs of 1-cochains on R and S"
    _wrong_constant = "constant term must be the identity pair"

    @classmethod
    def identity(cls, morphism: AlgebraMorphism,
                 order: int = 0) -> "FormalIsomorphism":
        return cls._trivial(morphism, order)

    @classmethod
    def single_term(cls, morphism: AlgebraMorphism, order: int,
                    term: TripleCochain) -> "FormalIsomorphism":
        """Id + term t^order, term a degree-1 triple."""
        head = cls.identity(morphism, order - 1).terms if order else []
        return cls(morphism, head + [term])


def _compose_series(outer: list, inner: list, top: int, p: int) -> list:
    """sum_{a+c=n} outer[a] . inner[c] for every order n <= top, as sparse
    rows: outer[a] holds the sparse rows of a linear map, inner[c] one
    sparse vector of its input space per basis input."""
    on_outer, on_inner = _orders(outer), _orders(inner)
    out = []
    for n in range(top + 1):
        pairs = _pairs(n, on_outer, on_inner)
        if not pairs:       # no pair of nonzero terms: every row is zero
            out.append([[] for _ in inner[0]])
            continue
        rows = []
        for i in range(len(inner[0])):
            acc = {}
            for a, c in pairs:
                outer_a = outer[a]
                for k, v in inner[c][i]:
                    for b, w in outer_a[k]:
                        acc[b] = acc.get(b, 0) + v * w
            rows.append(_settle(acc, p))
        out.append(rows)
    return out


def _invert_series(terms: list, order: int, d: int, den: int, p: int) -> list:
    """The sparse int rows of psi times den^order, with sum_i terms[i] .
    psi[n-i] = 0 for 1 <= n <= order and psi[0] the identity, where
    terms[i] holds the sparse int rows of phi_i times den.  psi[n] is a
    sum of products of at most n terms, so den^n psi[n] is in ints and
    each order's sums divide by den exactly.  A zero term adds nothing,
    so only the orders of the nonzero terms past 0 are visited, in
    ascending order."""
    nonzero = sorted(_orders(terms) - {0})
    psi = [[[(x, den ** order)] for x in range(d)]]
    for n in range(1, order + 1):
        steps = [i for i in nonzero if i <= n]
        if not steps:       # no nonzero term contributes: zero rows
            psi.append([[] for _ in range(d)])
            continue
        rows = []
        for x in range(d):
            acc = {}
            for i in steps:
                term = terms[i]
                for k, v in psi[n - i][x]:
                    for b, w in term[k]:
                        acc[b] = acc.get(b, 0) - v * w
            rows.append([(b, v // den) for b, v in _settle(acc, p)])
        psi.append(rows)
    return psi


def invert_truncated(phi: FormalIsomorphism,
                     order: int | None = None) -> FormalIsomorphism:
    """The inverse series mod t^{order+1}: composing the two gives the
    identity pair in every order up to the truncation."""
    if order is None:
        order = phi.order
    f = phi.morphism
    r, s = f.source, f.target
    p = r.field.characteristic
    groups, den = _ints([c.coeffs for t in phi.padded(order)
                         for c in t.parts], p)
    psi_r = _invert_series(groups[0::2], order, r.dim, den, p)
    psi_s = _invert_series(groups[1::2], order, s.dim, den, p)
    return FormalIsomorphism._of(f, [_triple(f, 1, rows, (den ** order,) * 2)
                                     for rows in zip(psi_r, psi_s)])


def conjugate(theta: TruncatedDeformation,
              phi: FormalIsomorphism) -> TruncatedDeformation:
    """Transport theta along phi, truncated at the order of theta.

    Products become phi . m(psi x, psi y) and the morphism series becomes
    phi_S . f(psi_R x), with psi the truncated inverse of phi.  The result
    is re-validated on construction.  Raises ValueError when phi is over
    another morphism.
    """
    f = theta.morphism
    if phi.morphism != f:
        raise ValueError("the formal isomorphism is over another morphism")
    top = theta.order
    r, s = f.source, f.target
    p = r.field.characteristic
    # phi_R, phi_S, m_R, m_S and f, order by order, over one den
    groups, den = _ints([c.coeffs for t, u in zip(phi.padded(top), theta.terms)
                         for c in t.parts + u.parts], p)
    pr, ps, ms_r, ms_s, fs = (groups[i::5] for i in range(5))
    qr = _invert_series(pr, top, r.dim, den, p)
    qs = _invert_series(ps, top, s.dim, den, p)

    def conj_product(d, outer, ms, inner):
        # phi . m . (psi (x) 1) . (1 (x) psi), psi acting on one slot of
        # each basis pair (x, y)
        pairs = [(x, y) for x in range(d) for y in range(d)]
        first = [[[(u * d + y, v) for u, v in q[x]] for x, y in pairs]
                 for q in inner]
        second = [[[(x * d + w, v) for w, v in q[y]] for x, y in pairs]
                  for q in inner]
        return _compose_series(outer, _compose_series(_compose_series(
            ms, first, top, p), second, top, p), top, p)

    xi = conj_product(r.dim, pr, ms_r, qr)
    pi = conj_product(s.dim, ps, ms_s, qs)
    maps = _compose_series(ps, _compose_series(fs, qr, top, p), top, p)
    # phi . m . (psi, psi) and phi_S . f . psi_R: den^top for each factor
    # psi, den for each other factor
    products, map_den = den ** (2 * top + 2), den ** (top + 2)
    return TruncatedDeformation(f, [
        _triple(f, 2, (xi[n], pi[n], maps[n]), (products, products, map_den))
        for n in range(top + 1)])


@dataclass
class Certificate:
    """A verified identity: ok says the residual vanished."""
    ok: bool
    residual: object


def infinitesimal_difference_is_coboundary(
        theta: TruncatedDeformation,
        phi: FormalIsomorphism) -> Certificate:
    """Check theta_1 - conj(theta)_1 = d(phi_R_1; phi_S_1) exactly."""
    if theta.order < 1:
        raise ValueError("needs a deformation of order at least 1")
    bar = conjugate(theta, phi)
    diff = theta.terms[1] - bar.terms[1]
    residual = diff - differential(phi.padded(1)[1])
    return Certificate(residual.is_zero(), residual)


def obstruction(theta: TruncatedDeformation) -> TripleCochain:
    """The degree-3 obstruction of an order-N deformation (N >= 1): the
    order-(N+1) residual with a zero top term, f-column negated (see the
    module docstring)."""
    if theta.order < 1:
        raise ValueError("obstruction needs order at least 1")
    f = theta.morphism
    res = order_residual(f, theta.terms, theta.order + 1)
    return TripleCochain(f, 3, res.xi, res.pi, -res.phi)


@dataclass
class ExtensionStep:
    """Outcome of one order of extension: the obstruction always, plus the
    solved term and re-validated series on success."""
    obstruction: TripleCochain
    term: TripleCochain | None
    extended: "TruncatedDeformation | None"

    @property
    def succeeded(self) -> bool:
        return self.extended is not None


def extend_one_order(theta: TruncatedDeformation) -> ExtensionStep:
    """Try to extend an order-N deformation to order N+1.

    Solves d(theta_{N+1}) = obstruction for the deterministic representative;
    on success the returned series is validated at the new order N+1, as
    `deformation_violations` validates every order; on failure the
    obstruction admits no preimage.
    """
    f = theta.morphism
    ob = obstruction(theta)
    term = coboundary_preimage(ob)
    if term is None:
        return ExtensionStep(ob, None, None)
    grown = TruncatedDeformation._of(f, theta.terms + [term])
    _raise_on(_violations(f, _read_series(f, grown.terms), grown.order))
    return ExtensionStep(ob, term, grown)


@dataclass
class ExtensionTrace:
    """Result of iterated extension from a 2-cocycle.

    deformation holds the furthest valid series built; when blocked,
    failed_at names the order that could not be reached and obstruction is
    the witness with no preimage.
    """
    deformation: TruncatedDeformation
    target_order: int
    failed_at: int | None = None
    obstruction: TripleCochain | None = None

    @property
    def succeeded(self) -> bool:
        return self.failed_at is None


def extend_to(theta: TruncatedDeformation,
              target_order: int) -> ExtensionTrace:
    """Extend theta one order at a time up to target_order, stopping at
    the first obstruction that has no preimage."""
    while theta.order < target_order:
        step = extend_one_order(theta)
        if not step.succeeded:
            return ExtensionTrace(theta, target_order,
                                  failed_at=theta.order + 1,
                                  obstruction=step.obstruction)
        theta = step.extended
    return ExtensionTrace(theta, target_order)


def extend_from_cocycle(f: AlgebraMorphism, theta_1: TripleCochain,
                        target_order: int) -> ExtensionTrace:
    """Grow a deformation with the given 2-cocycle as linear coefficient,
    one order at a time, up to target_order.

    The order-1 deformation condition is the 2-cocycle condition, so
    validating theta_1 as the order-1 term is the cocycle check.
    """
    try:
        theta = TruncatedDeformation(f, [theta_zero(f), theta_1])
    except DeformationError:
        raise ValueError("the proposed linear coefficient is not a "
                         "2-cocycle") from None
    if target_order < 1:
        raise ValueError("target order must be at least 1")
    return extend_to(theta, target_order)


def normalize_leading_term(
        theta: TruncatedDeformation
) -> tuple[FormalIsomorphism, TruncatedDeformation]:
    """Kill the leading term of a deformation whose first nonzero
    coefficient is a coboundary.

    With theta_l = d(phi_R; phi_S), conjugation by Id + (phi_R; phi_S) t^l
    produces an equivalent deformation vanishing through order l; the
    output is re-validated and the vanishing is checked exactly.
    """
    lead = theta.leading_order()
    if lead is None:
        return FormalIsomorphism.identity(theta.morphism), theta
    pre = coboundary_preimage(theta.terms[lead])
    if pre is None:
        raise DeformationError(
            f"leading term at order {lead} is not a coboundary", lead, [])
    phi = FormalIsomorphism.single_term(theta.morphism, lead, pre)
    bar = conjugate(theta, phi)
    left = bar.leading_order()
    if left is not None and left <= lead:
        raise AssertionError(
            f"normalization left a nonzero term at order {left}")
    return phi, bar


def trivialize(theta: TruncatedDeformation
               ) -> tuple[list[FormalIsomorphism], TruncatedDeformation]:
    """Iterate normalize_leading_term until the tail vanishes or a leading
    term stops being a coboundary (then DeformationError propagates).
    Each round raises the leading order, so at most theta.order run."""
    isos, current = [], theta
    while not current.is_trivial():
        phi, current = normalize_leading_term(current)
        isos.append(phi)
    return isos, current


def verify_obstruction_identity(theta: TruncatedDeformation) -> Certificate:
    """Machine check that the obstruction is natural: pushing its two
    product components through f agrees with the differential of its
    morphism component.  The obstruction comes from the sparse deformation
    sums; f, the right push-forward and the differential are applied as
    assembled matrices, so the two sides run through independent code."""
    return obstruction_naturality(obstruction(theta))


def obstruction_naturality(ob: TripleCochain) -> Certificate:
    """The naturality check of verify_obstruction_identity on an
    obstruction already computed."""
    f = ob.morphism
    lhs = push_forward_left(f, ob.xi) - push_forward_right(f, ob.pi)
    residual = lhs - differential(ob.phi)
    return Certificate(residual.is_zero(), residual)


@dataclass
class RigidityReport:
    """The H^2 criterion: f is certified rigid when H^2(f) = 0."""
    h2_dim: int
    certified_rigid: bool

    @property
    def verdict(self) -> str:
        return "rigid" if self.certified_rigid else "inconclusive"


def rigidity_check(f: AlgebraMorphism) -> RigidityReport:
    """Report rigidity when the degree-2 cohomology of the deformation
    complex vanishes (a sufficient criterion; the converse is not
    claimed)."""
    h2 = morphism_cohomology_dim(f, 2)
    return RigidityReport(h2, h2 == 0)
