"""Truncated deformations of a morphism: validation, infinitesimals,
equivalence by formal isomorphisms, obstruction classes, order-by-order
extension and the cohomological rigidity criterion.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraMorphism
from .cochains import Cochain, all_tuples, differential, identity_cochain, \
    product_cochain
from .linalg import solve, vec_add, vec_is_zero, vec_sub, zero_vector
from .morphism_complex import (TripleCochain, coboundary_preimage,
                               morphism_cochain, morphism_cohomology_dim,
                               morphism_differential,
                               morphism_differential_matrix,
                               push_forward_left, push_forward_right)


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
    """The constant term (m_R; m_S; f) every deformation starts from."""
    return TripleCochain(f, 2, product_cochain(f.source),
                         product_cochain(f.target), morphism_cochain(f))


class TruncatedDeformation:
    """A validated order-N deformation; terms[i] is the t^i coefficient."""

    __slots__ = ("morphism", "order", "terms")

    def __init__(self, morphism: AlgebraMorphism, terms: list[TripleCochain],
                 _validated: bool = False):
        if not terms:
            raise ValueError("a deformation needs at least its constant term")
        for t in terms:
            if t.morphism != morphism or t.degree != 2:
                raise ValueError("terms must be degree-2 triples over the morphism")
        self.morphism = morphism
        self.order = len(terms) - 1
        self.terms = list(terms)
        if not _validated:
            if terms[0] != theta_zero(morphism):
                raise ValueError("constant term differs from (m_R; m_S; f)")
            _raise_on(deformation_violations(morphism, terms, self.order))

    def extend(self, term: TripleCochain) -> "TruncatedDeformation":
        """The order-(N+1) series with term as its t^{N+1} coefficient.

        Orders 0..N hold already, so only order N+1 is validated.
        """
        grown = TruncatedDeformation(self.morphism, self.terms + [term],
                                     _validated=True)
        _raise_on(_order_violations(self.morphism, grown.terms, grown.order))
        return grown

    def truncate(self, order: int) -> "TruncatedDeformation":
        if order >= self.order:
            return self
        return TruncatedDeformation(self.morphism, self.terms[:order + 1],
                                    _validated=True)

    def is_trivial(self) -> bool:
        return all(t.is_zero() for t in self.terms[1:])

    def __eq__(self, other):
        if not isinstance(other, TruncatedDeformation):
            return NotImplemented
        return self.morphism == other.morphism and self.terms == other.terms

    def __repr__(self):
        return f"TruncatedDeformation(order={self.order})"


def check_deformation(f: AlgebraMorphism, terms: list[TripleCochain],
                      order: int | None = None) -> TruncatedDeformation:
    """Validate a candidate series (theta_0 included) through the given order.

    Missing high-order terms are taken to be zero.  Raises DeformationError
    with the smallest failing order and all residuals at that order; raises
    ValueError when theta_0 differs from (m_R; m_S; f).
    """
    if not terms:
        raise ValueError("candidate series is empty")
    if order is None:
        order = len(terms) - 1
    terms = list(terms[:order + 1])
    while len(terms) < order + 1:
        terms.append(TripleCochain.zero(f, 2))
    return TruncatedDeformation(f, terms)


def trivial_deformation(f: AlgebraMorphism,
                        order: int = 0) -> TruncatedDeformation:
    terms = [theta_zero(f)] + [TripleCochain.zero(f, 2) for _ in range(order)]
    return TruncatedDeformation(f, terms, _validated=True)


def _product_residual(algebra, ms, n, x, y, z):
    """sum_l m_l(m_{n-l}(x,y), z) - sum_l m_l(x, m_{n-l}(y,z) + m_{n-l}(z,y)),
    with m_l = 0 past the end of ms (those terms are skipped)"""
    field = algebra.field
    res = zero_vector(field, algebra.dim)
    top = len(ms) - 1
    for l in range(max(0, n - top), min(n, top) + 1):
        inner = ms[n - l].eval_basis((x, y))
        res = vec_add(res, ms[l].eval([inner, z]))
        sym = vec_add(ms[n - l].eval_basis((y, z)), ms[n - l].eval_basis((z, y)))
        res = vec_sub(res, ms[l].eval([x, sym]))
    return res


def _morphism_residual(f, ms_r, ms_s, fs, n, x, y):
    """sum_i f_i(m_{R,n-i}(x,y)) - sum_{i+j+k=n} m_{S,i}(f_j(x), f_k(y)),
    with every series zero past the end of its list"""
    field = f.source.field
    res = zero_vector(field, f.target.dim)
    top = len(fs) - 1
    for i in range(max(0, n - top), min(n, top) + 1):
        res = vec_add(res, fs[i].eval([ms_r[n - i].eval_basis((x, y))]))
    for i in range(min(n, top) + 1):
        for j in range(max(0, n - i - top), min(n - i, top) + 1):
            k = n - i - j
            res = vec_sub(res, ms_s[i].eval([fs[j].eval_basis((x,)),
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


def _order_violations(f: AlgebraMorphism, terms: list[TripleCochain], n: int):
    """None when the order-n conditions hold, otherwise (n, list of
    ConditionViolation at order n)."""
    res = order_residual(f, terms, n)
    items = []
    for kind, component, part in (("product", "R", res.xi),
                                  ("product", "S", res.pi),
                                  ("morphism", "f", res.phi)):
        for where, row in zip(all_tuples(part.source.dim, part.arity),
                              part.coeffs):
            if not vec_is_zero(row):
                items.append(ConditionViolation(kind, component, n, where,
                                                row))
    return (n, items) if items else None


def deformation_violations(f: AlgebraMorphism, terms: list[TripleCochain],
                           order: int):
    """None when the conditions hold through the given order, otherwise
    (smallest failing order, list of ConditionViolation at that order).
    terms[0] is expected to be (m_R; m_S; f)."""
    for n in range(order + 1):
        report = _order_violations(f, terms, n)
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
    for i in range(1, theta.order + 1):
        if not theta.terms[i].is_zero():
            residual = morphism_differential(theta.terms[i])
            return LeadingTerm(i, theta.terms[i], residual)
    return LeadingTerm(None, None, None)


class FormalIsomorphism:
    """A truncated series of 1-cochain pairs with identity constant term.

    terms[i] = (phi_R_i, phi_S_i); acting on a deformation by conjugation
    transports both products and the morphism series.
    """

    __slots__ = ("morphism", "order", "terms")

    def __init__(self, morphism: AlgebraMorphism,
                 terms: list[tuple[Cochain, Cochain]]):
        if not terms:
            raise ValueError("a formal isomorphism needs its constant term")
        r, s = morphism.source, morphism.target
        if (terms[0][0] != identity_cochain(r)
                or terms[0][1] != identity_cochain(s)):
            raise ValueError("constant term must be the identity pair")
        for pr, ps in terms:
            if pr.arity != 1 or ps.arity != 1 or pr.source != r or ps.source != s:
                raise ValueError("terms must be pairs of 1-cochains on R and S")
        self.morphism = morphism
        self.order = len(terms) - 1
        self.terms = [tuple(t) for t in terms]

    @classmethod
    def identity(cls, morphism: AlgebraMorphism,
                 order: int = 0) -> "FormalIsomorphism":
        r, s = morphism.source, morphism.target
        one = cls(morphism, [(identity_cochain(r), identity_cochain(s))])
        return cls(morphism, one.padded(order))

    @classmethod
    def single_term(cls, morphism: AlgebraMorphism, order: int,
                    phi_r: Cochain, phi_s: Cochain) -> "FormalIsomorphism":
        """Id + (phi_R; phi_S) t^order."""
        terms = cls.identity(morphism, order).terms
        terms[order] = (phi_r, phi_s)
        return cls(morphism, terms)

    def padded(self, order: int) -> list[tuple[Cochain, Cochain]]:
        """Terms zero-extended (or cut) to the given order."""
        r, s = self.morphism.source, self.morphism.target
        zr = Cochain.zero(r, r.regular_bimodule(), 1)
        zs = Cochain.zero(s, s.regular_bimodule(), 1)
        out = list(self.terms[:order + 1])
        while len(out) < order + 1:
            out.append((zr, zs))
        return out

    def __eq__(self, other):
        if not isinstance(other, FormalIsomorphism):
            return NotImplemented
        return self.morphism == other.morphism and self.terms == other.terms

    def __repr__(self):
        return f"FormalIsomorphism(order={self.order})"


def _compose1(outer: Cochain, inner: Cochain) -> Cochain:
    """outer after inner, both 1-cochains with matching middle space."""
    rows = [outer.eval([row]) for row in inner.coeffs]
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
    r, s = phi.morphism.source, phi.morphism.target
    terms_r = [t[0] for t in phi.terms]
    terms_s = [t[1] for t in phi.terms]
    psi_r = _invert_series(terms_r, order, identity_cochain(r))
    psi_s = _invert_series(terms_s, order, identity_cochain(s))
    return FormalIsomorphism(phi.morphism, list(zip(psi_r, psi_s)))


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
    pr, ps = zip(*phi.padded(n_max))
    qr, qs = zip(*invert_truncated(phi, n_max).terms)
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
                        mid = ms[b].eval([inner[c].eval_basis((x,)),
                                          inner[dd].eval_basis((y,))])
                        acc = vec_add(acc, outer[a].eval([mid]))
            rows.append(acc)
        return Cochain(algebra, module, 2, rows)

    def conj_map(n):
        rows = []
        for x in range(r.dim):
            acc = zero_vector(r.field, s.dim)
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    c = n - a - b
                    mid = fs[b].eval([qr[c].eval_basis((x,))])
                    acc = vec_add(acc, ps[a].eval([mid]))
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
    pr, ps = phi.padded(1)[1]
    pair = TripleCochain(theta.morphism, 1, pr, ps, None)
    residual = diff - morphism_differential(pair)
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
    on success the returned series is validated at the new order N+1, on
    failure the obstruction admits no preimage.
    """
    f = theta.morphism
    ob = obstruction(theta)
    sol = solve(morphism_differential_matrix(f, 2), ob.flatten())
    if sol is None:
        return ExtensionStep(ob, None, None)
    term = TripleCochain.from_flat(f, 2, sol)
    return ExtensionStep(ob, term, theta.extend(term))


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
        theta = trivial_deformation(f).extend(theta_1)
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
    lead = infinitesimal(theta)
    if lead.is_trivial:
        return FormalIsomorphism.identity(theta.morphism), theta
    pre = coboundary_preimage(lead.term)
    if pre is None:
        raise DeformationError(
            f"leading term at order {lead.order} is not a coboundary",
            lead.order, [])
    phi = FormalIsomorphism.single_term(theta.morphism, lead.order, pre.xi,
                                        pre.pi)
    bar = conjugate(theta, phi)
    for i in range(1, lead.order + 1):
        if not bar.terms[i].is_zero():
            raise AssertionError(
                f"normalization left a nonzero term at order {i}")
    return phi, bar


def trivialize(theta: TruncatedDeformation,
               max_rounds: int | None = None
               ) -> tuple[list[FormalIsomorphism], TruncatedDeformation]:
    """Iterate normalize_leading_term until the tail vanishes or a leading
    term stops being a coboundary (then DeformationError propagates)."""
    if max_rounds is None:
        max_rounds = theta.order
    isos = []
    current = theta
    for _ in range(max_rounds):
        if current.is_trivial():
            break
        phi, current = normalize_leading_term(current)
        isos.append(phi)
    return isos, current


def verify_obstruction_identity(theta: TruncatedDeformation) -> Certificate:
    """Machine check that the obstruction is natural: pushing its two
    product components through f agrees with the differential of its
    morphism component, computed by independent code paths."""
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
    """H^2 criterion outcome, optionally with trivialization demos."""
    h2_dim: int
    certified_rigid: bool
    probe_order: int
    demos_run: int = 0
    demos_trivialized: int = 0

    @property
    def verdict(self) -> str:
        return "rigid" if self.certified_rigid else "inconclusive"


def rigidity_check(f: AlgebraMorphism, probe_order: int = 4,
                   demo_count: int = 0, seed: int = 0) -> RigidityReport:
    """Report rigidity when the degree-2 cohomology of the deformation
    complex vanishes (a sufficient criterion; the converse is not claimed).

    With demo_count > 0 and a vanishing H^2, random valid deformations of
    the probe order are generated and trivialized by iterated
    normalization as a live demonstration.
    """
    h2 = morphism_cohomology_dim(f, 2)
    report = RigidityReport(h2, h2 == 0, probe_order)
    if demo_count > 0 and h2 == 0:
        import random

        from .sampling import random_deformation
        rng = random.Random(seed)
        for _ in range(demo_count):
            theta = random_deformation(f, probe_order, rng)
            _, final = trivialize(theta)
            report.demos_run += 1
            if final.is_trivial():
                report.demos_trivialized += 1
    return report
