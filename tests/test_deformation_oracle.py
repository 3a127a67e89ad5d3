"""The sparse contraction of `zinbiel.deformation` against the term-by-term
sums of deformation_oracle.py: every residual (the zero-top order that is
the obstruction included), every violation list, every conjugate and every
inverse series must agree value for value and repr for repr.

The mutation tests patch one term out of the library's sums and check
that the comparison then fails, so it has teeth.
"""

import random
import sys
from fractions import Fraction
from math import lcm

import pytest

import deformation_oracle as oracle
from instances import FIELDS, SEED, grown_deformations
from zinbiel import algebra, deformation
from zinbiel.algebra import identity_morphism
from zinbiel.catalog import truncated_polynomials
from zinbiel.cochains import Cochain
from zinbiel.deformation import (DeformationError, FormalIsomorphism,
                                 conjugate, deformation_violations,
                                 extend_from_cocycle, extend_one_order,
                                 invert_truncated, order_residual)
from zinbiel.fields import QQ, PrimeField
from zinbiel.morphism_complex import TripleCochain
from zinbiel.sampling import (cocycle_basis, random_deformation,
                              random_formal_isomorphism, random_triple_cochain)


def _exact(triple):
    """Every coefficient of a triple, as repr text."""
    parts = (triple.xi, triple.pi) + \
        ((triple.phi,) if triple.phi is not None else ())
    return repr([c.coeffs for c in parts])


def _series(small_suite):
    """Per field: grown deformations of orders 1..3, order-4 random
    deformations (trivial ones conjugated by random formal isomorphisms)
    and a cocycle of id_T3 extended as far as order 6."""
    rng = random.Random(SEED + 11)
    out = []
    for field in FIELDS:
        pool = [f for f in small_suite if f.source.field == field]
        out += grown_deformations(pool, rng, 12)
        movable = [f for f in pool if f.source.dim + f.target.dim > 0]
        out += [random_deformation(f, 4, rng) for f in rng.sample(movable, 6)]
        f = identity_morphism(truncated_polynomials(field, 3))
        out.append(extend_from_cocycle(f, cocycle_basis(f)[0], 6).deformation)
    return out


@pytest.fixture(scope="module")
def series(small_suite):
    return _series(small_suite)


def _residuals_agree(theta):
    """Compare every order through the zero-top order N+1."""
    f = theta.morphism
    for n in range(theta.order + 2):
        mine = order_residual(f, theta.terms, n)
        theirs = oracle.order_residual(f, theta.terms, n)
        if mine != theirs or _exact(mine) != _exact(theirs):
            return False
    return True


def test_residuals_match_the_term_by_term_sums(series):
    assert {t.morphism.source.field for t in series} == set(FIELDS)
    assert max(t.order for t in series) == 6
    nonzero = 0
    for theta in series:
        assert _residuals_agree(theta)
        f = theta.morphism
        nonzero += not order_residual(f, theta.terms,
                                      theta.order + 1).is_zero()
    assert nonzero > 0   # some zero-top orders are nonzero obstructions


def _oracle_violations(f, terms, order):
    """deformation_violations read off the oracle residuals."""
    for n in range(order + 1):
        report = oracle.violations(n, oracle.order_residual(f, terms, n))
        if report is not None:
            return report
    return None


def test_violations_match_the_term_by_term_sums(series):
    # each series with one term replaced by a random triple: the first
    # failing order and every violation, in order, must agree
    rng = random.Random(SEED + 12)
    failing = 0
    for theta in series:
        f = theta.morphism
        terms = list(theta.terms)
        k = rng.randint(1, theta.order)
        terms[k] = random_triple_cochain(f, 2, rng)
        mine = deformation_violations(f, terms, theta.order)
        theirs = _oracle_violations(f, terms, theta.order)
        assert mine == theirs and repr(mine) == repr(theirs)
        failing += mine is not None
    assert failing > len(series) // 2


def test_extension_validates_its_new_order_on_the_whole_sums(series,
                                                            monkeypatch):
    # one path for every order: a solved theta_{N+1} passes and zeroes the
    # oracle's whole order-(N+1) residual, and a random theta_{N+1}, given
    # to the step as the preimage, fails with exactly the oracle's
    # violations at N+1
    rng = random.Random(SEED + 13)
    solved = failed = 0
    for theta in series:
        f = theta.morphism
        n = theta.order + 1
        step = extend_one_order(theta)
        if step.succeeded:
            solved += 1
            assert step.extended.order == n
            assert oracle.order_residual(f, step.extended.terms, n).is_zero()
        top = random_triple_cochain(f, 2, rng)
        theirs = oracle.violations(
            n, oracle.order_residual(f, theta.terms + [top], n))
        with monkeypatch.context() as patched:
            patched.setattr(deformation, "coboundary_preimage",
                            lambda ob: top)
            try:
                extend_one_order(theta)
                mine = None
            except DeformationError as err:
                mine = (err.order, err.violations)
        assert mine == theirs and repr(mine) == repr(theirs)
        failed += mine is not None
    assert solved > 0 and failed > len(series) // 2


def _conjugates_agree(theta, phi):
    mine = conjugate(theta, phi)
    theirs = oracle.conjugate(theta, phi)
    return mine == theirs and [_exact(t) for t in mine.terms] == \
        [_exact(t) for t in theirs.terms]


def _isomorphisms(series, seed):
    """A random formal isomorphism for each series, of an order below,
    at or above the series order."""
    rng = random.Random(seed)
    return [(theta, random_formal_isomorphism(
        theta.morphism, rng.randint(0, theta.order + 1), rng))
        for theta in series]


def test_conjugates_and_inverses_match_the_term_by_term_sums(series):
    for theta, phi in _isomorphisms(series, SEED + 14):
        assert _conjugates_agree(theta, phi)
        for order in (None, phi.order + 2):
            mine = invert_truncated(phi, order)
            theirs = oracle.invert_truncated(phi, order)
            assert mine == theirs
            assert repr([[t.xi.coeffs, t.pi.coeffs]
                         for t in mine.terms]) == \
                repr([[t.xi.coeffs, t.pi.coeffs] for t in theirs.terms])


# coprime denominators of the hand-built isomorphisms' terms, by order
ISO_DENS = (2, 5, 7)


def _hand_built_isomorphism(f, order, rng):
    """Id + sum_k (phi_R_k; phi_S_k) t^k for k = 1..order, with small
    integer entries divided over Q by ISO_DENS[k % 3] in phi_R_k and by
    ISO_DENS[(k + 1) % 3] in phi_S_k."""
    field = f.source.field

    def part(algebra, den):
        if field.characteristic:
            den = 1
        return Cochain(algebra, algebra.regular_bimodule(), 1, [
            [field.coerce(Fraction(rng.randint(-2, 2), den))
             for _ in range(algebra.dim)] for _ in range(algebra.dim)])
    terms = FormalIsomorphism.identity(f, order).terms
    terms[1:] = [TripleCochain(f, 1, part(f.source, ISO_DENS[k % 3]),
                               part(f.target, ISO_DENS[(k + 1) % 3]), None)
                 for k in range(1, order + 1)]
    return FormalIsomorphism(f, terms)


def _denominators(series) -> int:
    """The least common denominator of every coefficient of a series."""
    return lcm(*(x.denominator for t in series.terms
                 for c in (t.xi, t.pi, t.phi) if c is not None
                 for row in c.coeffs for x in row))


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(7)], ids=str)
def test_int_conjugation_divides_exactly(field):
    # an order-6 deformation of id_T3 whose terms carry powers of 3 over Q,
    # conjugated by isomorphisms of orders 1..6 with terms over 2, 5 and 7:
    # the inverse series is kept times den^6 and divided by den once per
    # order, and every value must still be the oracle's
    f = identity_morphism(truncated_polynomials(field, 3))
    cocycle = cocycle_basis(f)[0]
    theta = extend_from_cocycle(
        f, cocycle.scale(field.coerce(Fraction(1, 3))), 6).deformation
    assert theta.order == 6
    rng = random.Random(SEED + 16)
    seen = 1
    for order in range(1, 7):
        phi = _hand_built_isomorphism(f, order, rng)
        assert _conjugates_agree(theta, phi)
        if field is QQ:
            seen = lcm(seen, _denominators(phi),
                       _denominators(conjugate(theta, phi)))
        for top in (None, 6):
            mine = invert_truncated(phi, top)
            theirs = oracle.invert_truncated(phi, top)
            assert mine == theirs
            assert repr([[t.xi.coeffs, t.pi.coeffs]
                         for t in mine.terms]) == \
                repr([[t.xi.coeffs, t.pi.coeffs] for t in theirs.terms])
    # over Q the values reach the denominators 2, 3, 5 and 7
    assert field is not QQ or seen % (2 * 3 * 5 * 7) == 0


# -- mutations: each drops one term of the library's sums ----------------

def test_dropping_half_the_symmetrized_product_is_caught(monkeypatch, series):
    # m_l(x, m(y,z)) without m_l(x, m(z,y))
    monkeypatch.setattr(algebra, "_symmetrized", lambda rows, d: rows)
    assert not all(_residuals_agree(theta) for theta in series)


def test_dropping_the_top_morphism_term_is_caught(monkeypatch, series):
    # sum_{i+j+k=n} m_{S,i}(f_j(x), f_k(y)) without its j = n term
    # m_{S,0}(f_n(x), f_0(y)), the j = N+1 term when an extension
    # validates order N+1
    original = deformation._triples

    def dropped(n, *orders):
        return [t for t in original(n, *orders) if t[1] != n]
    monkeypatch.setattr(deformation, "_triples", dropped)
    assert not all(_residuals_agree(theta) for theta in series)


def test_dropping_one_conjugation_term_is_caught(monkeypatch, series):
    # the (a, c) = (1, 0) term of each product of two series, dropped
    # only where _compose_series asks for the pairs, not in the validation
    # sums
    original = deformation._pairs

    def dropped(n, *orders):
        pairs = original(n, *orders)
        if sys._getframe(1).f_code is deformation._compose_series.__code__:
            return [s for s in pairs if s != (1, 0)]
        return pairs
    monkeypatch.setattr(deformation, "_pairs", dropped)
    caught = 0
    for theta, phi in _isomorphisms(series, SEED + 15):
        try:
            caught += not _conjugates_agree(theta, phi)
        except DeformationError:   # the wrong series is not a deformation
            caught += 1
    assert caught > 0
