import hashlib
import random

import pytest

from zinbiel import deformation
from zinbiel.algebra import identity_morphism, zero_morphism
from zinbiel.catalog import truncated_polynomials, zero_algebra
from zinbiel.cochains import Cochain, identity_cochain
from zinbiel.deformation import (DeformationError, FormalIsomorphism,
                                 TruncatedDeformation,
                                 check_deformation, conjugate,
                                 deformation_violations, extend_from_cocycle,
                                 extend_one_order, extend_to, infinitesimal,
                                 infinitesimal_difference_is_coboundary,
                                 invert_truncated, normalize_leading_term,
                                 obstruction, rigidity_check, theta_zero,
                                 trivial_deformation, trivialize,
                                 verify_obstruction_identity)
from zinbiel.fields import QQ, PrimeField
from zinbiel.morphism_complex import (TripleCochain, is_cocycle,
                                      morphism_differential)
from zinbiel.sampling import (cocycle_basis, random_combination,
                              random_deformation, random_formal_isomorphism,
                              random_morphism_instance,
                              random_triple_cochain)


def _abelian_line_zero_morphism():
    algebra = zero_algebra(QQ, 1)
    return zero_morphism(algebra, algebra)


def _mu_term(f):
    """theta_1 = (mu; 0; 0) with mu(e1,e1) = e1 on the source."""
    r = f.source
    mu = Cochain(r, r.regular_bimodule(), 2, [[1]])
    return TripleCochain(f, 2, mu,
                         Cochain.zero(f.target, f.target.regular_bimodule(), 2),
                         Cochain.zero(r, f.as_bimodule(), 1))


def test_trivial_deformation_is_valid_at_any_order():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    for order in (0, 1, 3):
        theta = trivial_deformation(f, order)
        assert theta.order == order and theta.is_trivial()
        check_deformation(f, theta.terms)


def test_theta0_mismatch_is_rejected():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    with pytest.raises(ValueError, match="constant term"):
        check_deformation(f, [TripleCochain.zero(f, 2)])


def test_order1_accepts_exactly_cocycles(field, rng):
    f = identity_morphism(truncated_polynomials(field, 2))
    basis = cocycle_basis(f)
    for _ in range(10):
        z = random_combination(basis, rng)
        theta = check_deformation(f, [theta_zero(f), z])
        assert theta.order == 1
    rejected = 0
    while rejected < 10:
        cand = random_triple_cochain(f, 2, rng)
        ok, _ = is_cocycle(cand)
        if ok:
            continue
        rejected += 1
        with pytest.raises(DeformationError) as err:
            check_deformation(f, [theta_zero(f), cand])
        assert err.value.order == 1


def test_known_failure_at_order_two():
    # f = Id on the abelian line, theta_1 = (mu; mu; 0): valid at order 1,
    # fails the order-2 product condition with residual -e1
    algebra = zero_algebra(QQ, 1)
    f = identity_morphism(algebra)
    mu = Cochain(algebra, algebra.regular_bimodule(), 2, [[1]])
    term = TripleCochain(f, 2, mu, mu,
                         Cochain.zero(algebra, f.as_bimodule(), 1))
    check_deformation(f, [theta_zero(f), term], order=1)
    with pytest.raises(DeformationError) as err:
        check_deformation(f, [theta_zero(f), term], order=2)
    assert err.value.order == 2
    product_violations = [v for v in err.value.violations
                          if v.kind == "product"]
    assert product_violations[0].where == (0, 0, 0)
    assert product_violations[0].residual == [QQ.from_int(-1)]


def test_infinitesimal_of_trivial_is_trivial():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    lead = infinitesimal(trivial_deformation(f, 3))
    assert lead.is_trivial


def test_infinitesimal_is_a_cocycle(field, rng):
    f = random_morphism_instance(field, rng, max_dim=2)
    for _ in range(5):
        theta = random_deformation(f, 2, rng)
        lead = infinitesimal(theta)
        assert lead.is_trivial or lead.is_cocycle


def test_infinitesimal_after_zero_leading_terms(rng):
    # start extension from the zero cocycle padded at order 1, insert a
    # cocycle at order 2 by conjugating with a t^2 isomorphism
    f = identity_morphism(truncated_polynomials(QQ, 2))
    phi = FormalIsomorphism.identity(f, 2)
    terms = list(phi.terms)
    terms[2] = random_triple_cochain(f, 1, rng, 0.7)
    theta = conjugate(trivial_deformation(f, 3), FormalIsomorphism(f, terms))
    lead = infinitesimal(theta)
    if lead.is_trivial:
        pytest.skip("random pair was in the kernel")
    assert lead.order == 2
    assert lead.is_cocycle


def _cochain1_matrix(c):
    """1-cochain as a plain matrix of scalars, rows = output index."""
    d_in = c.source.dim
    return [[c.coeffs[i][b] for i in range(d_in)]
            for b in range(c.module.dim)]


def _series_compose(left, right, order, dim, field):
    """Coefficientwise composition oracle on matrix series (left after right)."""
    out = []
    for n in range(order + 1):
        acc = [[field.zero()] * dim for _ in range(dim)]
        for i in range(n + 1):
            a, b = left[i], right[n - i]
            for r in range(dim):
                for cidx in range(dim):
                    s = acc[r][cidx]
                    for k in range(dim):
                        s = s + a[r][k] * b[k][cidx]
                    acc[r][cidx] = s
        out.append(acc)
    return out


def test_invert_truncated_composes_to_identity(field, rng):
    f = random_morphism_instance(field, rng, max_dim=2)
    assert invert_truncated(FormalIsomorphism.identity(f, 3)) == \
        FormalIsomorphism.identity(f, 3)
    assert invert_truncated(FormalIsomorphism.identity(f), 0) == \
        FormalIsomorphism.identity(f)
    phi = random_formal_isomorphism(f, 3, rng)
    psi = invert_truncated(phi)
    for which in (0, 1):
        dim = (f.source if which == 0 else f.target).dim
        if dim == 0:
            continue
        fwd = [_cochain1_matrix((t.xi, t.pi)[which]) for t in phi.terms]
        bwd = [_cochain1_matrix((t.xi, t.pi)[which]) for t in psi.terms]
        ident = [[f.source.field.one() if r == c else f.source.field.zero()
                  for c in range(dim)] for r in range(dim)]
        zero = [[f.source.field.zero()] * dim for _ in range(dim)]
        for left, right in ((fwd, bwd), (bwd, fwd)):
            series = _series_compose(left, right, 3, dim, f.source.field)
            assert series[0] == ident
            for n in range(1, 4):
                assert series[n] == zero


def test_invert_single_term_is_geometric_series(rng):
    # (Id + p t)^{-1} = Id - p t + p^2 t^2 - ... up to the truncation
    f = identity_morphism(truncated_polynomials(QQ, 2))
    pair = random_triple_cochain(f, 1, rng, 0.7)
    phi = FormalIsomorphism.single_term(f, 1, pair)
    psi = invert_truncated(phi, 3)
    power = _cochain1_matrix(pair.xi)
    mats = [_cochain1_matrix(t.xi) for t in psi.terms]
    sign = -1
    current = power
    for n in (1, 2, 3):
        expected = [[sign * x for x in row] for row in current]
        assert mats[n] == expected
        current = _series_compose([current], [power], 0, 2, QQ)[0]
        sign = -sign


def test_conjugation_round_trip(field, rng):
    f = random_morphism_instance(field, rng, max_dim=2)
    phi = random_formal_isomorphism(f, 3, rng)
    psi = invert_truncated(phi)
    theta = random_deformation(f, 3, rng)
    assert conjugate(conjugate(theta, phi), psi) == theta
    assert conjugate(conjugate(theta, psi), phi) == theta


def test_conjugation_pads_and_truncates_isomorphism_order(rng):
    f = identity_morphism(truncated_polynomials(QQ, 2))
    theta = trivial_deformation(f, 2)
    long_phi = random_formal_isomorphism(f, 5, rng)
    short_phi = FormalIsomorphism(f, long_phi.terms[:3])
    assert conjugate(theta, long_phi) == conjugate(theta, short_phi)


def test_conjugate_rejects_an_isomorphism_over_another_morphism(rng):
    # theta deforms id_T2; a phi over id_T3 (other dimensions) or over the
    # identity of the abelian plane (same dimensions, other product) is
    # refused, also where the infinitesimal check conjugates
    f = identity_morphism(truncated_polynomials(QQ, 2))
    theta = random_deformation(f, 2, rng)
    for g in (identity_morphism(truncated_polynomials(QQ, 3)),
              identity_morphism(zero_algebra(QQ, 2))):
        phi = random_formal_isomorphism(g, 2, rng)
        with pytest.raises(ValueError, match="over another morphism"):
            conjugate(theta, phi)
        with pytest.raises(ValueError, match="over another morphism"):
            infinitesimal_difference_is_coboundary(theta, phi)


def test_invert_rejects_non_identity_constant_term():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    pair = random_triple_cochain(f, 1, random.Random(5), 0.7)
    with pytest.raises(ValueError):
        FormalIsomorphism(f, [pair])


def test_conjugate_by_identity_is_identity(field, rng):
    f = random_morphism_instance(field, rng, max_dim=2)
    theta = random_deformation(f, 2, rng)
    assert conjugate(theta, FormalIsomorphism.identity(f)) == theta


def test_conjugate_first_order_formula(field, rng):
    # the t-coefficient of the transported morphism series is
    # f_1 + phi_S f - f phi_R
    from zinbiel.morphism_complex import push_forward_left, \
        push_forward_right
    for _ in range(5):
        f = random_morphism_instance(field, rng, max_dim=2)
        theta = random_deformation(f, 1, rng)
        pair = random_triple_cochain(f, 1, rng, 0.7)
        phi = FormalIsomorphism.single_term(f, 1, pair)
        bar = conjugate(theta, phi)
        f1 = theta.terms[1].phi
        expected = (f1 + push_forward_right(f, pair.pi)
                    - push_forward_left(f, pair.xi))
        assert bar.terms[1].phi == expected


def test_theorem_difference_of_infinitesimals(field, rng):
    for _ in range(6):
        f = random_morphism_instance(field, rng, max_dim=2)
        theta = random_deformation(f, 2, rng)
        phi = random_formal_isomorphism(f, 2, rng)
        cert = infinitesimal_difference_is_coboundary(theta, phi)
        assert cert.ok


def test_difference_on_abelian_pair_is_linear(rng):
    # all products vanish, so conjugation only shifts the morphism series:
    # f_bar_1 = f_1 + phi_S - phi_R under the identity morphism
    algebra = zero_algebra(QQ, 2)
    f = identity_morphism(algebra)
    theta = random_deformation(f, 1, rng)
    pair = random_triple_cochain(f, 1, rng, 0.7)
    bar = conjugate(theta, FormalIsomorphism.single_term(f, 1, pair))
    from zinbiel.morphism_complex import push_forward_left, \
        push_forward_right
    assert bar.terms[1].phi == theta.terms[1].phi \
        + push_forward_right(f, pair.pi) - push_forward_left(f, pair.xi)


def test_obstruction_of_trivial_tail_is_zero():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    ob = obstruction(trivial_deformation(f, 2))
    assert ob.is_zero()


def test_curated_obstruction_value():
    # N = 1, abelian line, f = 0, mu(e1,e1) = e1:
    # Ob_R(e1,e1,e1) = mu(mu(e1,e1),e1) - 2 mu(e1,mu(e1,e1)) = -e1
    f = _abelian_line_zero_morphism()
    theta = check_deformation(f, [theta_zero(f), _mu_term(f)])
    ob = obstruction(theta)
    assert ob.xi.eval_basis((0, 0, 0)) == [QQ.from_int(-1)]
    assert ob.pi.is_zero() and ob.phi.is_zero()
    ok, _ = is_cocycle(ob)
    assert ok


def test_obstruction_is_a_cocycle_and_natural(field, rng):
    for _ in range(6):
        f = random_morphism_instance(field, rng, max_dim=2)
        theta = random_deformation(f, rng.randint(1, 3), rng)
        ob = obstruction(theta)
        ok, _ = is_cocycle(ob)
        assert ok
        assert verify_obstruction_identity(theta).ok


def test_extend_trivial_returns_zero_term():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    step = extend_one_order(trivial_deformation(f, 2))
    assert step.succeeded and step.term.is_zero()
    assert step.extended.order == 3


def test_extension_blocked_by_nonzero_class():
    f = _abelian_line_zero_morphism()
    theta = check_deformation(f, [theta_zero(f), _mu_term(f)])
    step = extend_one_order(theta)
    assert not step.succeeded
    from zinbiel.morphism_complex import coboundary_preimage
    assert coboundary_preimage(step.obstruction) is None


def test_extend_round_trip_property(field, rng):
    # success means the series re-validates at N+1; failure means the
    # obstruction has no preimage
    from zinbiel.morphism_complex import coboundary_preimage
    for _ in range(6):
        f = random_morphism_instance(field, rng, max_dim=2)
        theta = random_deformation(f, rng.randint(1, 2), rng)
        step = extend_one_order(theta)
        if step.succeeded:
            check_deformation(f, step.extended.terms)
        else:
            assert coboundary_preimage(step.obstruction) is None


def test_extend_validates_the_new_order(rng):
    # with theta_1 = 0 the order-2 condition asks theta_2 to be a cocycle
    f = identity_morphism(truncated_polynomials(QQ, 2))
    terms = trivial_deformation(f, 1).terms
    z = random_combination(cocycle_basis(f), rng)
    assert check_deformation(f, terms + [z]).terms[2] == z
    while True:
        cand = random_triple_cochain(f, 2, rng)
        if not is_cocycle(cand)[0]:
            break
    with pytest.raises(DeformationError) as err:
        check_deformation(f, terms + [cand])
    assert err.value.order == 2 and err.value.violations


def test_extend_rejects_a_term_that_does_not_solve(monkeypatch, rng):
    # a wrong solution leaves a residual at the new order: the step fails
    # with the violations deformation_violations finds at that order
    from zinbiel import deformation
    f = identity_morphism(truncated_polynomials(QQ, 2))
    theta = trivial_deformation(f, 1)
    while True:
        cand = random_triple_cochain(f, 2, rng)
        if not is_cocycle(cand)[0]:
            break
    monkeypatch.setattr(deformation, "coboundary_preimage", lambda ob: cand)
    with pytest.raises(DeformationError) as err:
        extend_one_order(theta)
    assert err.value.order == 2 and err.value.violations
    assert err.value.violations == deformation_violations(
        f, theta.terms + [cand], 2)[1]


def test_extend_to_continues_a_deformation(rng):
    f = identity_morphism(truncated_polynomials(QQ, 2))
    z = random_combination(cocycle_basis(f), rng)
    grown = extend_from_cocycle(f, z, 3)
    again = extend_to(check_deformation(f, [theta_zero(f), z]), 3)
    assert again.deformation == grown.deformation
    assert again.failed_at == grown.failed_at
    # a series already past the target comes back unchanged
    past = extend_to(trivial_deformation(f, 3), 2)
    assert past.succeeded and past.deformation.order == 3


def test_extend_from_cocycle_requires_cocycle(rng):
    f = identity_morphism(truncated_polynomials(QQ, 2))
    while True:
        cand = random_triple_cochain(f, 2, rng)
        ok, _ = is_cocycle(cand)
        if not ok:
            break
    with pytest.raises(ValueError):
        extend_from_cocycle(f, cand, 2)


def test_extend_from_zero_cocycle_gives_trivial():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    trace = extend_from_cocycle(f, TripleCochain.zero(f, 2), 3)
    assert trace.succeeded
    assert trace.deformation.terms[1].is_zero()


def test_extend_from_cocycle_blocked():
    f = _abelian_line_zero_morphism()
    trace = extend_from_cocycle(f, _mu_term(f), 2)
    assert not trace.succeeded
    assert trace.failed_at == 2
    assert trace.deformation.order == 1
    assert not trace.obstruction.is_zero()


def test_coboundary_infinitesimals_extend_far(field, rng):
    # a coboundary is the infinitesimal of a conjugate of the trivial
    # deformation; the deterministic solver reaches order 4 as well
    f = identity_morphism(truncated_polynomials(field, 2))
    seed = morphism_differential(random_triple_cochain(f, 1, rng, 0.7))
    trace = extend_from_cocycle(f, seed, 4)
    assert trace.succeeded
    assert trace.deformation.order == 4


def test_normalize_trivial_input_returns_identity():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    theta = trivial_deformation(f, 2)
    phi, bar = normalize_leading_term(theta)
    assert phi == FormalIsomorphism.identity(f)
    assert bar == theta


def test_normalize_kills_coboundary_leading_term(rng):
    f = identity_morphism(truncated_polynomials(PrimeField(7), 2))
    for _ in range(6):
        lead = morphism_differential(random_triple_cochain(f, 1, rng, 0.7))
        theta = check_deformation(f, [theta_zero(f), lead], order=1)
        phi, bar = normalize_leading_term(theta)
        assert bar.terms[1].is_zero()


def test_normalize_rejects_non_coboundary():
    algebra = zero_algebra(QQ, 1)
    f = identity_morphism(algebra)
    basis = Cochain(algebra, algebra.regular_bimodule(), 2, [[1]])
    term = TripleCochain(f, 2, basis, basis,
                         Cochain.zero(algebra, f.as_bimodule(), 1))
    theta = check_deformation(f, [theta_zero(f), term])
    with pytest.raises(DeformationError):
        normalize_leading_term(theta)


def test_trivialize_conjugates_of_trivial(field, rng):
    # every leading term along the way is a coboundary, so iterated
    # normalization reaches the trivial deformation exactly
    for _ in range(4):
        f = random_morphism_instance(field, rng, max_dim=2)
        theta = random_deformation(f, 4, rng)
        _, final = trivialize(theta)
        assert final.is_trivial()


def test_rigidity_reports():
    f = identity_morphism(zero_algebra(QQ, 1))
    report = rigidity_check(f)
    assert report.h2_dim == 1 and report.verdict == "inconclusive"

    # on a rigid morphism every random deformation trivializes
    f0 = identity_morphism(zero_algebra(QQ, 0))
    assert rigidity_check(f0).verdict == "rigid"
    rng = random.Random(11)
    for _ in range(4):
        _, final = trivialize(random_deformation(f0, 3, rng))
        assert final.is_trivial()


def test_obstruction_requires_positive_order():
    f = identity_morphism(zero_algebra(QQ, 1))
    with pytest.raises(ValueError):
        obstruction(trivial_deformation(f, 0))


# -- the truncated series shared by deformations and formal isomorphisms --

def _identity_t2():
    return identity_morphism(truncated_polynomials(QQ, 2))


def _identity_pair(f):
    return TripleCochain(f, 1, identity_cochain(f.source),
                         identity_cochain(f.target), None)


@pytest.mark.parametrize("call", [
    lambda f: trivial_deformation(f, 4).truncate(-3),
    lambda f: check_deformation(f, trivial_deformation(f, 4).terms, -3),
    lambda f: FormalIsomorphism.identity(f, 3).padded(-2),
    lambda f: trivial_deformation(f, 2).padded(-1),
    lambda f: invert_truncated(FormalIsomorphism.identity(f, 2), -5),
    lambda f: trivial_deformation(f, -1),
    lambda f: FormalIsomorphism.identity(f, -1),
    lambda f: FormalIsomorphism.single_term(f, -1, _identity_pair(f)),
], ids=["truncate", "check_deformation", "identity_padded",
        "deformation_padded", "invert_truncated", "trivial_deformation",
        "identity", "single_term"])
def test_negative_orders_are_rejected(call):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        call(_identity_t2())


def test_each_constructor_names_its_own_failure():
    f = _identity_t2()
    r, s = f.source, f.target
    ident = _identity_pair(f)
    cases = [
        (TruncatedDeformation, [], "a deformation needs at least its "
         "constant term"),
        (TruncatedDeformation, [theta_zero(f), TripleCochain.zero(f, 3)],
         "terms must be degree-2 triples over the morphism"),
        (TruncatedDeformation, [TripleCochain.zero(f, 2)],
         "constant term differs from (m_R; m_S; f)"),
        (FormalIsomorphism, [], "a formal isomorphism needs its constant "
         "term"),
        (FormalIsomorphism, [ident, TripleCochain.zero(f, 2)],
         "terms must be pairs of 1-cochains on R and S"),
        # a bare tuple of cochains is no term
        (FormalIsomorphism, [ident, (identity_cochain(r),
                                     identity_cochain(s))],
         "terms must be pairs of 1-cochains on R and S"),
        (FormalIsomorphism, [TripleCochain.zero(f, 1)],
         "constant term must be the identity pair"),
    ]
    for cls, terms, message in cases:
        with pytest.raises(ValueError) as err:
            cls(f, terms)
        assert str(err.value) == message


def test_padding_extends_and_cuts_both_series_alike(rng):
    f = _identity_t2()
    theta = random_deformation(f, 2, rng)
    phi = random_formal_isomorphism(f, 2, rng)
    for series, zero in ((theta, TripleCochain.zero(f, 2)),
                         (phi, TripleCochain.zero(f, 1))):
        assert series.padded(2) == series.terms
        assert series.padded(0) == series.terms[:1]
        assert series.padded(1) == series.terms[:2]
        assert series.padded(4) == series.terms + [zero, zero]
    assert theta.truncate(1).terms == theta.padded(1)
    assert theta.truncate(5) is theta


def test_trivial_series_equal_their_checked_constructions():
    f = _identity_t2()
    one = [_identity_pair(f)]
    for order in (0, 1, 3):
        assert FormalIsomorphism.identity(f, order) == FormalIsomorphism(
            f, one + [TripleCochain.zero(f, 1)] * order)
        assert trivial_deformation(f, order) == TruncatedDeformation(
            f, [theta_zero(f)] + [TripleCochain.zero(f, 2)] * order)
        assert trivial_deformation(f, order) == check_deformation(
            f, [theta_zero(f)], order)
    assert repr(trivial_deformation(f, 3)) == "TruncatedDeformation(order=3)"
    assert repr(FormalIsomorphism.identity(f, 2)) == \
        "FormalIsomorphism(order=2)"
    assert trivial_deformation(f, 0) != FormalIsomorphism.identity(f, 0)


def test_the_public_constructor_cannot_skip_its_checks():
    f = _identity_t2()
    with pytest.raises(TypeError):
        TruncatedDeformation(f, [TripleCochain.zero(f, 2)], _validated=True)


# -- the draws of random_deformation, pinned ------------------------------

def _digest(theta) -> str:
    """sha256 (first 16 hex digits) of every coefficient of every term."""
    fmt = theta.morphism.source.field.format
    text = "\n".join(" ".join(fmt(c) for row in part.coeffs for c in row)
                     for term in theta.terms
                     for part in (term.xi, term.pi, term.phi))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# suite index -> digest of random_deformation(suite[i], 4, Random(i)):
# Q 2->2, Q 3->1, Q 2->2, F5 2->1, F101 3->1, F101 1->1
DRAWN = {5: "10c336e61ac2ca97", 17: "905f7c4b6ed1b92d",
         48: "56a98decb3e8b502", 110: "d9fca8122c02e93d",
         200: "ed0fb3bcfa379330", 215: "b4759815f2f0fcb4"}


def test_random_deformation_draws_are_pinned(suite):
    # a change in what random_deformation draws, or in what order, moves
    # every series a seeded suite, demo or benchmark builds from it
    for i, digest in DRAWN.items():
        theta = random_deformation(suite[i], 4, random.Random(i))
        assert _digest(theta) == digest, i


def test_random_formal_isomorphism_builds_no_zero_term(monkeypatch):
    # every term past the identity pair is drawn, so none is zero-padded
    # first and then overwritten
    f = identity_morphism(truncated_polynomials(QQ, 2))
    calls = []
    zero = TripleCochain.zero

    def counted(cls, morphism, degree):
        calls.append(degree)
        return zero(morphism, degree)

    monkeypatch.setattr(TripleCochain, "zero", classmethod(counted))
    phi = random_formal_isomorphism(f, 4, random.Random(0))
    assert phi.order == 4
    assert calls == []


def test_single_term_builds_no_zero_term_to_overwrite(monkeypatch):
    # at order 1 the series is the identity pair and the term as they
    # are; a zero term is made only for an order in between
    f = identity_morphism(truncated_polynomials(QQ, 2))
    term = random_triple_cochain(f, 1, random.Random(0))
    zero = TripleCochain.zero(f, 1)
    calls = []
    made = TripleCochain.zero

    def counted(cls, morphism, degree):
        calls.append(degree)
        return made(morphism, degree)

    monkeypatch.setattr(TripleCochain, "zero", classmethod(counted))
    phi = FormalIsomorphism.single_term(f, 1, term)
    assert phi.terms == [_identity_pair(f), term]
    assert calls == []
    phi = FormalIsomorphism.single_term(f, 3, term)
    assert phi.terms == [_identity_pair(f), zero, zero, term]
    assert calls == [1]
    assert FormalIsomorphism.single_term(f, 0, _identity_pair(f)) == \
        FormalIsomorphism.identity(f)
    with pytest.raises(ValueError) as err:
        FormalIsomorphism.single_term(f, 0, term)
    assert str(err.value) == "constant term must be the identity pair"


def test_validation_sums_no_zero_term(monkeypatch):
    # id of the 1-dim zero algebra: both products are zero in every order,
    # so every product and morphism sum of a series with no term past
    # theta_0 is empty, however long the series
    f = identity_morphism(zero_algebra(QQ, 1))
    received = []
    for name in ("_pairs", "_triples"):
        def counting(n, *orders, original=getattr(deformation, name)):
            out = original(n, *orders)
            received.extend(out)
            return out
        monkeypatch.setattr(deformation, name, counting)
    theta = check_deformation(f, [theta_zero(f)], order=300)
    assert theta.order == 300 and theta.is_trivial()
    assert received == []


def test_validation_finds_the_nonzero_orders_once(monkeypatch):
    # the orders of the nonzero terms are found once per read series, not
    # again at every validated order
    f = identity_morphism(zero_algebra(QQ, 1))
    calls = []

    def counting(series, original=deformation._orders):
        calls.append(len(series))
        return original(series)
    monkeypatch.setattr(deformation, "_orders", counting)
    theta = check_deformation(f, [theta_zero(f)], order=300)
    assert theta.order == 300 and theta.is_trivial()
    assert len(calls) <= 3


def test_series_inversion_reads_no_zero_term():
    # Id + 0 t + .. + 0 t^300 on a 2-dim space: every order of the inverse
    # is zero, and no zero term of the series is read to find that
    class Counting(list):
        reads = 0

        def __getitem__(self, i):
            Counting.reads += 1
            return super().__getitem__(i)
    terms = Counting([[[(0, 1)], [(1, 1)]]] + [[[], []]] * 300)
    psi = deformation._invert_series(terms, 300, 2, 1, 0)
    assert psi[0] == [[(0, 1)], [(1, 1)]]
    assert all(rows == [[], []] for rows in psi[1:])
    assert Counting.reads == 0


def test_conjugation_sums_no_order_without_a_pair(monkeypatch):
    # the trivial deformation of id_T2 to order 300 conjugated by the
    # identity: only order 0 has a pair of nonzero terms, so only its
    # rows are accumulated, 12 + 12 for the two products and 4 for f
    f = identity_morphism(truncated_polynomials(QQ, 2))
    calls = []

    def counting(acc, p, original=deformation._settle):
        calls.append(len(acc))
        return original(acc, p)
    monkeypatch.setattr(deformation, "_settle", counting)
    theta = trivial_deformation(f, 300)
    bar = conjugate(theta, FormalIsomorphism.identity(f))
    assert bar == theta
    assert len(calls) == 28
