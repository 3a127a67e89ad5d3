import pytest

import differential_oracle as oracle
from zinbiel.algebra import identity_morphism, zero_morphism
from zinbiel.catalog import truncated_polynomials, zero_algebra
from zinbiel.cochains import Cochain, differential, product_cochain
from zinbiel.fields import QQ
from zinbiel.morphism_complex import (TripleCochain, coboundary_preimage,
                                      is_cocycle, morphism_cochain,
                                      morphism_cohomology_dim,
                                      morphism_differential,
                                      morphism_differential_matrix,
                                      push_forward_left, push_forward_right,
                                      triple_dim)
from zinbiel.sampling import (random_cochain, random_morphism_instance,
                              random_triple_cochain)


def test_push_forward_identity_is_identity(rng):
    algebra = truncated_polynomials(QQ, 2)
    f = identity_morphism(algebra)
    for arity in (1, 2, 3):
        xi = random_cochain(algebra, algebra.regular_bimodule(), arity, rng)
        assert push_forward_left(f, xi).coeffs == xi.coeffs
        assert push_forward_right(f, xi).coeffs == xi.coeffs


def test_push_forward_zero_morphism(rng):
    algebra = truncated_polynomials(QQ, 2)
    f = zero_morphism(algebra, algebra)
    xi = random_cochain(algebra, algebra.regular_bimodule(), 2, rng)
    assert push_forward_left(f, xi).is_zero()
    assert push_forward_right(f, xi).is_zero()


def test_push_forwards_refuse_other_coefficients():
    # a cochain on R (on S) with coefficients of the same dimension as R
    # (as S) but not R (not S) itself was once read in R's (S's) basis
    t2 = truncated_polynomials(QQ, 2)
    f = zero_morphism(t2, zero_algebra(QQ, 2))
    xi = Cochain(t2, f.as_bimodule(), 1, [[1, 0], [0, 1]])
    with pytest.raises(ValueError) as err:
        push_forward_left(f, xi)
    assert str(err.value) == "cochain must map the source of f into itself"
    g = zero_morphism(zero_algebra(QQ, 2), t2)
    h = zero_morphism(t2, zero_algebra(QQ, 2))
    pi = Cochain(t2, h.as_bimodule(), 1, [[1, 0], [0, 1]])
    with pytest.raises(ValueError) as err:
        push_forward_right(g, pi)
    assert str(err.value) == "cochain must map the target of f into itself"


def test_push_forward_of_product():
    algebra = truncated_polynomials(QQ, 2)
    f = identity_morphism(algebra)
    m = product_cochain(algebra)
    assert push_forward_left(f, m).coeffs == m.coeffs
    assert push_forward_right(f, m).coeffs == m.coeffs


def test_push_forwards_commute_with_differential(field, rng):
    for _ in range(6):
        f = random_morphism_instance(field, rng, max_dim=2)
        r, s = f.source, f.target
        for arity in (1, 2, 3):
            xi = random_cochain(r, r.regular_bimodule(), arity, rng)
            pi = random_cochain(s, s.regular_bimodule(), arity, rng)
            assert push_forward_left(f, differential(xi)) == \
                differential(push_forward_left(f, xi))
            assert push_forward_right(f, differential(pi)) == \
                differential(push_forward_right(f, pi))


def test_degree1_triples_are_pairs():
    algebra = zero_algebra(QQ, 1)
    f = identity_morphism(algebra)
    pair = TripleCochain.zero(f, 1)
    assert pair.phi is None
    assert len(pair.flatten()) == triple_dim(f, 1) == 2
    with pytest.raises(ValueError):
        TripleCochain(f, 2, pair.xi, pair.pi, None)


def test_morphism_differential_of_identity_pair():
    # d(Id_R; Id_S) = (m_R; m_S; f.Id - Id.f) = (m_R; m_S; 0) for every f
    from zinbiel.catalog import weight_scaling
    from zinbiel.cochains import identity_cochain
    algebra = truncated_polynomials(QQ, 2)
    for f in (identity_morphism(algebra), weight_scaling(algebra, 3)):
        pair = TripleCochain(f, 1, identity_cochain(algebra),
                             identity_cochain(algebra), None)
        out = morphism_differential(pair)
        assert out.xi == product_cochain(algebra)
        assert out.pi == product_cochain(algebra)
        assert out.phi.is_zero()


def test_morphism_differential_linearity_and_zero(field, rng):
    f = random_morphism_instance(field, rng, max_dim=2)
    assert morphism_differential(TripleCochain.zero(f, 2)).is_zero()
    a = random_triple_cochain(f, 2, rng)
    b = random_triple_cochain(f, 2, rng)
    assert morphism_differential(a + b) == \
        morphism_differential(a) + morphism_differential(b)


def test_morphism_dd_is_zero(field, rng):
    for _ in range(5):
        f = random_morphism_instance(field, rng, max_dim=2)
        for degree in (1, 2):
            theta = random_triple_cochain(f, degree, rng)
            assert morphism_differential(morphism_differential(theta)).is_zero()
        for degree in (1, 2):
            hi = morphism_differential_matrix(f, degree + 1)
            lo = morphism_differential_matrix(f, degree)
            assert (hi @ lo).is_zero()


def test_no_differential_out_of_degree_4():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    with pytest.raises(ValueError):
        morphism_differential(TripleCochain.zero(f, 4))
    with pytest.raises(ValueError):
        morphism_differential_matrix(f, 4)


def test_matrix_agrees_with_direct_differential(field, rng):
    for _ in range(4):
        f = random_morphism_instance(field, rng, max_dim=2)
        for degree in (1, 2, 3):
            theta = random_triple_cochain(f, degree, rng)
            mat = morphism_differential_matrix(f, degree)
            assert mat.matvec(theta.flatten()) == \
                oracle.morphism_differential(theta).flatten()


def test_triple_flatten_round_trip(field, rng):
    f = random_morphism_instance(field, rng, max_dim=2)
    for degree in (1, 2, 3, 4):
        theta = random_triple_cochain(f, degree, rng)
        assert TripleCochain.from_flat(f, degree, theta.flatten()) == theta


def test_h2_of_identity_on_abelian_line():
    # frozen: C^1 = 2, C^2 = 3, d1(xi;pi) = (0;0;xi-pi) has rank 1,
    # d2 has kernel of dimension 2, so H^2 = 2 - 1 = 1
    f = identity_morphism(zero_algebra(QQ, 1))
    assert morphism_cohomology_dim(f, 2) == 1


def test_h_of_dim0_morphism():
    f = identity_morphism(zero_algebra(QQ, 0))
    assert morphism_cohomology_dim(f, 2) == 0
    assert morphism_cohomology_dim(f, 3) == 0


def test_product_cochain_is_cocycle_not_always_coboundary():
    algebra = zero_algebra(QQ, 1)
    module = algebra.regular_bimodule()
    basis_cochain = Cochain(algebra, module, 2, [[1]])
    ok, residual = is_cocycle(basis_cochain)
    assert ok and residual.is_zero()
    assert coboundary_preimage(basis_cochain) is None


def test_coboundaries_have_preimages(field, rng):
    for _ in range(5):
        f = random_morphism_instance(field, rng, max_dim=2)
        r = f.source
        phi = random_cochain(r, r.regular_bimodule(), 1, rng)
        x = differential(phi)
        ok, _ = is_cocycle(x)
        assert ok
        pre = coboundary_preimage(x)
        assert pre is not None and differential(pre) == x
        theta = random_triple_cochain(f, 1, rng)
        y = morphism_differential(theta)
        pre = coboundary_preimage(y)
        assert pre is not None and morphism_differential(pre) == y


def test_cocycle_checks_reject_wrong_degrees():
    f = identity_morphism(zero_algebra(QQ, 1))
    with pytest.raises(ValueError):
        is_cocycle(TripleCochain.zero(f, 1))
    with pytest.raises(ValueError):
        coboundary_preimage(TripleCochain.zero(f, 4))


def test_morphism_cochain_round_trip():
    f = identity_morphism(truncated_polynomials(QQ, 2))
    mc = morphism_cochain(f)
    assert mc.eval_basis((0,)) == f.apply_basis(0)
    assert mc.eval_basis((1,)) == f.apply_basis(1)
