import pytest

import differential_oracle as oracle
from oracle_helpers import evaluate
from zinbiel.catalog import truncated_polynomials, zero_algebra
from zinbiel.cochains import (Cochain, cohomology_dim, complex_dim,
                              differential, differential_matrix,
                              identity_cochain, product_cochain)
from zinbiel.fields import QQ, PrimeField
from zinbiel.sampling import random_cochain, random_morphism_instance


def test_identity_differential_is_the_product():
    # d1(id)(x,y) = x*y - (x*y) + x*y = x*y under regular coefficients
    for dim in (1, 2, 3):
        algebra = truncated_polynomials(QQ, dim)
        assert differential(identity_cochain(algebra)) == \
            product_cochain(algebra)


def test_differential_of_zero_is_zero():
    algebra = truncated_polynomials(QQ, 2)
    module = algebra.regular_bimodule()
    for arity in (1, 2, 3):
        assert differential(Cochain.zero(algebra, module, arity)).is_zero()


def test_abelian_algebra_kills_every_differential(rng):
    algebra = zero_algebra(QQ, 2)
    module = algebra.regular_bimodule()
    for arity in (1, 2, 3):
        phi = random_cochain(algebra, module, arity, rng)
        assert differential(phi).is_zero()


def test_differential_rejects_bad_arity():
    algebra = truncated_polynomials(QQ, 2)
    module = algebra.regular_bimodule()
    with pytest.raises(ValueError):
        differential(Cochain.zero(algebra, module, 4))
    with pytest.raises(ValueError):
        differential_matrix(algebra, module, 4)


def test_a_module_over_another_algebra_is_rejected():
    # these used to raise KeyError, give 1 and give 4
    t2, t3 = truncated_polynomials(QQ, 2), truncated_polynomials(QQ, 3)
    for algebra, module in ((t2, t3.regular_bimodule()),
                            (zero_algebra(QQ, 2), t2.regular_bimodule()),
                            (t3, t2.regular_bimodule())):
        with pytest.raises(ValueError, match="not over"):
            cohomology_dim(algebra, module, 2)
        with pytest.raises(ValueError, match="not over"):
            differential_matrix(algebra, module, 1)


def test_product_is_a_cocycle(field, rng):
    for _ in range(8):
        f = random_morphism_instance(field, rng, max_dim=3)
        for algebra in (f.source, f.target):
            assert differential(product_cochain(algebra)).is_zero()


def test_dd_is_zero_matrices(field, rng):
    for _ in range(6):
        f = random_morphism_instance(field, rng, max_dim=2)
        algebra = f.source
        module = algebra.regular_bimodule()
        for i in (1, 2):
            hi = differential_matrix(algebra, module, i + 1)
            lo = differential_matrix(algebra, module, i)
            assert (hi @ lo).is_zero()


def test_matrix_is_the_differential(field, rng):
    # the assembled matrix agrees with the tuple-by-tuple oracle on random
    # cochains
    for _ in range(4):
        f = random_morphism_instance(field, rng, max_dim=2)
        algebra, module = f.source, f.as_bimodule()
        for arity in (1, 2, 3):
            mat = differential_matrix(algebra, module, arity)
            phi = random_cochain(algebra, module, arity, rng)
            assert mat.matvec(phi.flatten()) == \
                oracle.differential(phi).flatten()


def test_matrix_shape_and_trivial_case():
    algebra = zero_algebra(QQ, 1)
    module = algebra.regular_bimodule()
    mat = differential_matrix(algebra, module, 1)
    assert mat.nrows == 1 and mat.ncols == 1 and mat.is_zero()

    algebra = truncated_polynomials(QQ, 2)
    module = algebra.regular_bimodule()
    mat = differential_matrix(algebra, module, 1)
    assert (mat.nrows, mat.ncols) == (8, 4)
    flat = identity_cochain(algebra).flatten()
    assert mat.matvec(flat) == product_cochain(algebra).flatten()


def test_flatten_round_trip(field, rng):
    algebra = truncated_polynomials(field, 2)
    module = algebra.regular_bimodule()
    for arity in (0, 1, 2, 3, 4):
        phi = random_cochain(algebra, module, arity, rng)
        again = Cochain.from_flat(algebra, module, arity, phi.flatten())
        assert again == phi
    assert complex_dim(algebra, module, 3) == 16


def test_eval_mixed_arguments(rng):
    algebra = truncated_polynomials(QQ, 3)
    module = algebra.regular_bimodule()
    phi = random_cochain(algebra, module, 2, rng, density=1.0)
    u = [QQ.from_int(2), QQ.from_int(-1), QQ.zero()]
    v = [QQ.one(), QQ.zero(), QQ.from_int(3)]
    # multilinearity: expanding by hand must agree with mixed eval
    expected = [QQ.zero()] * 3
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                row = phi.eval_basis((i, j))
                expected = [e + a * b * c for e, c in zip(expected, row)]
    assert evaluate(phi, [u, v]) == expected
    assert evaluate(phi, [1, v]) == evaluate(phi, [[0, 1, 0], v])


def test_cohomology_dims_abelian_line():
    algebra = zero_algebra(QQ, 1)
    module = algebra.regular_bimodule()
    assert cohomology_dim(algebra, module, 2) == 1
    assert cohomology_dim(algebra, module, 3) == 1


def test_cohomology_dim_dim0():
    algebra = zero_algebra(QQ, 0)
    module = algebra.regular_bimodule()
    assert cohomology_dim(algebra, module, 2) == 0
    assert cohomology_dim(algebra, module, 3) == 0


def test_cohomology_dim_matches_over_q_and_big_prime():
    # spot check: the structure constants are small integers, so ranks
    # agree over Q and over F_101
    for dim in (1, 2, 3):
        over_q = truncated_polynomials(QQ, dim)
        over_p = truncated_polynomials(PrimeField(101), dim)
        for n in (2, 3):
            assert cohomology_dim(over_q, over_q.regular_bimodule(), n) == \
                cohomology_dim(over_p, over_p.regular_bimodule(), n)


def test_cohomology_dim_rejects_degrees():
    algebra = zero_algebra(QQ, 1)
    with pytest.raises(ValueError):
        cohomology_dim(algebra, algebra.regular_bimodule(), 4)
