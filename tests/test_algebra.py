import pytest

from zinbiel import algebra as algebra_module
from zinbiel.algebra import (AlgebraMorphism, Bimodule, IdentityError,
                             ZinbielAlgebra, bimodule_via_morphism,
                             bimodule_violations, identity_morphism,
                             zero_morphism, zinbiel_violations)
from zinbiel.catalog import (change_of_basis, direct_sum,
                             single_product_algebra, truncated_polynomials,
                             weight_scaling, zero_algebra)
from zinbiel.fields import QQ, FieldError, PrimeField
from zinbiel.linalg import Matrix
from zinbiel.morphism_complex import morphism_cohomology_dim
from zinbiel.sampling import random_invertible, random_morphism_instance


def _brute_force_identity(algebra):
    """Independent check of (x*y)*z = x*(y*z) + x*(z*y) on basis triples."""
    d = algebra.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = algebra.product(algebra.product_basis(i, j),
                                      [algebra.field.one() if t == k
                                       else algebra.field.zero()
                                       for t in range(d)])
                e = lambda t: [algebra.field.one() if s == t
                               else algebra.field.zero() for s in range(d)]
                rhs = [a + b for a, b in zip(
                    algebra.product(e(i), algebra.product(e(j), e(k))),
                    algebra.product(e(i), algebra.product(e(k), e(j))))]
                if lhs != rhs:
                    return False
    return True


def test_abelian_dim2_is_valid():
    algebra = zero_algebra(QQ, 2)
    assert _brute_force_identity(algebra)


def test_single_product_dim2_is_valid():
    # e1*e1 = e2: every instance of the identity evaluates to zero on
    # both sides because no product lands back on e1
    algebra = single_product_algebra(QQ, 2, 0, 0, 1, 1)
    assert _brute_force_identity(algebra)
    assert algebra.product_basis(0, 0) == [QQ.zero(), QQ.one()]


def test_idempotent_line_is_invalid():
    # e1*e1 = e1 gives (e1 e1) e1 = e1 but the right side is 2 e1
    with pytest.raises(IdentityError) as err:
        ZinbielAlgebra(QQ, 1, [[[1]]])
    violations = err.value.violations
    assert [v.where for v in violations] == [(0, 0, 0)]
    assert violations[0].residual == [QQ.from_int(-1)]


def test_violation_report_without_exception():
    bad = [[[QQ.one()]]]
    report = zinbiel_violations(QQ, 1, bad)
    assert len(report) == 1 and report[0].where == (0, 0, 0)
    assert zinbiel_violations(QQ, 2, zero_algebra(QQ, 2).gamma) == []


def test_shape_errors():
    with pytest.raises(ValueError):
        ZinbielAlgebra(QQ, 2, [[[0, 0]]])
    with pytest.raises(FieldError):
        PrimeField(6)


def test_dim0_everywhere():
    algebra = zero_algebra(QQ, 0)
    assert algebra.dim == 0
    f = identity_morphism(algebra)
    assert f.matrix.nrows == 0
    bimodule_via_morphism(f)


def test_validator_agrees_with_brute_force(field, rng):
    # randomized candidates: validated algebras satisfy the brute-force
    # identity, perturbed ones that fail brute force are rejected
    for _ in range(20):
        f = random_morphism_instance(field, rng, max_dim=2)
        assert _brute_force_identity(f.source)
        assert _brute_force_identity(f.target)


def test_identity_morphism_valid():
    algebra = truncated_polynomials(QQ, 3)
    identity_morphism(algebra)


def test_zero_morphism_valid():
    a = truncated_polynomials(QQ, 2)
    b = single_product_algebra(QQ, 3, 0, 1, 2, 1)
    zero_morphism(a, b)


def test_swap_map_is_not_a_morphism():
    algebra = truncated_polynomials(QQ, 2)
    swap = [[0, 1], [1, 0]]
    with pytest.raises(IdentityError) as err:
        AlgebraMorphism(algebra, algebra, swap)
    # f(e1*e1) = f(e2) = e1 while f(e1)*f(e1) = e2*e2 = 0, and the
    # swapped square fails symmetrically at (e2,e2)
    by_where = {x.where: x.residual for x in err.value.violations}
    assert by_where[(0, 0)] == [QQ.one(), QQ.zero()]
    assert by_where[(1, 1)] == [QQ.zero(), QQ.from_int(-1)]


def test_morphism_field_mismatch():
    a = zero_algebra(QQ, 1)
    b = zero_algebra(PrimeField(5), 1)
    with pytest.raises(FieldError):
        AlgebraMorphism(a, b, [[1]])
    # a matrix over another field than both algebras'
    t2 = truncated_polynomials(QQ, 2)
    with pytest.raises(FieldError, match="morphism matrix over another field"):
        AlgebraMorphism(t2, t2, Matrix.identity(PrimeField(5), 2))


def test_bimodule_via_identity_is_regular():
    algebra = truncated_polynomials(QQ, 2)
    module = bimodule_via_morphism(identity_morphism(algebra))
    assert module.left == algebra.gamma
    assert module.right == algebra.gamma
    assert module == algebra.regular_bimodule()


def test_bimodule_via_zero_morphism_has_zero_actions():
    a = truncated_polynomials(QQ, 2)
    module = bimodule_via_morphism(zero_morphism(a, a))
    assert all(not any(v) for col in module.left for v in col)
    assert all(not any(v) for col in module.right for v in col)


def test_bimodule_via_morphism_structure_constants():
    # g = id on the e1*e1 = e2 algebra: the only nonzero action constants
    # are lambda[1][1] = e2 and rho[1][1] = e2 (1-based)
    algebra = truncated_polynomials(QQ, 2)
    module = bimodule_via_morphism(identity_morphism(algebra))
    for i in range(2):
        for a in range(2):
            expected = [QQ.zero(), QQ.one()] if (i, a) == (0, 0) \
                else [QQ.zero()] * 2
            assert module.left[i][a] == expected
            assert module.right[a][i] == expected


def test_bimodule_via_random_morphisms_validates(field, rng):
    # the mixed identities must hold whenever the underlying map is a
    # morphism; the derived bimodule is built unchecked, so check here
    for _ in range(15):
        f = random_morphism_instance(field, rng, max_dim=2)
        module = bimodule_via_morphism(f)
        assert bimodule_violations(f.source, module.dim, module.left,
                                   module.right) == []


def test_derived_bimodules_equal_the_checked_construction(suite):
    # regular_bimodule() and as_bimodule() skip the mixed-identity check;
    # on every suite instance the check passes and the checked
    # constructor builds the same value from the same actions
    for f in suite:
        for module in (f.source.regular_bimodule(),
                       f.target.regular_bimodule(), f.as_bimodule()):
            args = (module.algebra, module.dim, module.left, module.right)
            assert bimodule_violations(*args) == []
            checked = Bimodule(*args)
            assert checked == module
            assert repr((checked.left, checked.right)) == \
                repr((module.left, module.right))


def test_a_morphism_reads_its_matrix_once(monkeypatch):
    # the constructor's check and every later reader share one transpose
    # of f's int rows
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)
    original = algebra_module._columns
    monkeypatch.setattr(algebra_module, "_columns", counting)
    f = identity_morphism(truncated_polynomials(QQ, 3))
    morphism_cohomology_dim(f, 2)
    assert calls == [f.matrix]


def test_each_product_is_read_once(monkeypatch):
    # the constructor's read is kept: the morphisms' checks and the
    # cohomology (the regular and via-f bimodules, every d^n) read it
    calls = []

    def counting(groups, p):
        calls.append(p)
        return original(groups, p)
    original = algebra_module._ints
    monkeypatch.setattr(algebra_module, "_ints", counting)
    algebra = truncated_polynomials(QQ, 3)
    assert len(calls) == 1
    morphisms = [identity_morphism(algebra) for _ in range(3)]
    morphism_cohomology_dim(morphisms[-1], 2)
    assert len(calls) == 1


def test_the_mixed_identities_sum_only_the_mixed_triples(monkeypatch):
    # the square-zero extension of T3 by its via-identity bimodule has
    # (3 + 3)^3 = 216 basis triples; the mixed identities read only the
    # 3 * 3^2 * 3 = 81 with exactly one module argument, and only those
    # are summed
    algebra = truncated_polynomials(QQ, 3)
    module = identity_morphism(algebra).as_bimodule()
    summed = []

    def counting(*args):
        rows = original(*args)
        summed.append(len(rows))
        return rows
    original = algebra_module._product_sums
    monkeypatch.setattr(algebra_module, "_product_sums", counting)
    assert bimodule_violations(algebra, module.dim, module.left,
                               module.right) == []
    assert sum(summed) == 81


def test_invalid_actions_rejected():
    algebra = truncated_polynomials(QQ, 2)
    left = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    right = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    left = [[list(v) for v in col] for col in left]
    left[0][0] = [0, 1]          # e1 . a1 = a2
    left[1][0] = [1, 0]          # e2 . a1 = a1: breaks (x y) a = x(y a) + x(a y)
    with pytest.raises(IdentityError):
        Bimodule(algebra, 2, left, right)


def test_change_of_basis_preserves_validity(field, rng):
    base = truncated_polynomials(field, 3)
    p = random_invertible(field, 3, rng)
    transported, iso = change_of_basis(base, p)
    assert iso.source is base and iso.target is transported
    assert _brute_force_identity(transported)


def test_direct_sum_and_scaling():
    a = truncated_polynomials(QQ, 2)
    b = zero_algebra(QQ, 1)
    total = direct_sum(a, b)
    assert total.dim == 3
    assert _brute_force_identity(total)
    weight_scaling(truncated_polynomials(QQ, 3), 5)
