"""The sparse elimination against the dense Gauss-Jordan oracle, the
int product `@` against the dense product of field values, and the
readers of the int rows (`rows`, `column`, `matvec`, `==`) against dense
field arithmetic on `rows`, and each answer of the elimination against
the same answer for the rows in another order.

Results must agree byte for byte: the same rank, the same nullspace basis
vectors, the same particular solutions, inverses, products, columns and
images, with scalars of the same type and value.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dense_oracle
from instances import SEED
from zinbiel.algebra import AlgebraMorphism, zero_morphism
from zinbiel.catalog import single_product_algebra
from zinbiel.fields import QQ, PrimeField
from zinbiel.linalg import Matrix, _echelon, inverse, rank_nullspace, solve
from zinbiel.morphism_complex import morphism_differential_matrix

ORACLE_FIELDS = {"Q": QQ, "F5": PrimeField(5), "F7": PrimeField(7),
                 "F101": PrimeField(101)}


def _text(v):
    """Exact text of a vector (or None), with the type of each scalar."""
    return None if v is None else [repr(x) for x in v]


def _random_vector(field, rng, n):
    return [field.from_int(rng.randint(-3, 3)) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_differentials_of_the_suite_match_the_oracle(suite, name):
    # d^1..d^3 of every seeded and catalog morphism over the field; one
    # consistent and one arbitrary right-hand side per matrix
    rng = random.Random(SEED + 20)
    inconsistent = 0
    for f in [f for f in suite if f.source.field == ORACLE_FIELDS[name]]:
        for n in (1, 2, 3):
            m = morphism_differential_matrix(f, n)
            field = m.field
            consistent = m.matvec(_random_vector(field, rng, m.ncols))
            arbitrary = _random_vector(field, rng, m.nrows)
            rank, basis, solutions = dense_oracle.eliminate(
                m, [consistent, arbitrary])
            got_rank, got_basis = rank_nullspace(m)
            assert got_rank == rank
            assert list(map(_text, got_basis)) == list(map(_text, basis))
            assert solutions[0] is not None
            for b, expected in zip((consistent, arbitrary), solutions):
                assert _text(solve(m, b)) == _text(expected)
            inconsistent += solutions[1] is None
    assert inconsistent > 0


def _entries(field):
    """Sparse entries: zero two times in three, else a nonzero value, over
    Q of denominator 1 to 4."""
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                            st.integers(1, 4))
    else:
        nonzero = st.integers(1, field.p - 1)
    return st.one_of(st.just(0), st.just(0), nonzero)


def _rows(entry, nrows, ncols):
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def sparse_matrices(draw):
    name = draw(st.sampled_from(sorted(ORACLE_FIELDS)))
    field = ORACLE_FIELDS[name]
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entry = _entries(field)
    rows = draw(_rows(entry, nrows, ncols))
    b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return Matrix(field, rows, ncols), b


@settings(max_examples=300, deadline=None, database=None)
@given(sparse_matrices())
@example((Matrix(QQ, [], 4), []))                       # 0 x n
@example((Matrix(PrimeField(5), [[], [], []], 0), [1, 0, 2]))   # n x 0
@example((Matrix.zeros(PrimeField(7), 3, 3), [0, 5, 0]))  # all zero
@example((Matrix(QQ, [[1, 2], [2, 4]]), [1, 3]))        # inconsistent
@example((Matrix(PrimeField(101), [[0, 3], [7, 1]]), [1, 1]))  # invertible
# 0 = 1 first, so the later rows reduce against a pivot in b's column
@example((Matrix(QQ, [[0, 0], [1, 2], [2, 1]]), [1, 1, 3]))
@example((Matrix(PrimeField(5), [[1, 2], [3, 1]]), [1, 0]))    # singular
def test_sparse_matrices_match_the_oracle(case):
    m, b = case
    rank, basis = dense_oracle.rank_nullspace(m)
    got_rank, got_basis = rank_nullspace(m)
    assert got_rank == rank
    assert list(map(_text, got_basis)) == list(map(_text, basis))
    assert _text(solve(m, b)) == _text(dense_oracle.solve(m, b))
    image = m.matvec([m.field.from_int(i + 1) for i in range(m.ncols)])
    assert _text(solve(m, image)) == _text(dense_oracle.solve(m, image))
    if m.nrows == m.ncols:
        got, expected = inverse(m), dense_oracle.inverse(m)
        assert (got is None) == (expected is None)
        if got is not None:
            assert [_text(r) for r in got.rows] == \
                [_text(r) for r in expected.rows]
            assert got == expected


READ_FIELDS = {"Q": QQ, "F5": PrimeField(5), "F101": PrimeField(101)}


@st.composite
def permuted_matrices(draw):
    """(m, b, order): a sparse matrix, a right-hand side and an order of
    their rows."""
    field = READ_FIELDS[draw(st.sampled_from(sorted(READ_FIELDS)))]
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = _entries(field)
    rows = draw(_rows(entry, nrows, ncols))
    b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return Matrix(field, rows, ncols), b, draw(st.permutations(range(nrows)))


@settings(max_examples=300, deadline=None, database=None)
@given(permuted_matrices())
@example((Matrix(QQ, [[1, 1], [1, -1]]), [1, 0], [1, 0]))  # pivot signs
def test_row_order_changes_no_elimination(case):
    # the reduced echelon form is unique, so every answer read off it is
    # the same for the rows in any order; inverse(P m) = inverse(m) P^-1
    m, b, order = case
    pm = Matrix(m.field, [m.rows[i] for i in order], m.ncols)
    assert _echelon(pm) == _echelon(m)
    rank, basis = rank_nullspace(m)
    prank, pbasis = rank_nullspace(pm)
    assert prank == rank
    assert list(map(_text, pbasis)) == list(map(_text, basis))
    image = m.matvec([m.field.from_int(i + 1) for i in range(m.ncols)])
    for rhs in (image, b):
        assert _text(solve(pm, [rhs[i] for i in order])) == \
            _text(solve(m, rhs))
    if m.nrows == m.ncols:
        got, expected = inverse(pm), inverse(m)
        assert (got is None) == (expected is None)
        if got is not None:
            assert [_text(got.column(k)) for k in range(m.ncols)] == \
                [_text(expected.column(i)) for i in order]


@st.composite
def matrix_pairs(draw):
    """Two matrices over one field, the columns of the first as many as
    the rows of the second."""
    field = ORACLE_FIELDS[draw(st.sampled_from(sorted(ORACLE_FIELDS)))]
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    entry = _entries(field)
    return (Matrix(field, draw(_rows(entry, n, k)), k),
            Matrix(field, draw(_rows(entry, k, m)), m))


@settings(max_examples=300, deadline=None, database=None)
@given(matrix_pairs())
@example((Matrix(QQ, [[Fraction(1, 2)]]), Matrix(QQ, [[2, Fraction(1, 3)]])))
@example((Matrix(QQ, [], 0), Matrix(QQ, [], 3)))        # 0 x 0 by 0 x 3
@example((Matrix(PrimeField(5), [[], []], 0),
          Matrix(PrimeField(5), [], 2)))                # 2 x 0 by 0 x 2
def test_products_match_the_dense_product(case):
    a, b = case
    got = a @ b
    zero = a.field.zero()
    cols = [b.column(j) for j in range(b.ncols)]
    expected = [[sum((x * y for x, y in zip(row, col)), zero) for col in cols]
                for row in a.rows]
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert list(map(_text, got.rows)) == list(map(_text, expected))
    assert got == Matrix(a.field, expected, b.ncols)


def _scaling(field):
    """e_0 -> e_0 / 3, e_1 -> e_1 / 9 on e_0 * e_0 = e_1 / 2."""
    line = single_product_algebra(field, 2, 0, 0, 1, Fraction(1, 2))
    return AlgebraMorphism(line, line, [[Fraction(1, 3), 0],
                                        [0, Fraction(1, 9)]])


# the morphism complex's d^1 and d^2 of _scaling: blocked (one block twice,
# as S is R), over Q with blocks over 2 and phi rows over 9 and 162
BLOCKED = [morphism_differential_matrix(_scaling(field), n)
           for field in READ_FIELDS.values() for n in (1, 2)]


def _zero_phi_rows(field) -> Matrix:
    """d^1 of the zero endomorphism of _scaling's line: its rows are the
    blocks' (d^1 on R and on S), then phi rows f.xi - pi.f that are all
    zero, so that it holds no row of its own."""
    line = single_product_algebra(field, 2, 0, 0, 1, Fraction(1, 2))
    m = morphism_differential_matrix(zero_morphism(line, line), 1)
    assert m._blocks and m.nrows > sum(b.nrows for _, b in m._blocks)
    assert not m._ints
    return m


ZERO_PHI = _zero_phi_rows(PrimeField(7))
F5 = READ_FIELDS["F5"]
# a plain matrix whose second and third rows are zero
GAPPED = [list(map(F5.coerce, r)) for r in [[1, 2], [0, 0], [0, 0], [3, 0]]]


def _dense_product(a: list, b: list, ncols: int, field) -> list:
    zero = field.zero()
    return [[sum((x * r[j] for x, r in zip(row, b)), zero)
             for j in range(ncols)] for row in a]


@st.composite
def read_cases(draw):
    """(m, check, v): a matrix, a test of its dense rows made without its
    readers, and a vector for it of field values and plain ints.  m is
    read from field values, a product or an inverse (denominators not
    minimal) or a blocked d^n."""
    kind = draw(st.sampled_from(("plain", "product", "inverse", "blocked")))
    if kind == "blocked":
        m = draw(st.sampled_from(BLOCKED))
        check = None
    else:
        field = READ_FIELDS[draw(st.sampled_from(sorted(READ_FIELDS)))]
        entry = _entries(field)
        n, k, w = (draw(st.integers(0, 6)) for _ in range(3))
        if kind == "inverse":
            k = n
        a = [list(map(field.coerce, r)) for r in draw(_rows(entry, n, k))]
        if kind == "plain":
            m = Matrix(field, a, k)
            check = a.__eq__
        elif kind == "product":
            b = [list(map(field.coerce, r)) for r in draw(_rows(entry, k, w))]
            m = Matrix(field, a, k) @ Matrix(field, b, w)
            check = _dense_product(a, b, w, field).__eq__
        else:
            m = inverse(Matrix(field, a, k))
            assume(m is not None)
            identity = [[field.one() if i == j else field.zero()
                         for j in range(n)] for i in range(n)]
            check = lambda rows: _dense_product(rows, a, n, field) == identity
    field = m.field
    v = draw(st.lists(st.one_of(st.integers(-7, 200), _entries(field).map(
        field.coerce)), min_size=m.ncols, max_size=m.ncols))
    return m, check, v


@settings(max_examples=300, deadline=None, database=None)
@given(read_cases())
@example((Matrix(QQ, [[Fraction(1, 2)]]) @ Matrix(QQ, [[2, 4]]), None,
          [1, Fraction(1, 3)]))                         # over 2, not 1
@example((BLOCKED[0], None, list(range(BLOCKED[0].ncols))))  # over 18
@example((BLOCKED[3], None, [1] * BLOCKED[3].ncols))
@example((Matrix.zeros(QQ, 3, 2), ([[QQ.zero()] * 2] * 3).__eq__,
          [1, Fraction(1, 2)]))                         # no row held
@example((Matrix(F5, GAPPED), GAPPED.__eq__, [1, 4]))   # interior zero rows
@example((ZERO_PHI, None, [1] * ZERO_PHI.ncols))        # no phi row held
def test_int_row_readers_match_dense_arithmetic(case):
    m, check, v = case
    field = m.field
    rows = m.rows
    assert (len(rows), {len(r) for r in rows} or {m.ncols}) == \
        (m.nrows, {m.ncols})
    assert all(type(x) is type(field.zero()) for r in rows for x in r)
    if check is not None:
        assert check(rows)
    for j in range(m.ncols):
        assert _text(m.column(j)) == _text([r[j] for r in rows])
    xs = list(map(field.coerce, v))
    assert _text(m.matvec(v)) == _text(
        [sum((a * x for a, x in zip(r, xs)), field.zero()) for r in rows])
    plain = Matrix(field, rows, m.ncols)
    assert m == plain and plain == m and m == m
    if m.nrows and m.ncols:
        bumped = [list(r) for r in rows]
        bumped[-1][-1] = bumped[-1][-1] + 1
        assert m != Matrix(field, bumped, m.ncols)
