"""The sparse elimination against the dense Gauss-Jordan oracle, and the
int product `@` against the dense product of field values.

Results must agree byte for byte: the same rank, the same nullspace basis
vectors, the same particular solutions, inverses and products, with
scalars of the same type and value.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle
from instances import SEED
from zinbiel.fields import QQ, PrimeField
from zinbiel.linalg import Matrix, inverse, rank_nullspace, solve
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
    # the product reads the int rows, not the entries of its factors
    assert a._entries is None and b._entries is None
    zero = a.field.zero()
    cols = [b.column(j) for j in range(b.ncols)]
    expected = [[sum((x * y for x, y in zip(row, col)), zero) for col in cols]
                for row in a.rows]
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert list(map(_text, got.rows)) == list(map(_text, expected))
    assert got == Matrix(a.field, expected, b.ncols)
