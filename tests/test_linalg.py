import copy
import random
import tracemalloc
from fractions import Fraction

import pytest

from zinbiel import linalg
from zinbiel.algebra import identity_morphism
from zinbiel.catalog import truncated_polynomials, zero_algebra
from zinbiel.cochains import differential_matrix
from zinbiel.fields import QQ, PrimeField
from zinbiel.linalg import (Matrix, _echelon, _flat, _scalar, inverse,
                            rank_nullspace, solve)
from zinbiel.morphism_complex import morphism_differential_matrix
from zinbiel.sampling import random_dense_invertible


def test_identity_has_full_rank_empty_nullspace():
    m = Matrix.identity(QQ, 2)
    rank, basis = rank_nullspace(m)
    assert rank == 2 and basis == []


def test_zero_matrix_over_f5():
    m = Matrix.zeros(PrimeField(5), 2, 2)
    rank, basis = rank_nullspace(m)
    assert rank == 0 and len(basis) == 2


def test_rank_one_nullspace_vector():
    # frozen by hand elimination: [[1,2],[2,4]] -> pivot column 0,
    # free column 1, kernel spanned by (-2, 1)
    m = Matrix(QQ, [[1, 2], [2, 4]])
    rank, basis = rank_nullspace(m)
    assert rank == 1
    assert basis == [[QQ.from_int(-2), QQ.one()]]


def test_solve_identity():
    m = Matrix.identity(QQ, 2)
    assert solve(m, [3, 4]) == [QQ.from_int(3), QQ.from_int(4)]


def test_solve_zero_matrix_inconsistent():
    m = Matrix.zeros(QQ, 2, 2)
    assert solve(m, [1, 0]) is None


def test_solve_free_variable_zero_rule():
    # the solution set is {(5 - t, t)}; the deterministic representative
    # sets the free variable to zero
    m = Matrix(QQ, [[1, 1], [0, 0]])
    assert solve(m, [5, 0]) == [QQ.from_int(5), QQ.zero()]


def test_solve_dimension_mismatch_is_usage_error():
    m = Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        solve(m, [1, 2, 3])


def test_empty_matrices():
    m = Matrix(QQ, [], ncols=0)
    rank, basis = rank_nullspace(m)
    assert rank == 0 and basis == []
    m = Matrix(QQ, [], ncols=3)
    rank, basis = rank_nullspace(m)
    assert rank == 0 and len(basis) == 3
    assert solve(m, []) == [QQ.zero()] * 3



@pytest.mark.parametrize("build", [
    lambda: Matrix(QQ, [], -3),
    lambda: Matrix(QQ, [], ncols=-1),
    lambda: Matrix.zeros(QQ, -1, -2),
    lambda: Matrix.zeros(QQ, -1, 2),
    lambda: Matrix.zeros(QQ, 2, -1),
    lambda: Matrix.identity(QQ, -2),
], ids=["rows", "ncols", "zeros", "zeros-rows", "zeros-cols", "identity"])
def test_negative_sizes_are_refused(build):
    # a 0x-3 matrix would break rank + len(basis) == ncols
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("j", [5, 2, -1])
def test_columns_outside_the_matrix_are_refused(j):
    m = Matrix(QQ, [[1, 2]])
    with pytest.raises(ValueError):
        m.column(j)
    assert m.column(1) == [QQ.from_int(2)]

def _random_matrix(field, rng, nrows, ncols):
    if isinstance(field, PrimeField):
        entries = [[field.from_int(rng.randrange(field.p))
                    for _ in range(ncols)] for _ in range(nrows)]
    else:
        entries = [[field.from_int(rng.randint(-4, 4))
                    for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(field, entries, ncols)


def test_solutions_and_nullspace_are_exact(field, rng):
    for _ in range(60):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        m = _random_matrix(field, rng, nrows, ncols)
        rank, basis = rank_nullspace(m)
        assert rank + len(basis) == ncols
        for v in basis:
            assert not any(m.matvec(v))
        x = [field.from_int(rng.randint(-3, 3)) for _ in range(ncols)]
        b = m.matvec(x)
        sol = solve(m, b)
        assert sol is not None
        assert m.matvec(sol) == b


def test_rank_invariant_under_row_shuffle(field, rng):
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(field, rng, nrows, ncols)
        rank, _ = rank_nullspace(m)
        rows = list(m.rows)
        rng.shuffle(rows)
        rank2, _ = rank_nullspace(Matrix(field, rows, ncols))
        assert rank == rank2


def test_inverse_round_trip(field, rng):
    found = 0
    while found < 10:
        m = _random_matrix(field, rng, 3, 3)
        inv = inverse(m)
        if inv is None:
            continue
        found += 1
        assert m @ inv == Matrix.identity(field, 3)
        assert inv @ m == Matrix.identity(field, 3)


def test_matmul_zero_and_shapes():
    a = Matrix(QQ, [[1, 2, 3]])
    b = Matrix(QQ, [[1], [0], [-1]])
    assert (a @ b).rows == [[QQ.from_int(-2)]]
    with pytest.raises(ValueError):
        b @ b


# -- one elimination per answer, over the nonzero rows as they are ---------

def _snapshot(m: Matrix):
    """The int rows of m and of its blocks, as values (a deep copy)."""
    return (copy.deepcopy(m._ints), m._den,
            [_snapshot(block) for _, block in m._blocks])


def _inputs(field, rng):
    """Matrices whose rows are not in the elimination's normal form:
    common factors, negative leading entries, fractions, zero rows; and
    the morphism complex's d^2, which has blocks."""
    for _ in range(20):
        nrows = rng.randint(1, 6)
        ncols = nrows if rng.random() < 0.5 else rng.randint(1, 6)
        rows = [[field.coerce(Fraction(6 * rng.randint(-3, 3),
                                       rng.choice((1, 1, 2, 3))))
                 for _ in range(ncols)] if rng.random() < 0.8
                else [field.zero()] * ncols for _ in range(nrows)]
        yield Matrix(field, rows, ncols)
    f = identity_morphism(truncated_polynomials(field, 2))
    yield morphism_differential_matrix(f, 2)


def test_the_elimination_leaves_its_input_rows_unchanged(field, rng):
    for m in _inputs(field, rng):
        before = _snapshot(m)
        _echelon(m)
        b = [field.coerce(rng.randint(-3, 3)) for _ in range(m.nrows)]
        solve(m, b)
        solve(m, m.matvec([field.one()] * m.ncols))
        if m.nrows == m.ncols:
            inverse(m)
        assert _snapshot(m) == before


def test_flat_gives_the_nonzero_rows_only(field, rng):
    for m in _inputs(field, rng):
        rows, den = _flat(m)
        dense = m.rows
        assert list(rows) == [i for i, r in enumerate(dense) if any(r)]
        for i, r in rows.items():
            assert {j: _scalar(field.characteristic, v, den)
                    for j, v in r.items()} == {
                j: x for j, x in enumerate(dense[i]) if x}


def _counting_reduce(monkeypatch) -> list:
    """Patch `_reduce` to record, for each call, how many rows it drew
    from its input."""
    original, fed = linalg._reduce, []

    def counting(rows, p, pivots=None):
        fed.append(0)

        def drawn():
            for row in rows:
                fed[-1] += 1
                yield row
        return original(drawn(), p, pivots)
    monkeypatch.setattr(linalg, "_reduce", counting)
    return fed


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=str)
def test_inverse_is_one_elimination(monkeypatch, field, rng):
    m = random_dense_invertible(field, 4, rng)
    singular = Matrix(field, m.rows[:3] + [m.rows[0]], 4)
    fed = _counting_reduce(monkeypatch)
    inv = inverse(m)
    assert fed == [4]
    assert m @ inv == Matrix.identity(field, 4)
    assert inverse(singular) is None
    assert fed == [4, 4]


def test_an_inconsistent_solve_stops_at_its_first_pivot_in_b(monkeypatch):
    # d^2 of id_T3 over Q is 189 x 63; a random right-hand side is
    # inconsistent, and the elimination of (m | b) shows it after a few
    # rows: no row after that pivot goes in
    f = identity_morphism(truncated_polynomials(QQ, 3))
    m = morphism_differential_matrix(f, 2)
    assert (m.nrows, m.ncols) == (189, 63)
    rng = random.Random(5)
    fed = _counting_reduce(monkeypatch)
    for _ in range(5):
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(m.nrows)]
        assert solve(m, b) is None
    assert len(fed) == 5 and max(fed) <= 25


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_readers_walk_only_the_nonzero_rows():
    # d^2 of the 16-dim zero algebra: 65,536 x 4,096 and no nonzero row
    a = zero_algebra(QQ, 16)
    d2 = differential_matrix(a, a.regular_bimodule(), 2)
    assert (d2.nrows, d2.ncols) == (65536, 4096) and d2.is_zero()
    b = [QQ.zero()] * d2.nrows
    left = Matrix.zeros(QQ, 5, d2.nrows)
    # reading b alone takes about 0.5 MB
    assert _peak_mb(lambda: solve(d2, b)) < 1.0
    assert _peak_mb(lambda: d2 == d2) < 0.1
    assert _peak_mb(lambda: left @ d2) < 0.1
    assert solve(d2, b) == [QQ.zero()] * d2.ncols
    assert (left @ d2).is_zero()
