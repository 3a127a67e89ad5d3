import pytest

from zinbiel.fields import QQ, PrimeField
from zinbiel.linalg import Matrix, inverse, rank_nullspace, solve


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
