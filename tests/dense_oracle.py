"""Dense Gauss-Jordan elimination: the reference for the sparse kernel.

This is the library's former elimination, kept as an independent code
path: dense rows of field scalars, the first nonzero entry of each column
(scanned left to right) as pivot, full reduction above and below.  The
sparse kernel must reproduce its results exactly.
"""

from oracle_helpers import unit_vector
from zinbiel.linalg import Matrix, zero_vector


def row_reduce(rows: list, pivot_width: int) -> list:
    """In-place reduced row echelon form; pivots searched in the first
    pivot_width columns only (row operations apply to full rows).
    Returns the pivot column list, one per pivot row."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(pivot_width):
        src = None
        for rr in range(r, nrows):
            if rows[rr][c]:
                src = rr
                break
        if src is None:
            continue
        if src != r:
            rows[r], rows[src] = rows[src], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv for x in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c]:
                fac = rows[rr][c]
                rows[rr] = [x - fac * y if y else x
                            for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def eliminate(m: Matrix, rhs=()) -> tuple[int, list[list], list]:
    """Rank, nullspace basis and one solution (or None) per right-hand
    side, all from one reduction of m with the right-hand sides appended
    as columns.  Pivots are searched in the columns of m only, so the
    extra columns change none of the choices."""
    n = m.ncols
    rhs = [[m.field.coerce(x) for x in b] for b in rhs]
    red = [row + [b[i] for b in rhs] for i, row in enumerate(m.rows)]
    pivots = row_reduce(red, n)
    pivot_set = set(pivots)
    basis = []
    one = m.field.one()
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = zero_vector(m.field, n)
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    solutions = []
    for k in range(n, n + len(rhs)):
        if any(row[k] for row in red[len(pivots):]):
            solutions.append(None)
            continue
        x = zero_vector(m.field, n)
        for r, pc in enumerate(pivots):
            x[pc] = red[r][k]
        solutions.append(x)
    return len(pivots), basis, solutions


def rank_nullspace(m: Matrix) -> tuple[int, list[list]]:
    rank, basis, _ = eliminate(m)
    return rank, basis


def solve(m: Matrix, b: list) -> list | None:
    return eliminate(m, [b])[2][0]


def inverse(m: Matrix) -> Matrix | None:
    n = m.nrows
    aug = [row + unit_vector(m.field, n, i) for i, row in enumerate(m.rows)]
    pivots = row_reduce(aug, n)
    if len(pivots) != n:
        return None
    return Matrix(m.field, [row[n:] for row in aug], n)
