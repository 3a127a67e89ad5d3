"""Exact sparse linear algebra: rank, nullspace bases, particular solutions.

A `Matrix` is sparse and holds its rows in one form: int rows over one
denominator, 1 over F_p, where the ints are the values mod p.  Only the
nonzero rows are held, one dict (column -> nonzero int) per row, keyed by
row index in ascending order; a missing row is zero.  Field values are
read into ints by one reader, `_ints`, and written back by one writer,
`_scalar`/`_dense`.  `Matrix(...)` reads its values with `_ints`;
`zeros`, `identity`, `@`, `inverse` and the differentials of
`zinbiel.cochains` and `zinbiel.morphism_complex` build their int rows
directly (`Matrix._assembled`), creating a row only when they first
write to it.  Every reader walks the nonzero rows only: the elimination,
`is_zero` and the assemblers the held ones, the others those `_flat`
gives, blocks included (below), over one denominator.  `rows`, `column`
and `matvec` write field values with `_scalar` only for what they
return, zero for a missing row; `==` compares the int rows, each side
scaled by the other's denominator.

Every answer is one elimination, `_reduce`, with one contract: it
returns the reduced row echelon form of the int rows it is given, as
they are, over all their columns, with each pivot the leftmost nonzero
entry of its row.  It copies each row and normalizes each new pivot
row: over F_p its pivot is 1, over Q it is primitive (fraction-free,
standing for its rational multiples) with a positive pivot.  That form
is unique: it depends only on the row space, not on the order of the
rows or of their combination.  So the nullspace basis has one vector per
free column in ascending order with a 1 in the free position, and a
particular solution sets every free variable to zero.  `rank_nullspace`
reads the pivot rows of m; `solve` those of (m | b), inconsistent
exactly when a pivot falls in b's column, so no row goes in after that
pivot; `inverse` those of (m | 1), which are (1 | m^-1) exactly when
every column of m has a pivot.  Field values are written only at the
end, each divided by its row's pivot entry.  Matrices are immutable
after construction and all operations return fresh values.

`rank_nullspace` reads the pivot rows off `_echelon`, which keeps them on
the matrix for as long as the matrix lives.  An assembled matrix may
declare diagonal blocks (`Matrix._blocks`), as the morphism complex's
d^n does with d^n on R and on S.  Its rows are the blocks' rows, each
shifted to its columns, then its own int rows.  The block rows touch
disjoint columns and never combine, so the shifted pivot rows of the
blocks together are already the reduced echelon form of those rows.  The
elimination starts from copies of them (`_seeded`) and reduces only the
matrix's own rows; a block that occurs twice is eliminated once.  Since
that form is unique, every answer is the one that eliminating all rows
would give.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import Field, FieldError, ModInt


def zero_vector(field: Field, n: int) -> list:
    return [field.zero()] * n


def vec_add(u: list, v: list) -> list:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: list, v: list) -> list:
    return [a - b for a, b in zip(u, v)]


class Matrix:
    """Sparse matrix over one field, held as int rows over one
    denominator: `_ints` maps the index i of each nonzero row below the
    blocks, ascending, to a dict from the column of each nonzero entry of
    that row to the entry times `_den`, 1 over F_p, where it is the entry
    mod p; a row missing from `_ints` is zero.  `_blocks` declares
    diagonal blocks, as (column offset, block) pairs: the leading rows of
    the matrix are the rows of each block in turn, shifted right by its
    offset and zero elsewhere, and no two blocks share a column."""

    __slots__ = ("field", "nrows", "ncols", "_ints", "_den", "_blocks",
                 "_pivots")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix rows")
            if ncols is None:
                ncols = width
            elif ncols != width:
                raise ValueError(f"declared {ncols} columns, rows have {width}")
        elif ncols is None:
            ncols = 0
        (ints,), den = _ints([[list(map(field.coerce, r)) for r in rows]],
                             field.characteristic)
        self._wrap(field, len(rows), ncols,
                   {i: dict(r) for i, r in enumerate(ints) if r}, den)

    def _wrap(self, field: Field, nrows: int, ncols: int, ints: dict,
              den: int, blocks: tuple = ()) -> None:
        if ncols < 0:
            raise ValueError(f"negative number of columns: {ncols}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._ints = ints
        self._den = den
        self._blocks = blocks
        self._pivots = None

    @classmethod
    def _assembled(cls, field: Field, nrows: int, ncols: int, ints: dict,
                   den: int, blocks: tuple = ()) -> "Matrix":
        """The matrix whose rows are those of blocks (see the class
        docstring), then nrows rows, ints[i] / den at each index i in ints
        and zero elsewhere, den 1 over F_p.  ints maps row indices, in any
        order, to mappings of columns to int values; here they are reduced
        mod p over F_p, the zeros and the rows left empty dropped, and the
        rows sorted by index."""
        p = field.characteristic
        if p:
            ints = {i: r for i in sorted(ints) if (r := {
                j: v for j, x in ints[i].items() if (v := x % p)})}
        else:
            ints = {i: r for i in sorted(ints) if (r := {
                j: x for j, x in ints[i].items() if x})}
        m = cls.__new__(cls)
        m._wrap(field, sum(b.nrows for _, b in blocks) + nrows, ncols,
                ints, den, blocks)
        return m

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        if nrows < 0:
            raise ValueError(f"negative number of rows: {nrows}")
        return cls._assembled(field, nrows, ncols, {}, 1)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._assembled(field, n, n, {i: {i: 1} for i in range(n)}, 1)

    @property
    def rows(self) -> list:
        """The rows as dense lists of field values."""
        rows, den = _flat(self)
        empty = {}
        return _dense(self.field, self.ncols, (
            rows.get(i, empty).items() for i in range(self.nrows)), den)

    def column(self, j: int) -> list:
        if not 0 <= j < self.ncols:
            raise ValueError(f"no column {j} in {self.ncols} columns")
        one, zero = self.field.one(), self.field.zero()
        return self.matvec([one if k == j else zero
                            for k in range(self.ncols)])

    def matvec(self, v: list) -> list:
        if len(v) != self.ncols:
            raise ValueError(
                f"vector of length {len(v)} against {self.ncols} columns")
        p = self.field.characteristic
        [[xs]], vden = _ints([[list(map(self.field.coerce, v))]], p)
        x = dict(xs)
        rows, den = _flat(self)
        den *= vden
        out = zero_vector(self.field, self.nrows)
        for i, r in rows.items():
            out[i] = _scalar(p, sum(a * x[j] for j, a in r.items() if j in x),
                             den)
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise FieldError("matrix product across different fields")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        rows, den = _flat(self)
        brows, bden = _flat(other)
        out = {}
        for i, arow in rows.items():
            out[i] = crow = {}
            for k, a in arow.items():
                for j, b in brows.get(k, {}).items():
                    crow[j] = crow.get(j, 0) + a * b
        return Matrix._assembled(self.field, self.nrows, other.ncols, out,
                                 den * bden)

    def is_zero(self) -> bool:
        return not self._ints and all(
            block.is_zero() for _, block in self._blocks)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # a / den == b / oden exactly when a * oden == b * den
        (rows, den), (orows, oden) = _flat(self), _flat(other)
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols
                and {i: {j: v * oden for j, v in r.items()}
                     for i, r in rows.items()}
                == {i: {j: v * den for j, v in r.items()}
                    for i, r in orows.items()})

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


def _ints(groups, p: int) -> tuple[list, int]:
    """The one fraction-free reader: for each group of dense rows of
    field values, each row as the (index, value) pairs of its nonzero
    values in ints, and the one denominator den of all groups.  Over F_p
    the ints are the values mod p and den is 1; over Q they are the values
    times den, the least common denominator of every value read."""
    if p:
        return [[[(b, v.value) for b, v in enumerate(row) if v]
                 for row in rows] for rows in groups], 1
    groups = [list(rows) for rows in groups]
    den = lcm(*{v.denominator for rows in groups for row in rows
                for v in row})
    return [[[(b, v.numerator * (den // v.denominator))
              for b, v in enumerate(row) if v] for row in rows]
            for rows in groups], den


def _scalar(p: int, num: int, den: int):
    """The one writer: the field scalar num/den from ints (den == 1 over
    F_p)."""
    return ModInt(num, p) if p else Fraction(num, den)


def _dense(field: Field, n: int, rows, den: int) -> list:
    """The one dense writer: for each row of (b, v) pairs, the vector of
    n field values with v / den (1 over F_p) at each b, zero elsewhere."""
    p, zero = field.characteristic, field.zero()
    out = []
    for row in rows:
        vec = [zero] * n
        for b, v in row:
            if v:
                vec[b] = _scalar(p, v, den)
        out.append(vec)
    return out


def _flat(m: Matrix) -> tuple[dict, int]:
    """The nonzero rows of m as fresh int dicts keyed by row index,
    ascending, over one denominator den: the rows of its blocks, each
    block shifted to its columns and below the blocks before it, then its
    own rows, each rescaled to den, the least common multiple of their
    denominators.  A missing row is zero."""
    parts, row0 = [], 0
    for col0, block in m._blocks:
        parts.append((row0, col0, *_flat(block)))
        row0 += block.nrows
    parts.append((row0, 0, m._ints, m._den))
    den = lcm(*(d for *_, d in parts))
    return {row0 + i: {col0 + j: v * (den // d) for j, v in r.items()}
            for row0, col0, rows, d in parts for i, r in rows.items()}, den


def _columns(m: Matrix) -> tuple[list, int]:
    """Every column of m as the (row, int) pairs of its nonzero entries,
    rows ascending, over the one denominator den of `_flat`."""
    rows, den = _flat(m)
    cols = [[] for _ in range(m.ncols)]
    for i, r in rows.items():
        for j, v in r.items():
            cols[j].append((i, v))
    return cols, den


def _eliminate(row: dict, prow: dict, c: int, p: int) -> dict:
    """a * row - b * prow, with a and b the entries of prow and row in
    column c, so that column c vanishes.  Over F_p a is 1; over Q a and b
    are first divided by their gcd, and the result by its content."""
    a, b = prow[c], row[c]
    if not p:
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            row = {k: a * v for k, v in row.items()}
    for k, x in prow.items():
        v = row.get(k, 0) - b * x
        if p:
            v %= p
        if v:
            row[k] = v
        else:
            del row[k]
    if p:
        return row
    g = gcd(*row.values())
    return row if g <= 1 else {k: v // g for k, v in row.items()}


def _reduce(rows, p: int, pivots: dict | None = None) -> dict:
    """The reduced row echelon form of int rows, as a dict from each pivot
    column to its row.  rows is any iterable of mappings from columns to
    ints (mod p over F_p), any multiple of a row standing for it; each is
    copied, and none is edited.  Each pivot is the leftmost nonzero entry
    of its row; over F_p it is 1, over Q the row is primitive and its
    pivot positive, so the form is unique.  A given pivots dict, already
    in this form, is the start and is extended in place; its rows are
    edited, so they must be copies.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        row = dict(row)
        # every pivot row is zero in the other pivot columns, so one pass
        # over the pivot columns of row clears them all
        for c in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[c], c, p)
        if not row:
            continue
        lead = min(row)
        if p and row[lead] != 1:
            inv = pow(row[lead], -1, p)
            row = {k: v * inv % p for k, v in row.items()}
        elif not p:
            # primitive, with the sign of the pivot folded into the gcd
            g = gcd(*row.values()) * (1 if row[lead] > 0 else -1)
            if g != 1:
                row = {k: v // g for k, v in row.items()}
        # keep the earlier pivot rows zero in the new pivot column
        for c, prow in pivots.items():
            if lead in prow:
                pivots[c] = _eliminate(prow, row, lead, p)
        pivots[lead] = row
    return pivots


def _seeded(m: Matrix) -> dict:
    """Copies of the pivot rows of each block of m, shifted to its
    columns: together they are the reduced echelon form of the block rows
    of m, since no two blocks share a column."""
    pivots = {}
    for col0, block in m._blocks:
        for c, row in _echelon(block).items():
            pivots[col0 + c] = {col0 + j: x for j, x in row.items()}
    return pivots


def _echelon(m: Matrix) -> dict:
    """The pivot rows of m (see `_reduce`), computed once per matrix:
    from its blocks' pivot rows, then its nonzero int rows."""
    if m._pivots is None:
        p = m.field.characteristic
        m._pivots = _reduce(m._ints.values(), p, _seeded(m))
    return m._pivots


def rank_nullspace(m: Matrix) -> tuple[int, list[list]]:
    """Exact rank and a basis of the right nullspace.

    rank + len(basis) == m.ncols.  The basis is deterministic: one vector
    per free column in ascending order, with a 1 in the free position.
    """
    p = m.field.characteristic
    pivots = _echelon(m)
    free = [j for j in range(m.ncols) if j not in pivots]
    slot = {j: i for i, j in enumerate(free)}
    zero, one = m.field.zero(), m.field.one()
    basis = []
    for j in free:
        v = [zero] * m.ncols
        v[j] = one
        basis.append(v)
    for c, row in pivots.items():
        scale = row[c]
        for j, x in row.items():
            if j != c:
                basis[slot[j]][c] = _scalar(p, -x, scale)
    return len(pivots), basis


def solve(m: Matrix, b: list) -> list | None:
    """One exact solution of m x = b, or None when inconsistent.

    Free variables are set to zero, so the returned representative is
    deterministic.  A length mismatch between b and the rows of m is a
    usage error, raised as ValueError.
    """
    if len(b) != m.nrows:
        raise ValueError(
            f"right-hand side of length {len(b)} against {m.nrows} rows")
    p, n = m.field.characteristic, m.ncols
    # each nonzero row of (m | b) times the product of both denominators
    aug, den = _flat(m)
    [[bs]], bden = _ints([[list(map(m.field.coerce, b))]], p)
    if bden > 1:
        aug = {i: {j: v * bden for j, v in row.items()}
               for i, row in aug.items()}
    for i, v in bs:
        aug.setdefault(i, {})[n] = v * den
    # a pivot in b's column is a row reading 0 = nonzero: no row goes in
    # after it, since none can change the answer
    pivots = {}
    _reduce((aug[i] for i in sorted(aug) if n not in pivots), p, pivots)
    if n in pivots:
        return None
    x = zero_vector(m.field, n)
    for c, row in pivots.items():
        if n in row:
            x[c] = _scalar(p, row[n], row[c])
    return x


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular: the
    reduced echelon form of (m | 1) is (1 | m^-1) exactly when every
    column of m has a pivot."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    rows, den = _flat(m)
    pivots = _reduce(({**rows.get(i, {}), n + i: den} for i in range(n)),
                     m.field.characteristic)
    if any(c not in pivots for c in range(n)):
        return None
    # row c of m^-1 is pivot row c past column n, over its pivot entry
    den = lcm(*(row[c] for c, row in pivots.items()))
    return Matrix._assembled(m.field, n, n, {
        c: {j - n: v * (den // row[c]) for j, v in row.items() if j >= n}
        for c, row in pivots.items()}, den)
