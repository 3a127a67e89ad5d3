"""Exact sparse linear algebra: rank, nullspace bases, particular solutions.

A `Matrix` is sparse: one dict (column -> nonzero value) per row.  Every
elimination goes through one routine, `_reduce`, which brings sparse
rows to reduced row echelon form with each pivot on the leftmost nonzero
column of its row.  It works on int rows: over F_p on plain ints mod p,
over Q on primitive integer rows (fraction-free, each row standing for
its rational multiples).  The results are turned back into `Fraction` or
`ModInt` values only at the end.

A matrix holds its rows in one of two forms.  A matrix built from field
values (`Matrix(...)`, `from_entries`, the results of `inverse` and `@`)
holds them as `entries`, dicts of field scalars, and its int rows are
read off them by `_kernel_row` when it is eliminated.  An assembled
matrix (`Matrix._assembled`, the differentials of `zinbiel.cochains` and
`zinbiel.morphism_complex`) holds int rows over one denominator, 1 over
F_p, and those rows, made primitive over Q, are the input of its
elimination as they are.  Its `entries` are a view, built on first read
from the int rows and kept: `solve`, `inverse`, `matvec`, `column`, `@`
and `==` read it, `rank_nullspace` does not.

The reduced row echelon form of a matrix is unique: its pivot columns and
its rows depend only on the row space, not on the order in which rows
are combined.  So the results are reproducible and do not depend on the
elimination strategy: the nullspace basis has one vector per free column
in ascending order with a 1 in the free position, and a particular
solution sets every free variable to zero.  Matrices are immutable after
construction and all operations return fresh values.

`rank_nullspace` reads the pivot rows off `_echelon`, which keeps them on
the matrix for as long as the matrix lives.  An assembled matrix may
declare diagonal blocks (`Matrix._blocks`), as the morphism complex's
d^n does with d^n on R and on S.  Its rows are the blocks' rows, each
shifted to its columns, then its own int rows, and its `entries` view is
built in that order.  The block rows touch disjoint columns and never
combine, so the shifted pivot rows of the blocks together are already
the reduced echelon form of those rows.  The elimination starts from
copies of them (`_seeded`) and reduces only the matrix's own rows; a
block that occurs twice is eliminated once.  Since that form is unique,
the pivot columns and rows, hence every rank, nullspace basis and
solution, are the ones that eliminating all rows would give.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import Field, FieldError, ModInt


def zero_vector(field: Field, n: int) -> list:
    return [field.zero()] * n


def unit_vector(field: Field, n: int, i: int) -> list:
    v = [field.zero()] * n
    v[i] = field.one()
    return v


def vec_add(u: list, v: list) -> list:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: list, v: list) -> list:
    return [a - b for a, b in zip(u, v)]


def vec_is_zero(u: list) -> bool:
    return not any(u)


class Matrix:
    """Sparse matrix over one field: `entries[i]` maps the column of each
    nonzero entry of row i to its value.

    A matrix built from field values (`Matrix(...)`, `from_entries`) holds
    `entries` itself.  An assembled one (`_assembled`) holds int rows over
    one denominator instead, and `entries` is a view of them built on
    first read.  `_blocks` declares diagonal blocks, as (column offset,
    block) pairs: the leading rows of the matrix are the rows of each
    block in turn, shifted right by its offset and zero elsewhere, and no
    two blocks share a column.  The int rows of a blocked matrix are the
    rows below its blocks."""

    __slots__ = ("field", "nrows", "ncols", "_entries", "_ints", "_den",
                 "_blocks", "_pivots")

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
        self._wrap(field, len(rows), ncols,
                   [{j: x for j, x in enumerate(map(field.coerce, r)) if x}
                    for r in rows])

    def _wrap(self, field: Field, nrows: int, ncols: int,
              entries: list | None, ints: list | None = None,
              den: int = 1, blocks: tuple = ()) -> None:
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._entries = entries
        self._ints = ints
        self._den = den
        self._blocks = blocks
        self._pivots = None

    @classmethod
    def from_entries(cls, field: Field, entries: list,
                     ncols: int) -> "Matrix":
        """Wrap rows given as dicts of nonzero scalars of field, taken as
        they are: not copied, checked or coerced."""
        m = cls.__new__(cls)
        m._wrap(field, len(entries), ncols, entries)
        return m

    @classmethod
    def _assembled(cls, field: Field, ints: list, ncols: int, den: int,
                   blocks: tuple = ()) -> "Matrix":
        """The matrix whose rows are those of blocks (see the class
        docstring), then ints / den, den 1 over F_p.  ints holds one
        mapping of columns to int values per row; here they are reduced
        mod p over F_p and the zeros dropped."""
        p = field.characteristic
        if p:
            ints = [{j: v for j, x in r.items() if (v := x % p)}
                    for r in ints]
        else:
            ints = [{j: x for j, x in r.items() if x} for r in ints]
        m = cls.__new__(cls)
        m._wrap(field, sum(b.nrows for _, b in blocks) + len(ints), ncols,
                None, ints, den, blocks)
        return m

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls.from_entries(field, [{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one = field.one()
        return cls.from_entries(field, [{i: one} for i in range(n)], n)

    @property
    def entries(self) -> list:
        """The rows as dicts of nonzero field scalars (treat as read-only);
        for an assembled matrix, its blocks' rows shifted into place, then
        its int rows over its denominator."""
        if self._entries is None:
            rows = []
            for col0, block in self._blocks:
                rows += [{col0 + j: x for j, x in r.items()}
                         for r in block.entries]
            p, den = self.field.characteristic, self._den
            rows += [{j: _scalar(p, v, den) for j, v in r.items()}
                     for r in self._ints]
            self._entries = rows
        return self._entries

    @property
    def rows(self) -> list:
        """The rows as dense lists."""
        zero = self.field.zero()
        out = []
        for entries in self.entries:
            row = [zero] * self.ncols
            for j, x in entries.items():
                row[j] = x
            out.append(row)
        return out

    def column(self, j: int) -> list:
        zero = self.field.zero()
        return [row.get(j, zero) for row in self.entries]

    def matvec(self, v: list) -> list:
        if len(v) != self.ncols:
            raise ValueError(
                f"vector of length {len(v)} against {self.ncols} columns")
        zero = self.field.zero()
        out = []
        for row in self.entries:
            acc = zero
            for j, a in row.items():
                x = v[j]
                if x:
                    acc = acc + a * x
            out.append(acc)
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
        out = []
        for arow in self.entries:
            crow = {}
            for k, a in arow.items():
                for j, b in other.entries[k].items():
                    crow[j] = crow[j] + a * b if j in crow else a * b
            out.append({j: x for j, x in crow.items() if x})
        return Matrix.from_entries(self.field, out, other.ncols)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


def _kernel_row(p: int, row: dict) -> dict:
    """A row of field scalars in kernel form: ints mod p over F_p, the
    primitive integer multiple over Q."""
    if p:
        return {j: x.value for j, x in row.items()}
    scale = lcm(*(x.denominator for x in row.values()))
    return _primitive(
        {j: x.numerator * (scale // x.denominator) for j, x in row.items()})


def _primitive(row: dict) -> dict:
    """A row of nonzero ints divided by the gcd of its entries, as a new
    dict."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else dict(row)


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


def _reduce(rows: list, width: int, p: int,
            pivots: dict | None = None) -> tuple[dict, list]:
    """Reduced row echelon form of kernel rows (see `_kernel_row`), with
    pivots searched in the columns below width only; row operations apply
    to whole rows.  Over F_p each pivot entry is 1; over Q it is the scale
    of its row.  Returns (pivots, rest): pivots maps each pivot column to
    its row, rest holds the nonzero rows left with no entry below width.
    A given pivots dict, already in this form, is the start and is
    extended in place; its rows are edited, so they must be copies.
    """
    if pivots is None:
        pivots = {}
    rest = []
    for row in rows:
        # every pivot row is zero in the other pivot columns, so one pass
        # over the pivot columns of row clears them all
        for c in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[c], c, p)
        lead = min(row, default=width)
        if lead >= width:
            if row:
                rest.append(row)
            continue
        if p and row[lead] != 1:
            inv = pow(row[lead], p - 2, p)
            row = {k: v * inv % p for k, v in row.items()}
        # keep the earlier pivot rows zero in the new pivot column
        for c, prow in pivots.items():
            if lead in prow:
                pivots[c] = _eliminate(prow, row, lead, p)
        pivots[lead] = row
    return pivots, rest


def _scalar(p: int, num: int, den: int):
    """The field scalar num/den from kernel values (den == 1 over F_p)."""
    return ModInt(num, p) if p else Fraction(num, den)


def _seeded(m: Matrix) -> dict:
    """Copies of the pivot rows of each block of m, shifted to its
    columns: together they are the reduced echelon form of the block rows
    of m, since no two blocks share a column."""
    pivots = {}
    for col0, block in m._blocks:
        for c, row in _echelon(block).items():
            pivots[col0 + c] = {col0 + j: x for j, x in row.items()}
    return pivots


def _int_rows(m: Matrix) -> list:
    """The nonzero rows of m below its blocks as fresh int dicts, the
    input of its elimination: its int rows, made primitive over Q (any
    multiple of a row stands for it); for a matrix built from field
    values, `_kernel_row` of its entries."""
    p = m.field.characteristic
    if m._ints is None:
        return [_kernel_row(p, r) for r in m.entries if r]
    if p:
        return [dict(r) for r in m._ints if r]
    return [_primitive(r) for r in m._ints if r]


def _echelon(m: Matrix) -> dict:
    """The pivot rows of m (see `_reduce`), computed once per matrix:
    from its blocks' pivot rows, then its int rows."""
    if m._pivots is None:
        m._pivots, _ = _reduce(_int_rows(m), m.ncols, m.field.characteristic,
                               _seeded(m))
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
    one = m.field.one()
    basis = []
    for j in free:
        v = zero_vector(m.field, m.ncols)
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
    p = m.field.characteristic
    n = m.ncols
    aug = []
    for row, bi in zip(m.entries, b):
        bi = m.field.coerce(bi)
        if bi:
            row = dict(row)
            row[n] = bi
        if row:
            aug.append(_kernel_row(p, row))
    pivots, rest = _reduce(aug, n, p)
    if rest:
        return None
    x = zero_vector(m.field, n)
    for c, row in pivots.items():
        if n in row:
            x[c] = _scalar(p, row[n], row[c])
    return x


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    p = m.field.characteristic
    n = m.nrows
    one = m.field.one()
    aug = []
    for i, row in enumerate(m.entries):
        row = dict(row)
        row[n + i] = one
        aug.append(_kernel_row(p, row))
    pivots, _ = _reduce(aug, n, p)
    if len(pivots) != n:
        return None
    out = []
    for c in range(n):
        row = pivots[c]
        scale = row[c]
        out.append({j - n: _scalar(p, x, scale)
                    for j, x in row.items() if j >= n})
    return Matrix.from_entries(m.field, out, n)
