"""Finite-dimensional Zinbiel algebras, their bimodules and morphisms.

A Zinbiel algebra (dual Leibniz algebra) is a vector space with a
bilinear product x*y obeying

    (x*y)*z = x*(y*z) + x*(z*y).

A bimodule over such an algebra carries left and right actions for which
the same identity holds whenever exactly one of the three arguments comes
from the module.  Everything is basis-presented through structure
constants; `IdentityError` carries the full list of violations with exact
residual vectors.

Each identity is checked in one place, exhaustively on basis tuples:
`ZinbielAlgebra` checks the Zinbiel identity, `AlgebraMorphism` checks
f(xy) = f(x)f(y), and `Bimodule` checks the three mixed identities of
the actions its caller supplies.  The first two checks are the order-0
deformation conditions of (m_R; m_S; f) and share their sparse sums with
`zinbiel.deformation`: `_product_sums` and `_morphism_sums` at order 0.
The mixed identities are the Zinbiel identity of the square-zero
extension R + A, so `_product_sums` computes them too, on the basis
triples with exactly one argument in A only.  `_found` reads
the failures off the accumulated sums and writes their values back with
`linalg._dense`, here and for the deformation conditions of every order.

Each object reads its field values into ints once, in its constructor,
and keeps that read: an algebra its product (`_gamma_ints`), a bimodule
its two actions (`_action_ints`), both by the one int reader
`linalg._ints` (see `_grid_ints`), and a morphism f's columns
(`_f_ints`, read off the int rows of its matrix by `linalg._columns`).
Each read is held as nested tuples of ints over its own denominator, in
the layout `_ints` returns: row i * width + j of a grid holds the
(k, v) pairs of grid[i][j].  The constructor's check reads it, and so
do the via-f build and the assemblers of `zinbiel.cochains` and
`zinbiel.morphism_complex`; where two reads meet, each is rescaled to
the least common multiple of their denominators.

The two derived bimodules are built unchecked, because their identities
hold by construction.  In `regular_bimodule()` all three mixed identities
are the Zinbiel identity of the algebra, and its two actions are the
algebra's product, read once.  In `bimodule_via_morphism` they follow
from f(xy) = f(x)f(y) and the Zinbiel identity of the target; its
actions are summed in ints, from the target's int product and f's int
columns, and written with `linalg._dense`.

A `Bimodule` and an `AlgebraMorphism` keep, in `_ranks`, the rank of
each differential of their complex once it has been computed (see
`zinbiel.cochains.cohomology_from`): plain ints, no matrix.  A morphism
also keeps its constant term theta_0 = (m_R; m_S; f) once built (see
`zinbiel.deformation.theta_zero`).
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from math import gcd, lcm

from .fields import Field, FieldError
from .linalg import Matrix, _columns, _dense, _ints, zero_vector


@dataclass
class Violation:
    """One failed identity instance: where it failed and by how much."""
    label: str
    where: tuple
    residual: list


class IdentityError(ValueError):
    """A defining identity failed; .violations lists every failure."""

    def __init__(self, message: str, violations: list):
        super().__init__(message)
        self.violations = violations


def _check_cube_shape(dim: int, gamma) -> None:
    if len(gamma) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane)
            for plane in gamma):
        raise ValueError(f"structure tensor must be {dim}x{dim}x{dim}")


def _coerced(field: Field, grid) -> list:
    """A fresh grid of vectors, each value coerced into field."""
    return [[[field.coerce(x) for x in v] for v in col] for col in grid]


def _grid_ints(field: Field, *grids) -> tuple:
    """The int read an object keeps: each grid of vectors of field values
    (gamma[i][j], left[i][a] or right[a][i]) as the rows `_ints` reads,
    row i * width + j the (k, v) pairs of grid[i][j], in nested tuples;
    then the one denominator of all of them."""
    groups, den = _ints([[v for col in grid for v in col] for grid in grids],
                        field.characteristic)
    return (*(tuple(map(tuple, rows)) for rows in groups), den)


def _rescaled(rows: tuple, c: int, shift: int = 0) -> tuple:
    """Int rows with every value times c and every index plus shift."""
    if c == 1 and not shift:
        return rows
    return tuple(tuple((k + shift, v * c) for k, v in row) for row in rows)


class ZinbielAlgebra:
    """Basis-presented algebra: gamma[i][j][k] is the e_k coefficient of e_i*e_j."""

    __slots__ = ("field", "dim", "gamma", "_regular", "_gamma_ints")

    def __init__(self, field: Field, dim: int, gamma):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        _check_cube_shape(dim, gamma)
        self.field = field
        self.dim = dim
        self.gamma = _coerced(field, gamma)
        self._regular = None
        # (rows, den): row i * dim + j holds e_i * e_j times den
        self._gamma_ints = _grid_ints(field, self.gamma)
        bad = _zinbiel_found(field, dim, *self._gamma_ints)
        if bad:
            raise IdentityError(
                f"Zinbiel identity fails on {len(bad)} basis triple(s)", bad)

    def product_basis(self, i: int, j: int) -> list:
        """The vector e_i * e_j (a row of the structure tensor; treat as read-only)."""
        return self.gamma[i][j]

    def product(self, u: list, v: list) -> list:
        out = zero_vector(self.field, self.dim)
        for i, a in enumerate(u):
            if not a:
                continue
            plane = self.gamma[i]
            for j, b in enumerate(v):
                if not b:
                    continue
                c = a * b
                for k, g in enumerate(plane[j]):
                    if g:
                        out[k] = out[k] + c * g
        return out

    def regular_bimodule(self) -> "Bimodule":
        """The algebra acting on itself by its own product (cached)."""
        if self._regular is None:
            rows, den = self._gamma_ints
            self._regular = _derived_bimodule(self, self.dim, self.gamma,
                                              self.gamma, (rows, rows, den))
        return self._regular

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, ZinbielAlgebra):
            return NotImplemented
        return (self.field == other.field and self.dim == other.dim
                and self.gamma == other.gamma)

    def __repr__(self):
        return f"ZinbielAlgebra(dim={self.dim}, field={self.field})"


def zinbiel_violations(field: Field, dim: int, gamma) -> list[Violation]:
    """Residuals of (x*y)*z - x*(y*z) - x*(z*y) on all basis triples: the
    order-0 product sums of the deformation conditions."""
    _check_cube_shape(dim, gamma)
    return _zinbiel_found(field, dim,
                          *_grid_ints(field, _coerced(field, gamma)))


def _zinbiel_found(field: Field, dim: int, rows: tuple,
                   den: int) -> list[Violation]:
    """`zinbiel_violations` of the product with int rows over den."""
    wheres = list(itertools.product(range(dim), repeat=3))
    return _found(functools.partial(Violation, "zinbiel"), field, dim, wheres,
                  _product_sums(dim, [rows], [(0, 0)], wheres), den ** 2)


def _settle(acc: dict, p: int) -> list:
    """An accumulated row as the (output, value) pairs of its nonzero
    values, reduced mod p when p > 0."""
    if p:
        return [(b, v % p) for b, v in acc.items() if v % p]
    return [(b, v) for b, v in acc.items() if v]


def _symmetrized(rows: list, d: int) -> list:
    """For each basis pair (y, z), the pairs of m(y,z) and of m(z,y): the
    inner argument of the right side of the product condition."""
    return [rows[y * d + z] + rows[z * d + y]
            for y in range(d) for z in range(d)]


def _product_sums(d: int, ms: list, pairs: list, triples) -> list:
    """sum_(l,q) m_l(m_q(x,y), z) - m_l(x, m_q(y,z) + m_q(z,y)) on each
    basis triple (x, y, z) of triples, as accumulated rows in their
    order; ms holds sparse rows."""
    syms = {q: _symmetrized(ms[q], d) for _, q in pairs}
    out = []
    for x, y, z in triples:
        acc = {}
        for l, q in pairs:
            outer = ms[l]
            for k, v in ms[q][x * d + y]:
                for b, w in outer[k * d + z]:
                    acc[b] = acc.get(b, 0) + v * w
            for k, v in syms[q][y * d + z]:
                for b, w in outer[x * d + k]:
                    acc[b] = acc.get(b, 0) - v * w
        out.append(acc)
    return out


def _morphism_sums(dr: int, ds: int, ms_r: list, ms_s: list, fs: list,
                   pairs: list, triples: list, den: int) -> list:
    """sum_(i,q) f_i(m_{R,q}(x,y)) - sum_(i,j,k) m_{S,i}(f_j(x), f_k(y)) on
    every basis pair of R, as accumulated rows; the products of two values
    are scaled by den to meet those of three."""
    out = []
    for x in range(dr):
        for y in range(dr):
            acc = {}
            for i, q in pairs:
                rows = fs[i]
                for k, v in ms_r[q][x * dr + y]:
                    v *= den
                    for b, w in rows[k]:
                        acc[b] = acc.get(b, 0) + v * w
            for i, j, k in triples:
                outer = ms_s[i]
                for a, u in fs[j][x]:
                    for c, v in fs[k][y]:
                        uv = u * v
                        for b, w in outer[a * ds + c]:
                            acc[b] = acc.get(b, 0) - uv * w
            out.append(acc)
    return out


def _found(make, field: Field, dim: int, wheres, sums, den: int) -> list:
    """make(where, residual) for each accumulated int row of sums that
    does not vanish, its residual the dense vector of its values, each
    divided by den (1 over F_p)."""
    p = field.characteristic
    out = []
    for where, acc in zip(wheres, sums):
        nonzero = _settle(acc, p)
        if nonzero:
            out.append(make(where, _dense(field, dim, [nonzero], den)[0]))
    return out


class Bimodule:
    """Left and right actions of an algebra on a coefficient space.

    left[i][a] is the vector e_i * a_a, right[a][i] is a_a * e_i, both of
    length dim.  The mixed Zinbiel identities (one module slot among the
    three arguments) are verified on construction.  The derived bimodules
    of the module docstring are built by `_derived_bimodule` instead.
    """

    __slots__ = ("algebra", "dim", "left", "right", "_ranks", "_action_ints")

    def __init__(self, algebra: ZinbielAlgebra, dim: int, left, right):
        if dim < 0:
            raise ValueError("module dimension must be nonnegative")
        field = algebra.field
        d = algebra.dim
        if len(left) != d or any(len(col) != dim for col in left) or any(
                len(v) != dim for col in left for v in col):
            raise ValueError(f"left action must be {d}x{dim}x{dim}")
        if len(right) != dim or any(len(col) != d for col in right) or any(
                len(v) != dim for col in right for v in col):
            raise ValueError(f"right action must be {dim}x{d}x{dim}")
        self.algebra = algebra
        self.dim = dim
        self._ranks = {}
        self.left = _coerced(field, left)
        self.right = _coerced(field, right)
        # (left, right, den): row i * dim + a of left holds e_i * a_a and
        # row a * algebra.dim + i of right holds a_a * e_i, times den
        self._action_ints = _grid_ints(field, self.left, self.right)
        bad = _bimodule_found(algebra, dim, *self._action_ints)
        if bad:
            raise IdentityError(
                f"bimodule identities fail on {len(bad)} basis triple(s)", bad)

    @property
    def field(self):
        return self.algebra.field

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Bimodule):
            return NotImplemented
        return (self.algebra == other.algebra and self.dim == other.dim
                and self.left == other.left and self.right == other.right)

    def __repr__(self):
        return f"Bimodule(dim={self.dim} over {self.algebra!r})"


def _derived_bimodule(algebra: ZinbielAlgebra, dim: int, left, right,
                      ints: tuple) -> Bimodule:
    """A bimodule whose identities hold by construction, from actions
    already of field values and their int read ints (see
    `Bimodule._action_ints`): taken as they are, neither copied, coerced
    nor checked."""
    module = Bimodule.__new__(Bimodule)
    module.algebra, module.dim = algebra, dim
    module.left, module.right = left, right
    module._ranks = {}
    module._action_ints = ints
    return module


def bimodule_violations(algebra: ZinbielAlgebra, dim: int, left,
                        right) -> list[Violation]:
    """Mixed-identity residuals, one family per placement of the module
    slot.  They are the Zinbiel identity of the square-zero extension
    R + A, with product (x, a)(y, b) = (xy, x*b + a*y), on the triples
    with one argument in A, so they are its order-0 product sums."""
    field = algebra.field
    return _bimodule_found(algebra, dim, *_grid_ints(
        field, _coerced(field, left), _coerced(field, right)))


def _bimodule_found(algebra: ZinbielAlgebra, dim: int, left: tuple,
                    right: tuple, aden: int) -> list[Violation]:
    """`bimodule_violations` of the actions with int rows left and right
    over aden (see `Bimodule._action_ints`)."""
    field = algebra.field
    d = algebra.dim
    n = d + dim
    gamma, gden = algebra._gamma_ints
    den = lcm(gden, aden)
    # the extension's product on basis pairs, as int rows over den: e_i
    # is basis vector i, a_a is basis vector d + a
    ext = [()] * (n * n)
    for t, row in enumerate(_rescaled(gamma, den // gden)):
        i, j = divmod(t, d)
        ext[i * n + j] = row
    for t, row in enumerate(_rescaled(left, den // aden, d)):
        i, a = divmod(t, dim)
        ext[i * n + d + a] = row
    for t, row in enumerate(_rescaled(right, den // aden, d)):
        a, i = divmod(t, d)
        ext[(d + a) * n + i] = row
    out = []
    for slot, label in enumerate(("module-first", "module-middle",
                                  "module-last")):
        ranges = [range(d)] * 3
        ranges[slot] = range(dim)
        wheres = list(itertools.product(*ranges))
        # only the triples with this one argument in A, whose every term
        # lands in A
        triples = [tuple(w + d if k == slot else w
                         for k, w in enumerate(where)) for where in wheres]
        rows = [{b - d: v for b, v in acc.items()}
                for acc in _product_sums(n, [ext], [(0, 0)], triples)]
        out += _found(functools.partial(Violation, label), field, dim,
                      wheres, rows, den ** 2)
    return out


class AlgebraMorphism:
    """Linear map between Zinbiel algebras that respects products.

    The matrix has one column per source basis vector, holding the target
    coordinates of its image.
    """

    __slots__ = ("source", "target", "matrix", "_bimodule", "_ranks",
                 "_f_ints", "_theta_zero")

    def __init__(self, source: ZinbielAlgebra, target: ZinbielAlgebra,
                 matrix: Matrix | list):
        if source.field != target.field:
            raise FieldError("morphism between algebras over different fields")
        if not isinstance(matrix, Matrix):
            matrix = Matrix(source.field, matrix, source.dim)
        if matrix.field != source.field:
            raise FieldError("morphism matrix over another field")
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValueError(
                f"matrix must be {target.dim}x{source.dim}, "
                f"got {matrix.nrows}x{matrix.ncols}")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._bimodule = self._theta_zero = None
        self._ranks = {}
        # (cols, den): for each basis vector e_a of the source, the pairs
        # (b, v) of f(e_a) times den (see `linalg._columns`)
        cols, den = _columns(matrix)
        self._f_ints = tuple(map(tuple, cols)), den
        bad = _morphism_found(source, target, *self._f_ints)
        if bad:
            raise IdentityError(
                f"map fails to respect products on {len(bad)} basis pair(s)",
                bad)

    def apply_basis(self, i: int) -> list:
        return self.matrix.column(i)

    def as_bimodule(self) -> Bimodule:
        """The target as a source-bimodule through this morphism (cached)."""
        if self._bimodule is None:
            self._bimodule = bimodule_via_morphism(self)
        return self._bimodule

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, AlgebraMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def __repr__(self):
        return (f"AlgebraMorphism({self.source.dim} -> {self.target.dim}, "
                f"field={self.source.field})")


def morphism_violations(source: ZinbielAlgebra, target: ZinbielAlgebra,
                        matrix: Matrix) -> list[Violation]:
    """Residuals of f(e_i e_j) - f(e_i) f(e_j) on all basis pairs: the
    order-0 morphism sums of the deformation conditions."""
    return _morphism_found(source, target, *_columns(matrix))


def _morphism_found(source: ZinbielAlgebra, target: ZinbielAlgebra,
                    fs, fden: int) -> list[Violation]:
    """`morphism_violations` of the map with int columns fs over fden (see
    `linalg._columns`), from the two algebras' kept reads."""
    (ms_r, rden), (ms_s, sden) = source._gamma_ints, target._gamma_ints
    den = lcm(rden, sden)
    wheres = itertools.product(range(source.dim), repeat=2)
    return _found(functools.partial(Violation, "morphism"), source.field,
                  target.dim, wheres,
                  _morphism_sums(source.dim, target.dim,
                                 [_rescaled(ms_r, den // rden)],
                                 [_rescaled(ms_s, den // sden)], [fs],
                                 [(0, 0)], [(0, 0, 0)], fden), den * fden ** 2)


def identity_morphism(algebra: ZinbielAlgebra) -> AlgebraMorphism:
    return AlgebraMorphism(algebra, algebra,
                           Matrix.identity(algebra.field, algebra.dim))


def zero_morphism(source: ZinbielAlgebra,
                  target: ZinbielAlgebra) -> AlgebraMorphism:
    return AlgebraMorphism(source, target,
                           Matrix.zeros(source.field, target.dim, source.dim))


def bimodule_via_morphism(g: AlgebraMorphism) -> Bimodule:
    """The target of g as a bimodule over its source: r.s = g(r)s, s.r = s g(r).

    Both actions are summed in ints, from the target's int product and
    g's int columns, over the least denominator of their values; they
    become the bimodule's int read and, written by `_dense`, its
    actions."""
    source, target = g.source, g.target
    field, d, m = source.field, source.dim, target.dim
    p = field.characteristic
    cols, fden = g._f_ints
    gamma, sden = target._gamma_ints

    def times(i, stride, offset):
        # g(e_i) * e_w with (stride, offset) = (m, w), e_u * g(e_i) with
        # (1, u * m): the target's row b * stride + offset for each b
        acc = defaultdict(int)
        for b, v in cols[i]:
            for k, c in gamma[b * stride + offset]:
                acc[k] += v * c
        return sorted(_settle(acc, p))
    left = [times(i, m, w) for i in range(d) for w in range(m)]
    right = [times(i, 1, u * m) for u in range(m) for i in range(d)]
    den = fden * sden
    common = gcd(den, *(v for row in left + right for _, v in row))
    left, right = (tuple(tuple((k, v // common) for k, v in row)
                         for row in rows) for rows in (left, right))
    den //= common
    flat_left, flat_right = (_dense(field, m, rows, den)
                             for rows in (left, right))
    return _derived_bimodule(
        source, m, [flat_left[i * m:(i + 1) * m] for i in range(d)],
        [flat_right[a * d:(a + 1) * d] for a in range(m)],
        (left, right, den))
