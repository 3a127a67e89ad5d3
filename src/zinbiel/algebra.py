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
extension R + A, so `_product_sums` computes them too.  Each check
reads the structure constants with the one int reader, `linalg._ints`,
over one denominator den, and f off its int rows over theirs, fden
(`linalg._columns`, read once per morphism by its constructor and kept):
the product sums are ints scaled by den^2, the morphism sums by
den * fden^2.  `_found` reads the failures off the accumulated sums and
writes their values back with `linalg._dense`, here and for the
deformation conditions of every order.

The two derived bimodules are built unchecked, because their identities
hold by construction.  In `regular_bimodule()` all three mixed identities
are the Zinbiel identity of the algebra.  In `bimodule_via_morphism` they
follow from f(xy) = f(x)f(y) and the Zinbiel identity of the target.
The assemblers of `zinbiel.cochains` read a bimodule's actions and its
algebra's product as int tensors (`Bimodule._int_tensors`).  Each
algebra reads its product into ints once (`ZinbielAlgebra._int_gamma`),
and its regular bimodule takes that one read for both actions.
`bimodule_via_morphism` sums its actions in ints, from the target's int
product and f's int columns, and writes them with `linalg._dense`.

A `Bimodule` and an `AlgebraMorphism` keep, in `_ranks`, the rank of
each differential of their complex once it has been computed (see
`zinbiel.cochains.cohomology_from`): plain ints, no matrix.
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


class ZinbielAlgebra:
    """Basis-presented algebra: gamma[i][j][k] is the e_k coefficient of e_i*e_j."""

    __slots__ = ("field", "dim", "gamma", "_regular", "_gamma_ints")

    def __init__(self, field: Field, dim: int, gamma):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        _check_cube_shape(dim, gamma)
        self.field = field
        self.dim = dim
        self.gamma = [[[field.coerce(x) for x in row] for row in plane]
                      for plane in gamma]
        self._regular = None
        self._gamma_ints = None
        bad = zinbiel_violations(field, dim, self.gamma)
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

    def _int_gamma(self) -> tuple:
        """(gamma, den): the structure tensor read by `_ints` over its one
        denominator den, as (i, j, k, v) for its nonzero values v: e_i*e_j
        has e_k coefficient v / den.  Read once and kept, as a flat tuple
        of ints."""
        if self._gamma_ints is None:
            (rows,), den = _ints([(row for plane in self.gamma
                                   for row in plane)],
                                 self.field.characteristic)
            self._gamma_ints = _flat_tensor(rows, self.dim), den
        return self._gamma_ints

    def regular_bimodule(self) -> "Bimodule":
        """The algebra acting on itself by its own product (cached)."""
        if self._regular is None:
            self._regular = _derived_bimodule(self, self.dim, self.gamma,
                                              self.gamma)
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
    (rows,), den = _ints([[[field.coerce(x) for x in row] for plane in gamma
                           for row in plane]], field.characteristic)
    wheres = itertools.product(range(dim), repeat=3)
    return _found(functools.partial(Violation, "zinbiel"), field, dim,
                  wheres, _product_sums(dim, [rows], [(0, 0)]), den ** 2)


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


def _product_sums(d: int, ms: list, pairs: list) -> list:
    """sum_(l,q) m_l(m_q(x,y), z) - m_l(x, m_q(y,z) + m_q(z,y)) on every
    basis triple, as accumulated rows; ms holds sparse rows."""
    syms = {q: _symmetrized(ms[q], d) for _, q in pairs}
    out = []
    for x in range(d):
        for y in range(d):
            for z in range(d):
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

    __slots__ = ("algebra", "dim", "left", "right", "_ranks", "_tensors")

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
        self._tensors = None
        self.left = [[[field.coerce(x) for x in v] for v in col]
                     for col in left]
        self.right = [[[field.coerce(x) for x in v] for v in col]
                      for col in right]
        bad = bimodule_violations(algebra, dim, self.left, self.right)
        if bad:
            raise IdentityError(
                f"bimodule identities fail on {len(bad)} basis triple(s)", bad)

    @property
    def field(self):
        return self.algebra.field

    def _int_tensors(self) -> tuple:
        """(left, gamma, right, den): the actions and the product of the
        algebra over one denominator den, each as (i, j, k, v) for its
        nonzero values v: e_i*a_j has a_k coefficient v / den in left,
        e_i*e_j has e_k coefficient v / den in gamma, a_i*e_j has a_k
        coefficient v / den in right.  gamma is the algebra's one read
        (`ZinbielAlgebra._int_gamma`), and the regular bimodule takes it
        for its actions too; other actions are read together by `_ints`.
        Read once and kept, as flat tuples of ints."""
        if self._tensors is None:
            gamma, den = self.algebra._int_gamma()
            if self is self.algebra._regular:
                self._tensors = gamma, gamma, gamma, den
            else:
                (left, right), aden = _ints(
                    ((v for col in self.left for v in col),
                     (v for col in self.right for v in col)),
                    self.field.characteristic)
                self._tensors = _with_gamma(
                    self.algebra, _flat_tensor(left, self.dim),
                    _flat_tensor(right, self.algebra.dim), aden)
        return self._tensors

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Bimodule):
            return NotImplemented
        return (self.algebra == other.algebra and self.dim == other.dim
                and self.left == other.left and self.right == other.right)

    def __repr__(self):
        return f"Bimodule(dim={self.dim} over {self.algebra!r})"


def _flat_tensor(rows: list, width: int) -> tuple:
    """The (i, j, k, v) of each pair (k, v) of row t = i * width + j of
    rows, as `_ints` reads them."""
    return tuple((*divmod(t, width), k, v)
                 for t, row in enumerate(rows) for k, v in row)


def _with_gamma(algebra: ZinbielAlgebra, left: tuple, right: tuple,
                aden: int) -> tuple:
    """(left, gamma, right, den) as `Bimodule._int_tensors` keeps them,
    from int actions over aden and the algebra's int product, each
    rescaled to den, the least common multiple of the two
    denominators."""
    gamma, gden = algebra._int_gamma()
    den = lcm(aden, gden)

    def scaled(tensor, d):
        c = den // d
        return tensor if c == 1 else tuple(
            (i, j, k, v * c) for i, j, k, v in tensor)
    return scaled(left, aden), scaled(gamma, gden), scaled(right, aden), den


def _derived_bimodule(algebra: ZinbielAlgebra, dim: int, left, right,
                      tensors: tuple | None = None) -> Bimodule:
    """A bimodule whose identities hold by construction, from actions
    already of field values: taken as they are, neither copied, coerced
    nor checked; tensors, when given, are its `_int_tensors`."""
    module = Bimodule.__new__(Bimodule)
    module.algebra, module.dim = algebra, dim
    module.left, module.right = left, right
    module._ranks = {}
    module._tensors = tensors
    return module


def bimodule_violations(algebra: ZinbielAlgebra, dim: int, left,
                        right) -> list[Violation]:
    """Mixed-identity residuals, one family per placement of the module
    slot.  They are the Zinbiel identity of the square-zero extension
    R + A, with product (x, a)(y, b) = (xy, x*b + a*y), on the triples
    with one argument in A, so they are its order-0 product sums."""
    field = algebra.field
    d = algebra.dim
    n = d + dim
    # the extension's product on basis pairs: e_i is basis vector i, a_a
    # is basis vector d + a
    table = [[field.zero()] * n for _ in range(n * n)]

    def put(x, y, offset, vec):
        for b, v in enumerate(vec):
            table[x * n + y][offset + b] = field.coerce(v)
    for i in range(d):
        for j in range(d):
            put(i, j, 0, algebra.gamma[i][j])
        for a in range(dim):
            put(i, d + a, d, left[i][a])
            put(d + a, i, d, right[a][i])
    (rows,), den = _ints([table], field.characteristic)
    sums = _product_sums(n, [rows], [(0, 0)])
    out = []
    for slot, label in enumerate(("module-first", "module-middle",
                                  "module-last")):
        ranges = [range(d)] * 3
        ranges[slot] = range(dim)
        wheres = list(itertools.product(*ranges))
        # with one argument in A, every term lands in A
        rows = []
        for where in wheres:
            x, y, z = (w + d if k == slot else w for k, w in enumerate(where))
            rows.append({b - d: v for b, v in
                         sums[(x * n + y) * n + z].items()})
        out += _found(functools.partial(Violation, label), field, dim,
                      wheres, rows, den ** 2)
    return out


class AlgebraMorphism:
    """Linear map between Zinbiel algebras that respects products.

    The matrix has one column per source basis vector, holding the target
    coordinates of its image.
    """

    __slots__ = ("source", "target", "matrix", "_bimodule", "_ranks",
                 "_columns")

    def __init__(self, source: ZinbielAlgebra, target: ZinbielAlgebra,
                 matrix: Matrix | list):
        if source.field != target.field:
            raise FieldError("morphism between algebras over different fields")
        if not isinstance(matrix, Matrix):
            matrix = Matrix(source.field, matrix, source.dim)
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValueError(
                f"matrix must be {target.dim}x{source.dim}, "
                f"got {matrix.nrows}x{matrix.ncols}")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._bimodule = None
        self._ranks = {}
        self._columns = None
        bad = _morphism_found(source, target, *self._int_columns())
        if bad:
            raise IdentityError(
                f"map fails to respect products on {len(bad)} basis pair(s)",
                bad)

    def apply_basis(self, i: int) -> list:
        return self.matrix.column(i)

    def _int_columns(self) -> tuple:
        """(cols, den): for each basis vector e_a of the source, the pairs
        (b, v) of f(e_a), read off the int rows of the matrix (see
        `linalg._columns`), and their denominator.  Read once, by the
        constructor's check, and kept, as tuples of ints."""
        if self._columns is None:
            cols, den = _columns(self.matrix)
            self._columns = tuple(map(tuple, cols)), den
        return self._columns

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
    `linalg._columns`)."""
    (ms_r, ms_s), den = _ints(
        ([row for plane in source.gamma for row in plane],
         [row for plane in target.gamma for row in plane]),
        source.field.characteristic)
    wheres = itertools.product(range(source.dim), repeat=2)
    return _found(functools.partial(Violation, "morphism"), source.field,
                  target.dim, wheres,
                  _morphism_sums(source.dim, target.dim, [ms_r], [ms_s], [fs],
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
    become the bimodule's int tensors and, written by `_dense`, its
    actions."""
    source, target = g.source, g.target
    field, d, m = source.field, source.dim, target.dim
    p = field.characteristic
    cols, fden = g._int_columns()
    gamma, sden = target._int_gamma()
    images = defaultdict(list)   # b -> (i, v): g(e_i) has e_b coefficient v
    for i, col in enumerate(cols):
        for b, v in col:
            images[b].append((i, v))
    lsum, rsum = defaultdict(int), defaultdict(int)
    for u, w, k, c in gamma:
        for i, v in images[u]:
            lsum[i, w, k] += v * c     # g(e_i) * e_w
        for i, v in images[w]:
            rsum[u, i, k] += v * c     # e_u * g(e_i)
    left, right = (tuple((*key, v) for key in sorted(acc)
                         if (v := acc[key] % p if p else acc[key]))
                   for acc in (lsum, rsum))
    den = fden * sden
    common = gcd(den, *(t[3] for t in left), *(t[3] for t in right))
    if common > 1:
        den //= common
        left, right = (tuple((i, j, k, v // common) for i, j, k, v in t)
                       for t in (left, right))
    return _derived_bimodule(
        source, m, _dense_tensor(field, d, m, m, left, den),
        _dense_tensor(field, m, d, m, right, den),
        _with_gamma(source, left, right, den))


def _dense_tensor(field: Field, n1: int, n2: int, n: int, tensor: tuple,
                  den: int) -> list:
    """The n1 x n2 grid of vectors of n field values with v / den at
    [i][j][k] for each (i, j, k, v) of tensor, zero elsewhere."""
    rows = [[] for _ in range(n1 * n2)]
    for i, j, k, v in tensor:
        rows[i * n2 + j].append((k, v))
    flat = _dense(field, n, rows, den)
    return [flat[i * n2:(i + 1) * n2] for i in range(n1)]
