"""Multilinear cochains with bimodule coefficients and the differentials
of the associated complex.

A cochain of arity n on an algebra R with coefficients in a bimodule A is
a map R^n -> A, stored densely: coeffs[t][b] is the a_b coefficient of
the value on the basis tuple with row-major flat index t.  The complex
runs in degrees 1..4 with differentials

    (d1 p)(x,y)     = x*p(y) - p(x*y) + p(x)*y
    (d2 p)(x,y,z)   = x*(p(y,z) + p(z,y)) - p(x*y, z)
                      + p(x, y*z + z*y) - p(x,y)*z
    (d3 p)(x,y,z,w) = x*(p(y,z,w) - p(z,w,y) + p(z,y,w) - p(w,z,y))
                      - p(x*y, z, w) + p(x, y*z + z*y, w)
                      - p(x, y, z*w + w*z) + p(x,y,z)*w

where a product with a module-valued factor means the bimodule action.
Arity-4 cochains exist as targets of d3 and have no outgoing differential.

All three follow one formula: for p of arity n,

    (d p)(x0..xn) = x0*(sum of signed reorderings of p(x1..xn))
                    - p(x0*x1, x2..xn)
                    + sum_{k=1}^{n-1} (-1)^(k+1)
                          p(.., x_k*x_{k+1} + x_{k+1}*x_k, ..)
                    + (-1)^(n+1) p(x0..x_{n-1})*x_n

and only the signed reorderings depend on n.  They form the one table
`_TAIL_ORDERS`, whose keys are the degree range of the complex.
`differential_matrix` reads the algebra's structure constants and the
module's actions as their objects keep them, read into ints once by
their constructors (`ZinbielAlgebra._gamma_ints`,
`Bimodule._action_ints`): ints mod p over F_p, ints over their least
common denominator over Q, each rescaled to the least common multiple
of the two denominators.  Each term of d^n is linear in one of them,
so d^n is assembled as int rows over that multiple, in one pass per
term of this formula, with
no field scalar built and each row created on its first write: a row
never written is zero and is not held (see `zinbiel.linalg`).  The tuple-by-tuple
evaluation of the three formulas above is kept in the tests as the
oracle the matrices are checked against.

`ComplexElement` is the one element protocol of this complex and of the
deformation complex of a morphism (`zinbiel.morphism_complex`).  An
element is a flat vector under a fixed flattening; `Cochain` and
`TripleCochain` supply their space, degree, rebuild from a flat vector
and matrix of d^n, and the base holds the only copy of +, -, negation
and scaling.  `differential`, `is_cocycle` and `coboundary_preimage` act
on an element of either complex: they apply its d^n, test the result for
zero, or solve against its d^(n-1).

The public constructors, `Cochain(...)` and `from_flat`, check the shape
and coerce every value into the field.  Values the library builds itself
skip that: `Cochain._of` takes rows of field values as they are.  Its
callers are `_rebuild` (so the arithmetic, the differential and the
coboundary solve), `TripleCochain._rebuild`, `identity_cochain`,
`product_cochain` and `morphism_cochain`, read off checked objects, and
the residuals, obstructions and conjugates of `zinbiel.deformation`,
whose sums end in field values.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from math import lcm

from .algebra import Bimodule, ZinbielAlgebra
from .linalg import (Matrix, _echelon, rank_nullspace, solve, vec_add,
                     vec_sub)

# p(x1..xn) reordered inside the left action of d^n: (sign, order) pairs,
# order[k] being the tail position of the k-th argument of p
_TAIL_ORDERS = {
    1: ((1, (0,)),),
    2: ((1, (0, 1)), (1, (1, 0))),
    3: ((1, (0, 1, 2)), (-1, (1, 2, 0)), (1, (1, 0, 2)), (-1, (2, 1, 0))),
}
# the arities with an outgoing differential, those with a differential in
# and out (the cohomology degrees), and the largest arity of the complex
DEGREES = tuple(_TAIL_ORDERS)
COHOMOLOGY_DEGREES = DEGREES[1:]
MAX_ARITY = DEGREES[-1] + 1


def tuple_index(dim: int, tup: tuple) -> int:
    t = 0
    for i in tup:
        t = t * dim + i
    return t


def all_tuples(dim: int, arity: int):
    return itertools.product(range(dim), repeat=arity)


class ComplexElement:
    """An element of one degree of a cochain complex: a `Cochain` of the
    bimodule complex or a `TripleCochain` of the deformation complex of a
    morphism.

    A subclass keeps its own parts, `__eq__`, `zero` and `is_zero`, and
    supplies `_space()` (what two elements must share to be added),
    `degree`, `field`, `flatten()`, `_rebuild(flat, degree)` (the element
    of its complex with that flat vector at that degree) and
    `_d_matrix(n)` (the matrix of d^n of its complex).  The arithmetic
    here, `differential`, `is_cocycle` and `coboundary_preimage` run on
    the flat vector."""

    __slots__ = ()

    def _combine(self, other, op):
        if not isinstance(other, ComplexElement):
            return NotImplemented
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError("cochains live in different spaces")
        return self._rebuild(op(self.flatten(), other.flatten()), self.degree)

    def __add__(self, other):
        return self._combine(other, vec_add)

    def __sub__(self, other):
        return self._combine(other, vec_sub)

    def __neg__(self):
        return self._rebuild([-x for x in self.flatten()], self.degree)

    def scale(self, c):
        c = self.field.coerce(c)
        return self._rebuild([c * x for x in self.flatten()], self.degree)


class Cochain(ComplexElement):
    """A multilinear map R^arity -> A as a dense coefficient grid; its
    degree in the complex is its arity."""

    __slots__ = ("source", "module", "arity", "coeffs")

    def __init__(self, source: ZinbielAlgebra, module: Bimodule, arity: int,
                 coeffs):
        if module.algebra != source:
            raise ValueError("module is not over the cochain's source algebra")
        if not 0 <= arity <= MAX_ARITY:
            raise ValueError(f"arity {arity} outside 0..{MAX_ARITY}")
        field = source.field
        nrows = source.dim ** arity
        coeffs = [list(r) for r in coeffs]
        if len(coeffs) != nrows or any(len(r) != module.dim for r in coeffs):
            raise ValueError(
                f"coefficients must be {nrows} rows of length {module.dim}")
        self.source = source
        self.module = module
        self.arity = arity
        self.coeffs = [[field.coerce(x) for x in r] for r in coeffs]

    @property
    def field(self):
        return self.source.field

    @property
    def degree(self) -> int:
        return self.arity

    def _space(self) -> tuple:
        return self.source, self.module, self.arity

    @classmethod
    def _of(cls, source: ZinbielAlgebra, module: Bimodule, arity: int,
            coeffs: list) -> "Cochain":
        """The cochain with these rows of field values, taken as they are:
        not copied, coerced or checked.  Only for rows the library built
        in the field of source, of the right shape, and shared with no
        one."""
        cochain = object.__new__(cls)
        cochain.source, cochain.module = source, module
        cochain.arity, cochain.coeffs = arity, coeffs
        return cochain

    def _rebuild(self, flat: list, degree: int) -> "Cochain":
        return Cochain._of(self.source, self.module, degree, _rows(
            flat, self.source.dim ** degree, self.module.dim))

    def _d_matrix(self, n: int) -> Matrix:
        return differential_matrix(self.source, self.module, n)

    @classmethod
    def zero(cls, source: ZinbielAlgebra, module: Bimodule,
             arity: int) -> "Cochain":
        z = source.field.zero()
        rows = [[z] * module.dim for _ in range(source.dim ** arity)]
        return cls(source, module, arity, rows)

    def eval_basis(self, tup: tuple) -> list:
        """Value on a basis tuple (a coefficient row; treat as read-only)."""
        return self.coeffs[tuple_index(self.source.dim, tup)]

    def is_zero(self) -> bool:
        return all(not x for r in self.coeffs for x in r)

    def flatten(self) -> list:
        """Row-major flattening; output index varies fastest."""
        return [x for r in self.coeffs for x in r]

    @classmethod
    def from_flat(cls, source: ZinbielAlgebra, module: Bimodule, arity: int,
                  flat: list) -> "Cochain":
        m = module.dim
        nrows = source.dim ** arity
        if len(flat) != nrows * m:
            raise ValueError(f"expected {nrows * m} coefficients")
        return cls(source, module, arity, _rows(flat, nrows, m))

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.source == other.source and self.module == other.module
                and self.arity == other.arity and self.coeffs == other.coeffs)

    def __repr__(self):
        return (f"Cochain(arity={self.arity}, dim {self.source.dim}"
                f"^{self.arity} -> {self.module.dim})")


def _rows(flat: list, nrows: int, m: int, start: int = 0) -> list:
    """nrows rows of length m, cut from flat from index start on."""
    return [flat[start + r * m:start + (r + 1) * m] for r in range(nrows)]


def identity_cochain(algebra: ZinbielAlgebra) -> Cochain:
    """The identity map as a 1-cochain with regular coefficients."""
    field = algebra.field
    rows = [[field.one() if b == i else field.zero()
             for b in range(algebra.dim)] for i in range(algebra.dim)]
    return Cochain._of(algebra, algebra.regular_bimodule(), 1, rows)


def product_cochain(algebra: ZinbielAlgebra) -> Cochain:
    """The multiplication of the algebra as a 2-cochain with regular coefficients."""
    rows = [list(algebra.gamma[i][j])
            for i in range(algebra.dim) for j in range(algebra.dim)]
    return Cochain._of(algebra, algebra.regular_bimodule(), 2, rows)


def complex_dim(algebra: ZinbielAlgebra, module: Bimodule, n: int) -> int:
    return algebra.dim ** n * module.dim


def _slot_sign(k: int, v):
    """v times (-1)^(k+1), the sign of the term of d^n at slot k: the
    product of x_k and x_{k+1} for k < n, the right action for k = n."""
    return v if k % 2 else -v


@functools.lru_cache(maxsize=64)
def _reordered_columns(d: int, m: int, orders: tuple) -> tuple:
    """(sign, columns) for each (sign, order) of a table entry: the column
    offset of p(tail[order[0]], .., tail[order[n-1]]) for each tail in
    row-major order.  Cached: it depends only on the dimensions and the
    table entry, and rebuilding it slowed small assemblies."""
    tails = list(all_tuples(d, len(orders[0][1])))
    return tuple((s, tuple(tuple_index(d, map(tail.__getitem__, order)) * m
                           for tail in tails))
                 for s, order in orders)


def differential_matrix(algebra: ZinbielAlgebra, module: Bimodule,
                        n: int) -> Matrix:
    """Matrix of d^n under row-major flattening with output index fastest,
    assembled as int rows in one pass per term of the formula in the
    module docstring.  The product read is that of module's algebra,
    which must equal algebra (ValueError otherwise)."""
    if n not in _TAIL_ORDERS:
        raise ValueError(f"no differential out of arity {n}")
    if module.algebra != algebra:
        raise ValueError("module is not over the differential's algebra")
    d, m = algebra.dim, module.dim
    left, right, aden = module._action_ints
    gamma, gden = module.algebra._gamma_ints
    den = lcm(aden, gden)
    ca, cg = den // aden, den // gden
    # each row is created on its first write; the rows never written are
    # zero and are not held
    rows = defaultdict(functools.partial(defaultdict, int))
    # x0*(signed reorderings of p(x1..xn)), row x * m + a of left
    reordered = _reordered_columns(d, m, _TAIL_ORDERS[n])
    for xa, pairs in enumerate(left):
        x, a = divmod(xa, m)
        for b, v in pairs:
            v *= ca
            for s, cols in reordered:
                signed = v if s > 0 else -v
                for t, col in enumerate(cols, x * d ** n):
                    rows[t * m + b][col + a] += signed
    # (-1)^(k+1) p(.., x_k*x_{k+1}, ..) at slot 0 and
    # (-1)^(k+1) p(.., x_k*x_{k+1} + x_{k+1}*x_k, ..) at each slot k >= 1,
    # row u * d + w of gamma
    for k in range(n):
        heads, after = range(d ** k), d ** (n - 1 - k)
        for uw, products in enumerate(gamma):
            u, w = divmod(uw, d)
            pairs = ((u, w),) if k == 0 else ((u, w), (w, u))
            for q, g in products:
                g = _slot_sign(k, g * cg)
                for head in heads:
                    col0 = (head * d + q) * after
                    for y, z in pairs:
                        row0 = ((head * d + y) * d + z) * after
                        for tail in range(after):
                            row, col = (row0 + tail) * m, (col0 + tail) * m
                            for b in range(m):
                                rows[row + b][col + b] += g
    # (-1)^(n+1) p(x0..x_{n-1})*x_n, row a * d + y of right
    for ay, pairs in enumerate(right):
        a, y = divmod(ay, d)
        for b, v in pairs:
            v = _slot_sign(n, v * ca)
            for head in range(d ** n):
                rows[(head * d + y) * m + b][head * m + a] += v
    return Matrix._assembled(algebra.field, d ** (n + 1) * m, d ** n * m,
                             rows, den)


def differential(x: ComplexElement) -> ComplexElement:
    """Apply d^n, n = x.degree, through the assembled matrix of the
    complex of x."""
    n = x.degree
    return x._rebuild(x._d_matrix(n).matvec(x.flatten()), n + 1)


def _cohomology_degree(x, what: str) -> int:
    if not isinstance(x, ComplexElement):
        raise TypeError(f"not a cochain: {x!r}")
    if x.degree not in COHOMOLOGY_DEGREES:
        raise ValueError(f"{what} at degree {x.degree} undefined")
    return x.degree


def is_cocycle(x: ComplexElement) -> tuple[bool, ComplexElement]:
    """Whether d(x) vanishes, together with the exact residual d(x), for
    x of a degree in COHOMOLOGY_DEGREES."""
    _cohomology_degree(x, "cocycle test")
    res = differential(x)
    return res.is_zero(), res


def coboundary_preimage(x: ComplexElement) -> ComplexElement | None:
    """Some y with d(y) = x, or None; the representative is deterministic
    (free coefficients set to zero under the fixed flattening)."""
    n = _cohomology_degree(x, "preimage")
    sol = solve(x._d_matrix(n - 1), x.flatten())
    return None if sol is None else x._rebuild(sol, n - 1)


def cohomology_from(n: int, dim: int, ranks: dict, assemble,
                    shared=()) -> int:
    """dim ker(d^n) - rank(d^{n-1}) for n in COHOMOLOGY_DEGREES, shared by
    both complexes: dim is the dimension of degree n, assemble(k) the
    matrix of d^k and ranks the {degree: rank} dict kept on the complex's
    object.  A degree missing from ranks is assembled and ranked once;
    the ranks of its matrix's diagonal `_blocks` come with that
    elimination and go into the dicts of shared, one per block."""
    if n not in COHOMOLOGY_DEGREES:
        raise ValueError("cohomology defined in degrees "
                         f"{' and '.join(map(str, COHOMOLOGY_DEGREES))}, "
                         f"not {n}")
    for k in (n, n - 1):
        if k not in ranks:
            m = assemble(k)
            ranks[k], _ = rank_nullspace(m)
            for (_, block), block_ranks in zip(m._blocks, shared):
                block_ranks[k] = len(_echelon(block))
    return dim - ranks[n] - ranks[n - 1]


def cohomology_dim(algebra: ZinbielAlgebra, module: Bimodule, n: int) -> int:
    """dim ker(d^n) - rank(d^{n-1}), for n in COHOMOLOGY_DEGREES.  The ranks
    are kept on the module when it is over this very algebra."""
    ranks = module._ranks if module.algebra is algebra else {}
    return cohomology_from(n, complex_dim(algebra, module, n), ranks,
                           functools.partial(differential_matrix, algebra,
                                             module))
