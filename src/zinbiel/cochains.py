"""Multilinear cochains with bimodule coefficients and the low-degree
differentials of the associated complex.

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

`differential` evaluates these formulas tuple by tuple; `differential_matrix`
assembles the same operators directly from structure constants, giving a
second, independent code path (the two are cross-checked in the tests).
The matrices are sparse: assembly writes only the nonzero contributions.
"""

from __future__ import annotations

import itertools

from .algebra import Bimodule, ZinbielAlgebra
from .linalg import Matrix, rank_nullspace, vec_add, vec_sub, zero_vector

MAX_ARITY = 4


def tuple_index(dim: int, tup: tuple) -> int:
    t = 0
    for i in tup:
        t = t * dim + i
    return t


def all_tuples(dim: int, arity: int):
    return itertools.product(range(dim), repeat=arity)


class Cochain:
    """A multilinear map R^arity -> A as a dense coefficient grid."""

    __slots__ = ("source", "module", "arity", "coeffs")

    def __init__(self, source: ZinbielAlgebra, module: Bimodule, arity: int,
                 coeffs):
        if module.algebra is not source and module.algebra != source:
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

    @classmethod
    def zero(cls, source: ZinbielAlgebra, module: Bimodule,
             arity: int) -> "Cochain":
        z = source.field.zero()
        rows = [[z] * module.dim for _ in range(source.dim ** arity)]
        return cls(source, module, arity, rows)

    def eval_basis(self, tup: tuple) -> list:
        """Value on a basis tuple (a coefficient row; treat as read-only)."""
        return self.coeffs[tuple_index(self.source.dim, tup)]

    def eval(self, args: list) -> list:
        """Value on a mixed argument list: basis indices (int) or vectors."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        if all(isinstance(a, int) for a in args):
            return list(self.eval_basis(tuple(args)))
        field = self.field
        d = self.source.dim
        out = zero_vector(field, self.module.dim)
        pools = []
        for a in args:
            if isinstance(a, int):
                pools.append(((a, None),))
            else:
                pool = tuple((t, c) for t, c in enumerate(a) if c)
                if not pool:
                    return out
                pools.append(pool)
        for combo in itertools.product(*pools):
            coef = None
            flat = 0
            for t, c in combo:
                flat = flat * d + t
                if c is not None:
                    coef = c if coef is None else coef * c
            row = self.coeffs[flat]
            if coef is None:
                for b, v in enumerate(row):
                    if v:
                        out[b] = out[b] + v
            else:
                for b, v in enumerate(row):
                    if v:
                        out[b] = out[b] + coef * v
        return out

    def _compatible(self, other: "Cochain") -> None:
        if (self.source != other.source or self.module != other.module
                or self.arity != other.arity):
            raise ValueError("cochains live in different spaces")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        rows = [vec_add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        return Cochain(self.source, self.module, self.arity, rows)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        rows = [vec_sub(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        return Cochain(self.source, self.module, self.arity, rows)

    def __neg__(self) -> "Cochain":
        rows = [[-x for x in r] for r in self.coeffs]
        return Cochain(self.source, self.module, self.arity, rows)

    def scale(self, c) -> "Cochain":
        c = self.field.coerce(c)
        rows = [[c * x for x in r] for r in self.coeffs]
        return Cochain(self.source, self.module, self.arity, rows)

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
        rows = [flat[r * m:(r + 1) * m] for r in range(nrows)]
        return cls(source, module, arity, rows)

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.source == other.source and self.module == other.module
                and self.arity == other.arity and self.coeffs == other.coeffs)

    def __repr__(self):
        return (f"Cochain(arity={self.arity}, dim {self.source.dim}"
                f"^{self.arity} -> {self.module.dim})")


def identity_cochain(algebra: ZinbielAlgebra) -> Cochain:
    """The identity map as a 1-cochain with regular coefficients."""
    field = algebra.field
    rows = [[field.one() if b == i else field.zero()
             for b in range(algebra.dim)] for i in range(algebra.dim)]
    return Cochain(algebra, algebra.regular_bimodule(), 1, rows)


def product_cochain(algebra: ZinbielAlgebra) -> Cochain:
    """The multiplication of the algebra as a 2-cochain with regular coefficients."""
    rows = [list(algebra.gamma[i][j])
            for i in range(algebra.dim) for j in range(algebra.dim)]
    return Cochain(algebra, algebra.regular_bimodule(), 2, rows)


def complex_dim(algebra: ZinbielAlgebra, module: Bimodule, n: int) -> int:
    return algebra.dim ** n * module.dim


def differential(phi: Cochain) -> Cochain:
    """Apply the complex differential; defined for arities 1, 2, 3."""
    if phi.arity == 1:
        return _d1(phi)
    if phi.arity == 2:
        return _d2(phi)
    if phi.arity == 3:
        return _d3(phi)
    raise ValueError(f"no differential out of arity {phi.arity}")


def _d1(phi: Cochain) -> Cochain:
    r, a = phi.source, phi.module
    rows = []
    for i in range(r.dim):
        for j in range(r.dim):
            out = a.left_act(i, phi.eval_basis((j,)))
            out = vec_sub(out, phi.eval([r.product_basis(i, j)]))
            out = vec_add(out, a.right_act(phi.eval_basis((i,)), j))
            rows.append(out)
    return Cochain(r, a, 2, rows)


def _d2(phi: Cochain) -> Cochain:
    r, a = phi.source, phi.module
    rows = []
    for i in range(r.dim):
        for j in range(r.dim):
            for k in range(r.dim):
                out = a.left_act(i, vec_add(phi.eval_basis((j, k)),
                                            phi.eval_basis((k, j))))
                out = vec_sub(out, phi.eval([r.product_basis(i, j), k]))
                sym = vec_add(r.product_basis(j, k), r.product_basis(k, j))
                out = vec_add(out, phi.eval([i, sym]))
                out = vec_sub(out, a.right_act(phi.eval_basis((i, j)), k))
                rows.append(out)
    return Cochain(r, a, 3, rows)


def _d3(phi: Cochain) -> Cochain:
    r, a = phi.source, phi.module
    rows = []
    for i in range(r.dim):
        for j in range(r.dim):
            for k in range(r.dim):
                for l in range(r.dim):
                    inner = vec_sub(phi.eval_basis((j, k, l)),
                                    phi.eval_basis((k, l, j)))
                    inner = vec_add(inner, phi.eval_basis((k, j, l)))
                    inner = vec_sub(inner, phi.eval_basis((l, k, j)))
                    out = a.left_act(i, inner)
                    out = vec_sub(out,
                                  phi.eval([r.product_basis(i, j), k, l]))
                    sym = vec_add(r.product_basis(j, k),
                                  r.product_basis(k, j))
                    out = vec_add(out, phi.eval([i, sym, l]))
                    sym = vec_add(r.product_basis(k, l),
                                  r.product_basis(l, k))
                    out = vec_sub(out, phi.eval([i, j, sym]))
                    out = vec_add(
                        out, a.right_act(phi.eval_basis((i, j, k)), l))
                    rows.append(out)
    return Cochain(r, a, 4, rows)


def _left_nonzeros(left):
    # yields (i, a, b, value) with e_i * a_a having a_b coefficient value
    for i, col in enumerate(left):
        for a, v in enumerate(col):
            for b, x in enumerate(v):
                if x:
                    yield i, a, b, x


def _right_nonzeros(right):
    # yields (a, i, b, value) with a_a * e_i having a_b coefficient value
    for a, col in enumerate(right):
        for i, v in enumerate(col):
            for b, x in enumerate(v):
                if x:
                    yield a, i, b, x


def _gamma_nonzeros(gamma):
    for i, plane in enumerate(gamma):
        for j, row in enumerate(plane):
            for k, x in enumerate(row):
                if x:
                    yield i, j, k, x


def differential_matrix(algebra: ZinbielAlgebra, module: Bimodule,
                        i: int) -> Matrix:
    """Matrix of d^i under row-major flattening with output index fastest.

    Assembled entry by entry from structure constants, independently of
    `differential`.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"no differential out of arity {i}")
    d, m = algebra.dim, module.dim
    rows = [{} for _ in range(d ** (i + 1) * m)]
    gamma = algebra.gamma
    left, right = module.left, module.right

    def bump(row, col, v):
        entries = rows[row]
        entries[col] = entries[col] + v if col in entries else v

    if i == 1:
        # x*p(y): row (x,y), column (y; a), weight left[x][a][b]
        for x, a, b, v in _left_nonzeros(left):
            for y in range(d):
                bump((x * d + y) * m + b, y * m + a, v)
        # -p(x*y): row (x,y), column (k; b), weight -gamma[x][y][k]
        for x, y, k, g in _gamma_nonzeros(gamma):
            for b in range(m):
                bump((x * d + y) * m + b, k * m + b, -g)
        # p(x)*y: row (x,y), column (x; a), weight right[a][y][b]
        for a, y, b, v in _right_nonzeros(right):
            for x in range(d):
                bump((x * d + y) * m + b, x * m + a, v)
    elif i == 2:
        # x*(p(y,z) + p(z,y))
        for x, a, b, v in _left_nonzeros(left):
            for y in range(d):
                for zz in range(d):
                    row = ((x * d + y) * d + zz) * m + b
                    bump(row, (y * d + zz) * m + a, v)
                    bump(row, (zz * d + y) * m + a, v)
        # -p(x*y, z)
        for x, y, p, g in _gamma_nonzeros(gamma):
            for zz in range(d):
                for b in range(m):
                    bump(((x * d + y) * d + zz) * m + b,
                         (p * d + zz) * m + b, -g)
        # +p(x, y*z + z*y)
        for u, v_, q, g in _gamma_nonzeros(gamma):
            for x in range(d):
                for b in range(m):
                    col = (x * d + q) * m + b
                    bump(((x * d + u) * d + v_) * m + b, col, g)
                    bump(((x * d + v_) * d + u) * m + b, col, g)
        # -p(x,y)*z
        for a, zz, b, v in _right_nonzeros(right):
            for x in range(d):
                for y in range(d):
                    bump(((x * d + y) * d + zz) * m + b,
                         (x * d + y) * m + a, -v)
    else:
        # x*(p(y,z,w) - p(z,w,y) + p(z,y,w) - p(w,z,y))
        for x, a, b, v in _left_nonzeros(left):
            for y in range(d):
                for zz in range(d):
                    for w in range(d):
                        row = (((x * d + y) * d + zz) * d + w) * m + b
                        bump(row, ((y * d + zz) * d + w) * m + a, v)
                        bump(row, ((zz * d + w) * d + y) * m + a, -v)
                        bump(row, ((zz * d + y) * d + w) * m + a, v)
                        bump(row, ((w * d + zz) * d + y) * m + a, -v)
        # -p(x*y, z, w)
        for x, y, p, g in _gamma_nonzeros(gamma):
            for zz in range(d):
                for w in range(d):
                    for b in range(m):
                        bump((((x * d + y) * d + zz) * d + w) * m + b,
                             ((p * d + zz) * d + w) * m + b, -g)
        # +p(x, y*z + z*y, w)
        for u, v_, q, g in _gamma_nonzeros(gamma):
            for x in range(d):
                for w in range(d):
                    for b in range(m):
                        col = ((x * d + q) * d + w) * m + b
                        bump((((x * d + u) * d + v_) * d + w) * m + b, col, g)
                        bump((((x * d + v_) * d + u) * d + w) * m + b, col, g)
        # -p(x, y, z*w + w*z)
        for u, v_, rr, g in _gamma_nonzeros(gamma):
            for x in range(d):
                for y in range(d):
                    for b in range(m):
                        col = ((x * d + y) * d + rr) * m + b
                        bump((((x * d + y) * d + u) * d + v_) * m + b,
                             col, -g)
                        bump((((x * d + y) * d + v_) * d + u) * m + b,
                             col, -g)
        # +p(x,y,z)*w
        for a, w, b, v in _right_nonzeros(right):
            for x in range(d):
                for y in range(d):
                    for zz in range(d):
                        bump((((x * d + y) * d + zz) * d + w) * m + b,
                             ((x * d + y) * d + zz) * m + a, v)
    # drop the entries whose contributions cancelled
    return Matrix.from_entries(
        algebra.field, [{j: x for j, x in r.items() if x} for r in rows],
        d ** i * m)


def cohomology_dim(algebra: ZinbielAlgebra, module: Bimodule, n: int) -> int:
    """dim ker(d^n) - rank(d^{n-1}), for n = 2 or 3."""
    if n not in (2, 3):
        raise ValueError(f"cohomology defined in degrees 2 and 3, not {n}")
    rank_out, _ = rank_nullspace(differential_matrix(algebra, module, n))
    kernel = complex_dim(algebra, module, n) - rank_out
    rank_in, _ = rank_nullspace(differential_matrix(algebra, module, n - 1))
    return kernel - rank_in
