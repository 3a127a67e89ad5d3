"""Seeded random generation of valid algebras, morphisms, cochains and
deformations.

Raw rejection sampling on structure constants almost never passes the
Zinbiel validator beyond dimension one, so algebras are drawn from
validated families (zero products, graded truncations, single products,
direct sums, sparse search hits) and then optionally transported along a
random invertible change of basis.  Everything is driven by an explicit
`random.Random` so suites are reproducible from their seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import (AlgebraMorphism, Bimodule, IdentityError,
                      ZinbielAlgebra, identity_morphism, zero_morphism)
from .catalog import (change_of_basis, direct_sum, inclusion_first,
                      projection_first, single_product_algebra,
                      truncated_polynomials, weight_scaling, zero_algebra)
from .cochains import Cochain
from .deformation import (FormalIsomorphism, TruncatedDeformation,
                          conjugate, trivial_deformation)
from .fields import Field, PrimeField
from .linalg import Matrix, rank_nullspace
from .morphism_complex import (TripleCochain, _spaces,
                               morphism_differential_matrix)


def random_scalar(field: Field, rng: random.Random, nonzero: bool = False):
    if isinstance(field, PrimeField):
        lo = 1 if nonzero else 0
        return field.from_int(rng.randrange(lo, field.p))
    num = rng.randint(-3, 3)
    if nonzero:
        while num == 0:
            num = rng.randint(-3, 3)
    den = rng.choice((1, 1, 1, 2, 3))
    return Fraction(num, den)


def random_invertible(field: Field, dim: int, rng: random.Random) -> Matrix:
    """Identity worked over by a few elementary row operations."""
    rows = [[field.one() if i == j else field.zero() for j in range(dim)]
            for i in range(dim)]
    for _ in range(2 * dim):
        op = rng.randrange(3)
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if op == 0 and i != j:
            c = random_scalar(field, rng)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = random_scalar(field, rng, nonzero=True)
            rows[i] = [c * a for a in rows[i]]
    return Matrix(field, rows, dim)


def random_dense_invertible(field: Field, dim: int,
                            rng: random.Random) -> Matrix:
    """Rejection-sample a fully random invertible matrix (dense entries)."""
    while True:
        rows = [[random_scalar(field, rng) for _ in range(dim)]
                for _ in range(dim)]
        m = Matrix(field, rows, dim)
        if rank_nullspace(m)[0] == dim:
            return m


def _sparse_search(field: Field, dim: int,
                   rng: random.Random) -> ZinbielAlgebra | None:
    """Try 12 sparse random structure tensors against the validator."""
    for _ in range(12):
        products = [(*(rng.randrange(dim) for _ in range(3)),
                     random_scalar(field, rng, nonzero=True))
                    for _ in range(rng.randint(1, 2))]
        try:
            return ZinbielAlgebra._from_products(field, dim, products)
        except IdentityError:
            continue
    return None


def random_zinbiel(field: Field, dim: int, rng: random.Random,
                   transport: bool | None = None) -> ZinbielAlgebra:
    """A random valid algebra of the requested dimension."""
    if dim == 0:
        return zero_algebra(field, 0)
    pick = rng.randrange(6)
    if pick == 0:
        algebra = zero_algebra(field, dim)
    elif pick == 1:
        algebra = truncated_polynomials(field, dim)
    elif pick == 2 and dim >= 2:
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        choices = [k for k in range(dim) if k != i and k != j]
        if choices:
            algebra = single_product_algebra(
                field, dim, i, j, rng.choice(choices),
                random_scalar(field, rng, nonzero=True))
        else:
            algebra = zero_algebra(field, dim)
    elif pick == 3 and dim >= 2:
        cut = rng.randrange(1, dim)
        algebra = direct_sum(random_zinbiel(field, cut, rng, transport=False),
                             random_zinbiel(field, dim - cut, rng,
                                            transport=False))
    elif pick == 4:
        algebra = _sparse_search(field, dim, rng) or zero_algebra(field, dim)
    else:
        algebra = truncated_polynomials(field, dim)
    if transport is None:
        transport = dim <= 2 and rng.random() < 0.5
    if transport:
        p = random_invertible(field, dim, rng)
        algebra, _ = change_of_basis(algebra, p)
    return algebra


def _morphism_search(r: ZinbielAlgebra, s: ZinbielAlgebra,
                     rng: random.Random) -> AlgebraMorphism | None:
    """Try 10 random matrices against the validator."""
    for _ in range(10):
        rows = [[random_scalar(r.field, rng) if rng.random() < 0.4
                 else r.field.zero() for _ in range(r.dim)]
                for _ in range(s.dim)]
        try:
            return AlgebraMorphism(r, s, rows)
        except IdentityError:
            continue
    return None


def random_morphism_instance(field: Field, rng: random.Random,
                             max_dim: int = 3,
                             dims: tuple[int, int] | None = None
                             ) -> AlgebraMorphism:
    """A random valid morphism, algebras included.

    Transports at dimension 3 are skipped to keep structure tensors
    sparse; all outputs pass the validators by construction.
    """
    if dims is None:
        dims = (rng.randint(0, max_dim), rng.randint(0, max_dim))
    dr, ds = dims
    strategy = rng.randrange(7)
    if strategy == 0 or (dr, ds) == (0, 0):
        f = zero_morphism(random_zinbiel(field, dr, rng),
                          random_zinbiel(field, ds, rng))
    elif strategy == 1 and dr == ds:
        f = identity_morphism(random_zinbiel(field, dr, rng))
    elif strategy == 2 and dr == ds and dr >= 1:
        algebra = truncated_polynomials(field, dr)
        f = weight_scaling(algebra, random_scalar(field, rng, nonzero=True))
    elif strategy == 3 and dr == ds and dr >= 1 and dr <= 2:
        algebra = random_zinbiel(field, dr, rng, transport=False)
        p = random_invertible(field, dr, rng)
        _, f = change_of_basis(algebra, p)
    elif strategy == 4 and ds > dr:
        a = random_zinbiel(field, dr, rng, transport=False)
        b = random_zinbiel(field, ds - dr, rng, transport=False)
        f = inclusion_first(a, b)
    elif strategy == 5 and dr > ds:
        a = random_zinbiel(field, ds, rng, transport=False)
        b = random_zinbiel(field, dr - ds, rng, transport=False)
        f = projection_first(a, b)
    else:
        r = random_zinbiel(field, dr, rng)
        s = random_zinbiel(field, ds, rng)
        f = _morphism_search(r, s, rng) or zero_morphism(r, s)
    return f


def random_cochain(r: ZinbielAlgebra, module: Bimodule, arity: int,
                   rng: random.Random, density: float = 0.5) -> Cochain:
    rows = []
    for _ in range(r.dim ** arity):
        rows.append([
            random_scalar(r.field, rng) if rng.random() < density
            else r.field.zero() for _ in range(module.dim)])
    return Cochain(r, module, arity, rows)


def random_triple_cochain(f: AlgebraMorphism, degree: int,
                          rng: random.Random,
                          density: float = 0.5) -> TripleCochain:
    return TripleCochain(f, degree, *(
        random_cochain(source, module, arity, rng, density)
        for _, source, module, arity in _spaces(f, degree)))


def random_formal_isomorphism(f: AlgebraMorphism, order: int,
                              rng: random.Random) -> FormalIsomorphism:
    if order < 0:
        raise ValueError("order must be nonnegative")
    return FormalIsomorphism(f, FormalIsomorphism.identity(f).terms + [
        random_triple_cochain(f, 1, rng, 0.7) for _ in range(order)])


def cocycle_basis(f: AlgebraMorphism) -> list[TripleCochain]:
    """A basis of the degree-2 cocycles of the deformation complex."""
    _, basis = rank_nullspace(morphism_differential_matrix(f, 2))
    return [TripleCochain.from_flat(f, 2, v) for v in basis]


def random_combination(basis: list[TripleCochain],
                       rng: random.Random) -> TripleCochain:
    if not basis:
        raise ValueError("empty basis")
    out = None
    for b in basis:
        c = random_scalar(b.field, rng)
        piece = b.scale(c)
        out = piece if out is None else out + piece
    return out


def random_deformation(f: AlgebraMorphism, order: int,
                       rng: random.Random) -> TruncatedDeformation:
    """A random valid deformation: the trivial one transported along a
    random formal isomorphism (always passes validation)."""
    phi = random_formal_isomorphism(f, order, rng)
    return conjugate(trivial_deformation(f, order), phi)
