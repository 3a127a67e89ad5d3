"""Free nilpotent Zinbiel algebras: values from the literature, not from
the library's formulas.

The free Zinbiel algebra on k generators is the span of the nonempty
words in k letters with the half-shuffle product
a_1 a' < b = a_1 (a' sh b) (J.-L. Loday, Math. Scand. 77 (1995)), sh
being the shuffle product.  Words longer than n form an ideal, so the
quotient F_{k,n} is a Zinbiel algebra by theorem, of dim
k + k^2 + ... + k^n; its basis here is the words ordered by length, then
lexicographically.  Two exact values follow from freeness.  A derivation
is any linear map on the generators and keeps the ideal, so
dim ker d^1 = dim Der F_{k,n} = k dim F_{k,n}.  For the truncation map
f: F_{k,n} -> F_{k,n-1}, a derivation pair compatible with f is fixed by
its first part, so dim ker d^1 of the complex of f is k dim F_{k,n} too.
F_{1,n} is `truncated_polynomials(n)`: C(p+q-1, q) is the half-shuffle
count of a^p < a^q.  A builder that breaks the half-shuffle is refused.
"""

import functools
import itertools

import pytest

from zinbiel.algebra import AlgebraMorphism, IdentityError, ZinbielAlgebra
from zinbiel.catalog import truncated_polynomials
from zinbiel.cochains import differential_matrix
from zinbiel.fields import QQ, PrimeField
from zinbiel.linalg import Matrix, rank_nullspace
from zinbiel.morphism_complex import morphism_differential_matrix, triple_dim

F2, F3, F5, F101 = (PrimeField(p) for p in (2, 3, 5, 101))
# (k, n) of the algebras checked, and dim F_{k,n} of each
SHAPES = {(1, 4): 4, (2, 2): 6, (2, 3): 14, (3, 2): 12}


@functools.lru_cache(maxsize=None)
def _shuffle(u: tuple, v: tuple) -> dict:
    """u sh v as {word: count}."""
    if not u or not v:
        return {u + v: 1}
    out = {}
    for head, (a, b) in ((u[0], (u[1:], v)), (v[0], (u, v[1:]))):
        for w, c in _shuffle(a, b).items():
            out[(head,) + w] = out.get((head,) + w, 0) + c
    return out


def _half_shuffle(u: tuple, v: tuple) -> dict:
    return {u[:1] + w: c for w, c in _shuffle(u[1:], v).items()}


def free_nilpotent(field, k: int, n: int, product=_half_shuffle,
                   drop: int = 0) -> ZinbielAlgebra:
    """F_{k,n} through the checked builder, with the given product on
    words and its last `drop` nonzero products left out."""
    words = [w for length in range(1, n + 1)
             for w in itertools.product(range(k), repeat=length)]
    index = {w: i for i, w in enumerate(words)}
    products = [(i, j, index[w], field.from_int(c))
                for i, u in enumerate(words) for j, v in enumerate(words)
                if len(u) + len(v) <= n for w, c in product(u, v).items()]
    return ZinbielAlgebra._from_products(field, len(words),
                                         products[:len(products) - drop])


def _kernel_dim(m: Matrix) -> int:
    return m.ncols - rank_nullspace(m)[0]


@pytest.mark.parametrize("field", (QQ, F2, F3, F5, F101), ids=str)
@pytest.mark.parametrize("k, n", SHAPES, ids=str)
def test_derivations_of_a_free_algebra_are_maps_on_its_generators(field, k,
                                                                  n):
    algebra = free_nilpotent(field, k, n)
    assert algebra.dim == SHAPES[k, n]
    d1 = differential_matrix(algebra, algebra.regular_bimodule(), 1)
    assert _kernel_dim(d1) == k * algebra.dim


@pytest.mark.parametrize("field", (QQ, F2, F3, F5, F101), ids=str)
@pytest.mark.parametrize("k, n", SHAPES, ids=str)
def test_a_truncation_map_has_the_derivations_of_its_source(field, k, n):
    source, target = free_nilpotent(field, k, n), free_nilpotent(field, k,
                                                                 n - 1)
    # the words of length below n keep their place in the basis
    f = AlgebraMorphism(source, target, Matrix(field, [
        [int(i == j) for j in range(source.dim)]
        for i in range(target.dim)]))
    assert triple_dim(f, 1) - rank_nullspace(
        morphism_differential_matrix(f, 1))[0] == k * source.dim


@pytest.mark.parametrize("field", (QQ, F2, F3), ids=str)
def test_one_generator_gives_the_truncated_polynomials(field):
    assert free_nilpotent(field, 1, 5) == truncated_polynomials(field, 5)


@pytest.mark.parametrize("field", (QQ, F101), ids=str)
@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("product, drop", [(_shuffle, 0), (_half_shuffle, 1)],
                         ids=["full-shuffle", "last-product-dropped"])
def test_a_broken_half_shuffle_is_refused(field, k, product, drop):
    # over F2, and for F_{1,3} with the full shuffle over F3, these are
    # Zinbiel algebras too, so the refusal is checked over Q and F101
    with pytest.raises(IdentityError):
        free_nilpotent(field, k, 3, product, drop)
