"""The element protocol shared by `Cochain` and `TripleCochain`: one copy
of the arithmetic, the differential, the cocycle test and the coboundary
solve for both complexes, checked against flat arithmetic and the
tuple-by-tuple oracle."""

import random

import pytest

import differential_oracle as oracle
from instances import SEED
from zinbiel.algebra import identity_morphism, zero_morphism
from zinbiel.catalog import truncated_polynomials
from zinbiel.cochains import (DEGREES, MAX_ARITY, Cochain,
                              coboundary_preimage, differential, is_cocycle)
from zinbiel.fields import QQ, PrimeField
from zinbiel.linalg import vec_add, vec_sub
from zinbiel.morphism_complex import (TripleCochain, morphism_differential,
                                      push_forward_left, push_forward_right)
from zinbiel.sampling import (random_cochain, random_scalar,
                              random_triple_cochain)

FIELDS = {"Q": QQ, "F5": PrimeField(5)}


def _over(suite, field):
    return [f for f in suite if f.source.field == field]


def _like(x, flat):
    """The element of the space of x with the given flat vector, built
    through the public constructors."""
    if isinstance(x, TripleCochain):
        return TripleCochain.from_flat(x.morphism, x.degree, flat)
    return Cochain.from_flat(x.source, x.module, x.arity, flat)


def _same_space_pairs(f, rng):
    """Two random elements of each space of f's complexes: cochains on the
    source with regular and via-f coefficients, triples of every degree."""
    r = f.source
    for n in DEGREES:
        for module in (r.regular_bimodule(), f.as_bimodule()):
            yield (random_cochain(r, module, n, rng),
                   random_cochain(r, module, n, rng))
    for n in range(1, MAX_ARITY + 1):
        yield (random_triple_cochain(f, n, rng),
               random_triple_cochain(f, n, rng))


@pytest.mark.parametrize("name", FIELDS)
def test_arithmetic_is_flat_arithmetic(suite, name):
    field = FIELDS[name]
    rng = random.Random(SEED)
    checked = 0
    for f in _over(suite, field):
        for x, y in _same_space_pairs(f, rng):
            u, v = x.flatten(), y.flatten()
            c = random_scalar(field, rng)
            assert x + y == _like(x, vec_add(u, v))
            assert x - y == _like(x, vec_sub(u, v))
            assert -x == _like(x, [-a for a in u])
            assert x.scale(c) == _like(x, [c * a for a in u])
            checked += 1
    assert checked > 100


def test_mixing_spaces_is_a_value_error():
    algebra = truncated_polynomials(QQ, 2)
    f = identity_morphism(algebra)
    g = zero_morphism(algebra, algebra)
    regular = algebra.regular_bimodule()
    mixed = [
        # a cochain with a triple, both ways
        (Cochain.zero(algebra, regular, 2), TripleCochain.zero(f, 2)),
        (TripleCochain.zero(f, 2), Cochain.zero(algebra, regular, 2)),
        # triples of different degree, and of different morphisms
        (TripleCochain.zero(f, 2), TripleCochain.zero(f, 3)),
        (TripleCochain.zero(f, 2), TripleCochain.zero(g, 2)),
        # cochains over different modules of one dimension, and of
        # different arity
        (Cochain.zero(algebra, regular, 2),
         Cochain.zero(algebra, g.as_bimodule(), 2)),
        (Cochain.zero(algebra, regular, 1), Cochain.zero(algebra, regular, 2)),
    ]
    for x, y in mixed:
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y
    for x in (Cochain.zero(algebra, regular, 2), TripleCochain.zero(f, 2)):
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            x - [0]


@pytest.mark.parametrize("name", FIELDS)
def test_differential_of_a_triple_is_the_morphism_differential(suite, name):
    rng = random.Random(SEED + 1)
    for f in _over(suite, FIELDS[name]):
        for n in DEGREES:
            theta = random_triple_cochain(f, n, rng)
            d = differential(theta)
            assert d == morphism_differential(theta)
            assert d == oracle.morphism_differential(theta)


@pytest.mark.parametrize("name", FIELDS)
def test_push_forwards_are_the_oracle(suite, name):
    rng = random.Random(SEED + 2)
    for f in _over(suite, FIELDS[name]):
        r, s = f.source, f.target
        for n in range(MAX_ARITY + 1):
            xi = random_cochain(r, r.regular_bimodule(), n, rng)
            pi = random_cochain(s, s.regular_bimodule(), n, rng)
            assert push_forward_left(f, xi) == oracle.push_forward_left(f, xi)
            assert push_forward_right(f, pi) == \
                oracle.push_forward_right(f, pi)


@pytest.mark.parametrize("operation", [is_cocycle, coboundary_preimage])
def test_a_non_cochain_is_a_type_error(operation):
    f = identity_morphism(truncated_polynomials(QQ, 1))
    for x in (None, 0, [QQ.zero()], f, TripleCochain.zero(f, 2).flatten()):
        with pytest.raises(TypeError):
            operation(x)
