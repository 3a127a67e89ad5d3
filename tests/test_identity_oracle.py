"""The validators of `zinbiel.algebra`, computed as the order-0
deformation sums, against the dense checks of identity_oracle.py: every
Violation list must agree by == and by repr.

The inputs are random structure tensors, mostly not Zinbiel, random
matrices, mostly not morphisms, and random actions, mostly not
bimodules, over Q, F5, F7 and F101, plus the seeded suite and its
derived bimodules, and random actions over Q on a product whose
denominator is none of theirs.  Every other random tensor and action is
given as raw ints, which both sides must read as field values.  The
mutation tests drop or flip one term of the library's sums and check
that the comparison then fails.
"""

import random
from fractions import Fraction

import pytest

import identity_oracle as oracle
from instances import FIELDS, SEED
from zinbiel import algebra
from zinbiel.algebra import (bimodule_violations, morphism_violations,
                             zinbiel_violations)
from zinbiel.catalog import single_product_algebra
from zinbiel.fields import QQ
from zinbiel.linalg import Matrix
from zinbiel.sampling import random_scalar


def _agree(mine, theirs):
    return mine == theirs and repr(mine) == repr(theirs)


def _tensor(field, shape, rng, raw):
    """A random tensor of the given (rows, columns, length) shape."""
    density = rng.choice((0.2, 0.5, 1.0))

    def entry():
        if rng.random() >= density:
            return 0 if raw else field.zero()
        return rng.randint(-6, 6) if raw else random_scalar(field, rng)
    rows, cols, length = shape
    return [[[entry() for _ in range(length)] for _ in range(cols)]
            for _ in range(rows)]


def _matrix(f, rng):
    """A random matrix from the source of f to its target."""
    field = f.source.field
    return Matrix(field, [[random_scalar(field, rng) if rng.random() < 0.5
                           else field.zero() for _ in range(f.source.dim)]
                          for _ in range(f.target.dim)], f.source.dim)


@pytest.fixture(scope="module")
def tensors():
    """(field, dim, gamma): 8 random tensors per field and dimension 0..3."""
    rng = random.Random(SEED + 21)
    return [(field, dim, _tensor(field, (dim,) * 3, rng, raw=n % 2 == 1))
            for field in FIELDS for dim in range(4) for n in range(8)]


@pytest.fixture(scope="module")
def maps(suite):
    """(source, target, matrix): each morphism of the seeded suite and a
    random matrix between the same two algebras."""
    rng = random.Random(SEED + 22)
    return [(f.source, f.target, m) for f in suite
            for m in (f.matrix, _matrix(f, rng))]


@pytest.fixture(scope="module")
def actions(suite):
    """(algebra, dim, left, right): the three derived bimodules of each
    morphism of the seeded suite, and random actions of dimension 0..2 on
    its source."""
    rng = random.Random(SEED + 23)
    out = []
    for n, f in enumerate(suite):
        for module in (f.source.regular_bimodule(),
                       f.target.regular_bimodule(), f.as_bimodule()):
            out.append((module.algebra, module.dim, module.left,
                        module.right))
        d, m, raw = f.source.dim, n % 3, n % 2 == 1
        out.append((f.source, m,
                    _tensor(f.source.field, (d, m, m), rng, raw),
                    _tensor(f.source.field, (m, d, m), rng, raw)))
    return out


def _zinbiel_disagreements(tensors):
    return sum(not _agree(zinbiel_violations(field, dim, gamma),
                          oracle.zinbiel_violations(field, dim, gamma))
               for field, dim, gamma in tensors)


def _morphism_disagreements(maps):
    return sum(not _agree(morphism_violations(*m),
                          oracle.morphism_violations(*m)) for m in maps)


def test_zinbiel_violations_match_the_dense_check(tensors, suite):
    assert _zinbiel_disagreements(tensors) == 0
    assert sum(bool(zinbiel_violations(*t)) for t in tensors) > \
        len(tensors) // 2
    algebras = [(a.field, a.dim, a.gamma) for f in suite
                for a in (f.source, f.target)]
    assert _zinbiel_disagreements(algebras) == 0


def test_morphism_violations_match_the_dense_check(maps):
    assert {m[0].field for m in maps} == set(FIELDS)
    assert _morphism_disagreements(maps) == 0
    assert all(not morphism_violations(*m) for m in maps[::2])
    # many suite algebras have zero products, and every linear map between
    # those is a morphism
    assert sum(bool(morphism_violations(*m)) for m in maps[1::2]) > \
        len(maps) // 8


def _bimodule_disagreements(actions):
    return sum(not _agree(bimodule_violations(*a),
                          oracle.bimodule_violations(*a)) for a in actions)


def test_bimodule_violations_match_the_dense_check(actions):
    assert _bimodule_disagreements(actions) == 0
    random_actions = actions[3::4]
    assert all(not bimodule_violations(*a)
               for n, a in enumerate(actions) if n % 4 != 3)
    assert sum(bool(bimodule_violations(*a)) for a in random_actions) > \
        len(random_actions) // 4


def test_bimodule_violations_across_denominators():
    # a product over 5 and random actions over 1, 2, 3 or 6: the
    # extension's rows meet over the lcm of the two denominators
    rng = random.Random(SEED + 24)
    line = single_product_algebra(QQ, 2, 0, 0, 1, Fraction(1, 5))
    cases = [(line, m, _tensor(QQ, (2, m, m), rng, raw=False),
              _tensor(QQ, (m, 2, m), rng, raw=False))
             for m in (1, 2) for _ in range(6)]
    assert _bimodule_disagreements(cases) == 0
    assert any(bimodule_violations(*a) for a in cases)


# -- mutations: each changes one term of the library's sums -------------

def test_dropping_the_swapped_product_term_is_caught(monkeypatch, tensors,
                                                    actions):
    # (e_i e_j) e_k - e_i (e_j e_k) without - e_i (e_k e_j)
    monkeypatch.setattr(algebra, "_symmetrized", lambda rows, d: rows)
    assert _zinbiel_disagreements(tensors) > 0
    assert _bimodule_disagreements(actions) > 0


def test_a_flipped_morphism_residual_is_caught(monkeypatch, maps):
    original = algebra._morphism_sums

    def flipped(*args):
        return [{b: -v for b, v in acc.items()} for acc in original(*args)]
    monkeypatch.setattr(algebra, "_morphism_sums", flipped)
    assert _morphism_disagreements(maps) > 0
