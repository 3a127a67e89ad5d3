"""The seeded instance suite shared by the acceptance criteria and the
elimination oracle tests.

It covers Q, F5, F7 and F101 with algebra dimensions 0 through 3: random
morphisms drawn by randomized search through the validators, plus the
curated catalog examples.
"""

import random

from zinbiel.algebra import identity_morphism, zero_morphism
from zinbiel.catalog import (change_of_basis, truncated_polynomials,
                             weight_scaling, zero_algebra)
from zinbiel.fields import QQ, PrimeField
from zinbiel.sampling import random_dense_invertible, random_morphism_instance

SEED = 20250808
FIELDS = (QQ, PrimeField(5), PrimeField(7), PrimeField(101))


def curated(field, rng):
    out = []
    for dim in (1, 2, 3):
        algebra = truncated_polynomials(field, dim)
        out.append(identity_morphism(algebra))
        out.append(weight_scaling(algebra, 2))
    out.append(identity_morphism(zero_algebra(field, 0)))
    out.append(identity_morphism(zero_algebra(field, 1)))
    out.append(zero_morphism(truncated_polynomials(field, 2),
                             zero_algebra(field, 1)))
    # one dense dimension-3 instance: the graded truncation transported
    # along a fully random change of basis
    p = random_dense_invertible(field, 3, rng)
    dense, _ = change_of_basis(truncated_polynomials(field, 3), p)
    out.append(identity_morphism(dense))
    return out


def seeded_suite():
    rng = random.Random(SEED)
    instances = []
    for field in FIELDS:
        for _ in range(46):
            instances.append(random_morphism_instance(field, rng, max_dim=3))
        instances.extend(curated(field, rng))
    return instances
