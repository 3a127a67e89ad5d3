"""The seeded instance suite shared by the acceptance criteria and the
elimination and obstruction oracle tests.

It covers Q, F5, F7 and F101 with algebra dimensions 0 through 3: random
morphisms drawn by randomized search through the validators, plus the
curated catalog examples.
"""

import random

from zinbiel.algebra import identity_morphism, zero_morphism
from zinbiel.catalog import (change_of_basis, truncated_polynomials,
                             weight_scaling, zero_algebra)
from zinbiel.deformation import extend_from_cocycle
from zinbiel.fields import QQ, PrimeField
from zinbiel.sampling import (cocycle_basis, random_combination,
                              random_dense_invertible, random_morphism_instance)

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


def grown_deformations(small_suite, rng, count):
    """Valid deformations of orders 1..3 built by iterated extension."""
    pool = [f for f in small_suite if f.source.dim + f.target.dim > 0]
    grown = []
    idx = 0
    while len(grown) < count:
        f = pool[idx % len(pool)]
        target = idx % 3 + 1
        idx += 1
        basis = cocycle_basis(f)
        if not basis:
            continue
        seed_cocycle = random_combination(basis, rng)
        trace = extend_from_cocycle(f, seed_cocycle, target)
        if trace.deformation.order >= 1:
            grown.append(trace.deformation.truncate(target))
    return grown
