"""Ranks kept on the objects against ranks taken afresh, and proof that
the comparison can fail.

`morphism_cohomology_dim` and `cohomology_dim` keep each rank of d^n on
their object, and the elimination of the morphism matrix starts from the
pivot rows of its two diagonal blocks (d^n on R and on S), whose ranks
also go to R's and S's own complexes.  Here every dimension, asked in
several orders on shared and on fresh copies of the seeded suite, must
equal dim C^n - rank d^n - rank d^(n-1) with both ranks taken by
`rank_nullspace` on plain matrices: the same rows with no blocks
declared.  A seeding that drops a block pivot row or puts d_S at the
wrong columns must make this and the dense-oracle comparison of
test_linalg_oracle.py fail.  No matrix may outlive its call on the
objects, and the int reads each object keeps hold tuples and ints only.
"""

import copy
import gc
import random
import types

import pytest

import test_linalg_oracle
from instances import FIELDS, SEED
from zinbiel import linalg
from zinbiel.algebra import identity_morphism
from zinbiel.catalog import truncated_polynomials
from zinbiel.cochains import (COHOMOLOGY_DEGREES, DEGREES, cohomology_dim,
                              complex_dim, differential_matrix)
from zinbiel.fields import QQ
from zinbiel.linalg import Matrix, rank_nullspace
from zinbiel.morphism_complex import (morphism_cohomology_dim,
                                      morphism_differential_matrix, triple_dim)
from zinbiel.sampling import random_morphism_instance

# every dimension of one instance: f's complex, then R's and S's
QUERIES = [(who, n) for who in ("f", "R", "S") for n in COHOMOLOGY_DEGREES]
# H^3 before H^2, the algebras' complexes after and before f's
FIXED_ORDERS = [
    [("f", 3), ("f", 2), ("R", 3), ("R", 2), ("S", 3), ("S", 2)],
    [("R", 2), ("S", 3), ("R", 3), ("S", 2), ("f", 2), ("f", 3)],
    [("S", 2), ("f", 3), ("R", 2), ("f", 2), ("S", 3), ("R", 3)],
]


def _plain_rank(m: Matrix) -> int:
    rank, _ = rank_nullspace(Matrix(m.field, m.rows, m.ncols))
    return rank


def _fresh(f) -> dict:
    """Each query's dimension from plain ranks."""
    out = {}
    for who, algebra in (("R", f.source), ("S", f.target)):
        module = algebra.regular_bimodule()
        ranks = {k: _plain_rank(differential_matrix(algebra, module, k))
                 for k in DEGREES}
        for n in COHOMOLOGY_DEGREES:
            out[who, n] = (complex_dim(algebra, module, n)
                           - ranks[n] - ranks[n - 1])
    ranks = {k: _plain_rank(morphism_differential_matrix(f, k))
             for k in DEGREES}
    for n in COHOMOLOGY_DEGREES:
        out["f", n] = triple_dim(f, n) - ranks[n] - ranks[n - 1]
    return out


def _ask(f, who, n) -> int:
    if who == "f":
        return morphism_cohomology_dim(f, n)
    algebra = f.source if who == "R" else f.target
    return cohomology_dim(algebra, algebra.regular_bimodule(), n)


def _orders(rng) -> list:
    """The fixed orders, then two seeded shuffles of every query twice."""
    shuffled = []
    for _ in range(2):
        order = QUERIES * 2
        rng.shuffle(order)
        shuffled.append(order)
    return FIXED_ORDERS + shuffled


def _cold(f):
    """A deep copy of f with no rank kept."""
    g = copy.deepcopy(f)
    for owner in (g, g.source.regular_bimodule(), g.target.regular_bimodule()):
        owner._ranks.clear()
    return g


def _stale(instances, shared: bool):
    """(instance index, query) for each answer that differs from the plain
    ranks: asked in every order on a cold copy, and, when shared, once
    more on the instance itself, whose ranks earlier tests may already
    have kept."""
    rng = random.Random(SEED + 9)
    for index, f in enumerate(instances):
        fresh = _fresh(f)
        for order in _orders(rng):
            g = _cold(f)
            for query in order:
                if _ask(g, *query) != fresh[query]:
                    yield index, query
        if shared:
            for query in QUERIES:
                if _ask(f, *query) != fresh[query]:
                    yield index, query


def _over(suite, field):
    return [f for f in suite if f.source.field == field]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cached_ranks_match_fresh_ones(suite, field):
    assert list(_stale(_over(suite, field), shared=True)) == []


ORIGINAL_SEEDED = linalg._seeded


def _dropped_pivot_row(m):
    pivots = ORIGINAL_SEEDED(m)
    if pivots:
        del pivots[max(pivots)]
    return pivots


def _misplaced_target_block(m):
    # d_S at the last columns (the phi columns from degree 2) instead of
    # the pi columns
    if not m._blocks:
        return ORIGINAL_SEEDED(m)
    (_, d_r), (_, d_s) = m._blocks
    misplaced = Matrix(m.field, m.rows, m.ncols)
    misplaced._blocks = ((0, d_r), (m.ncols - d_s.ncols, d_s))
    return ORIGINAL_SEEDED(misplaced)


MUTANTS = {"dropped_pivot_row": _dropped_pivot_row,
           "misplaced_target_block": _misplaced_target_block}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_wrong_seeding_is_caught(suite, monkeypatch, mutant):
    # cold copies only: the mutant's ranks must not reach the shared suite
    monkeypatch.setattr(linalg, "_seeded", MUTANTS[mutant])
    instances = [_cold(f) for f in _over(suite, FIELDS[1])]
    assert next(_stale(instances, shared=False), None) is not None
    with pytest.raises(AssertionError):
        test_linalg_oracle.test_differentials_of_the_suite_match_the_oracle(
            suite, "F5")


def _reachable(roots) -> list:
    """Every object reachable from roots through containers and slots, not
    entering types, modules or functions."""
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    seen, out, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


@pytest.mark.parametrize("kind", ["random", "identity"])
def test_no_matrix_outlives_its_call(kind):
    if kind == "random":
        f = random_morphism_instance(QQ, random.Random(SEED), dims=(2, 3))
    else:
        f = identity_morphism(truncated_polynomials(QQ, 3))
    r, s = f.source, f.target
    for n in COHOMOLOGY_DEGREES:
        morphism_cohomology_dim(f, n)
        for algebra in (r, s):
            cohomology_dim(algebra, algebra.regular_bimodule(), n)
    roots = [f, r, s, r.regular_bimodule(), s.regular_bimodule(),
             f.as_bimodule()]
    reachable = _reachable(roots)
    matrices = [x for x in reachable if isinstance(x, Matrix)]
    # the walk does enter slots: it finds the morphism's own matrix
    assert matrices == [f.matrix]
    assert f.matrix._pivots is None
    for owner in (f, r.regular_bimodule(), s.regular_bimodule()):
        assert sorted(owner._ranks) == list(DEGREES)
        assert all(type(rank) is int for rank in owner._ranks.values())
    caches = [f._f_ints, r._gamma_ints, s._gamma_ints] + [
        module._action_ints for module in roots[3:]]
    assert None not in caches
    assert {type(x) for x in _reachable(caches)} <= {tuple, int}
