"""Acceptance suite: one test per criterion, each at exact tolerance.

Every check here is an identity over an exact field, so the tolerance is
literal equality of scalars.  The shared instance suite (instances.py)
is seeded and covers Q, F5, F7 and F101 with algebra dimensions 0
through 3, drawn by randomized search through the validators plus
curated examples.  A
pass/fail line per criterion is printed in the terminal summary (see
conftest) in addition to the per-test verdicts.
"""

import random
from pathlib import Path

import pytest

import differential_oracle as oracle
from instances import FIELDS, SEED, grown_deformations
from test_cli import run_cli
from zinbiel.algebra import identity_morphism, zero_morphism
from zinbiel.catalog import truncated_polynomials, zero_algebra
from zinbiel.cochains import Cochain, differential, differential_matrix
from zinbiel.deformation import (DeformationError, check_deformation,
                                 extend_from_cocycle, extend_one_order,
                                 infinitesimal,
                                 infinitesimal_difference_is_coboundary,
                                 obstruction, rigidity_check, theta_zero,
                                 trivialize,
                                 verify_obstruction_identity)
from zinbiel.fields import QQ, PrimeField
from zinbiel.morphism_complex import (TripleCochain, coboundary_preimage,
                                      is_cocycle, morphism_cohomology_dim,
                                      morphism_differential,
                                      morphism_differential_matrix,
                                      push_forward_left, push_forward_right)
from zinbiel.problem_io import parse, serialize
from zinbiel.sampling import (cocycle_basis, random_cochain,
                              random_combination, random_deformation,
                              random_formal_isomorphism,
                              random_triple_cochain)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_criterion_01_complex_axiom(suite):
    # d^{i+1} d^i = 0 for i = 1,2 in every coefficient complex of every
    # instance and in the morphism complex, as exact matrix products
    assert len(suite) >= 200
    dims = {(f.source.dim, f.target.dim) for f in suite}
    assert {d for pair in dims for d in pair} == {0, 1, 2, 3}
    assert {f.source.field for f in suite} == set(FIELDS)
    for f in suite:
        for algebra, module in ((f.source, f.source.regular_bimodule()),
                                (f.target, f.target.regular_bimodule()),
                                (f.source, f.as_bimodule())):
            for i in (1, 2):
                hi = differential_matrix(algebra, module, i + 1)
                lo = differential_matrix(algebra, module, i)
                assert (hi @ lo).is_zero()
        for i in (1, 2):
            hi = morphism_differential_matrix(f, i + 1)
            lo = morphism_differential_matrix(f, i)
            assert (hi @ lo).is_zero()
    print(f"PASS criterion 1: complex axiom on {len(suite)} instances "
          f"(seed {SEED})")


def test_criterion_02_push_forward_commutation(suite):
    rng = random.Random(SEED + 2)
    for f in suite:
        r, s = f.source, f.target
        for arity in (1, 2, 3):
            xi = random_cochain(r, r.regular_bimodule(), arity, rng)
            pi = random_cochain(s, s.regular_bimodule(), arity, rng)
            assert push_forward_left(f, differential(xi)) == \
                differential(push_forward_left(f, xi))
            assert push_forward_right(f, differential(pi)) == \
                differential(push_forward_right(f, pi))
    print(f"PASS criterion 2: push-forward commutation on {len(suite)} "
          f"instances (seed {SEED + 2})")


def test_criterion_03_product_is_a_2_cocycle(suite):
    from zinbiel.cochains import product_cochain
    count = 0
    for f in suite:
        for algebra in (f.source, f.target):
            assert differential(product_cochain(algebra)).is_zero()
            count += 1
    print(f"PASS criterion 3: multiplication 2-cocycle on {count} algebras")


def test_criterion_04_order1_characterization():
    rng = random.Random(SEED + 4)
    accepted = rejected = 0
    for field in (QQ, PrimeField(5)):
        f = identity_morphism(truncated_polynomials(field, 2))
        basis = cocycle_basis(f)
        total = morphism_differential_matrix(f, 2).ncols
        assert 0 < len(basis) < total   # the nullspace is proper
        while accepted < 60 * (1 if field is QQ else 2):
            z = random_combination(basis, rng)
            theta = check_deformation(f, [theta_zero(f), z])
            assert theta.order == 1
            accepted += 1
        while rejected < 60 * (1 if field is QQ else 2):
            cand = random_triple_cochain(f, 2, rng)
            ok, _ = is_cocycle(cand)
            if ok:
                continue
            with pytest.raises(DeformationError) as err:
                check_deformation(f, [theta_zero(f), cand])
            assert err.value.order == 1
            rejected += 1
    assert accepted >= 100 and rejected >= 100
    print(f"PASS criterion 4: order-1 characterization on {accepted} "
          f"cocycles and {rejected} non-cocycles (seed {SEED + 4})")


def test_criterion_05_infinitesimal_theorem(small_suite):
    rng = random.Random(SEED + 5)
    conjugations = 0
    pool = [f for f in small_suite if f.source.dim + f.target.dim > 0]
    while conjugations < 110:
        f = pool[conjugations % len(pool)]
        theta = random_deformation(f, 2, rng)
        phi = random_formal_isomorphism(f, 2, rng)
        assert infinitesimal_difference_is_coboundary(theta, phi).ok
        lead = infinitesimal(theta)
        assert lead.is_trivial or lead.is_cocycle
        bar_lead = infinitesimal(
            random_deformation(f, rng.randint(1, 3), rng))
        assert bar_lead.is_trivial or bar_lead.is_cocycle
        conjugations += 1
    print(f"PASS criterion 5: infinitesimal theorem on {conjugations} "
          f"conjugations (seed {SEED + 5})")


def test_criterion_06_obstruction_cocycle_and_naturality(small_suite):
    rng = random.Random(SEED + 6)
    deformations = grown_deformations(small_suite, rng, 105)
    for theta in deformations:
        ob = obstruction(theta)
        residual = morphism_differential(ob)
        assert residual.is_zero()
        assert verify_obstruction_identity(theta).ok
    orders = sorted({t.order for t in deformations})
    assert set(orders) <= {1, 2, 3} and 1 in orders
    print(f"PASS criterion 6: obstruction 3-cocycle and naturality on "
          f"{len(deformations)} deformations of orders {orders} "
          f"(seed {SEED + 6})")


def test_criterion_07_extension_round_trip(small_suite):
    rng = random.Random(SEED + 7)
    successes = failures = 0
    for theta in grown_deformations(small_suite, rng, 60):
        step = extend_one_order(theta)
        if step.succeeded:
            successes += 1
            check_deformation(theta.morphism, step.extended.terms)
        else:
            failures += 1
            assert coboundary_preimage(step.obstruction) is None

    # curated: mu(e1,e1) = e1 on the source of the zero morphism of the
    # abelian line fails at order 2 with residual -e1
    algebra = zero_algebra(QQ, 1)
    f = zero_morphism(algebra, algebra)
    mu = Cochain(algebra, algebra.regular_bimodule(), 2, [[1]])
    term = TripleCochain(f, 2, mu,
                         Cochain.zero(algebra, algebra.regular_bimodule(), 2),
                         Cochain.zero(algebra, f.as_bimodule(), 1))
    trace = extend_from_cocycle(f, term, 2)
    assert not trace.succeeded and trace.failed_at == 2
    assert trace.obstruction.xi.eval_basis((0, 0, 0)) == [QQ.from_int(-1)]
    assert coboundary_preimage(trace.obstruction) is None
    failures += 1
    print(f"PASS criterion 7: extension round trip, {successes} extensions "
          f"and {failures} certified blocks (seed {SEED + 7})")


def test_criterion_08_rigidity_and_normalization(suite):
    rng = random.Random(SEED + 8)
    rigid_instances = []
    for f in suite:
        if max(f.source.dim, f.target.dim) <= 2:
            if morphism_cohomology_dim(f, 2) == 0:
                rigid_instances.append(f)
    assert rigid_instances, "the suite must contain rigid instances"
    for f in rigid_instances:
        for _ in range(50):
            theta = random_deformation(f, 4, rng)
            _, final = trivialize(theta)
            assert final.is_trivial()
            for i in range(1, 5):
                assert final.terms[i].is_zero()

    # the mechanism on a non-rigid instance: conjugates of the trivial
    # deformation have coboundary leading terms throughout, so iterated
    # normalization trivializes them as well
    f = identity_morphism(truncated_polynomials(QQ, 2))
    for _ in range(10):
        theta = random_deformation(f, 4, rng)
        _, final = trivialize(theta)
        assert final.is_trivial()

    # curated: the identity on the abelian line reports H^2 = 1 and the
    # criterion stays inconclusive
    report = rigidity_check(identity_morphism(zero_algebra(QQ, 1)))
    assert report.h2_dim == 1 and report.verdict == "inconclusive"
    print(f"PASS criterion 8: {len(rigid_instances)} rigid instances "
          "trivialize 50 order-4 deformations each; abelian line "
          f"inconclusive with dim H^2 = 1 (seed {SEED + 8})")


def test_criterion_09_oracle_equivalence(suite):
    # differential_matrix columns, read in one pass off its rows, equal
    # the direct evaluation of the formulas (the tuple-by-tuple oracle)
    # on every basis cochain, all arities, all instances
    checked = 0
    for f in suite:
        for algebra, module in ((f.source, f.source.regular_bimodule()),
                                (f.source, f.as_bimodule())):
            for arity in (1, 2, 3):
                mat = differential_matrix(algebra, module, arity)
                expected = oracle.columns(algebra, module, arity)
                assert tuple(zip(*mat.rows)) == expected
                checked += len(expected)
    # the morphism-level matrix agrees with the oracle's direct
    # differential too
    rng = random.Random(SEED + 9)
    for f in suite:
        for degree in (1, 2, 3):
            theta = random_triple_cochain(f, degree, rng)
            assert morphism_differential_matrix(f, degree).matvec(
                theta.flatten()) == \
                oracle.morphism_differential(theta).flatten()
    print(f"PASS criterion 9: oracle equivalence on {checked} basis columns "
          f"(seed {SEED + 9})")


def test_criterion_10_cli_contract(tmp_path):
    curated = ("nilpotent_dim2", "abelian_line", "obstructed_line",
               "graded_dim3")
    for name in curated:
        text = (PROBLEMS / f"{name}.zb").read_text(encoding="utf-8")
        problem = parse(text)
        assert parse(serialize(problem)) == problem

    result = run_cli("validate", str(PROBLEMS / "nilpotent_dim2.zb"))
    assert result.returncode == 0
    assert "Zinbiel identity verified on 8 triples" in result.stdout

    result = run_cli("rigidity", str(PROBLEMS / "abelian_line.zb"))
    assert result.returncode == 0
    assert "dim H^2(id,id) = 1" in result.stdout
    assert "inconclusive" in result.stdout

    result = run_cli("extend", str(PROBLEMS / "obstructed_line.zb"),
                     "--target-order", "2")
    assert result.returncode == 1
    assert "-1*e1" in result.stdout

    bad = tmp_path / "syntax.zb"
    bad.write_text("field Q\nalgebra R\n  dim 1\n  gamma 1 1 2 = 1\nend\n")
    assert run_cli("validate", str(bad)).returncode == 2
    print("PASS criterion 10: CLI round trip and exit-code contract")
