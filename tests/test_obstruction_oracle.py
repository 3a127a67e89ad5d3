"""The library obstruction, read off the order-(N+1) deformation condition,
against the explicit-sum reference in obstruction_oracle.py.

`obstruction` and validation share `order_residual`, so criterion 07's
re-validation of an extended series does not check the obstruction
independently; this comparison does.
"""

import random
from pathlib import Path

from instances import FIELDS, SEED, grown_deformations
from obstruction_oracle import obstruction as reference
from zinbiel.deformation import (check_deformation, extend_from_cocycle,
                                 extend_one_order, obstruction)
from zinbiel.problem_io import parse

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_obstruction_matches_explicit_sums(small_suite):
    # the grown deformations of criteria 06 and 07, and every series one
    # extension step takes them to
    fields = set()
    checked = nonzero = blocked = 0
    for seed, count in ((SEED + 6, 105), (SEED + 7, 60)):
        rng = random.Random(seed)
        for theta in grown_deformations(small_suite, rng, count):
            step = extend_one_order(theta)
            blocked += not step.succeeded
            series = [theta] + ([step.extended] if step.succeeded else [])
            for s in series:
                ob = obstruction(s)
                assert ob == reference(s)
                fields.add(s.morphism.source.field)
                nonzero += not ob.is_zero()
                checked += 1
    assert fields == set(FIELDS)
    assert nonzero > 0 and blocked > 0 and checked > 165


def test_blocked_extension_matches_explicit_sums():
    text = (PROBLEMS / "obstructed_line.zb").read_text(encoding="utf-8")
    for field in FIELDS:
        problem = parse(text, field_override=field)
        theta = check_deformation(*problem.deformation_candidate("D"))
        ob = obstruction(theta)
        assert ob == reference(theta) and not ob.is_zero()
        trace = extend_from_cocycle(theta.morphism, theta.terms[1], 3)
        assert not trace.succeeded and trace.failed_at == 2
        assert trace.obstruction == reference(trace.deformation)
