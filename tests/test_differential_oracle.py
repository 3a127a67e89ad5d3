"""The assembled differentials against the tuple-by-tuple oracle in
differential_oracle.py, and proof that the comparison can fail.

Criterion 09 compares every basis column of the matrices; here
`differential`, which applies them, is compared on seeded random
cochains, and a mutated assembler table (any one left-action reordering
with its sign flipped) or a flipped right-action sign must make it
disagree with the oracle.
"""

import random

import pytest

import differential_oracle as oracle
from instances import SEED
from zinbiel import cochains
from zinbiel.cochains import DEGREES, differential
from zinbiel.sampling import random_cochain


def _disagreements(suite, n):
    """Instances of the suite on which d^n, applied through its assembled
    matrix, differs from the oracle on a seeded random cochain (regular or
    via-f coefficients)."""
    rng = random.Random(SEED + n)
    count = 0
    for f in suite:
        for module in (f.source.regular_bimodule(), f.as_bimodule()):
            phi = random_cochain(f.source, module, n, rng)
            count += differential(phi) != oracle.differential(phi)
    return count


@pytest.mark.parametrize("n", DEGREES)
def test_applied_matrix_is_the_oracle(suite, n):
    assert _disagreements(suite, n) == 0


# every (degree, position) entry of the assembler table
TABLE_ENTRIES = [(n, k) for n in DEGREES
                 for k in range(len(cochains._TAIL_ORDERS[n]))]


@pytest.mark.parametrize("n, k", TABLE_ENTRIES)
def test_a_flipped_left_action_sign_is_caught(suite, monkeypatch, n, k):
    orders = list(cochains._TAIL_ORDERS[n])
    sign, order = orders[k]
    orders[k] = (-sign, order)
    monkeypatch.setitem(cochains._TAIL_ORDERS, n, tuple(orders))
    assert _disagreements(suite, n) > 0


@pytest.mark.parametrize("n", DEGREES)
def test_a_flipped_right_action_sign_is_caught(suite, monkeypatch, n):
    # slot n of d^n is the right action; the product slots keep their sign
    original = cochains._slot_sign

    def flipped(k, v):
        return -original(k, v) if k == n else original(k, v)
    monkeypatch.setattr(cochains, "_slot_sign", flipped)
    assert _disagreements(suite, n) > 0
