"""The via-f bimodule built in ints against its former construction
through the target's field-valued product, and the int tensors the
assemblers read against one `_ints` read of the three groups; and proof
that the comparison can fail.

On every seeded-suite morphism over Q, F5, F7 and F101,
`bimodule_via_morphism` must agree with `bimodule_oracle` on the actions
(values and repr), `==` and repr of the bimodule, and on its int
tensors, each cross-multiplied by the other side's denominator.  The
regular bimodule's three tensors are the algebra's one read of its
product, and must equal the three-group read.  An int build that reads
the target's product with its two arguments swapped, which swaps the
two actions, must make the comparison fail.
"""

import pytest

import bimodule_oracle
from instances import FIELDS
from zinbiel.algebra import ZinbielAlgebra, bimodule_via_morphism


def _cross(tensors, oden) -> tuple:
    """Each of the three tensors with its values times oden."""
    return tuple(tuple((i, j, k, v * oden) for i, j, k, v in t)
                 for t in tensors[:3])


def _mismatches(f) -> list:
    built, expected = bimodule_via_morphism(f), \
        bimodule_oracle.bimodule_via_morphism(f)
    out = []
    if (built.left, built.right) != (expected.left, expected.right):
        out.append("actions")
    if repr((built.left, built.right)) != \
            repr((expected.left, expected.right)):
        out.append("action reprs")
    if built != expected or repr(built) != repr(expected):
        out.append("==/repr")
    ints, oracle = built._int_tensors(), bimodule_oracle.int_tensors(expected)
    if _cross(ints, oracle[3]) != _cross(oracle, ints[3]):
        out.append("int tensors")
    return out


def _failures(instances) -> list:
    return [(index, bad) for index, f in enumerate(instances)
            if (bad := _mismatches(f))]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_via_f_bimodules_match_the_oracle(suite, field):
    instances = [f for f in suite if f.source.field == field]
    assert instances
    assert _failures(instances) == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_regular_tensors_are_the_algebras_one_read(suite, field):
    for f in [f for f in suite if f.source.field == field]:
        for algebra in (f.source, f.target):
            module = algebra.regular_bimodule()
            left, gamma, right, den = module._int_tensors()
            assert left is gamma is right
            assert (gamma, den) == algebra._int_gamma()
            assert (left, gamma, right, den) == \
                bimodule_oracle.int_tensors(module)


def test_swapped_actions_are_caught(suite, monkeypatch):
    original = ZinbielAlgebra._int_gamma

    def opposite(self):
        # e_i * e_j read as e_j * e_i: g(e_i) * e_w becomes e_w * g(e_i)
        gamma, den = original(self)
        return tuple((j, i, k, v) for i, j, k, v in gamma), den
    monkeypatch.setattr(ZinbielAlgebra, "_int_gamma", opposite)
    failures = _failures([f for f in suite if f.source.field == FIELDS[0]])
    # the actions differ where the target's product is not commutative on
    # the image of f; the int tensors also hold the source's product
    assert any("actions" in bad for _, bad in failures)
    assert all("int tensors" in bad for _, bad in failures)
