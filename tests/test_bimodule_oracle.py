"""The via-f bimodule built in ints against its former construction
through the target's field-valued product, and the int rows the
assemblers read against one `_ints` read of the three groups; and proof
that the comparison can fail.

On every seeded-suite morphism over Q, F5, F7 and F101,
`bimodule_via_morphism` must agree with `bimodule_oracle` on the actions
(values and repr), `==` and repr of the bimodule, and on the int rows
the assemblers read: its kept read of the two actions and the source's
kept read of its product, each cross-multiplied by the other side's
denominator.  The regular bimodule's two actions are the algebra's one
read of its product, and must equal the three-group read.  An int build
that reads the target's product with its two arguments swapped, which
swaps the two actions, must make the comparison fail.
"""

import pytest

import bimodule_oracle
from instances import FIELDS
from zinbiel.algebra import bimodule_via_morphism


def _cross(rows, oden) -> tuple:
    """Int rows with every value times oden."""
    return tuple(tuple((k, v * oden) for k, v in row) for row in rows)


def _read(module) -> list:
    """(rows, den) of the left action, the product and the right action,
    as the assemblers read them off module and its algebra."""
    left, right, den = module._action_ints
    return [(left, den), module.algebra._gamma_ints, (right, den)]


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
    *oracle, oden = bimodule_oracle.int_tensors(expected)
    if any(_cross(rows, oden) != _cross(orows, den)
           for (rows, den), orows in zip(_read(built), oracle)):
        out.append("int rows")
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
            left, right, den = module._action_ints
            gamma, gden = algebra._gamma_ints
            assert left is right is gamma and den == gden
            assert (left, gamma, right, den) == \
                bimodule_oracle.int_tensors(module)


def test_swapped_actions_are_caught(suite, monkeypatch):
    instances = [f for f in suite if f.source.field == FIELDS[0]]
    for target in {id(f.target): f.target for f in instances}.values():
        # e_i * e_j read as e_j * e_i: g(e_i) * e_w becomes e_w * g(e_i)
        rows, den = target._gamma_ints
        d = target.dim
        monkeypatch.setattr(target, "_gamma_ints", (tuple(
            rows[j * d + i] for i in range(d) for j in range(d)), den))
    failures = _failures(instances)
    # the actions differ where the target's product is not commutative on
    # the image of f, and so do their int rows
    assert any("actions" in bad for _, bad in failures)
    assert all("int rows" in bad for _, bad in failures)
