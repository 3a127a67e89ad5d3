"""The former construction of the via-f bimodule and the former read of a
bimodule's int rows, kept as oracles.

The library sums the via-f actions in ints, from the target's int
product and f's int columns, and each object keeps the int read its
constructor made.  Here the actions come from the target's field-valued
`product` on f's images and unit vectors, and the int rows from one
`_ints` read of the three groups together: left action, product, right
action.
"""

from oracle_helpers import unit_vector
from zinbiel.algebra import _derived_bimodule
from zinbiel.linalg import _ints


def bimodule_via_morphism(g):
    """The target of g as a bimodule over its source: r.s = g(r)s,
    s.r = s g(r), through the target's product of field values, with
    its two actions read together by `_ints`."""
    source, target = g.source, g.target
    field = source.field
    m = target.dim
    cols = [g.matrix.column(i) for i in range(source.dim)]
    left = [[target.product(cols[i], unit_vector(field, m, a))
             for a in range(m)] for i in range(source.dim)]
    right = [[target.product(unit_vector(field, m, a), cols[i])
              for i in range(source.dim)] for a in range(m)]
    groups, den = _ints(((v for col in left for v in col),
                         (v for col in right for v in col)),
                        field.characteristic)
    return _derived_bimodule(source, m, left, right, (
        *(tuple(map(tuple, rows)) for rows in groups), den))


def int_tensors(module) -> tuple:
    """(left, gamma, right, den) of module, read together by `_ints` over
    one denominator den, in the rows `_ints` returns: row i * width + j
    of each holds the (k, v) pairs of its nonzero values, as tuples."""
    groups, den = _ints(
        ((v for col in module.left for v in col),
         (row for plane in module.algebra.gamma for row in plane),
         (v for col in module.right for v in col)),
        module.field.characteristic)
    return tuple(tuple(map(tuple, rows)) for rows in groups) + (den,)
