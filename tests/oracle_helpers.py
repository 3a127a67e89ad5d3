"""Dense evaluation helpers shared by the term-by-term oracles.

These are the library's former `Cochain.eval`, `Bimodule.left_act` /
`right_act` and `linalg.unit_vector`.  The library itself never
evaluates a cochain on vectors or applies an action to one vector at a
time: it works from sparse rows and assembled matrices.  The oracles use these helpers to stay independent
of that code.
"""

import itertools

from zinbiel.linalg import zero_vector


def unit_vector(field, n: int, i: int) -> list:
    """The i-th basis vector of length n."""
    v = [field.zero()] * n
    v[i] = field.one()
    return v


def evaluate(cochain, args: list) -> list:
    """Value on a mixed argument list: basis indices (int) or vectors."""
    if len(args) != cochain.arity:
        raise ValueError(
            f"expected {cochain.arity} arguments, got {len(args)}")
    if all(isinstance(a, int) for a in args):
        return list(cochain.eval_basis(tuple(args)))
    d = cochain.source.dim
    out = zero_vector(cochain.field, cochain.module.dim)
    pools = []
    for a in args:
        if isinstance(a, int):
            pools.append(((a, None),))
        else:
            pool = tuple((t, c) for t, c in enumerate(a) if c)
            if not pool:
                return out
            pools.append(pool)
    for combo in itertools.product(*pools):
        coef = None
        flat = 0
        for t, c in combo:
            flat = flat * d + t
            if c is not None:
                coef = c if coef is None else coef * c
        row = cochain.coeffs[flat]
        if coef is None:
            for b, v in enumerate(row):
                if v:
                    out[b] = out[b] + v
        else:
            for b, v in enumerate(row):
                if v:
                    out[b] = out[b] + coef * v
    return out


def left_act(module, i: int, avec: list) -> list:
    """e_i acting on a module vector."""
    out = zero_vector(module.field, module.dim)
    col = module.left[i]
    for a, c in enumerate(avec):
        if c:
            for b, v in enumerate(col[a]):
                if v:
                    out[b] = out[b] + c * v
    return out


def right_act(module, avec: list, i: int) -> list:
    """A module vector acted on by e_i from the right."""
    out = zero_vector(module.field, module.dim)
    for a, c in enumerate(avec):
        if c:
            for b, v in enumerate(module.right[a][i]):
                if v:
                    out[b] = out[b] + c * v
    return out
