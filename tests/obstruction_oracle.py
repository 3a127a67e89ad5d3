"""Explicit-sum obstruction: the reference for `deformation.obstruction`.

This is the library's former obstruction, kept as an independent code
path: the sums are written out term by term, with the index ranges that
leave out theta_{N+1}, instead of being read off the order-(N+1)
deformation condition.  The library obstruction must reproduce it
exactly.
"""

from oracle_helpers import evaluate
from zinbiel.cochains import Cochain, all_tuples
from zinbiel.linalg import vec_add, vec_sub, zero_vector
from zinbiel.morphism_complex import TripleCochain, morphism_cochain


def obstruction(theta) -> TripleCochain:
    """The degree-3 obstruction of an order-N deformation (N >= 1).

    Component on each algebra, on basis triples:
        sum_{i=1}^N m_i(m_{N+1-i}(x,y), z)
      - sum_{i=1}^N m_i(x, m_{N+1-i}(y,z) + m_{N+1-i}(z,y))
    and on the morphism column, on basis pairs:
        sum' m_{S,i}(f_j(x), f_k(y)) - sum_{i=1}^N f_i(m_{R,N+1-i}(x,y))
    where sum' runs over i+j+k = N+1 with at most one index zero.
    """
    f = theta.morphism
    r, s = f.source, f.target
    n = theta.order
    ms_r = [t.xi for t in theta.terms]
    ms_s = [t.pi for t in theta.terms]
    fs = [morphism_cochain(f)] + [t.phi for t in theta.terms[1:]]

    def ob_product(algebra, ms):
        rows = []
        for (x, y, z) in all_tuples(algebra.dim, 3):
            acc = zero_vector(algebra.field, algebra.dim)
            for i in range(1, n + 1):
                inner = ms[n + 1 - i].eval_basis((x, y))
                acc = vec_add(acc, evaluate(ms[i], [inner, z]))
                sym = vec_add(ms[n + 1 - i].eval_basis((y, z)),
                              ms[n + 1 - i].eval_basis((z, y)))
                acc = vec_sub(acc, evaluate(ms[i], [x, sym]))
            rows.append(acc)
        return Cochain(algebra, algebra.regular_bimodule(), 3, rows)

    rows = []
    for (x, y) in all_tuples(r.dim, 2):
        acc = zero_vector(r.field, s.dim)
        for i in range(n + 2):
            for j in range(n + 2 - i):
                k = n + 1 - i - j
                if (i == 0) + (j == 0) + (k == 0) > 1:
                    continue
                acc = vec_add(acc, evaluate(ms_s[i],
                                            [fs[j].eval_basis((x,)),
                                             fs[k].eval_basis((y,))]))
        for i in range(1, n + 1):
            acc = vec_sub(acc, evaluate(
                fs[i], [ms_r[n + 1 - i].eval_basis((x, y))]))
        rows.append(acc)
    ob_f = Cochain(r, f.as_bimodule(), 2, rows)
    return TripleCochain(f, 3, ob_product(r, ms_r), ob_product(s, ms_s), ob_f)
