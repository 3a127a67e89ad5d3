"""The int rows of every assembled differential against the tuple oracle,
and proof that the comparison can fail.

`differential_matrix` and `morphism_differential_matrix` assemble int
rows over one denominator, and every reader of a matrix works on them.
On every seeded-suite instance over Q, F5, F7 and F101, in degrees 1..3,
d^n on R with regular coefficients and the morphism complex's d^n must
equal the matrix of the tuple oracle of differential_oracle.py: the same
entries, dense rows, `==` and repr.
`_echelon` on the int rows must give the pivot rows that eliminating
the same rows read back from their field values gives.  d^n on S and
on R with via-f coefficients are checked too.  The oracle's columns come
from `differential_oracle.columns`, which criterion 09 reads as well.

Hand-built morphisms whose R, S and f have denominators 2, 5 and 3 make
the phi rows' common denominator differ from each part's; dropping the
push-right part's rescale to it must make the comparison fail.

Reading a matrix must change nothing a caller sees: `column`, `matvec`,
`@`, `is_zero`, `solve`, `inverse`, `rank_nullspace` and `copy.deepcopy`
give the same results on a fresh assembly, on a second assembly whose
every entry was read first (through `rows`) and on deep copies, and deep
copies made before and after the elimination agree.  Products of the
morphism complex's blocked matrices, d^(n+1) d^n and products with
random matrices, must equal those of their copies with no blocks.
"""

import copy
import functools
import random
from fractions import Fraction
from math import lcm

import pytest

import differential_oracle as oracle
from instances import FIELDS, SEED, curated
from zinbiel import morphism_complex
from zinbiel.algebra import AlgebraMorphism
from zinbiel.catalog import (change_of_basis, single_product_algebra,
                             truncated_polynomials, weight_scaling)
from zinbiel.cochains import complex_dim, differential_matrix
from zinbiel.fields import QQ, PrimeField
from zinbiel.linalg import Matrix, _echelon, inverse, rank_nullspace, solve
from zinbiel.morphism_complex import (_push_left_matrix, _push_right_matrix,
                                      morphism_differential_matrix)

DEGREES_CHECKED = (1, 2, 3)


def _from_columns(field, cols: list, nrows: int) -> Matrix:
    """The matrix with these columns of field values."""
    return Matrix(field, [[col[i] for col in cols] for i in range(nrows)],
                  len(cols))


def _plain(algebra, module, n) -> Matrix:
    """The tuple oracle's d^n, from its shared columns."""
    return _from_columns(algebra.field, oracle.columns(algebra, module, n),
                         complex_dim(algebra, module, n + 1))


def _morphism(f, n) -> Matrix:
    """d(xi; pi; phi) = (d xi; d pi; f.xi - pi.f - d phi), column by
    column: a basis xi, pi or phi with the other two parts zero."""
    r, s, b = f.source, f.target, f.as_bimodule()
    rr, ss, zero = r.regular_bimodule(), s.regular_bimodule(), r.field.zero()
    nr, ns = complex_dim(r, rr, n + 1), complex_dim(s, ss, n + 1)
    cols = [[*col, *[zero] * ns, *oracle.push_forward_left(
                f, oracle.basis_cochain(r, rr, n, c)).flatten()]
            for c, col in enumerate(oracle.columns(r, rr, n))]
    cols += [[*[zero] * nr, *col, *(-x for x in oracle.push_forward_right(
                 f, oracle.basis_cochain(s, ss, n, c)).flatten())]
             for c, col in enumerate(oracle.columns(s, ss, n))]
    if n > 1:
        cols += [[*[zero] * (nr + ns), *(-x for x in col)]
                 for col in oracle.columns(r, b, n - 1)]
    return _from_columns(r.field, cols, nr + ns + complex_dim(r, b, n))


def _text(m: Matrix) -> list:
    """Each row as the (column, repr) pairs of its nonzero entries in
    column order."""
    return [[(j, repr(x)) for j, x in enumerate(row) if x] for row in m.rows]


def _mismatches(m: Matrix, expected: Matrix) -> list:
    """What differs between an assembled matrix and the oracle's; read
    after the elimination, so that `_echelon` runs on a fresh matrix."""
    pivots = _echelon(m)
    plain = _echelon(Matrix(m.field, m.rows, m.ncols))
    out = []
    if _text(m) != _text(expected):
        out.append("entries")
    if [list(map(repr, r)) for r in m.rows] != \
            [list(map(repr, r)) for r in expected.rows]:
        out.append("rows")
    if m != expected:
        out.append("==")
    if repr(m) != repr(expected):
        out.append("repr")
    if pivots != plain:
        out.append("pivot rows")
    return out


def _checked(f, n) -> list:
    """(what, mismatches) for d^n of f's complex, of R's and S's, and of
    R's with via-f coefficients."""
    r, s, b = f.source, f.target, f.as_bimodule()
    cases = [("f", functools.partial(morphism_differential_matrix, f, n),
              functools.partial(_morphism, f, n))]
    cases += [(what, functools.partial(differential_matrix, a, module, n),
               functools.partial(_plain, a, module, n))
              for what, a, module in (("R", r, r.regular_bimodule()),
                                      ("S", s, s.regular_bimodule()),
                                      ("via f", r, b))]
    return [(what, _mismatches(assemble(), expected()))
            for what, assemble, expected in cases]


def _failures(instances) -> list:
    return [(index, n, what, bad) for index, f in enumerate(instances)
            for n in DEGREES_CHECKED
            for what, bad in _checked(f, n) if bad]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_int_rows_match_the_oracle_on_the_suite(suite, field):
    instances = [f for f in suite if f.source.field == field]
    assert _failures(instances) == []


@pytest.mark.parametrize("field", (PrimeField(2), PrimeField(3)), ids=str)
def test_int_rows_match_the_oracle_in_characteristic_2_and_3(field):
    # the curated instances, where the symmetrized x.y + y.x = 2xy of d^n
    # vanishes and the weight scaling by 2 is the zero map (F2), or that
    # scaling has order 2 (F3)
    assert _failures(curated(field, random.Random(SEED))) == []


def _diagonal(values) -> Matrix:
    n = len(values)
    return Matrix(QQ, [[values[i] if i == j else 0 for j in range(n)]
                       for i in range(n)])


def _mixed_denominators() -> list:
    """Morphisms whose R, S and f have denominators 2, 5 and 3 (and their
    powers and products)."""
    half, fifth, third = Fraction(1, 2), Fraction(1, 5), Fraction(1, 3)
    # e0*e0 = e1/2 and e0*e0 = e1/5; f(e0) = (e0 + e1)/3 forces
    # f(e1) = 2/45 e1
    line_r = single_product_algebra(QQ, 2, 0, 0, 1, half)
    line_s = single_product_algebra(QQ, 2, 0, 0, 1, fifth)
    line = AlgebraMorphism(line_r, line_s,
                           [[third, 0], [third, Fraction(2, 45)]])
    # T3 in the bases (u0, 2u1, 4u2) and (u0, 5u1, 25u2), joined by the
    # weight scaling u_p -> u_p / 3^p
    t3 = truncated_polynomials(QQ, 3)
    r, to_r = change_of_basis(t3, _diagonal([1, 2, 4]))
    s, to_s = change_of_basis(t3, _diagonal([1, 5, 25]))
    scaled = AlgebraMorphism(
        r, s, to_s.matrix @ weight_scaling(t3, third).matrix
        @ inverse(to_r.matrix))
    # e0 to (e1 + e2)/3 in the second basis of T3, e1 to zero
    into = AlgebraMorphism(line_r, s, [[0, 0], [third, 0], [third, 0]])
    return [line, scaled, into]


def _part_dens(f, n) -> list:
    parts = [_push_left_matrix(f, n), _push_right_matrix(f, n)]
    if n > 1:
        parts.append(differential_matrix(f.source, f.as_bimodule(), n - 1))
    return [part._den for part in parts]


def test_int_rows_match_the_oracle_across_denominators():
    instances = _mixed_denominators()
    for f in instances:
        for n in DEGREES_CHECKED:
            dens = _part_dens(f, n)
            common = morphism_differential_matrix(f, n)._den
            assert common == lcm(*dens)
            # from degree 2 on, the phi rows' denominator is none of its
            # parts' own; at degree 1 there is no d phi part
            assert (common not in dens) == (n > 1)
    assert _failures(instances) == []


def test_a_push_right_part_left_unscaled_is_caught(monkeypatch):
    original = _push_right_matrix

    def unscaled(f, n):
        # claim the phi rows' denominator, so that the rows go in as they
        # are: the push-right part is not rescaled to it
        m = original(f, n)
        m._den = lcm(*_part_dens(f, n))
        return m
    instances = _mixed_denominators()
    monkeypatch.setattr(morphism_complex, "_push_right_matrix", unscaled)
    failures = _failures(instances)
    # every instance fails in degrees 2 and 3, where a rescale is due
    assert {(index, n, what) for index, n, what, _ in failures} == {
        (index, n, "f") for index in range(len(instances)) for n in (2, 3)}
    assert all("entries" in bad for _, _, _, bad in failures)


def _assembled(f):
    """Fresh assemblies of every checked degree, nothing read yet."""
    r = f.source
    out = []
    for n in DEGREES_CHECKED:
        out.append(morphism_differential_matrix(f, n))
        out.append(differential_matrix(r, r.regular_bimodule(), n))
        out.append(differential_matrix(r, f.as_bimodule(), n))
    return out


def _random(field, rng, nrows, ncols) -> Matrix:
    return Matrix(field, [[field.from_int(rng.choice((0, 0, 1, -2, 3)))
                           for _ in range(ncols)] for _ in range(nrows)],
                  ncols)


def _products(m, rng) -> tuple:
    return (_text(m @ _random(m.field, rng, m.ncols, 3)),
            _text(_random(m.field, rng, 3, m.nrows) @ m))


def _vector(v) -> list | None:
    return None if v is None else list(map(repr, v))


def _solutions(m, rng) -> tuple:
    # a consistent right-hand side, the image of a random vector, made
    # with `@`, and an arbitrary one
    image = (m @ _random(m.field, rng, m.ncols, 1)).column(0)
    arbitrary = [m.field.from_int(rng.randint(-3, 3)) for _ in range(m.nrows)]
    return _vector(solve(m, image)), _vector(solve(m, arbitrary))


def _inverse(m, rng):
    if m.nrows != m.ncols:
        return "not square"
    inv = inverse(m)
    return None if inv is None else _text(inv)


def _rank_nullspace(m, rng) -> tuple:
    rank, basis = rank_nullspace(m)
    return rank, list(map(_vector, basis))


# what a caller sees of a matrix through each reader but rows
READERS = {
    "column": lambda m, rng: [list(map(repr, m.column(j)))
                              for j in range(m.ncols)],
    "matvec": lambda m, rng: list(map(repr, m.matvec(
        [m.field.from_int(rng.randint(-3, 3)) for _ in range(m.ncols)]))),
    "@": _products,
    "is_zero": lambda m, rng: m.is_zero(),
    "solve": _solutions,
    "inverse": _inverse,
    "rank_nullspace": _rank_nullspace,
}


def _sample(suite) -> list:
    """Per field, the first two instances with both dimensions 2 and the
    first with R of dimension at most 1."""
    chosen = []
    for field in FIELDS:
        over = [f for f in suite if f.source.field == field]
        chosen += [f for f in over
                   if f.source.dim == f.target.dim == 2][:2]
        chosen += [f for f in over if f.source.dim <= 1][:1]
    return chosen


@pytest.mark.parametrize("reader", sorted(READERS))
def test_entries_read_late_change_nothing(suite, reader):
    # the first read of `first` is the reader's own; `later`, a second
    # assembly, has had every entry read before, through `rows`; deep
    # copies of both read the same
    square = 0
    for index, f in enumerate(_sample(suite)):
        for first, later in zip(_assembled(f), _assembled(f)):
            copied = copy.deepcopy(first)
            later.rows
            seen = READERS[reader](first, random.Random(SEED + index))
            for other in (later, copied, copy.deepcopy(later)):
                assert seen == READERS[reader](other,
                                               random.Random(SEED + index))
            square += first.nrows == first.ncols > 0
    # `inverse` reads some square matrices (singular ones here)
    assert square > 0


def test_blocked_products_match_their_plain_copies(suite):
    # on the mixed-denominator morphisms the block rows are rescaled to
    # the phi rows' denominator
    for index, f in enumerate(_sample(suite) + _mixed_denominators()):
        ds = [morphism_differential_matrix(f, n) for n in DEGREES_CHECKED]
        plain = [Matrix(m.field, m.rows, m.ncols) for m in ds]
        assert all(m._blocks for m in ds)
        for n in range(len(ds) - 1):
            product = ds[n + 1] @ ds[n]
            assert product.is_zero()
            assert _text(product) == _text(plain[n + 1] @ plain[n])
        for m, bare in zip(ds, plain):
            assert _products(m, random.Random(SEED + index)) == \
                _products(bare, random.Random(SEED + index))


def test_deep_copies_before_and_after_the_first_read_agree(suite):
    # `later` is read whole, its pivot rows kept, before it is copied; f's
    # matrix has zero rows, which are not held, in the zero morphisms of
    # the sample and in the last mixed-denominator morphism
    morphisms = _sample(suite) + _mixed_denominators()
    assert any(not all(map(any, f.matrix.rows)) and f.matrix.rows
               for f in morphisms)
    for f in morphisms:
        for first, later in zip(_assembled(f), _assembled(f)):
            unread = copy.deepcopy(first)
            later.rows
            _echelon(later)
            read = copy.deepcopy(later)
            assert _echelon(unread) == _echelon(first) == _echelon(read)
            assert _text(unread) == _text(read) == _text(first)
            assert unread == read == first
