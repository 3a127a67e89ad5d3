"""Values the library builds unchecked, and the checks it keeps.

`Cochain._of` takes its rows as they are, and the triple constructor
checks only where its parts live, so every value that reaches them must
already be a scalar of the field.  The guard below checks the output of
each operation that builds through them, over Q, F5, F7 and F101: every
entry has the exact scalar type of its field (a raw int would compare
equal to a `ModInt` and slip past `==`), and each element equals, repr
for repr, the one the checked public constructors build from the same
rows.  The triples `Problem` builds from the cochains and deformation
terms of `problems/*.zb` are guarded too; a hand-built `Problem` whose
entries are not scalars of its field is still refused, and so is one
with an entry outside its space (an index out of range, a component or
term the object lacks).  The public constructors keep every check: each
is driven with bad input and must fail with its message.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from instances import FIELDS, SEED
from zinbiel.algebra import (AlgebraMorphism, Bimodule, ZinbielAlgebra,
                             identity_morphism, zero_morphism)
from zinbiel.catalog import (change_of_basis, direct_sum,
                             truncated_polynomials, weight_scaling)
from zinbiel.cochains import (Cochain, coboundary_preimage, differential,
                              identity_cochain)
from zinbiel.deformation import (FormalIsomorphism, TruncatedDeformation,
                                 conjugate, extend_one_order,
                                 invert_truncated, obstruction,
                                 order_residual, theta_zero)
from zinbiel.fields import QQ, FieldError, ModInt, PrimeField
from zinbiel.linalg import Matrix, inverse
from zinbiel.morphism_complex import TripleCochain
from zinbiel.problem_io import (AlgebraSpec, CochainSpec, DeformationSpec,
                                IsomorphismSpec, MorphismSpec, Problem,
                                parse)
from zinbiel.sampling import (random_cochain, random_deformation,
                              random_formal_isomorphism, random_scalar,
                              random_triple_cochain)


def _parts(x) -> list:
    if isinstance(x, TripleCochain):
        return [c for c in (x.xi, x.pi, x.phi) if c is not None]
    return [x]


def _checked(x):
    """x rebuilt through the public constructors from its own rows."""
    if isinstance(x, TripleCochain):
        return TripleCochain(x.morphism, x.degree,
                             *map(_checked, (x.xi, x.pi)),
                             None if x.phi is None else _checked(x.phi))
    return Cochain(x.source, x.module, x.arity, x.coeffs)


def _guard(x) -> int:
    """Assert that x holds only scalars of its field and equals its
    checked rebuild; returns the number of entries seen."""
    p = x.field.characteristic
    seen = 0
    for part in _parts(x):
        for row in part.coeffs:
            for v in row:
                if p:
                    assert type(v) is ModInt and v.modulus == p, repr(v)
                else:
                    assert type(v) is Fraction, repr(v)
                seen += 1
    rebuilt = _checked(x)
    assert rebuilt == x
    assert repr(rebuilt) == repr(x)
    assert [c.coeffs for c in _parts(rebuilt)] == \
        [c.coeffs for c in _parts(x)]
    assert repr([c.coeffs for c in _parts(rebuilt)]) == \
        repr([c.coeffs for c in _parts(x)])
    return seen


def _elements(f, rng):
    """Pairs of random elements of one space: cochains with regular and
    via-f coefficients in degrees 1 and 2, triples of degrees 1 and 2."""
    r = f.source
    for n in (1, 2):
        for module in (r.regular_bimodule(), f.as_bimodule()):
            yield (random_cochain(r, module, n, rng),
                   random_cochain(r, module, n, rng))
        yield (random_triple_cochain(f, n, rng),
               random_triple_cochain(f, n, rng))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_library_built_elements_hold_scalars_of_their_field(suite, field):
    rng = random.Random(SEED + 21)
    seen = 0
    for f in [f for f in suite if f.source.field == field]:
        for x, y in _elements(f, rng):
            dx = differential(x)
            for out in (x + y, x - y, -x,
                        x.scale(random_scalar(field, rng)),
                        x.scale(rng.randint(-9, 9)), dx):
                seen += _guard(out)
            seen += _guard(coboundary_preimage(dx))
    assert seen > 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_deformation_outputs_hold_scalars_of_their_field(small_suite, field):
    rng = random.Random(SEED + 22)
    pool = [f for f in small_suite if f.source.field == field
            and f.source.dim + f.target.dim > 0]
    steps = 0
    for f in pool[:12]:
        # the constant terms, built from the objects' own values
        _guard(theta_zero(f))
        _guard(FormalIsomorphism.identity(f).terms[0])
        theta = random_deformation(f, 2, rng)
        phi = random_formal_isomorphism(f, 2, rng)
        # a series with a random order-2 term fails at order 2
        broken = theta.terms[:2] + [random_triple_cochain(f, 2, rng)]
        for terms in (theta.terms, broken):
            for n in range(4):
                _guard(order_residual(f, terms, n))
        _guard(obstruction(theta))
        for term in conjugate(theta, phi).terms + theta.terms:
            _guard(term)
        for term in invert_truncated(phi, 3).terms:
            _guard(term)
        step = extend_one_order(theta)
        _guard(step.obstruction)
        if step.succeeded:
            steps += 1
            for term in step.extended.terms:
                _guard(term)
    assert steps > 0


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_parsed_triples_hold_scalars_of_their_field():
    seen = 0
    for path in sorted(PROBLEMS.glob("*.zb")):
        problem = parse(path.read_text(encoding="utf-8"))
        for name in problem.cochains:
            seen += _guard(problem.build_cochain(name))
        for name in problem.deformations:
            _, terms, _ = problem.deformation_candidate(name)
            for term in terms[1:]:
                seen += _guard(term)
        for name in problem.isomorphisms:
            for term in problem.build_isomorphism(name).terms[1:]:
                seen += _guard(term)
    assert seen > 0


@pytest.mark.parametrize("field, bad", [(QQ, 0.5),
                                        (PrimeField(5), ModInt(1, 7))],
                         ids=["Q", "F5"])
def test_hand_built_entries_outside_the_field_are_refused(field, bad):
    # a Problem made without parse: its entries are coerced as they go in
    problem = Problem(
        field, algebras={"A": AlgebraSpec("A", 1)},
        morphisms={"f": MorphismSpec("f", "A", "A", [(0, 0, 1)])},
        cochains={"c": CochainSpec("c", "f", 2, [("f", (0,), 0, bad)])},
        deformations={"D": DeformationSpec("D", "f", 1,
                                           [(1, "R", (0, 0), 0, bad)])},
        isomorphisms={"P": IsomorphismSpec("P", "f", 1,
                                           [(1, "S", 0, 0, bad)])})
    with pytest.raises(FieldError):
        problem.build_cochain("c")
    with pytest.raises(FieldError):
        problem.deformation_candidate("D")
    with pytest.raises(FieldError):
        problem.build_isomorphism("P")


# case -> (what is built, its one malformed entry, the entry as the error
# names it when that differs)
_MALFORMED = {
    "cochain-negative-input": ("cochain", ("R", (-1, 0), 0, 1), None),
    "cochain-too-few-inputs": ("cochain", ("R", (0,), 0, 1), None),
    "cochain-input-too-large": ("cochain", ("R", (7, 0), 0, 1), None),
    "cochain-output-too-large": ("cochain", ("R", (0, 0), 9, 1), None),
    "cochain-no-such-component": ("cochain", ("X", (0, 0), 0, 1), None),
    "pair-phi": ("pair", ("f", (), 0, 1), None),
    "isomorphism-phi": ("isomorphism", (1, "f", 0, 0, 1),
                        (1, "f", (0,), 0, 1)),
    "deformation-term-past-order": ("deformation", (2, "R", (0, 0), 0, 1),
                                    None),
    "deformation-term-zero": ("deformation", (0, "R", (0, 0), 0, 1), None),
    "algebra-negative-index": ("algebra", (-1, 0, 0, 1), None),
    "algebra-index-too-large": ("algebra", (0, 2, 0, 1), None),
    "morphism-negative-index": ("morphism", (-1, 0, 1), None),
    "morphism-index-too-large": ("morphism", (0, 2, 1), None),
}


@pytest.mark.parametrize("what, entry, named", _MALFORMED.values(),
                         ids=_MALFORMED)
def test_hand_built_entries_outside_their_space_are_refused(what, entry,
                                                            named):
    # over Q, A of dim 2 with the zero product and f = id_A: each object
    # has the one malformed entry, which is refused, not wrapped, dropped
    # or left to a bare KeyError or IndexError
    def one(kind):
        return [entry] if what == kind else []

    problem = Problem(
        QQ, algebras={"A": AlgebraSpec("A", 2, one("algebra"))},
        morphisms={"f": MorphismSpec("f", "A", "A", [(0, 0, 1), (1, 1, 1)]
                                     + one("morphism"))},
        cochains={"c": CochainSpec("c", "f", 2, one("cochain")),
                  "p": CochainSpec("p", "f", 1, one("pair"))},
        deformations={"D": DeformationSpec("D", "f", 1, one("deformation"))},
        isomorphisms={"P": IsomorphismSpec("P", "f", 1, one("isomorphism"))})
    build = {"algebra": lambda: problem.build_algebra("A"),
             "morphism": lambda: problem.build_morphism("f"),
             "cochain": lambda: problem.build_cochain("c"),
             "pair": lambda: problem.build_cochain("p"),
             "deformation": lambda: problem.deformation_candidate("D"),
             "isomorphism": lambda: problem.build_isomorphism("P")}[what]
    with pytest.raises(ValueError) as caught:
        build()
    message = str(caught.value)
    assert message.startswith(f"entry {named or entry!r}: ")
    assert "\n" not in message


# case -> (the spec that is built, with one header outside its rules, and
# the one-line error it gets)
_BAD_HEADERS = {
    "cochain-degree-0": (CochainSpec("c", "f", 0, []),
                         "cochain 'c': degree must be within 1..4"),
    "cochain-degree-5": (CochainSpec("c", "f", 5, []),
                         "cochain 'c': degree must be within 1..4"),
    "isomorphism-order-negative": (
        IsomorphismSpec("P", "f", -1, []),
        "isomorphism 'P': order must be nonnegative"),
    "deformation-order-negative": (
        DeformationSpec("D", "f", -1, []),
        "deformation 'D': order must be nonnegative"),
    "cochain-unknown-morphism": (CochainSpec("c", "g", 2, []),
                                 "cochain 'c': unknown morphism 'g'"),
    "morphism-unknown-algebra": (MorphismSpec("f", "A", "B", []),
                                 "morphism 'f': unknown algebra 'B'"),
}


@pytest.mark.parametrize("spec, message", _BAD_HEADERS.values(),
                         ids=_BAD_HEADERS)
def test_hand_built_headers_outside_their_rules_are_refused(spec, message):
    # over Q, A of dim 2 with the zero product and f = id_A; the one bad
    # spec is refused by the parser's own header rules, not built
    # unchecked, cut to another order or left to a bare KeyError
    kind = {CochainSpec: "cochain", DeformationSpec: "deformation",
            IsomorphismSpec: "isomorphism", MorphismSpec: "morphism"}[
                type(spec)]
    problem = Problem(
        QQ, algebras={"A": AlgebraSpec("A", 2)},
        morphisms={"f": MorphismSpec("f", "A", "A", [(0, 0, 1), (1, 1, 1)])})
    getattr(problem, kind + "s")[spec.name] = spec
    build = {"cochain": problem.build_cochain,
             "deformation": problem.deformation_candidate,
             "isomorphism": problem.build_isomorphism,
             "morphism": problem.build_morphism}[kind]
    with pytest.raises(ValueError) as caught:
        build(spec.name)
    assert str(caught.value) == message


def _t2(field):
    return identity_morphism(truncated_polynomials(field, 2))


def test_public_constructors_keep_every_check():
    f = _t2(PrimeField(5))
    r, s = f.source, f.target
    reg = r.regular_bimodule()
    other = _t2(PrimeField(7)).source
    rows = [[0, 0] for _ in range(4)]
    flat = [0] * 8
    zero_triple = [0] * 20   # xi 8, pi 8, phi 4
    xi = Cochain.zero(r, reg, 2)
    one = Cochain.zero(r, reg, 1)
    m = Matrix(f.source.field, [[1, 0]])
    cases = [
        # Matrix: ragged rows, a declared width the rows lack, a vector
        # of another length, a product across fields, a non-square inverse
        (lambda: Matrix(r.field, [[0, 0], [0]]), ValueError,
         "ragged matrix rows"),
        (lambda: Matrix(r.field, [[0, 0]], 3), ValueError,
         "declared 3 columns, rows have 2"),
        (lambda: m.matvec([1]), ValueError,
         "vector of length 1 against 2 columns"),
        (lambda: m @ Matrix(QQ, [[1], [0]]), FieldError,
         "matrix product across different fields"),
        (lambda: inverse(m), ValueError, "inverse of a non-square matrix"),
        # algebras, bimodules and morphisms of the wrong shape
        (lambda: AlgebraMorphism(r, s, [[1, 0]]), ValueError,
         "matrix must be 2x2, got 1x2"),
        (lambda: ZinbielAlgebra(r.field, -1, []), ValueError,
         "dimension must be nonnegative"),
        (lambda: Bimodule(r, -1, [], []), ValueError,
         "module dimension must be nonnegative"),
        (lambda: Bimodule(r, 1, [[[0]]], [[[0], [0]]]), ValueError,
         "left action must be 2x1x1"),
        (lambda: Bimodule(r, 1, [[[0]], [[0]]], [[[0]]]), ValueError,
         "right action must be 1x2x1"),
        # catalog builders: a matrix of the wrong shape, a singular one,
        # summands over different fields
        (lambda: change_of_basis(r, Matrix(r.field, [[1]])), ValueError,
         "change of basis matrix has wrong shape"),
        (lambda: change_of_basis(r, Matrix(r.field, [[1, 1], [1, 1]])),
         ValueError, "change of basis matrix is singular"),
        (lambda: direct_sum(r, other), ValueError,
         "direct sum across different fields"),
        # Cochain: ragged rows, the wrong module, a float, another prime
        (lambda: Cochain(r, reg, 2, rows[:3] + [[0]]), ValueError,
         "coefficients must be 4 rows of length 2"),
        (lambda: Cochain(r, other.regular_bimodule(), 2, rows), ValueError,
         "module is not over the cochain's source algebra"),
        (lambda: Cochain(r, reg, 2, [[0.5, 0]] + rows[1:]), FieldError,
         "not an F_5 scalar: 0.5"),
        (lambda: Cochain(r, reg, 2, [[ModInt(1, 7), 0]] + rows[1:]),
         FieldError, "scalar mod 7 in F_5"),
        (lambda: Cochain(_t2(QQ).source, _t2(QQ).source.regular_bimodule(),
                         1, [[0.5, 0], [0, 0]]), FieldError,
         "not a rational scalar: 0.5"),
        (lambda: Cochain(r, reg, 5, rows), ValueError, "arity 5 outside 0..4"),
        # Cochain.from_flat
        (lambda: Cochain.from_flat(r, reg, 2, flat[:7]), ValueError,
         "expected 8 coefficients"),
        (lambda: Cochain.from_flat(r, other.regular_bimodule(), 2, flat),
         ValueError, "module is not over the cochain's source algebra"),
        (lambda: Cochain.from_flat(r, reg, 2, [0.5] + flat[1:]), FieldError,
         "not an F_5 scalar: 0.5"),
        (lambda: Cochain.from_flat(r, reg, 2, [ModInt(1, 7)] + flat[1:]),
         FieldError, "scalar mod 7 in F_5"),
        # TripleCochain
        (lambda: TripleCochain(f, 2, Cochain.zero(r, reg, 1), xi, None),
         ValueError, "component arities must equal the degree 2"),
        (lambda: TripleCochain(f, 2, Cochain.zero(
            other, other.regular_bimodule(), 2), xi, None), ValueError,
         "first component must have regular coefficients on the source"),
        (lambda: TripleCochain(f, 2, xi, xi, None), ValueError,
         "degree-2 triple needs a third component"),
        (lambda: TripleCochain(f, 5, xi, xi, None), ValueError,
         "degree 5 outside 1..4"),
        (lambda: TripleCochain(f, 1, one, one, Cochain(
            r, f.as_bimodule(), 0, [[1, 0]])), ValueError,
         "degree-1 triples have a zero third component"),
        (lambda: TripleCochain(f, 2, xi, xi, Cochain.zero(
            r, f.as_bimodule(), 2)), ValueError,
         "third component has the wrong shape"),
        # phi over S through another morphism g: R -> S
        (lambda: TripleCochain(f, 2, xi, xi, Cochain.zero(
            r, zero_morphism(r, s).as_bimodule(), 1)), ValueError,
         "third component must take values in the target through f"),
        # TripleCochain.from_flat
        (lambda: TripleCochain.from_flat(f, 2, zero_triple[:19]), ValueError,
         "flat vector has the wrong length"),
        (lambda: TripleCochain.from_flat(f, 2, [0.5] + zero_triple[1:]),
         FieldError, "not an F_5 scalar: 0.5"),
        (lambda: TripleCochain.from_flat(
            f, 2, [ModInt(2, 7)] + zero_triple[1:]), FieldError,
         "scalar mod 7 in F_5"),
        (lambda: TripleCochain.from_flat(f, 0, [0] * 4), ValueError,
         "degree 0 outside 1..4"),
        (lambda: TripleCochain.from_flat(f, 5, [0] * 160), ValueError,
         "degree 5 outside 1..4"),
        # the two series: a wrong constant term
        (lambda: TruncatedDeformation(f, [TripleCochain.zero(f, 2)]),
         ValueError, "constant term differs from (m_R; m_S; f)"),
        (lambda: FormalIsomorphism(f, [TripleCochain(
            f, 1, Cochain.zero(r, reg, 1), identity_cochain(s), None)]),
         ValueError, "constant term must be the identity pair"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("field", (QQ, PrimeField(5)), ids=str)
def test_a_constant_term_off_by_one_entry_is_rejected(field):
    # the comparison with theta_zero(f) misses no entry and no
    # coefficient module
    f = weight_scaling(truncated_polynomials(field, 2), 2)
    zero = theta_zero(f)
    assert TruncatedDeformation(f, [zero]).terms == [zero]
    flat = zero.flatten()
    for i in range(len(flat)):
        bumped = list(flat)
        bumped[i] = bumped[i] + 1
        with pytest.raises(ValueError) as err:
            TruncatedDeformation(f, [TripleCochain.from_flat(f, 2, bumped)])
        assert str(err.value) == "constant term differs from (m_R; m_S; f)"
    # f's columns as a 1-cochain through another morphism between the
    # same algebras: equal coefficients, a different bimodule.  The
    # triple constructor refuses it, so the test builds it around the
    # constructor to reach the comparison
    g = identity_morphism(f.source)
    phi = Cochain(f.source, g.as_bimodule(), 1, zero.phi.coeffs)
    with pytest.raises(ValueError) as err:
        TripleCochain(f, 2, zero.xi, zero.pi, phi)
    assert str(err.value) == \
        "third component must take values in the target through f"
    unchecked = object.__new__(TripleCochain)
    unchecked.morphism, unchecked.degree = f, 2
    unchecked.xi, unchecked.pi, unchecked.phi = zero.xi, zero.pi, phi
    with pytest.raises(ValueError) as err:
        TruncatedDeformation(f, [unchecked])
    assert str(err.value) == "constant term differs from (m_R; m_S; f)"
