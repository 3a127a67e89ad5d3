import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zinbiel.cochains import MAX_ARITY, all_tuples
from zinbiel.deformation import check_deformation
from zinbiel.fields import QQ, PrimeField
from zinbiel.problem_io import (AlgebraSpec, CochainSpec, DeformationSpec,
                                IsomorphismSpec, MorphismSpec, Problem,
                                ProblemFileError, parse, serialize)
from zinbiel.sampling import (random_deformation, random_formal_isomorphism,
                              random_morphism_instance, random_triple_cochain)

NILPOTENT = """\
field Q

algebra R
  dim 2
  gamma 1 1 2 = 1
end

morphism id
  source R
  target R
  entry 1 1 = 1
  entry 2 2 = 1
end
"""

FULL = """\
field Fp:5
algebra A
  dim 2
  gamma 1 1 2 = 3
end
algebra B
  dim 1
end
morphism f
  source A
  target B
end
cochain c
  morphism f
  degree 2
  R 1 2 1 = 2
  f 1 1 = 4
end
deformation D
  morphism f
  order 2
  term 1 R 1 1 2 = 1
  term 2 f 2 1 = 1/2
end
isomorphism Phi
  morphism f
  order 1
  term 1 R 1 2 = 3
  term 1 S 1 1 = 2
end
"""


def test_parse_empty_model():
    problem = parse("field Q\n")
    assert problem.field == QQ
    assert not problem.algebras


def test_parse_builds_the_expected_algebra():
    problem = parse(NILPOTENT)
    algebra = problem.build_algebra("R")
    assert algebra.dim == 2
    assert algebra.product_basis(0, 0) == [QQ.zero(), QQ.one()]
    f = problem.build_morphism("id")
    assert f.apply_basis(0) == [QQ.one(), QQ.zero()]


def test_round_trip_all_sections():
    problem = parse(FULL)
    text = serialize(problem)
    assert parse(text) == problem
    # and serialization is stable
    assert serialize(parse(text)) == text


def test_round_trip_of_curated_files():
    for name in ("nilpotent_dim2", "abelian_line", "obstructed_line",
                 "graded_dim3"):
        with open(f"problems/{name}.zb", encoding="utf-8") as handle:
            text = handle.read()
        problem = parse(text)
        assert parse(serialize(problem)) == problem


def test_field_override_reinterprets_scalars():
    problem = parse(NILPOTENT, field_override=PrimeField(5))
    algebra = problem.build_algebra("R")
    assert algebra.field == PrimeField(5)
    assert algebra.product_basis(0, 0)[1].value == 1


def test_rational_entries_parse_exactly():
    problem = parse(FULL.replace("field Fp:5", "field Q"))
    spec = problem.deformations["D"]
    assert spec.entries[-1][-1] == Fraction(1, 2)


def test_zero_entries_are_dropped():
    text = "field Q\nalgebra R\n  dim 2\n  gamma 1 1 2 = 0\nend\n"
    assert parse(text).algebras["R"].entries == []


# two algebras (R of dim 2, L of dim 1) and a morphism on each (f on R, g on
# L) in 15 lines: a section after them starts on line 16
MAPS = ("field Q\n"
        "algebra R\n  dim 2\nend\n"
        "algebra L\n  dim 1\nend\n"
        "morphism f\n  source R\n  target R\nend\n"
        "morphism g\n  source L\n  target L\nend\n")
ALG = "field Q\nalgebra R\n  dim 2\nend\n"
ONE = "field Q\nalgebra R\n  dim 1\n"
COCHAIN = MAPS + "cochain c\n  morphism f\n"
DEFORMATION = MAPS + "deformation D\n  morphism f\n  order 2\n"
ISOMORPHISM = MAPS + "isomorphism P\n  morphism f\n  order 1\n"

# (text, line, column, message) for every ProblemFileError that parse
# raises, at least one row per raise site, each message in full
ERRORS = [
    # the field line
    ("", 1, 1, "empty problem file: missing field line"),
    ("# nothing but a comment\n\n", 1, 1,
     "empty problem file: missing field line"),
    ("algebra R\n  dim 1\nend\n", 1, 1, "the first directive must be 'field'"),
    ("field\n", 1, 6, "expected field descriptor"),
    ("field Q Q\n", 1, 9, "unexpected trailing token 'Q'"),
    ("field Fp:6\n", 1, 7, "modulus 6 is not prime"),
    ("field Fp:²\n", 1, 7, "bad prime field descriptor: 'Fp:²'"),
    # an integer is an optional sign and then ASCII digits, nothing else
    ("field Fp:\u0667\n", 1, 7, "bad prime field descriptor: 'Fp:\u0667'"),
    ("field Fp:1_1\n", 1, 7, "bad prime field descriptor: 'Fp:1_1'"),
    ("field Q\nfield Q\n", 2, 1, "duplicate field declaration"),
    # section headers
    ("field Q\nwidget W\nend\n", 2, 1, "unknown directive 'widget'"),
    ("field Q\nalgebra\nend\n", 2, 8, "expected algebra name"),
    ("field Q\nalgebra 1R\nend\n", 2, 9, "bad name '1R'"),
    ("field Q\nalgebra R S\nend\n", 2, 11, "unexpected trailing token 'S'"),
    (ONE, 2, 1, "algebra 'R' is never closed by 'end'"),
    # a line whose first word is `end` closes the section
    (ONE + "end extra\n", 4, 5, "unexpected trailing token 'extra'"),
    (ONE + "end\nalgebra R\n  dim 1\nend\n", 5, 9, "duplicate algebra 'R'"),
    # algebra
    ("field Q\nalgebra R\nend\n", 2, 1, "algebra 'R' has no dim"),
    ("field Q\nalgebra R\n  dim\nend\n", 3, 6, "expected dimension"),
    ("field Q\nalgebra R\n  dim two\nend\n", 3, 7,
     "expected dimension, got 'two'"),
    ("field Q\nalgebra R\n  dim 1_0\nend\n", 3, 7,
     "expected dimension, got '1_0'"),
    ("field Q\nalgebra R\n  dim \u0662\nend\n", 3, 7,
     "expected dimension, got '\u0662'"),
    ("field Q\nalgebra R\n  dim -1\nend\n", 3, 7,
     "dimension must be nonnegative"),
    ("field Q\nalgebra R\n  dim 1 2\nend\n", 3, 9,
     "unexpected trailing token '2'"),
    (ONE + "  dim 1\nend\n", 4, 3, "duplicate dim"),
    ("field Q\nalgebra R\n  gamma 1 1 1 = 1\nend\n", 3, 3,
     "dim must precede gamma entries"),
    (ONE + "  gamma 1 1 2 = 1\nend\n", 4, 13,
     "output index 2 out of range 1..1"),
    (ONE + "  gamma 0 1 1 = 1\nend\n", 4, 9,
     "first index 0 out of range 1..1"),
    (ONE + "  gamma 1 1\nend\n", 4, 12, "expected output index"),
    (ONE + "  gamma 1 1 1\nend\n", 4, 14, "expected '='"),
    (ONE + "  gamma 1 1 1 : 1\nend\n", 4, 15, "expected '=', got ':'"),
    (ONE + "  gamma 1 1 1 =\nend\n", 4, 16, "expected scalar"),
    (ONE + "  gamma 1 1 1 = x\nend\n", 4, 17, "bad rational literal: 'x'"),
    (ONE + "  gamma \u0661 1 1 = 1\nend\n", 4, 9,
     "expected first index, got '\u0661'"),
    (ONE + "  gamma 1 1 1 = \u0663/\u0662\nend\n", 4, 17,
     "bad rational literal: '\u0663/\u0662'"),
    (ONE + "  gamma 1 1 1 = 1/2_0\nend\n", 4, 17,
     "bad rational literal: '1/2_0'"),
    (ONE.replace("Q", "Fp:5") + "  gamma 1 1 1 = 1/5\nend\n", 4, 17,
     "denominator of 1/5 is divisible by 5"),
    # a zero denominator over either field, once a traceback over F_p
    (ONE + "  gamma 1 1 1 = 1/0\nend\n", 4, 17, "zero denominator: '1/0'"),
    (ONE.replace("Q", "Fp:5") + "  gamma 1 1 1 = -3/0\nend\n", 4, 17,
     "zero denominator: '-3/0'"),
    (ONE.replace("Q", "Fp:5") + "  gamma 1 1 1 = x\nend\n", 4, 17,
     "bad field literal: 'x'"),
    (ONE + "  gamma 1 1 1 = 1 junk\nend\n", 4, 19,
     "unexpected trailing token 'junk'"),
    (ONE + "  gamma 1 1 1 = 1\n  gamma 1 1 1 = 2\nend\n", 5, 3,
     "duplicate gamma entry"),
    (ONE + "  widget\nend\n", 4, 3, "unknown algebra directive 'widget'"),
    # a tab or a no-break space before the word counts as one column
    (ONE + "\tgamma 1 1 2 = 1\nend\n", 4, 12,
     "output index 2 out of range 1..1"),
    (ONE + "\tgamma\t1\t1\t1 =\u00a01 junk\nend\n", 4, 18,
     "unexpected trailing token 'junk'"),
    (ONE + "  gamma\u00a01 1 1 = x\nend\n", 4, 17,
     "bad rational literal: 'x'"),
    (ONE + "\u00a0\u00a0gamma 1 1\nend\n", 4, 12, "expected output index"),
    ("field Q\nalgebra\u00a0R\u00a0S\nend\n", 2, 11,
     "unexpected trailing token 'S'"),
    # morphism
    (ALG + "morphism f\nend\n", 5, 1, "morphism 'f' needs source and target"),
    (ALG + "morphism f\n  source R\nend\n", 5, 1,
     "morphism 'f' needs source and target"),
    (ALG + "morphism f\n  source X\nend\n", 6, 10, "unknown algebra 'X'"),
    (ALG + "morphism f\n  source 1R\nend\n", 6, 10, "bad name '1R'"),
    (ALG + "morphism f\n  source\nend\n", 6, 9, "expected source"),
    (ALG + "morphism f\n  source R R\nend\n", 6, 12,
     "unexpected trailing token 'R'"),
    (ALG + "morphism f\n  source R\n  source R\nend\n", 7, 3,
     "duplicate source"),
    (ALG + "morphism f\n  source R\n  source 1R\nend\n", 7, 3,
     "duplicate source"),
    (ALG + "morphism f\n  target R\n  target R\nend\n", 7, 3,
     "duplicate target"),
    (ALG + "morphism f\n  source R\n  entry 1 1 = 1\nend\n", 7, 3,
     "source and target must precede entries"),
    (ALG + "morphism f\n  source R\n  target R\n  entry 3 1 = 1\nend\n", 8, 9,
     "target index 3 out of range 1..2"),
    (ALG + "morphism f\n  source R\n  target R\n  entry 1 3 = 1\nend\n", 8, 11,
     "source index 3 out of range 1..2"),
    (ALG + "morphism f\n  source R\n  target R\n  entry 1 1 = 1\n"
     "  entry 1 1 = 0\nend\n", 9, 3, "duplicate entry"),
    (ALG + "morphism f\n  source R\n  target R\n  matrix\nend\n", 8, 3,
     "unknown morphism directive 'matrix'"),
    # cochain
    (MAPS + "cochain c\nend\n", 16, 1, "cochain 'c' needs morphism and degree"),
    (COCHAIN + "end\n", 16, 1, "cochain 'c' needs morphism and degree"),
    (MAPS + "cochain c\n  morphism h\nend\n", 17, 12, "unknown morphism 'h'"),
    (MAPS + "cochain c\n  degree 5\nend\n", 17, 10,
     "degree must be within 1..4"),
    (MAPS + "cochain c\n  degree 0\nend\n", 17, 10,
     "degree must be within 1..4"),
    (COCHAIN + "  R 1 1 1 = 1\nend\n", 18, 3,
     "morphism and degree must precede entries"),
    (COCHAIN + "  degree 1\n  f 1 = 1\nend\n", 19, 3,
     "degree-1 cochains have no third component"),
    (COCHAIN + "  degree 2\n  R 1 3 1 = 1\nend\n", 19, 7,
     "input index 2 3 out of range 1..2"),
    (COCHAIN + "  degree 2\n  S 1 1 3 = 1\nend\n", 19, 9,
     "output index 3 out of range 1..2"),
    (COCHAIN + "  degree 2\n  f 1 1\nend\n", 19, 8, "expected '='"),
    (COCHAIN + "  degree 2\n  f 1 1 = 1\n  f 1 1 = 2\nend\n", 20, 3,
     "duplicate entry"),
    (COCHAIN + "  degree 2\n  T 1 1 1 = 1\nend\n", 19, 3,
     "unknown cochain directive 'T'"),
    # deformation
    (MAPS + "deformation D\nend\n", 16, 1,
     "deformation 'D' needs morphism and order"),
    (MAPS + "deformation D\n  morphism f\nend\n", 16, 1,
     "deformation 'D' needs morphism and order"),
    (MAPS + "deformation D\n  order -1\nend\n", 17, 9,
     "order must be nonnegative"),
    (MAPS + "deformation D\n  order x\nend\n", 17, 9,
     "expected order, got 'x'"),
    (MAPS + "deformation D\n  morphism f\n  term 1 R 1 1 1 = 1\nend\n", 18, 3,
     "morphism and order must precede term entries"),
    (DEFORMATION + "  term\nend\n", 19, 7, "expected term order"),
    (DEFORMATION + "  term x\nend\n", 19, 8, "expected term order, got 'x'"),
    (DEFORMATION + "  term 1_0 R 1 1 1 = 1\nend\n", 19, 8,
     "expected term order, got '1_0'"),
    (DEFORMATION + "  term 3 R 1 1 1 = 1\nend\n", 19, 8,
     "term order 3 outside 1..2"),
    (DEFORMATION + "  term 0 R 1 1 1 = 1\nend\n", 19, 8,
     "term order 0 outside 1..2"),
    (DEFORMATION + "  term 1\nend\n", 19, 9, "expected component"),
    (DEFORMATION + "  term 1 T 1 1 1 = 1\nend\n", 19, 10,
     "component must be one of R/S/f"),
    (DEFORMATION + "  term 1 R 1 3 1 = 1\nend\n", 19, 14,
     "input index 2 3 out of range 1..2"),
    (DEFORMATION + "  term 1 f 1 3 = 1\nend\n", 19, 14,
     "output index 3 out of range 1..2"),
    (DEFORMATION + "  term 1 S 1 1 1 = 1\n  term 1 S 1 1 1 = 1\nend\n", 20, 3,
     "duplicate entry"),
    (DEFORMATION + "  degree 2\nend\n", 19, 3,
     "unknown deformation directive 'degree'"),
    # isomorphism
    (MAPS + "isomorphism P\n  order 1\nend\n", 16, 1,
     "isomorphism 'P' needs morphism and order"),
    (ISOMORPHISM + "  order 1 y\nend\n", 19, 3, "duplicate order"),
    (ISOMORPHISM + "  term 1 f 1 1 = 1\nend\n", 19, 10,
     "component must be one of R/S"),
    (ISOMORPHISM + "  term 1 R 3 1 = 1\nend\n", 19, 12,
     "input index 3 out of range 1..2"),
    (ISOMORPHISM + "  term 1 S 1 3 = 1\nend\n", 19, 14,
     "output index 3 out of range 1..2"),
    (ISOMORPHISM + "  term 1 R 1 1 1 = 1\nend\n", 19, 16,
     "expected '=', got '1'"),
    (ISOMORPHISM + "  term 1 R 1 1 = 1\n  term 1 R 1 1 = 2\nend\n", 20, 3,
     "duplicate entry"),
    (ISOMORPHISM + "  widget\nend\n", 19, 3,
     "unknown isomorphism directive 'widget'"),
]

# a header repeated after entries that were read under its first value
REPEATED_HEADERS = [
    (COCHAIN + "  degree 2\n  R 2 2 2 = 1\n  morphism g\nend\n", 20, 3,
     "duplicate morphism"),
    (COCHAIN + "  degree 3\n  f 1 1 1 = 1\n  degree 1\nend\n", 20, 3,
     "duplicate degree"),
    (MAPS + "deformation D\n  morphism f\n  order 3\n  term 3 R 1 1 1 = 1\n"
     "  order 1\nend\n", 20, 3, "duplicate order"),
    (ISOMORPHISM + "  term 1 S 2 2 = 1\n  morphism g\nend\n", 20, 3,
     "duplicate morphism"),
]


def test_error_positions_and_messages():
    for text, line, column, message in ERRORS + REPEATED_HEADERS:
        with pytest.raises(ProblemFileError) as err:
            parse(text)
        assert (err.value.line, err.value.column, err.value.detail) == \
            (line, column, message), text
        assert str(err.value) == f"line {line}, column {column}: {message}"


def test_a_signed_integer_is_read():
    # the integer rule takes an optional sign before the ASCII digits
    problem = parse("field Fp:+7\nalgebra R\n  dim +1\n"
                    "  gamma +1 1 1 = +5\nend\n")
    assert problem.field == PrimeField(7)
    assert problem.algebras["R"].dim == 1
    assert problem.algebras["R"].entries == [(0, 0, 0, 5)]


def test_cochain_degree1_has_no_third_component():
    text = ("field Q\nalgebra R\n  dim 1\nend\n"
            "morphism f\n  source R\n  target R\nend\n"
            "cochain c\n  morphism f\n  degree 1\n  f 1 1 = 1\nend\n")
    with pytest.raises(ProblemFileError) as err:
        parse(text)
    assert "third component" in str(err.value)


def test_built_deformation_candidate_validates():
    problem = parse(FULL.replace("field Fp:5", "field Q"))
    f, terms, order = problem.deformation_candidate("D")
    assert order == 2 and len(terms) == 3
    # the declared series is not a valid deformation over Q; building the
    # candidate must not raise, validation happens downstream
    from zinbiel.deformation import DeformationError
    with pytest.raises(DeformationError):
        check_deformation(f, terms, order)


def test_built_isomorphism_has_identity_constant_term():
    problem = parse(FULL)
    iso = problem.build_isomorphism("Phi")
    assert iso.order == 1
    term = iso.terms[1]
    assert term.xi.coeffs[0][1].value == 3
    assert term.pi.coeffs[0][0].value == 2


def test_comments_and_blank_lines_ignored():
    text = "# header\nfield Q  # trailing\n\nalgebra R # name\n  dim 1\nend\n"
    problem = parse(text)
    assert problem.algebras["R"].dim == 1


# -- round trips of generated problems ------------------------------------

def _entries(cochain, component, prefix=()):
    """(prefix.., component, input tuple, output, scalar) per nonzero value."""
    return [prefix + (component, tup, b, c)
            for tup, row in zip(all_tuples(cochain.source.dim, cochain.arity),
                                cochain.coeffs)
            for b, c in enumerate(row) if c]


def _triple_entries(triple, prefix=()):
    out = _entries(triple.xi, "R", prefix) + _entries(triple.pi, "S", prefix)
    if triple.phi is not None:
        out += _entries(triple.phi, "f", prefix)
    return sorted(out, key=lambda e: e[:-1])


def _generated_problem(field, seed, order, dims):
    """A problem in the form parse gives back: a random morphism between
    algebras of the given dimensions, a cochain of a random degree, a random deformation and a
    random formal isomorphism of the given order, nonzero entries only,
    each list sorted as parse sorts it."""
    rng = random.Random(seed)
    f = random_morphism_instance(field, rng, dims=dims)
    theta = random_deformation(f, order, rng)
    iso = random_formal_isomorphism(f, order, rng)
    cochain = random_triple_cochain(f, rng.randint(1, MAX_ARITY), rng)

    def algebra(name, a):
        return AlgebraSpec(name, a.dim, [
            (i, j, k, c) for i, j in itertools.product(range(a.dim), repeat=2)
            for k, c in enumerate(a.gamma[i][j]) if c])

    iso_entries = sorted(
        ((k, comp, i, b, c) for k, t in enumerate(iso.terms[1:], start=1)
         for comp, one in (("R", t.xi), ("S", t.pi))
         for i, row in enumerate(one.coeffs) for b, c in enumerate(row) if c),
        key=lambda e: e[:-1])
    return Problem(
        field,
        algebras={"A": algebra("A", f.source), "B": algebra("B", f.target)},
        morphisms={"f": MorphismSpec("f", "A", "B", [
            (b, i, c) for b in range(f.target.dim)
            for i in range(f.source.dim)
            if (c := f.apply_basis(i)[b])])},
        cochains={"c": CochainSpec("c", "f", cochain.degree,
                                   _triple_entries(cochain))},
        deformations={"D": DeformationSpec("D", "f", order, sorted(
            (e for k, t in enumerate(theta.terms[1:], start=1)
             for e in _triple_entries(t, (k,))), key=lambda e: e[:-1]))},
        isomorphisms={"Phi": IsomorphismSpec("Phi", "f", order, iso_entries)})


problems = st.builds(
    _generated_problem,
    st.sampled_from([QQ, PrimeField(5), PrimeField(101)]),
    st.integers(0, 2 ** 32), st.integers(0, 3),
    st.tuples(st.integers(0, 2), st.integers(0, 2)))


@settings(max_examples=30, deadline=None)
@given(problems)
def test_generated_problems_round_trip(problem):
    assert parse(serialize(problem)) == problem


@settings(max_examples=30, deadline=None)
@given(problems)
def test_serialize_is_idempotent(problem):
    text = serialize(problem)
    assert serialize(parse(text)) == text
