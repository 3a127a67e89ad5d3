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


def _assert_error(text, fragment, line=None):
    with pytest.raises(ProblemFileError) as err:
        parse(text)
    assert fragment in str(err.value)
    if line is not None:
        assert err.value.line == line


def test_error_positions_and_messages():
    _assert_error("", "missing field line")
    _assert_error("algebra R\n  dim 1\nend\n", "first directive", line=1)
    _assert_error("field Fp:6\n", "not prime", line=1)
    _assert_error("field Q\nwidget W\nend\n", "unknown directive", line=2)
    _assert_error("field Q\nalgebra R\n  dim 1\n", "never closed", line=2)
    _assert_error("field Q\nalgebra R\n  gamma 1 1 1 = 1\nend\n",
                  "dim must precede", line=3)
    _assert_error("field Q\nalgebra R\n  dim 1\n  gamma 1 1 2 = 1\nend\n",
                  "out of range", line=4)
    _assert_error("field Q\nalgebra R\n  dim 1\n  gamma 1 1 1 = x\nend\n",
                  "bad rational literal", line=4)
    _assert_error(
        "field Q\nalgebra R\n  dim 1\n  gamma 1 1 1 = 1\n"
        "  gamma 1 1 1 = 2\nend\n", "duplicate gamma entry", line=5)
    _assert_error("field Q\nmorphism f\n  source R\nend\n",
                  "unknown algebra", line=3)
    _assert_error("field Q\nalgebra R\n  dim 1\nend\nalgebra R\n  dim 1\nend\n",
                  "duplicate algebra", line=5)
    _assert_error("field Q\nfield Q\n", "duplicate field", line=2)
    _assert_error("field Q\nalgebra R\n  dim 1\n  gamma 1 1 1 = 1 junk\nend\n",
                  "trailing token", line=4)


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
    pr, ps = iso.terms[1]
    assert pr.coeffs[0][1].value == 3
    assert ps.coeffs[0][0].value == 2


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
        ((k, comp, i, b, c) for k, pair in enumerate(iso.terms[1:], start=1)
         for comp, one in zip("RS", pair)
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
