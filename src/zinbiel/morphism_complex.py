"""The deformation complex of a fixed morphism f: R -> S.

Degree-n elements are triples (xi; pi; phi) with xi an n-cochain on R,
pi an n-cochain on S (both with regular coefficients) and phi an
(n-1)-cochain R -> S with coefficients in S viewed as an R-bimodule
through f.  The degree-0 corner of the phi column is the zero space, so
degree-1 triples are just pairs (xi; pi).  `_spaces(f, n)` is the one
list of these components, (name, source, module, arity) in the order of
`flatten`, and `TripleCochain.parts` the components a triple has in that
order: every builder, reader and writer of triples walks the two, here
and in `zinbiel.deformation`, `.sampling`, `.problem_io` and `.cli`.
The differential is

    d(xi; pi; phi) = (d xi; d pi; f.xi - pi.f - d phi)

with f.xi and pi.f the push-forwards along f.  The complex runs in the
degrees of the bimodule complex (`zinbiel.cochains`); triples of the top
degree exist as targets of the last differential.
`morphism_differential_matrix` pastes the nonzero int rows of the
assembled matrices of d on R, on S and on the phi column next to those
of the push-forwards, and `push_forward_left` and `push_forward_right`
apply the push-forward blocks.  Both push-forward matrices are assembled
as int rows from f's int columns, which the morphism's constructor reads
off the int rows of its matrix once and keeps (`AlgebraMorphism._f_ints`).
`TripleCochain` is an element of the protocol in `zinbiel.cochains` with
that matrix as its d^n, so
`differential` (here also named `morphism_differential`), `is_cocycle`
and `coboundary_preimage`, re-exported from this module, apply it and
solve against it.  The tuple-by-tuple differential, built from the tuple
formulas and the tuple push-forwards, is kept in the tests as the oracle.

Every triple is built by `TripleCochain(...)`, which checks each part's
source, module and arity against the objects the morphism holds; for
parts the library built these are the same objects, so each check is O(1).
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from math import lcm

from .algebra import AlgebraMorphism
from .cochains import (DEGREES, MAX_ARITY, Cochain, ComplexElement, _rows,
                       all_tuples, coboundary_preimage, cohomology_from,
                       differential, differential_matrix, is_cocycle)
from .linalg import Matrix, _dense


def morphism_cochain(f: AlgebraMorphism) -> Cochain:
    """The morphism itself as a 1-cochain R -> S (coefficients via f)."""
    return Cochain._of(f.source, f.as_bimodule(), 1,
                       _dense(f.source.field, f.target.dim, *f._f_ints))


def push_forward_left(f: AlgebraMorphism, xi: Cochain) -> Cochain:
    """Compose with f on the output: (f.xi)(x1..xn) = f(xi(x1..xn))."""
    if xi.source != f.source or xi.module != f.source.regular_bimodule():
        raise ValueError("cochain must map the source of f into itself")
    flat = _push_left_matrix(f, xi.arity).matvec(xi.flatten())
    return Cochain.from_flat(f.source, f.as_bimodule(), xi.arity, flat)


def push_forward_right(f: AlgebraMorphism, pi: Cochain) -> Cochain:
    """Precompose with f in every slot: (pi.f)(x1..xn) = pi(f x1, .., f xn)."""
    if pi.source != f.target or pi.module != f.target.regular_bimodule():
        raise ValueError("cochain must map the target of f into itself")
    flat = _push_right_matrix(f, pi.arity).matvec(pi.flatten())
    return Cochain.from_flat(f.source, f.as_bimodule(), pi.arity, flat)


class TripleCochain(ComplexElement):
    """Degree-n element (xi; pi; phi) of the deformation complex of f.

    For degree 1 the phi slot is structurally zero and stored as None.
    """

    __slots__ = ("morphism", "degree", "xi", "pi", "phi")

    def __init__(self, morphism: AlgebraMorphism, degree: int, xi: Cochain,
                 pi: Cochain, phi: Cochain | None = None):
        if not 1 <= degree <= MAX_ARITY:
            raise ValueError(f"degree {degree} outside 1..{MAX_ARITY}")
        r, s = morphism.source, morphism.target
        if xi.source != r or xi.module != r.regular_bimodule():
            raise ValueError(
                "first component must have regular coefficients on the source")
        if pi.source != s or pi.module != s.regular_bimodule():
            raise ValueError(
                "second component must have regular coefficients on the target")
        if xi.arity != degree or pi.arity != degree:
            raise ValueError(f"component arities must equal the degree {degree}")
        if degree == 1:
            if phi is not None and not phi.is_zero():
                raise ValueError("degree-1 triples have a zero third component")
            phi = None
        else:
            if phi is None:
                raise ValueError(f"degree-{degree} triple needs a third component")
            if phi.arity != degree - 1 or phi.source != r:
                raise ValueError("third component has the wrong shape")
            if phi.module != morphism.as_bimodule():
                raise ValueError(
                    "third component must take values in the target through f")
        self.morphism = morphism
        self.degree = degree
        self.xi = xi
        self.pi = pi
        self.phi = phi

    @property
    def field(self):
        return self.morphism.source.field

    def _space(self) -> tuple:
        return self.morphism, self.degree

    @property
    def parts(self) -> tuple:
        """The components the triple has, in the order of `_spaces`."""
        if self.phi is None:
            return self.xi, self.pi
        return self.xi, self.pi, self.phi

    def _rebuild(self, flat: list, degree: int) -> "TripleCochain":
        return TripleCochain(self.morphism, degree,
                             *_split(self.morphism, degree, flat))

    def _d_matrix(self, n: int) -> Matrix:
        return morphism_differential_matrix(self.morphism, n)

    @classmethod
    def zero(cls, morphism: AlgebraMorphism, degree: int) -> "TripleCochain":
        return cls(morphism, degree, *(
            Cochain.zero(source, module, arity)
            for _, source, module, arity in _spaces(morphism, degree)))

    def is_zero(self) -> bool:
        return all(part.is_zero() for part in self.parts)

    def flatten(self) -> list:
        return sum((part.flatten() for part in self.parts), [])

    @classmethod
    def from_flat(cls, morphism: AlgebraMorphism, degree: int,
                  flat: list) -> "TripleCochain":
        if len(flat) != triple_dim(morphism, degree):
            raise ValueError("flat vector has the wrong length")
        field = morphism.source.field
        return cls(morphism, degree, *_split(
            morphism, degree, [field.coerce(x) for x in flat]))

    def __eq__(self, other):
        if not isinstance(other, TripleCochain):
            return NotImplemented
        return (self.morphism == other.morphism
                and self.degree == other.degree and self.parts == other.parts)

    def __repr__(self):
        return f"TripleCochain(degree={self.degree})"


def _spaces(f: AlgebraMorphism, n: int) -> tuple:
    """The components of C^n(f), in the order of `TripleCochain.flatten`:
    (name, source, module, arity) for xi in C^n(R,R), pi in C^n(S,S) and,
    past degree 1, phi in C^(n-1)(R,S_f)."""
    r, s = f.source, f.target
    spaces = (("R", r, r.regular_bimodule(), n),
              ("S", s, s.regular_bimodule(), n))
    if n > 1:
        spaces += (("f", r, f.as_bimodule(), n - 1),)
    return spaces


def _split(f: AlgebraMorphism, degree: int, flat: list) -> list:
    """The parts cut from a flat vector of field values in the layout of
    `TripleCochain.flatten`, built unchecked (`Cochain._of`)."""
    parts, start = [], 0
    for _, source, module, arity in _spaces(f, degree):
        nrows = source.dim ** arity
        parts.append(Cochain._of(source, module, arity,
                                 _rows(flat, nrows, module.dim, start)))
        start += nrows * module.dim
    return parts


def triple_dim(f: AlgebraMorphism, n: int) -> int:
    """Dimension of the degree-n piece of the deformation complex of f."""
    return sum(source.dim ** arity * module.dim
               for _, source, module, arity in _spaces(f, n))


# the one differential of both complexes, under its deformation-complex name
morphism_differential = differential


def _push_left_matrix(f: AlgebraMorphism, n: int) -> Matrix:
    r, s = f.source, f.target
    cols, den = f._f_ints
    ntup = r.dim ** n
    rows = defaultdict(dict)
    for a, col in enumerate(cols):
        for b, v in col:
            for t in range(ntup):
                rows[t * s.dim + b][t * r.dim + a] = v
    return Matrix._assembled(r.field, ntup * s.dim, ntup * r.dim, rows, den)


def _push_right_matrix(f: AlgebraMorphism, n: int) -> Matrix:
    """Its entries are products of n entries of f, so over den^n."""
    r, s = f.source, f.target
    cols, den = f._f_ints
    rows = defaultdict(functools.partial(defaultdict, int))
    for t, tup in enumerate(all_tuples(r.dim, n)):
        for combo in itertools.product(*(cols[i] for i in tup)):
            coef = 1
            jt = 0
            for j, v in combo:
                jt = jt * s.dim + j
                coef *= v
            for b in range(s.dim):
                rows[t * s.dim + b][jt * s.dim + b] += coef
    return Matrix._assembled(r.field, r.dim ** n * s.dim, s.dim ** n * s.dim,
                             rows, den ** n)


def morphism_differential_matrix(f: AlgebraMorphism, n: int) -> Matrix:
    """Matrix of the degree-n differential of the deformation complex,
    under the flattening xi-block, pi-block, phi-block.

    Its rows are the rows of d^n on R, then those of d^n on S, shifted to
    the pi columns, then the phi rows f.xi - pi.f - d phi.  The first two
    are its diagonal `_blocks`, kept as assembled, so that its elimination
    starts from their pivot rows and reduces only the phi rows (see
    `zinbiel.linalg`); when S is R both are the same matrix.  The phi
    rows are its own int rows: the int rows of the push-left, push-right
    and d^(n-1) blocks, which occupy disjoint columns, each rescaled to
    the least common multiple of their denominators."""
    if n not in DEGREES:
        raise ValueError(f"no differential out of degree {n}")
    r, s = f.source, f.target
    d_r = differential_matrix(r, r.regular_bimodule(), n)
    d_s = d_r if s is r else differential_matrix(s, s.regular_bimodule(), n)
    col_xi, col_pi = d_r.ncols, d_s.ncols
    parts = [(_push_left_matrix(f, n), 0, 1),
             (_push_right_matrix(f, n), col_xi, -1)]
    if n > 1:
        parts.append((differential_matrix(r, f.as_bimodule(), n - 1),
                      col_xi + col_pi, -1))
    den = lcm(*(part._den for part, _, _ in parts))
    phi = defaultdict(dict)
    for part, col0, sign in parts:
        scale = sign * (den // part._den)
        for i, prow in part._ints.items():
            phi[i].update((col0 + j, scale * v) for j, v in prow.items())
    return Matrix._assembled(r.field, r.dim ** n * s.dim, triple_dim(f, n),
                             phi, den, ((0, d_r), (col_xi, d_s)))


def morphism_cohomology_dim(f: AlgebraMorphism, n: int) -> int:
    """dim ker(d^n) - rank(d^{n-1}) in the deformation complex, for n in
    COHOMOLOGY_DEGREES.  The ranks of d^n on R and on S come with the
    elimination of d^n and are kept for their own complexes too."""
    r, s = f.source, f.target
    return cohomology_from(
        n, triple_dim(f, n), f._ranks,
        functools.partial(morphism_differential_matrix, f),
        (r.regular_bimodule()._ranks, s.regular_bimodule()._ranks))
