"""Problem files: a line-oriented text format for algebras, morphisms,
cochains, deformations and formal isomorphisms.

Grammar (one directive per line, '#' starts a comment, indices 1-based):

    field Q                      | field Fp:<prime>

    algebra NAME
      dim D
      gamma I J K = SCALAR       # e_I * e_J has coefficient SCALAR on e_K
    end

    morphism NAME
      source ALGEBRA
      target ALGEBRA
      entry B I = SCALAR         # coefficient of target e_B in f(e_I)
    end

    cochain NAME                 # degree-n element of the complex of a morphism
      morphism NAME
      degree N                   # 1..4
      R I1 .. In B = SCALAR
      S I1 .. In B = SCALAR
      f I1 .. In-1 B = SCALAR    # rejected when degree = 1
    end

    deformation NAME
      morphism NAME
      order N
      term K R I J B = SCALAR    # K in 1..N; the constant term is implied
      term K S I J B = SCALAR
      term K f I B = SCALAR
    end

    isomorphism NAME
      morphism NAME
      order M
      term K R I B = SCALAR      # K in 1..M; term 0 is the identity pair
      term K S I B = SCALAR

    end

Scalars are exact literals: 'a/b' or integers over Q, integers mod p over
Fp:<p> (fractions with invertible denominators are accepted there too).
Names must be defined before they are referenced.  Zero-valued entries are
dropped, duplicate entries and unknown directives are errors, all with
line/column positions.  serialize() is the exact inverse of parse() on
the parsed representation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .algebra import AlgebraMorphism, ZinbielAlgebra
from .cochains import MAX_ARITY, Cochain
from .deformation import FormalIsomorphism, theta_zero
from .fields import Field, FieldError, field_from_spec
from .morphism_complex import TripleCochain

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ProblemFileError(ValueError):
    """Syntax or semantic error in a problem file, with position info."""

    def __init__(self, line: int, column: int, message: str):
        prefix = f"line {line}, column {column}: " if line else ""
        super().__init__(prefix + message)
        self.line = line
        self.column = column
        self.detail = message


@dataclass
class AlgebraSpec:
    name: str
    dim: int
    entries: list = dc_field(default_factory=list)  # (i, j, k, scalar), 0-based


@dataclass
class MorphismSpec:
    name: str
    source: str
    target: str
    entries: list = dc_field(default_factory=list)  # (b, i, scalar)


@dataclass
class CochainSpec:
    name: str
    morphism: str
    degree: int
    entries: list = dc_field(default_factory=list)  # (component, indices, b, scalar)


@dataclass
class DeformationSpec:
    name: str
    morphism: str
    order: int
    entries: list = dc_field(default_factory=list)  # (k, component, indices, b, scalar)


@dataclass
class IsomorphismSpec:
    name: str
    morphism: str
    order: int
    entries: list = dc_field(default_factory=list)  # (k, component, i, b, scalar)


@dataclass
class Problem:
    """Parsed problem file: raw specs plus lazy validated builders.

    Structural errors (shape, bounds, references) are caught at parse
    time; mathematical validation happens in the build_* methods so the
    command layer can map the two failure kinds to distinct exit codes.
    """
    field: Field
    algebras: dict = dc_field(default_factory=dict)
    morphisms: dict = dc_field(default_factory=dict)
    cochains: dict = dc_field(default_factory=dict)
    deformations: dict = dc_field(default_factory=dict)
    isomorphisms: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self._built_algebras = {}
        self._built_morphisms = {}

    def build_algebra(self, name: str) -> ZinbielAlgebra:
        if name not in self._built_algebras:
            spec = self.algebras[name]
            z = self.field.zero()
            gamma = [[[z] * spec.dim for _ in range(spec.dim)]
                     for _ in range(spec.dim)]
            for (i, j, k, c) in spec.entries:
                gamma[i][j][k] = c
            self._built_algebras[name] = ZinbielAlgebra(
                self.field, spec.dim, gamma)
        return self._built_algebras[name]

    def build_morphism(self, name: str) -> AlgebraMorphism:
        if name not in self._built_morphisms:
            spec = self.morphisms[name]
            src = self.build_algebra(spec.source)
            tgt = self.build_algebra(spec.target)
            z = self.field.zero()
            rows = [[z] * src.dim for _ in range(tgt.dim)]
            for (b, i, c) in spec.entries:
                rows[b][i] = c
            self._built_morphisms[name] = AlgebraMorphism(src, tgt, rows)
        return self._built_morphisms[name]

    def _triple_from_entries(self, f: AlgebraMorphism, degree: int,
                             entries) -> TripleCochain:
        r, s = f.source, f.target
        triple = TripleCochain.zero(f, degree)
        xi = [list(row) for row in triple.xi.coeffs]
        pi = [list(row) for row in triple.pi.coeffs]
        phi = None if triple.phi is None else \
            [list(row) for row in triple.phi.coeffs]
        for (component, indices, b, c) in entries:
            if component == "R":
                t = 0
                for i in indices:
                    t = t * r.dim + i
                xi[t][b] = c
            elif component == "S":
                t = 0
                for i in indices:
                    t = t * s.dim + i
                pi[t][b] = c
            else:
                t = 0
                for i in indices:
                    t = t * r.dim + i
                phi[t][b] = c
        xi_c = Cochain(r, r.regular_bimodule(), degree, xi)
        pi_c = Cochain(s, s.regular_bimodule(), degree, pi)
        phi_c = None if phi is None else \
            Cochain(r, f.as_bimodule(), degree - 1, phi)
        return TripleCochain(f, degree, xi_c, pi_c, phi_c)

    def build_cochain(self, name: str) -> TripleCochain:
        spec = self.cochains[name]
        f = self.build_morphism(spec.morphism)
        return self._triple_from_entries(f, spec.degree, spec.entries)

    def deformation_candidate(
            self, name: str
    ) -> tuple[AlgebraMorphism, list[TripleCochain], int]:
        """The declared series with its implied constant term, unvalidated."""
        spec = self.deformations[name]
        f = self.build_morphism(spec.morphism)
        by_order: dict[int, list] = {}
        for (k, component, indices, b, c) in spec.entries:
            by_order.setdefault(k, []).append((component, indices, b, c))
        terms = [theta_zero(f)]
        for k in range(1, spec.order + 1):
            terms.append(self._triple_from_entries(f, 2, by_order.get(k, [])))
        return f, terms, spec.order

    def build_isomorphism(self, name: str) -> FormalIsomorphism:
        spec = self.isomorphisms[name]
        f = self.build_morphism(spec.morphism)
        iso = FormalIsomorphism.identity(f, spec.order)
        r, s = f.source, f.target
        terms = [[Cochain.zero(r, r.regular_bimodule(), 1),
                  Cochain.zero(s, s.regular_bimodule(), 1)]
                 for _ in range(spec.order + 1)]
        for (k, component, i, b, c) in spec.entries:
            which = 0 if component == "R" else 1
            rows = [list(row) for row in terms[k][which].coeffs]
            rows[i][b] = c
            algebra = r if component == "R" else s
            terms[k][which] = Cochain(algebra, algebra.regular_bimodule(), 1,
                                      rows)
        full = [iso.terms[0]] + [tuple(t) for t in terms[1:]]
        return FormalIsomorphism(f, full)


_SECTIONS = ("algebra", "morphism", "cochain", "deformation", "isomorphism")


class _Tokens:
    """Tokens of one logical line with their 1-based columns."""

    def __init__(self, lineno: int, text: str):
        self.lineno = lineno
        self.items = [(m.group(0), m.start() + 1)
                      for m in re.finditer(r"\S+", text)]
        self.pos = 0

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def take(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.items):
            col = self.items[-1][1] + len(self.items[-1][0]) if self.items else 1
            raise ProblemFileError(self.lineno, col, f"expected {what}")
        tok, col = self.items[self.pos]
        self.pos += 1
        return tok, col

    def take_int(self, what: str) -> tuple[int, int]:
        tok, col = self.take(what)
        try:
            return int(tok), col
        except ValueError:
            raise ProblemFileError(self.lineno, col,
                                   f"expected {what}, got {tok!r}") from None

    def expect(self, literal: str) -> None:
        tok, col = self.take(repr(literal))
        if tok != literal:
            raise ProblemFileError(self.lineno, col,
                                   f"expected {literal!r}, got {tok!r}")

    def done(self) -> None:
        if self.pos < len(self.items):
            tok, col = self.items[self.pos]
            raise ProblemFileError(self.lineno, col,
                                   f"unexpected trailing token {tok!r}")

    def remaining(self) -> int:
        return len(self.items) - self.pos


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield _Tokens(lineno, body)


def parse(text: str, field_override: Field | None = None) -> Problem:
    """Parse a problem file.  Structural problems raise ProblemFileError."""
    lines = list(_logical_lines(text))
    field = field_override
    declared = None
    problem = None
    idx = 0

    # field line must come first so scalars can be parsed in one pass
    if not lines:
        raise ProblemFileError(1, 1, "empty problem file: missing field line")
    first = lines[0]
    tok, col = first.take("directive")
    if tok != "field":
        raise ProblemFileError(first.lineno, col,
                               "the first directive must be 'field'")
    spec_tok, spec_col = first.take("field descriptor")
    first.done()
    try:
        declared = field_from_spec(spec_tok)
    except FieldError as e:
        raise ProblemFileError(first.lineno, spec_col, str(e)) from None
    if field is None:
        field = declared
    problem = Problem(field)
    idx = 1

    def parse_scalar(tokens: _Tokens):
        tok, col = tokens.take("scalar")
        try:
            return field.parse(tok), col
        except FieldError as e:
            raise ProblemFileError(tokens.lineno, col, str(e)) from None

    def take_name(tokens: _Tokens, what: str) -> tuple[str, int]:
        tok, col = tokens.take(what)
        if not _NAME_RE.match(tok):
            raise ProblemFileError(tokens.lineno, col, f"bad name {tok!r}")
        return tok, col

    def take_index(tokens: _Tokens, bound: int, what: str) -> int:
        val, col = tokens.take_int(what)
        if not 1 <= val <= bound:
            raise ProblemFileError(
                tokens.lineno, col,
                f"{what} {val} out of range 1..{bound}")
        return val - 1

    def resolve(table: dict, name: str, kind: str, lineno: int,
                col: int) -> None:
        if name not in table:
            raise ProblemFileError(lineno, col,
                                   f"unknown {kind} {name!r}")

    while idx < len(lines):
        header = lines[idx]
        idx += 1
        tok, col = header.take("directive")
        if tok == "field":
            raise ProblemFileError(header.lineno, col,
                                   "duplicate field declaration")
        if tok not in _SECTIONS:
            raise ProblemFileError(header.lineno, col,
                                   f"unknown directive {tok!r}")
        name, ncol = take_name(header, f"{tok} name")
        header.done()
        table = getattr(problem, tok + "s")
        if name in table:
            raise ProblemFileError(header.lineno, ncol,
                                   f"duplicate {tok} {name!r}")

        body = []
        closed = False
        while idx < len(lines):
            line = lines[idx]
            idx += 1
            if line.peek() == "end" and line.remaining() == 1:
                closed = True
                break
            body.append(line)
        if not closed:
            raise ProblemFileError(header.lineno, col,
                                   f"{tok} {name!r} is never closed by 'end'")

        if tok == "algebra":
            table[name] = _parse_algebra(name, body, parse_scalar, take_index)
        elif tok == "morphism":
            table[name] = _parse_morphism(name, body, problem, parse_scalar,
                                          take_name, take_index, resolve)
        elif tok == "cochain":
            table[name] = _parse_cochain(name, body, problem, parse_scalar,
                                         take_name, take_index, resolve)
        elif tok == "deformation":
            table[name] = _parse_series(name, body, problem, parse_scalar,
                                        take_name, take_index, resolve,
                                        DeformationSpec, degree=2)
        else:
            table[name] = _parse_series(name, body, problem, parse_scalar,
                                        take_name, take_index, resolve,
                                        IsomorphismSpec, degree=1)
    return problem


def _parse_algebra(name, body, parse_scalar, take_index) -> AlgebraSpec:
    dim = None
    entries = []
    seen = set()
    for line in body:
        tok, col = line.take("directive")
        if tok == "dim":
            if dim is not None:
                raise ProblemFileError(line.lineno, col, "duplicate dim")
            dim, dcol = line.take_int("dimension")
            if dim < 0:
                raise ProblemFileError(line.lineno, dcol,
                                       "dimension must be nonnegative")
            line.done()
        elif tok == "gamma":
            if dim is None:
                raise ProblemFileError(line.lineno, col,
                                       "dim must precede gamma entries")
            i = take_index(line, dim, "first index")
            j = take_index(line, dim, "second index")
            k = take_index(line, dim, "output index")
            line.expect("=")
            c, _ = parse_scalar(line)
            line.done()
            if (i, j, k) in seen:
                raise ProblemFileError(line.lineno, col,
                                       "duplicate gamma entry")
            seen.add((i, j, k))
            if c:
                entries.append((i, j, k, c))
        else:
            raise ProblemFileError(line.lineno, col,
                                   f"unknown algebra directive {tok!r}")
    if dim is None:
        raise ProblemFileError(body[0].lineno if body else 1, 1,
                               f"algebra {name!r} has no dim")
    entries.sort(key=lambda e: e[:3])
    return AlgebraSpec(name, dim, entries)


def _parse_morphism(name, body, problem, parse_scalar, take_name, take_index,
                    resolve) -> MorphismSpec:
    source = target = None
    src_dim = tgt_dim = None
    entries = []
    seen = set()
    for line in body:
        tok, col = line.take("directive")
        if tok in ("source", "target"):
            ref, rcol = take_name(line, tok)
            line.done()
            resolve(problem.algebras, ref, "algebra", line.lineno, rcol)
            if tok == "source":
                if source is not None:
                    raise ProblemFileError(line.lineno, col, "duplicate source")
                source, src_dim = ref, problem.algebras[ref].dim
            else:
                if target is not None:
                    raise ProblemFileError(line.lineno, col, "duplicate target")
                target, tgt_dim = ref, problem.algebras[ref].dim
        elif tok == "entry":
            if source is None or target is None:
                raise ProblemFileError(
                    line.lineno, col, "source and target must precede entries")
            b = take_index(line, tgt_dim, "target index")
            i = take_index(line, src_dim, "source index")
            line.expect("=")
            c, _ = parse_scalar(line)
            line.done()
            if (b, i) in seen:
                raise ProblemFileError(line.lineno, col, "duplicate entry")
            seen.add((b, i))
            if c:
                entries.append((b, i, c))
        else:
            raise ProblemFileError(line.lineno, col,
                                   f"unknown morphism directive {tok!r}")
    if source is None or target is None:
        raise ProblemFileError(body[0].lineno if body else 1, 1,
                               f"morphism {name!r} needs source and target")
    entries.sort(key=lambda e: e[:2])
    return MorphismSpec(name, source, target, entries)


def _component_arity(component: str, degree: int) -> int:
    return degree if component in ("R", "S") else degree - 1


def _parse_component_entry(line, component, degree, src_dim, tgt_dim,
                           parse_scalar, take_index):
    arity = _component_arity(component, degree)
    dim_in = src_dim if component in ("R", "f") else tgt_dim
    dim_out = src_dim if component == "R" else tgt_dim
    indices = tuple(take_index(line, dim_in, f"input index {t + 1}")
                    for t in range(arity))
    b = take_index(line, dim_out, "output index")
    line.expect("=")
    c, _ = parse_scalar(line)
    line.done()
    return indices, b, c


def _parse_cochain(name, body, problem, parse_scalar, take_name, take_index,
                   resolve) -> CochainSpec:
    morphism = None
    degree = None
    src_dim = tgt_dim = None
    entries = []
    seen = set()
    for line in body:
        tok, col = line.take("directive")
        if tok == "morphism":
            ref, rcol = take_name(line, "morphism")
            line.done()
            resolve(problem.morphisms, ref, "morphism", line.lineno, rcol)
            morphism = ref
            mspec = problem.morphisms[ref]
            src_dim = problem.algebras[mspec.source].dim
            tgt_dim = problem.algebras[mspec.target].dim
        elif tok == "degree":
            degree, dcol = line.take_int("degree")
            if not 1 <= degree <= MAX_ARITY:
                raise ProblemFileError(
                    line.lineno, dcol, f"degree must be within 1..{MAX_ARITY}")
            line.done()
        elif tok in ("R", "S", "f"):
            if morphism is None or degree is None:
                raise ProblemFileError(
                    line.lineno, col,
                    "morphism and degree must precede entries")
            if tok == "f" and degree == 1:
                raise ProblemFileError(
                    line.lineno, col,
                    "degree-1 cochains have no third component")
            indices, b, c = _parse_component_entry(
                line, tok, degree, src_dim, tgt_dim, parse_scalar, take_index)
            if (tok, indices, b) in seen:
                raise ProblemFileError(line.lineno, col, "duplicate entry")
            seen.add((tok, indices, b))
            if c:
                entries.append((tok, indices, b, c))
        else:
            raise ProblemFileError(line.lineno, col,
                                   f"unknown cochain directive {tok!r}")
    if morphism is None or degree is None:
        raise ProblemFileError(body[0].lineno if body else 1, 1,
                               f"cochain {name!r} needs morphism and degree")
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return CochainSpec(name, morphism, degree, entries)


def _parse_series(name, body, problem, parse_scalar, take_name, take_index,
                  resolve, spec_cls, degree):
    morphism = None
    order = None
    src_dim = tgt_dim = None
    entries = []
    seen = set()
    for line in body:
        tok, col = line.take("directive")
        if tok == "morphism":
            ref, rcol = take_name(line, "morphism")
            line.done()
            resolve(problem.morphisms, ref, "morphism", line.lineno, rcol)
            morphism = ref
            mspec = problem.morphisms[ref]
            src_dim = problem.algebras[mspec.source].dim
            tgt_dim = problem.algebras[mspec.target].dim
        elif tok == "order":
            order, ocol = line.take_int("order")
            if order < 0:
                raise ProblemFileError(line.lineno, ocol,
                                       "order must be nonnegative")
            line.done()
        elif tok == "term":
            if morphism is None or order is None:
                raise ProblemFileError(
                    line.lineno, col,
                    "morphism and order must precede term entries")
            k, kcol = line.take_int("term order")
            if not 1 <= k <= order:
                raise ProblemFileError(line.lineno, kcol,
                                       f"term order {k} outside 1..{order}")
            comp, ccol = line.take("component")
            allowed = ("R", "S", "f") if spec_cls is DeformationSpec \
                else ("R", "S")
            if comp not in allowed:
                raise ProblemFileError(
                    line.lineno, ccol,
                    f"component must be one of {'/'.join(allowed)}")
            if spec_cls is DeformationSpec:
                indices, b, c = _parse_component_entry(
                    line, comp, degree, src_dim, tgt_dim, parse_scalar,
                    take_index)
                key = (k, comp, indices, b)
                entry = (k, comp, indices, b, c)
            else:
                dim = src_dim if comp == "R" else tgt_dim
                i = take_index(line, dim, "input index")
                b = take_index(line, dim, "output index")
                line.expect("=")
                c, _ = parse_scalar(line)
                line.done()
                key = (k, comp, i, b)
                entry = (k, comp, i, b, c)
            if key in seen:
                raise ProblemFileError(line.lineno, col, "duplicate entry")
            seen.add(key)
            if c:
                entries.append(entry)
        else:
            raise ProblemFileError(
                line.lineno, col,
                f"unknown {spec_cls.__name__.lower()} directive {tok!r}")
    if morphism is None or order is None:
        raise ProblemFileError(body[0].lineno if body else 1, 1,
                               f"{name!r} needs morphism and order")
    entries.sort(key=lambda e: e[:-1])
    return spec_cls(name, morphism, order, entries)


def serialize(problem: Problem) -> str:
    """Render a Problem back to text; parse(serialize(p)) == p."""
    field = problem.field
    out = [f"field {field.spec()}", ""]

    def scalar(c):
        return field.format(c)

    for spec in problem.algebras.values():
        out.append(f"algebra {spec.name}")
        out.append(f"  dim {spec.dim}")
        for (i, j, k, c) in spec.entries:
            out.append(f"  gamma {i + 1} {j + 1} {k + 1} = {scalar(c)}")
        out.append("end")
        out.append("")
    for spec in problem.morphisms.values():
        out.append(f"morphism {spec.name}")
        out.append(f"  source {spec.source}")
        out.append(f"  target {spec.target}")
        for (b, i, c) in spec.entries:
            out.append(f"  entry {b + 1} {i + 1} = {scalar(c)}")
        out.append("end")
        out.append("")
    for spec in problem.cochains.values():
        out.append(f"cochain {spec.name}")
        out.append(f"  morphism {spec.morphism}")
        out.append(f"  degree {spec.degree}")
        for (comp, indices, b, c) in spec.entries:
            idx = " ".join(str(i + 1) for i in indices)
            sep = " " if idx else ""
            out.append(f"  {comp} {idx}{sep}{b + 1} = {scalar(c)}")
        out.append("end")
        out.append("")
    for spec in problem.deformations.values():
        out.append(f"deformation {spec.name}")
        out.append(f"  morphism {spec.morphism}")
        out.append(f"  order {spec.order}")
        for (k, comp, indices, b, c) in spec.entries:
            idx = " ".join(str(i + 1) for i in indices)
            sep = " " if idx else ""
            out.append(f"  term {k} {comp} {idx}{sep}{b + 1} = {scalar(c)}")
        out.append("end")
        out.append("")
    for spec in problem.isomorphisms.values():
        out.append(f"isomorphism {spec.name}")
        out.append(f"  morphism {spec.morphism}")
        out.append(f"  order {spec.order}")
        for (k, comp, i, b, c) in spec.entries:
            out.append(f"  term {k} {comp} {i + 1} {b + 1} = {scalar(c)}")
        out.append("end")
        out.append("")
    return "\n".join(out)
