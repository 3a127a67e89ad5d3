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
Every integer (count, index, term order, the p of Fp:<p>, each part of a
scalar) is an optional sign, then ASCII digits (`fields.integer`).  A
line whose first word is 'end' closes its section; a word after it is
an error.
Names must be defined before they are referenced.  Each header directive
(dim; source, target; morphism, degree; morphism, order) appears exactly
once in its section, before the first entry.  Zero-valued entries are
dropped; duplicate entries, repeated headers and unknown directives are
errors, all with line/column positions.  One table, `_SECTIONS`, drives
both parse() and serialize(); serialize() is the exact inverse of parse()
on the parsed representation.

parse() reads each logical line as its words (`str.split`) and keeps no
columns: the 1-based column of a word is found, by running `_TOKEN_RE`
over that one line, only when an error names it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .algebra import AlgebraMorphism, ZinbielAlgebra
from .cochains import MAX_ARITY, Cochain, tuple_index
from .deformation import FormalIsomorphism, theta_zero
from .fields import Field, FieldError, field_from_spec, integer
from .morphism_complex import TripleCochain, _spaces

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"\S+")


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
    A Problem built by hand, not parsed, gets the same structural checks
    from the build_* methods, each as a one-line ValueError.
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

    def _spec(self, kind: str, name: str):
        """The named spec of a section kind, its headers checked as parse()
        checks them (`_refused`), so that a hand-built spec out of bounds
        or naming an undefined section gets a one-line ValueError."""
        spec = getattr(self, kind + "s")[name]
        for directive in _SECTIONS[kind][1]:
            fault = _refused(self, directive, getattr(spec, directive))
            if fault is not None:
                raise ValueError(f"{kind} {spec.name!r}: {fault}")
        return spec

    def build_algebra(self, name: str) -> ZinbielAlgebra:
        if name not in self._built_algebras:
            spec = self._spec("algebra", name)
            products = [(*_fit(entry, entry[:3], (spec.dim,) * 3), entry[3])
                        for entry in spec.entries]
            self._built_algebras[name] = ZinbielAlgebra._from_products(
                self.field, spec.dim, products)
        return self._built_algebras[name]

    def build_morphism(self, name: str) -> AlgebraMorphism:
        if name not in self._built_morphisms:
            spec = self._spec("morphism", name)
            src = self.build_algebra(spec.source)
            tgt = self.build_algebra(spec.target)
            z = self.field.zero()
            rows = [[z] * src.dim for _ in range(tgt.dim)]
            for entry in spec.entries:
                b, i = _fit(entry, entry[:2], (tgt.dim, src.dim))
                rows[b][i] = entry[2]
            self._built_morphisms[name] = AlgebraMorphism(src, tgt, rows)
        return self._built_morphisms[name]

    def _triple_from_entries(self, f: AlgebraMorphism, degree: int,
                             entries) -> TripleCochain:
        """The triple of entries ending (component, indices, b, scalar),
        each checked against its component of C^degree(f) (`_spaces`) and
        its value coerced into the field once, as a hand-built spec needs;
        the rows are then taken unchecked (`Cochain._of`)."""
        spaces = {name: space for name, *space in _spaces(f, degree)}
        z = self.field.zero()
        rows = {name: [[z] * module.dim for _ in range(source.dim ** arity)]
                for name, (source, module, arity) in spaces.items()}
        for entry in entries:
            component, indices, b, c = entry[-4:]
            if component not in spaces:
                raise ValueError(f"entry {entry!r}: C^{degree}(f) has no "
                                 f"component {component!r}")
            source, module, arity = spaces[component]
            _fit(entry, (*indices, b), (source.dim,) * arity + (module.dim,))
            rows[component][tuple_index(source.dim, indices)][b] = \
                self.field.coerce(c)
        return TripleCochain(f, degree, *(
            Cochain._of(*space, rows[name]) for name, space in spaces.items()))

    def build_cochain(self, name: str) -> TripleCochain:
        spec = self._spec("cochain", name)
        f = self.build_morphism(spec.morphism)
        return self._triple_from_entries(f, spec.degree, spec.entries)

    def _series_terms(self, f: AlgebraMorphism, degree: int, order: int,
                      entries) -> list[TripleCochain]:
        """Terms 1..order of a series: its entries (k, component, indices,
        b, scalar) grouped by k, each group a triple of the given degree."""
        by_order: dict[int, list] = {}
        for entry in entries:
            if not 1 <= entry[0] <= order:
                raise ValueError(f"entry {entry!r}: term outside 1..{order}")
            by_order.setdefault(entry[0], []).append(entry)
        return [self._triple_from_entries(f, degree, by_order.get(k, []))
                for k in range(1, order + 1)]

    def deformation_candidate(
            self, name: str
    ) -> tuple[AlgebraMorphism, list[TripleCochain], int]:
        """The declared series with its implied constant term, unvalidated."""
        spec = self._spec("deformation", name)
        f = self.build_morphism(spec.morphism)
        return f, [theta_zero(f)] + self._series_terms(
            f, 2, spec.order, spec.entries), spec.order

    def build_isomorphism(self, name: str) -> FormalIsomorphism:
        spec = self._spec("isomorphism", name)
        f = self.build_morphism(spec.morphism)
        # an isomorphism entry names its one input as an index, not a tuple
        entries = [(k, side, (i,), b, c) for k, side, i, b, c in spec.entries]
        return FormalIsomorphism(f, FormalIsomorphism.identity(f).terms
                                 + self._series_terms(f, 1, spec.order,
                                                      entries))


def _fit(entry: tuple, indices: tuple, dims: tuple) -> tuple:
    """The indices of a hand-built entry, one in 0..d-1 for each d of dims,
    or a ValueError naming the entry; a parsed file's are checked as read."""
    if len(indices) != len(dims) or not all(
            0 <= i < d for i, d in zip(indices, dims)):
        raise ValueError(f"entry {entry!r}: indices {indices} do not fit "
                         f"dimensions {dims}")
    return indices


# kind -> (spec class, header directives in the order of its fields, entry
# keywords, what its entries are called when one precedes the headers)
_SECTIONS = {
    "algebra": (AlgebraSpec, ("dim",), ("gamma",), "gamma entries"),
    "morphism": (MorphismSpec, ("source", "target"), ("entry",), "entries"),
    "cochain": (CochainSpec, ("morphism", "degree"), ("R", "S", "f"),
                "entries"),
    "deformation": (DeformationSpec, ("morphism", "order"), ("term",),
                    "term entries"),
    "isomorphism": (IsomorphismSpec, ("morphism", "order"), ("term",),
                    "term entries"),
}

# count header -> (what it counts, least, greatest or None, message outside)
_COUNTS = {
    "dim": ("dimension", 0, None, "dimension must be nonnegative"),
    "degree": ("degree", 1, MAX_ARITY,
               f"degree must be within 1..{MAX_ARITY}"),
    "order": ("order", 0, None, "order must be nonnegative"),
}

# reference header -> the kind of section it names
_REFERENCES = {"source": "algebra", "target": "algebra",
               "morphism": "morphism"}


class _Line:
    """One logical line: its first word, the directive, and the words after
    it, which the methods below read in order.  Columns are not kept:
    `error` finds the 1-based column of a word, on the line's text, only
    when an error names it."""

    __slots__ = ("lineno", "text", "words", "pos")

    def __init__(self, lineno: int, text: str, words: list):
        # words[0] is the directive; reading starts after it
        self.lineno, self.text, self.words, self.pos = lineno, text, words, 1

    def error(self, at: int, message: str) -> ProblemFileError:
        """The error at word `at` (0-based), or just past the last word
        when the line has no word `at` (a logical line has one at least)."""
        spans = [m.span() for m in _TOKEN_RE.finditer(self.text)]
        column = spans[at][0] + 1 if at < len(spans) else spans[-1][1] + 1
        return ProblemFileError(self.lineno, column, message)

    def take(self, what: str) -> str:
        pos = self.pos
        try:
            tok = self.words[pos]
        except IndexError:
            raise self.error(pos, f"expected {what}") from None
        self.pos = pos + 1
        return tok

    def take_int(self, what: str) -> int:
        tok = self.take(what)
        try:
            return integer(tok)
        except FieldError:
            raise self.error(self.pos - 1,
                             f"expected {what}, got {tok!r}") from None

    def done(self) -> None:
        if self.pos < len(self.words):
            raise self.error(self.pos, "unexpected trailing token "
                             f"{self.words[self.pos]!r}")

    def name(self, what: str) -> str:
        tok = self.take(what)
        if not _NAME_RE.match(tok):
            raise self.error(self.pos - 1, f"bad name {tok!r}")
        return tok

    def index(self, bound: int, what: str) -> int:
        """A 1-based index within 1..bound, returned 0-based."""
        val = self.take_int(what)
        if not 1 <= val <= bound:
            raise self.error(self.pos - 1,
                             f"{what} {val} out of range 1..{bound}")
        return val - 1

    def value(self, field: Field):
        """'= SCALAR' and the end of the line."""
        tok = self.take("'='")
        if tok != "=":
            raise self.error(self.pos - 1, f"expected '=', got {tok!r}")
        tok = self.take("scalar")
        try:
            c = field.parse(tok)
        except FieldError as e:
            raise self.error(self.pos - 1, str(e)) from None
        self.done()
        return c


def _logical_lines(text: str) -> list:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        words = body.split()
        if words:
            lines.append(_Line(lineno, body, words))
    return lines


def parse(text: str, field_override: Field | None = None) -> Problem:
    """Parse a problem file.  Structural problems raise ProblemFileError."""
    lines = _logical_lines(text)
    # field line must come first so scalars can be parsed in one pass
    if not lines:
        raise ProblemFileError(1, 1, "empty problem file: missing field line")
    first = lines[0]
    if first.words[0] != "field":
        raise first.error(0, "the first directive must be 'field'")
    spec = first.take("field descriptor")
    first.done()
    try:
        declared = field_from_spec(spec)
    except FieldError as e:
        raise first.error(1, str(e)) from None
    problem = Problem(declared if field_override is None else field_override)

    idx = 1
    while idx < len(lines):
        header = lines[idx]
        idx += 1
        kind = header.words[0]
        if kind == "field":
            raise header.error(0, "duplicate field declaration")
        if kind not in _SECTIONS:
            raise header.error(0, f"unknown directive {kind!r}")
        name = header.name(f"{kind} name")
        header.done()
        table = getattr(problem, kind + "s")
        if name in table:
            raise header.error(1, f"duplicate {kind} {name!r}")
        start = idx
        while idx < len(lines) and lines[idx].words[0] != "end":
            idx += 1
        if idx == len(lines):
            raise header.error(0, f"{kind} {name!r} is never closed by 'end'")
        table[name] = _section(problem, kind, name, header,
                               lines[start:idx])
        lines[idx].done()
        idx += 1
    return problem


def _section(problem: Problem, kind: str, name: str, header: _Line,
             body: list):
    """The spec of one section: each header once, then its entries."""
    spec_cls, headers, keywords, called = _SECTIONS[kind]
    head = {}
    dims = None     # set once every header is read
    values = {}
    for line in body:
        tok = line.words[0]
        if tok in keywords:
            if dims is None:
                raise line.error(
                    0, f"{' and '.join(headers)} must precede {called}")
            key = _entry(line, kind, tok, head, *dims)
            c = line.value(problem.field)
            if key in values:
                raise line.error(0, "duplicate gamma entry" if tok == "gamma"
                                 else "duplicate entry")
            values[key] = c
        elif tok in headers:
            if tok in head:
                raise line.error(0, f"duplicate {tok}")
            head[tok] = _header(line, tok, problem)
            if len(head) == len(headers):
                dims = _dims(problem, head)
        else:
            raise line.error(0, f"unknown {kind} directive {tok!r}")
    if dims is None:
        raise header.error(0, f"{kind} {name!r} " + (
            f"has no {headers[0]}" if len(headers) == 1
            else f"needs {' and '.join(headers)}"))
    entries = [key + (c,) for key, c in sorted(values.items()) if c]
    return spec_cls(name, *(head[h] for h in headers), entries)


def _header(line: _Line, directive: str, problem: Problem):
    """A count within its bounds, or the name of a section defined above;
    the value is the line's second word."""
    if directive in _REFERENCES:
        value = line.name(directive)
        line.done()     # a trailing word is named before an unknown name
    else:
        value = line.take_int(_COUNTS[directive][0])
    fault = _refused(problem, directive, value)
    if fault is not None:
        raise line.error(1, fault)
    line.done()
    return value


def _refused(problem: Problem, directive: str, value) -> str | None:
    """Why a header's value is refused: a count outside its bounds, or the
    name of a section the problem does not define; None when it is not."""
    if directive in _REFERENCES:
        kind = _REFERENCES[directive]
        return None if value in getattr(problem, kind + "s") \
            else f"unknown {kind} {value!r}"
    _, least, most, message = _COUNTS[directive]
    return message if value < least or most is not None and value > most \
        else None


def _dims(problem: Problem, head: dict) -> tuple[int, int]:
    """Dimensions of R and S, the source and target the entries index."""
    if "dim" in head:
        return head["dim"], head["dim"]
    if "morphism" in head:   # a morphism's spec has its source and target
        head = vars(problem.morphisms[head["morphism"]])
    return (problem.algebras[head["source"]].dim,
            problem.algebras[head["target"]].dim)


def _entry(line: _Line, kind: str, keyword: str, head: dict,
           r: int, s: int) -> tuple:
    """The slots of one entry line after its keyword, indices 0-based: the
    entry less its scalar."""
    if kind == "algebra":
        return tuple(line.index(r, f"{which} index")
                     for which in ("first", "second", "output"))
    if kind == "morphism":
        return line.index(s, "target index"), line.index(r, "source index")
    if kind == "cochain":
        key, component, degree = (), keyword, head["degree"]
        if component == "f" and degree == 1:
            raise line.error(0, "degree-1 cochains have no third component")
    else:
        k = line.take_int("term order")
        if not 1 <= k <= head["order"]:
            raise line.error(1, f"term order {k} outside 1..{head['order']}")
        component = line.take("component")
        allowed = ("R", "S", "f") if kind == "deformation" else ("R", "S")
        if component not in allowed:
            raise line.error(
                2, f"component must be one of {'/'.join(allowed)}")
        if kind == "isomorphism":
            dim = r if component == "R" else s
            return (k, component, line.index(dim, "input index"),
                    line.index(dim, "output index"))
        key, degree = (k,), 2
    arity = degree - 1 if component == "f" else degree
    inputs = tuple(line.index(s if component == "S" else r,
                              f"input index {t + 1}") for t in range(arity))
    return key + (component, inputs,
                  line.index(r if component == "R" else s, "output index"))


def serialize(problem: Problem) -> str:
    """Render a Problem back to text; parse(serialize(p)) == p."""
    field = problem.field
    out = [f"field {field.spec()}", ""]
    for kind, (_, headers, keywords, _) in _SECTIONS.items():
        # a cochain's keyword is its component, the first slot of an entry
        lead = "  " if len(keywords) > 1 else f"  {keywords[0]} "
        ordered = keywords == ("term",)
        for spec in getattr(problem, kind + "s").values():
            out.append(f"{kind} {spec.name}")
            out += [f"  {h} {getattr(spec, h)}" for h in headers]
            for entry in spec.entries:
                # the term order is written as it is, not as an index
                words = [str(entry[0]), *_words(entry[1:-1])] if ordered \
                    else _words(entry[:-1])
                out.append(lead + " ".join(words) +
                           f" = {field.format(entry[-1])}")
            out += ["end", ""]
    return "\n".join(out)


def _words(slots) -> list[str]:
    """The slots of an entry as written: names as they are, indices
    1-based."""
    words = []
    for slot in slots:
        if isinstance(slot, str):
            words.append(slot)
        elif isinstance(slot, int):
            words.append(str(slot + 1))
        else:
            words += [str(i + 1) for i in slot]
    return words
