"""Token-tuple problem-file parser: the reference for `zinbiel.problem_io.parse`.

This is the library's former parser, kept as an independent code path
and changed only where the language changed (the integer rule, and a
line whose first word is `end`): every logical line is tokenized by a
regular expression into (token, 1-based column) pairs up front, and
every error takes its column from the pair it names.  It shares the grammar tables (`_SECTIONS`,
`_COUNTS`, `_REFERENCES`) and the spec classes with the library, so the
two parse the same language; the library must give the same `Problem`,
or the same (line, column, detail) error, on every text.
"""

import re

from zinbiel.fields import Field, FieldError, field_from_spec
from zinbiel.problem_io import (_COUNTS, _NAME_RE, _REFERENCES, _SECTIONS,
                                _TOKEN_RE, Problem, ProblemFileError)

# an integer is an optional sign and then ASCII digits
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


class _Tokens:
    """Tokens of one logical line with their 1-based columns."""

    def __init__(self, lineno: int, text: str):
        self.lineno = lineno
        self.items = [(m.group(0), m.start() + 1)
                      for m in _TOKEN_RE.finditer(text)]
        self.pos = 0

    def take(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.items):
            col = self.items[-1][1] + len(self.items[-1][0]) if self.items else 1
            raise ProblemFileError(self.lineno, col, f"expected {what}")
        tok, col = self.items[self.pos]
        self.pos += 1
        return tok, col

    def take_int(self, what: str) -> tuple[int, int]:
        tok, col = self.take(what)
        if not _INTEGER_RE.fullmatch(tok):
            raise ProblemFileError(self.lineno, col,
                                   f"expected {what}, got {tok!r}")
        return int(tok), col

    def done(self) -> None:
        if self.pos < len(self.items):
            tok, col = self.items[self.pos]
            raise ProblemFileError(self.lineno, col,
                                   f"unexpected trailing token {tok!r}")

    def name(self, what: str) -> tuple[str, int]:
        tok, col = self.take(what)
        if not _NAME_RE.match(tok):
            raise ProblemFileError(self.lineno, col, f"bad name {tok!r}")
        return tok, col

    def index(self, bound: int, what: str) -> int:
        """A 1-based index within 1..bound, returned 0-based."""
        val, col = self.take_int(what)
        if not 1 <= val <= bound:
            raise ProblemFileError(self.lineno, col,
                                   f"{what} {val} out of range 1..{bound}")
        return val - 1

    def value(self, field: Field):
        """'= SCALAR' and the end of the line."""
        tok, col = self.take("'='")
        if tok != "=":
            raise ProblemFileError(self.lineno, col,
                                   f"expected '=', got {tok!r}")
        tok, col = self.take("scalar")
        try:
            c = field.parse(tok)
        except FieldError as e:
            raise ProblemFileError(self.lineno, col, str(e)) from None
        self.done()
        return c


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield _Tokens(lineno, body)


def parse(text: str, field_override: Field | None = None) -> Problem:
    """Parse a problem file.  Structural problems raise ProblemFileError."""
    lines = list(_logical_lines(text))
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
    problem = Problem(declared if field_override is None else field_override)

    idx = 1
    while idx < len(lines):
        header = lines[idx]
        idx += 1
        kind, col = header.take("directive")
        if kind == "field":
            raise ProblemFileError(header.lineno, col,
                                   "duplicate field declaration")
        if kind not in _SECTIONS:
            raise ProblemFileError(header.lineno, col,
                                   f"unknown directive {kind!r}")
        name, ncol = header.name(f"{kind} name")
        header.done()
        table = getattr(problem, kind + "s")
        if name in table:
            raise ProblemFileError(header.lineno, ncol,
                                   f"duplicate {kind} {name!r}")
        start = idx
        while idx < len(lines) and lines[idx].items[0][0] != "end":
            idx += 1
        if idx == len(lines):
            raise ProblemFileError(header.lineno, col,
                                   f"{kind} {name!r} is never closed by 'end'")
        table[name] = _section(problem, kind, name, header.lineno, col,
                               lines[start:idx])
        lines[idx].take("directive")
        lines[idx].done()
        idx += 1
    return problem


def _section(problem: Problem, kind: str, name: str, lineno: int, col: int,
             body: list):
    """The spec of one section: each header once, then its entries."""
    spec_cls, headers, keywords, called = _SECTIONS[kind]
    head = {}
    dims = None     # set once every header is read
    values = {}
    for line in body:
        tok, tcol = line.take("directive")
        if tok in headers:
            if tok in head:
                raise ProblemFileError(line.lineno, tcol, f"duplicate {tok}")
            head[tok] = _header(line, tok, problem)
            if len(head) == len(headers):
                dims = _dims(problem, head)
        elif tok in keywords:
            if dims is None:
                raise ProblemFileError(
                    line.lineno, tcol,
                    f"{' and '.join(headers)} must precede {called}")
            key = _entry(line, kind, tok, tcol, head, *dims)
            c = line.value(problem.field)
            if key in values:
                raise ProblemFileError(
                    line.lineno, tcol,
                    "duplicate gamma entry" if tok == "gamma"
                    else "duplicate entry")
            values[key] = c
        else:
            raise ProblemFileError(line.lineno, tcol,
                                   f"unknown {kind} directive {tok!r}")
    if dims is None:
        raise ProblemFileError(lineno, col, f"{kind} {name!r} " + (
            f"has no {headers[0]}" if len(headers) == 1
            else f"needs {' and '.join(headers)}"))
    entries = [key + (c,) for key, c in sorted(values.items()) if c]
    return spec_cls(name, *(head[h] for h in headers), entries)


def _header(line: _Tokens, directive: str, problem: Problem):
    """A count within its bounds, or the name of a section defined above."""
    if directive in _REFERENCES:
        kind = _REFERENCES[directive]
        ref, col = line.name(directive)
        line.done()
        if ref not in getattr(problem, kind + "s"):
            raise ProblemFileError(line.lineno, col, f"unknown {kind} {ref!r}")
        return ref
    what, least, most, message = _COUNTS[directive]
    n, col = line.take_int(what)
    if n < least or most is not None and n > most:
        raise ProblemFileError(line.lineno, col, message)
    line.done()
    return n


def _dims(problem: Problem, head: dict) -> tuple[int, int]:
    """Dimensions of R and S, the source and target the entries index."""
    if "dim" in head:
        return head["dim"], head["dim"]
    if "morphism" in head:   # a morphism's spec has its source and target
        head = vars(problem.morphisms[head["morphism"]])
    return (problem.algebras[head["source"]].dim,
            problem.algebras[head["target"]].dim)


def _entry(line: _Tokens, kind: str, keyword: str, col: int, head: dict,
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
            raise ProblemFileError(line.lineno, col,
                                   "degree-1 cochains have no third component")
    else:
        k, kcol = line.take_int("term order")
        if not 1 <= k <= head["order"]:
            raise ProblemFileError(line.lineno, kcol,
                                   f"term order {k} outside 1..{head['order']}")
        component, ccol = line.take("component")
        allowed = ("R", "S", "f") if kind == "deformation" else ("R", "S")
        if component not in allowed:
            raise ProblemFileError(
                line.lineno, ccol,
                f"component must be one of {'/'.join(allowed)}")
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
