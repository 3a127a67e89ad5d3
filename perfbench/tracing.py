"""Spans and counts at the library's layer boundaries, taken from outside.

`Tracer.install` wraps each layer's public functions under every module
name through which other modules (and the benchmark) call them, and
`Tracer.uninstall` puts the originals back.  A span records its name,
start, end, parent span and task id; spans stay in memory until the run
ends.  The wrappers also read sizes, ranks and bit lengths off the
arguments and results.  The time spent on that bookkeeping is measured
and subtracted from every enclosing span, so self times are not charged
with it; it still counts towards the reported tracing overhead.

A wrapped name that a later version of the library no longer has is
listed in `absent`, and the metrics derived from it are left out.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (layer, span name, module, attribute)
WRAPPED = (
    ("assembly", "assembly.differential_matrix",
     "zinbiel.cochains", "differential_matrix"),
    ("assembly", "assembly.morphism_differential_matrix",
     "zinbiel.morphism_complex", "morphism_differential_matrix"),
    ("linalg", "linalg.rank", "zinbiel.linalg", "rank_nullspace"),
    ("linalg", "linalg.solve", "zinbiel.linalg", "solve"),
    ("linalg", "linalg.inverse", "zinbiel.linalg", "inverse"),
    ("deformation", "deformation.validate",
     "zinbiel.deformation", "deformation_violations"),
    ("deformation", "deformation.obstruction",
     "zinbiel.deformation", "obstruction"),
    ("deformation", "deformation.conjugate",
     "zinbiel.deformation", "conjugate"),
    ("deformation", "deformation.extend",
     "zinbiel.deformation", "extend_from_cocycle"),
    ("problem_io", "problem_io.parse", "zinbiel.problem_io", "parse"),
    ("problem_io", "problem_io.serialize", "zinbiel.problem_io", "serialize"),
    ("cli", "cli.main", "zinbiel.cli", "main"),
)
LAYER_OF = {name: layer for layer, name, _, _ in WRAPPED}
ROOT = "task"


def _bits(vectors) -> int:
    """Largest numerator or denominator bit length among Q scalars."""
    best = 0
    for v in vectors:
        for x in v:
            if type(x) is Fraction and x:
                best = max(best, x.numerator.bit_length(),
                           x.denominator.bit_length())
    return best


def _matrix_shape(m):
    """(cells, nnz) of a matrix with dense list rows or sparse dict rows."""
    rows = getattr(m, "rows", None)
    if rows is None:
        return None
    cells = m.nrows * m.ncols
    nnz = sum(len(r) if isinstance(r, dict) else sum(1 for x in r if x)
              for r in rows)
    return cells, nnz


def _matrix_key(m):
    rows = getattr(m, "rows", None)
    if rows is None:
        return id(m)
    return hash((str(getattr(m, "field", "")), m.nrows, m.ncols,
                 tuple(tuple(sorted(r.items())) if isinstance(r, dict)
                       else tuple(r) for r in rows)))


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, bookkeeping, parent, task]
        self.counts = defaultdict(Counter)
        self.absent = []
        self.bookkeeping = 0.0
        self.active = False
        self._stack = []
        self._task = None
        self._executions = 0
        self._eliminated = defaultdict(set)   # task execution -> matrix keys
        self._patched = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        zinbiel = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zinbiel"
                                         or n.startswith("zinbiel."))]
        for _, name, module, attr in WRAPPED:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in zinbiel:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append([name, 0.0, 0.0, 0.0, parent, tracer._task])
            tracer._stack.append(index)
            start = perf_counter()
            tracer.bookkeeping += start - t_in
            span = tracer.spans[index]
            span[1], span[3] = start, tracer.bookkeeping
            returned, outcome = False, None
            try:
                outcome = fn(*args, **kwargs)
                returned = True
                return outcome
            except SystemExit as e:
                returned, outcome = True, e
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                span[2] = end
                span[3] = tracer.bookkeeping - span[3]
                tracer.counts[name]["calls"] += 1
                if returned and observe is not None:
                    observe(tracer, args, outcome)
                tracer.bookkeeping += perf_counter() - end
        return wrapper

    # -- recording ----------------------------------------------------------

    def begin_task(self, task_id: str) -> None:
        self._task = task_id
        self._executions += 1
        self.spans.append([ROOT, 0.0, 0.0, self.bookkeeping, None, task_id])
        self._stack.append(len(self.spans) - 1)
        self.active = True
        self.spans[-1][1] = perf_counter()

    def end_task(self) -> None:
        end = perf_counter()
        self.active = False
        span = self.spans[self._stack.pop()]
        span[2] = end
        span[3] = self.bookkeeping - span[3]

    def eliminated(self, m) -> None:
        self._eliminated[self._executions].add(_matrix_key(m))

    # -- reporting ----------------------------------------------------------

    def times(self, key) -> tuple[Counter, Counter]:
        """Busy and self seconds per group of spans, bookkeeping removed.

        key(span name) names the group.  Busy time counts a span only when
        no enclosing span is in the same group, so nested calls are not
        counted twice; self time is a span's duration minus that of its
        child spans.
        """
        eff = [s[2] - s[1] - s[3] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[4] is not None:
                child[s[4]] += eff[i]
        busy, own = Counter(), Counter()
        for i, s in enumerate(self.spans):
            group = key(s[0])
            own[group] += eff[i] - child[i]
            p = s[4]
            while p is not None and key(self.spans[p][0]) != group:
                p = self.spans[p][4]
            if p is None:
                busy[group] += eff[i]
        return busy, own

    def task_times(self) -> Counter:
        """Per task id: summed root span durations, bookkeeping removed."""
        out = Counter()
        for s in self.spans:
            if s[0] == ROOT:
                out[s[5]] += s[2] - s[1] - s[3]
        return out

    def metrics(self, passes: int, fields: dict) -> dict:
        """Per-layer metrics, counts and times per pass of the batch.

        fields maps a task id to "Q" or "Fp" and gives fields.q_over_fp:
        the time of the Q tasks over that of their F_p twins.
        """
        present = {name for _, name, _, _ in WRAPPED} - set(self.absent)
        by_name, self_by_name = self.times(lambda n: n)
        by_layer, self_by_layer = self.times(lambda n: LAYER_OF.get(n, n))
        c = self.counts
        out = {}

        def put(metric, needs, value):
            if set(needs) <= present:
                out[metric] = value

        def ratio(a, b):
            return a / b if b else 0.0

        per = 1.0 / passes
        field_time = Counter()
        for task_id, seconds in self.task_times().items():
            field_time[fields[task_id]] += seconds
        out["fields.q_over_fp"] = ratio(field_time["Q"], field_time["Fp"])
        put("fields.max_bits", ("linalg.rank", "linalg.solve"),
            max(c["linalg.rank"]["max_bits"], c["linalg.solve"]["max_bits"]))

        asm = ("assembly.differential_matrix",
               "assembly.morphism_differential_matrix")
        cells = sum(c[n]["cells"] for n in asm)
        nnz = sum(c[n]["nnz"] for n in asm)
        put("assembly.calls", asm, sum(c[n]["calls"] for n in asm) * per)
        put("assembly.busy_s", asm, by_layer["assembly"] * per)
        put("assembly.self_s", asm, self_by_layer["assembly"] * per)
        put("assembly.cells", asm, cells * per)
        put("assembly.nnz", asm, nnz * per)
        put("assembly.fill", asm, ratio(nnz, cells))

        for op in ("rank", "solve"):
            name = f"linalg.{op}"
            put(f"{name}.calls", (name,), c[name]["calls"] * per)
            put(f"{name}.busy_s", (name,), by_name[name] * per)
            put(f"{name}.self_s", (name,), self_by_name[name] * per)
        elim = ("linalg.rank", "linalg.solve", "linalg.inverse")
        put("linalg.self_s", ("linalg.rank",), self_by_layer["linalg"] * per)
        put("linalg.rank_sum", ("linalg.rank",),
            c["linalg.rank"]["rank_sum"] * per)
        distinct = sum(len(keys) for keys in self._eliminated.values())
        put("linalg.distinct_ratio", ("linalg.rank",),
            ratio(distinct, sum(c[n]["calls"] for n in elim)))

        name = "deformation.validate"
        put(f"{name}.calls", (name,), c[name]["calls"] * per)
        put(f"{name}.orders", (name,), c[name]["orders"] * per)
        for name in ("deformation.validate", "deformation.obstruction",
                     "deformation.conjugate"):
            put(f"{name}.busy_s", (name,), by_name[name] * per)
            put(f"{name}.self_s", (name,), self_by_name[name] * per)
        name = "deformation.extend"
        put(f"{name}.reach_ratio", (name,),
            ratio(c[name]["reached"], c[name]["requested"]))
        put("deformation.self_s", ("deformation.validate",),
            self_by_layer["deformation"] * per)

        for name in ("problem_io.parse", "problem_io.serialize"):
            put(f"{name}.busy_s", (name,), by_name[name] * per)
        put("problem_io.parse.bytes", ("problem_io.parse",),
            c["problem_io.parse"]["bytes"] * per)
        put("problem_io.self_s", ("problem_io.parse",),
            self_by_layer["problem_io"] * per)

        name = "cli.main"
        put(f"{name}.calls", (name,), c[name]["calls"] * per)
        put("cli.self_s", (name,), self_by_layer["cli"] * per)
        put("cli.output_bytes", (name,), c[name]["output_bytes"] * per)
        for code in (0, 1, 2):
            put(f"cli.exit.{code}", (name,), c[name][f"exit.{code}"] * per)

        out["task.self_s"] = self_by_layer[ROOT] * per
        out["trace.spans"] = len(self.spans) * per
        return out


# -- what each wrapper reads off its arguments and result -----------------

def _observe_assembly(name):
    def observe(tracer, args, result):
        shape = _matrix_shape(result)
        if shape is not None:
            tracer.counts[name]["cells"] += shape[0]
            tracer.counts[name]["nnz"] += shape[1]
    return observe


def _observe_rank(tracer, args, result):
    tracer.eliminated(args[0])
    rank, basis = result
    c = tracer.counts["linalg.rank"]
    c["rank_sum"] += rank
    c["max_bits"] = max(c["max_bits"], _bits(basis))


def _observe_solve(tracer, args, result):
    tracer.eliminated(args[0])
    if result is not None:
        c = tracer.counts["linalg.solve"]
        c["max_bits"] = max(c["max_bits"], _bits([result]))


def _observe_inverse(tracer, args, result):
    tracer.eliminated(args[0])


def _observe_validate(tracer, args, result):
    order = args[2]
    tracer.counts["deformation.validate"]["orders"] += (
        order + 1 if result is None else result[0] + 1)


def _observe_extend(tracer, args, result):
    c = tracer.counts["deformation.extend"]
    c["requested"] += args[2]
    c["reached"] += result.deformation.order


def _observe_parse(tracer, args, result):
    tracer.counts["problem_io.parse"]["bytes"] += len(args[0].encode())


def _observe_cli(tracer, args, result):
    code = result.code if isinstance(result, SystemExit) else result
    c = tracer.counts["cli.main"]
    c[f"exit.{code}"] += 1
    getvalue = getattr(sys.stdout, "getvalue", None)
    if getvalue is not None:
        c["output_bytes"] += len(getvalue().encode())


_OBSERVERS = {
    "assembly.differential_matrix":
        _observe_assembly("assembly.differential_matrix"),
    "assembly.morphism_differential_matrix":
        _observe_assembly("assembly.morphism_differential_matrix"),
    "linalg.rank": _observe_rank,
    "linalg.solve": _observe_solve,
    "linalg.inverse": _observe_inverse,
    "deformation.validate": _observe_validate,
    "deformation.extend": _observe_extend,
    "problem_io.parse": _observe_parse,
    "cli.main": _observe_cli,
}
