"""Seeded inputs, tasks and output checks of the benchmark workloads.

A workload turns a seed into a fixed batch of tasks.  Every task runs
once over Q and once over a prime field F_p, where p alternates between
101 and 2^31 - 1 along the batch.  The F_p input is the Q input with
every scalar reduced mod p, so the two scalar paths are timed on the
same problem.

Part of every batch does not depend on the seed: the curated cases of
the ROADMAP baseline, and a fixed ladder of inputs drawn with the same
generators as the seeded ones.  The ladder keeps the spread of task costs,
and so the latency percentiles, from swinging with the seed; the seeded
draws keep the inputs changing from seed to seed.  Seed-independent
outputs are compared with the recorded reference on every seed, seeded
ones on the default seed only; on every seed all outputs must also pass
cheap exact certificates.

The library is reached only through the module objects in `Lib`, looked
up at call time, so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import itertools
import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
PRIMES = (101, 2 ** 31 - 1)
MODULES = ("zinbiel", "zinbiel.fields", "zinbiel.catalog", "zinbiel.sampling",
           "zinbiel.cli", "zinbiel.problem_io")


class Lib:
    """The library modules, as imported by the current set-up."""

    def __init__(self, modules: dict):
        self.zb = modules["zinbiel"]
        self.fields = modules["zinbiel.fields"]
        self.catalog = modules["zinbiel.catalog"]
        self.sampling = modules["zinbiel.sampling"]
        self.cli = modules["zinbiel.cli"]
        self.problem_io = modules["zinbiel.problem_io"]


@dataclass
class Task:
    id: str          # unique in the batch; "<input>/<field>"
    field: str       # "Q" or "Fp"
    kind: str        # warm-up runs the first task of each kind
    seeded: bool     # whether the input depends on the seed
    fn: Callable     # fn(lib, *payload) -> result
    payload: tuple   # copied afresh for every pass
    meta: dict       # what the checks need to know about the input


@dataclass
class Batch:
    workload: str
    seed: int
    tasks: list
    inputs: bytes    # canonical text of the generated inputs
    files: dict = dataclasses.field(default_factory=dict)  # path -> text

    def write_files(self) -> None:
        """Write the problem files; set-up time does not include this."""
        for path, text in self.files.items():
            path.write_text(text, encoding="utf-8")


def _rng(seed, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _draws(seed: int, fixed: int, seeded: int):
    """(label, rng seed, seeded) for the fixed ladder, then the seeded draws."""
    return ([(f"f{k}", "fixed", False) for k in range(fixed)]
            + [(f"s{k}", seed, True) for k in range(seeded)])


def _prime(index: int) -> int:
    return PRIMES[index % len(PRIMES)]


def _reduce_morphism(lib: Lib, f, field):
    """The same morphism with every structure constant mapped into field."""
    zb = lib.zb

    def algebra(a):
        gamma = [[[field.coerce(x) for x in row] for row in plane]
                 for plane in a.gamma]
        return zb.ZinbielAlgebra(field, a.dim, gamma)

    source = algebra(f.source)
    target = source if f.target is f.source else algebra(f.target)
    rows = [[field.coerce(x) for x in row] for row in f.matrix.rows]
    return zb.AlgebraMorphism(source, target, rows)


def _describe_morphism(f) -> str:
    def plane_text(a):
        return "|".join(" ".join(str(x) for x in row)
                        for plane in a.gamma for row in plane)
    rows = "|".join(" ".join(str(x) for x in row) for row in f.matrix.rows)
    return (f"{f.source.field.spec()} {f.source.dim}->{f.target.dim} "
            f"R[{plane_text(f.source)}] S[{plane_text(f.target)}] "
            f"f[{rows}]")


def _flat_text(triple) -> str:
    return " ".join(str(x) for x in triple.flatten())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# ---------------------------------------------------------------- cohomology

# morphisms per (dim R, dim S) in 0..3 x 0..3: fixed ladder, then seeded
COHOMOLOGY_FIXED, COHOMOLOGY_SEEDED = 5, 1


def _curated_cohomology(lib: Lib):
    """The heavy fixed cases of the ROADMAP baseline, all over Q."""
    zb, cat, QQ = lib.zb, lib.catalog, lib.fields.QQ
    t3 = cat.truncated_polynomials(QQ, 3)
    p = lib.sampling.random_dense_invertible(QQ, 3, random.Random(1))
    dense_t3, _ = cat.change_of_basis(t3, p)
    return [
        ("idT3.H2H3", zb.identity_morphism(t3), (2, 3)),
        ("idT4.H2", zb.identity_morphism(cat.truncated_polynomials(QQ, 4)),
         (2,)),
        ("denseT3.H2", zb.identity_morphism(dense_t3), (2,)),
    ]


def _cohomology(lib: Lib, f, degrees, algebra_degrees):
    """dim H^n(f, f) for n in degrees, then dim H^n(R, R) of the source
    algebra's own complex for n in algebra_degrees."""
    r = f.source
    return tuple([lib.zb.morphism_cohomology_dim(f, n) for n in degrees]
                 + [lib.zb.cohomology_dim(r, r.regular_bimodule(), n)
                    for n in algebra_degrees])


def build_cohomology(lib: Lib, seed: int) -> Batch:
    """Random morphisms of every pair of dimensions 0..3, then the curated
    cases.  Degree 3 of a random complex is taken only up to dimension 2:
    at dimension 3 it costs as much as a curated case and would make the
    batch's cost depend on the seed; id_T3 covers it."""
    QQ = lib.fields.QQ
    bases = []
    for dr, ds in itertools.product(range(4), repeat=2):
        degrees = (2, 3) if max(dr, ds) <= 2 else (2,)
        algebra_degrees = (2, 3) if dr <= 2 else (2,)
        for label, key, seeded in _draws(seed, COHOMOLOGY_FIXED,
                                         COHOMOLOGY_SEEDED):
            f = lib.sampling.random_morphism_instance(
                QQ, _rng(key, "cohomology", dr, ds, label), dims=(dr, ds))
            bases.append((f"{label}.{dr}x{ds}", f, degrees, algebra_degrees,
                          seeded, False))
    bases += [(name, f, degrees, (), False, True)
              for name, f, degrees in _curated_cohomology(lib)]
    tasks, text = [], []
    for index, (name, f, degrees, algebra_degrees, seeded, case) in \
            enumerate(bases):
        p = _prime(index)
        for tag, g in (("Q", f),
                       ("Fp", _reduce_morphism(lib, f, lib.fields.PrimeField(p)))):
            tid = f"{name}/{'Q' if tag == 'Q' else f'F{p}'}"
            tasks.append(Task(tid, tag, "cohomology", seeded,
                              _cohomology, (g, degrees, algebra_degrees),
                              {"case": case}))
            text.append(f"{tid} {_describe_morphism(g)}")
    return Batch("cohomology", seed, tasks, "\n".join(text).encode())


def _check_cohomology(lib: Lib, task: Task, payload, result) -> str | None:
    f, degrees, algebra_degrees = payload
    r = f.source
    bounds = ([lib.zb.triple_dim(f, n) for n in degrees]
              + [r.dim ** n * r.dim for n in algebra_degrees])
    if len(result) != len(bounds):
        return f"expected {len(bounds)} dimensions, got {len(result)}"
    for dim, bound in zip(result, bounds):
        if not isinstance(dim, int) or not 0 <= dim <= bound:
            return f"dimension {dim!r} outside 0..{bound}"
    return None


# ------------------------------------------------------------------- extend

EXTEND_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3))
# morphisms per pair of dimensions: fixed ladder, then seeded
EXTEND_FIXED, EXTEND_SEEDED = 3, 1
EXTEND_COCYCLES = 3       # cocycles drawn from each random morphism's basis
EXTEND_TARGET = 3


def _cocycles(lib: Lib, f) -> list:
    """The cocycle basis of f, computed on a copy so that f itself carries
    no state from the computation into the timed tasks."""
    return lib.sampling.cocycle_basis(copy.deepcopy(f))


def _rehome(lib: Lib, cocycle, g):
    """The cocycle as a cochain of g, its scalars mapped into g's field."""
    field = g.source.field
    return lib.zb.TripleCochain.from_flat(
        g, 2, [field.coerce(x) for x in cocycle.flatten()])


def _extend(lib: Lib, f, theta_1, target):
    trace = lib.zb.extend_from_cocycle(f, theta_1, target)
    certificate = lib.zb.verify_obstruction_identity(trace.deformation)
    return trace, certificate.ok


def build_extend(lib: Lib, seed: int) -> Batch:
    """Random morphisms of dimensions 2 and 3 with a few of their basis
    cocycles, then the curated id_T2 and id_T3 extensions.  The F_p task
    extends the Q cocycle reduced mod p, which is a cocycle there too."""
    QQ = lib.fields.QQ
    bases = []   # (name, morphism over Q, basis indices or rng, target, seeded)
    for dr, ds in EXTEND_DIMS:
        for label, key, seeded in _draws(seed, EXTEND_FIXED, EXTEND_SEEDED):
            rng = _rng(key, "extend", dr, ds, label)
            f = lib.sampling.random_morphism_instance(QQ, rng, dims=(dr, ds))
            bases.append((f"{label}.{dr}x{ds}", f, rng, EXTEND_TARGET,
                          seeded))
    t2 = lib.zb.identity_morphism(lib.catalog.truncated_polynomials(QQ, 2))
    t3 = lib.zb.identity_morphism(lib.catalog.truncated_polynomials(QQ, 3))
    bases += [("idT2", t2, range(7), 10, False),
              ("idT3", t3, (0, 2), 8, False)]
    tasks, text = [], []
    for index, (name, f, picks, target, seeded) in enumerate(bases):
        p = _prime(index)
        basis = _cocycles(lib, f)
        if isinstance(picks, random.Random):
            picks = sorted(picks.sample(range(len(basis)),
                                        min(EXTEND_COCYCLES, len(basis))))
        case = name in ("idT2", "idT3")
        g = _reduce_morphism(lib, f, lib.fields.PrimeField(p))
        for tag, h in (("Q", f), ("Fp", g)):
            for i in picks:
                c = basis[i] if h is f else _rehome(lib, basis[i], h)
                pair = f"{name}.c{i}"
                tid = f"{pair}/{'Q' if tag == 'Q' else f'F{p}'}"
                tasks.append(Task(tid, tag, "extend", seeded, _extend,
                                  (h, c, target),
                                  {"target": target, "case": case}))
                text.append(f"{tid} to {target} {_describe_morphism(h)} "
                            f"c[{_flat_text(c)}]")
    return Batch("extend", seed, tasks, "\n".join(text).encode())


def _extend_text(trace, ok) -> str:
    series = trace.deformation
    parts = [f"order={series.order}", f"failed_at={trace.failed_at}",
             f"identity={ok}"]
    parts += [f"t{i}={_flat_text(t)}" for i, t in enumerate(series.terms[1:],
                                                             start=1)]
    if trace.obstruction is not None:
        parts.append(f"ob={_flat_text(trace.obstruction)}")
    return ";".join(parts)


def _check_extend(lib: Lib, task: Task, payload, result) -> str | None:
    trace, ok = result
    series = trace.deformation
    if not ok:
        return "verify_obstruction_identity failed"
    if trace.failed_at is None:
        if series.order != task.meta["target"]:
            return f"reached order {series.order}, not the target"
    elif trace.failed_at != series.order + 1 or trace.obstruction is None:
        return "blocked extension without its obstruction"
    for k in range(2, series.order + 1):
        ob = lib.zb.obstruction(series.truncate(k - 1))
        if lib.zb.morphism_differential(series.terms[k]) != ob:
            return f"term {k} does not solve d(term) = obstruction"
    return None


# ------------------------------------------------------------------ session

SESSION_DIMS = ((1, 1), (1, 2), (2, 1), (2, 2))
SESSION_FIXED, SESSION_SEEDED = 4, 4      # problem files
SESSION_ORDER = 4
SESSION_EXTEND_TARGET = 3
SESSION_EXIT = {"validate": {0}, "roundtrip": {0}, "check-deformation": {0},
                "obstruction": {0}, "normalize": {0}, "rigidity": {0},
                "extend": {0, 1}}


def _cochain_entries(cochain, component, prefix=()):
    d = cochain.source.dim
    return [prefix + (component, tup, b, c)
            for tup, row in zip(itertools.product(range(d),
                                                  repeat=cochain.arity),
                                cochain.coeffs)
            for b, c in enumerate(row) if c]


def _triple_entries(triple, prefix=()):
    out = (_cochain_entries(triple.xi, "R", prefix)
           + _cochain_entries(triple.pi, "S", prefix))
    if triple.phi is not None:
        out += _cochain_entries(triple.phi, "f", prefix)
    return out


def _session_problem(lib: Lib, key, index: int) -> str:
    """A problem file: a morphism f, a conjugated deformation D of it, a
    2-cocycle c, and the rigid zero-dimensional pair z."""
    pio, QQ = lib.problem_io, lib.fields.QQ
    rng = _rng(key, "session", index)
    dims = SESSION_DIMS[index % len(SESSION_DIMS)]
    f = lib.sampling.random_morphism_instance(QQ, rng, dims=dims)
    theta = lib.sampling.random_deformation(f, SESSION_ORDER, rng)
    basis = lib.sampling.cocycle_basis(f)
    cocycle = rng.choice(basis) if basis else lib.zb.TripleCochain.zero(f, 2)

    def algebra(name, a):
        entries = [(i, j, k, c) for i, plane in enumerate(a.gamma)
                   for j, row in enumerate(plane)
                   for k, c in enumerate(row) if c]
        return pio.AlgebraSpec(name, a.dim, entries)

    deformation = [e for k, t in enumerate(theta.terms[1:], start=1)
                   for e in _triple_entries(t, (k,))]
    problem = pio.Problem(
        QQ,
        algebras={"R": algebra("R", f.source), "S": algebra("S", f.target),
                  "Z": pio.AlgebraSpec("Z", 0, [])},
        morphisms={
            "f": pio.MorphismSpec("f", "R", "S", sorted(
                (b, i, c) for b, row in enumerate(f.matrix.rows)
                for i, c in enumerate(row) if c)),
            "z": pio.MorphismSpec("z", "Z", "Z", [])},
        cochains={"c": pio.CochainSpec("c", "f", 2, sorted(
            _triple_entries(cocycle), key=lambda e: e[:-1]))},
        deformations={"D": pio.DeformationSpec("D", "f", SESSION_ORDER, sorted(
            deformation, key=lambda e: e[:-1]))})
    return pio.serialize(problem)


def _commands(index: int):
    return [("validate",), ("roundtrip",),
            ("check-deformation", "--deformation", "D"),
            ("obstruction", "--deformation", "D"),
            ("normalize", "--deformation", "D"),
            ("rigidity", "--morphism", "z", "--demo", "2",
             "--seed", str(index)),
            ("extend", "--cochain", "c", "--target-order",
             str(SESSION_EXTEND_TARGET))]


def _cli(lib: Lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def build_session(lib: Lib, seed: int, workdir: Path) -> Batch:
    """The problem files are named under workdir but not written."""
    tasks, text, files = [], [], {}
    pair_index = 0
    draws = _draws(seed, SESSION_FIXED, SESSION_SEEDED)
    for index, (label, key, seeded) in enumerate(draws):
        problem = _session_problem(lib, key, index)
        path = workdir / f"{label}.zb"
        files[path] = problem
        text.append(f"{label}.zb\n{problem}")
        for command in _commands(index):
            for output in ("report", "machine"):
                p = _prime(pair_index)
                pair = f"{label}.{command[0]}.{output}"
                pair_index += 1
                for tag, flags in (("Q", ()), ("Fp", ("--field", f"Fp:{p}"))):
                    argv = (command[0], str(path)) + command[1:] + (
                        "--output", output) + flags
                    tid = f"{pair}/{'Q' if tag == 'Q' else f'F{p}'}"
                    tasks.append(Task(tid, tag, command[0], seeded,
                                      _cli, (argv,),
                                      {"text": problem, "p": p,
                                       "case": False}))
                    text.append(f"{tid} {' '.join(argv[2:])}")
    return Batch("session", seed, tasks, "\n".join(text).encode(), files)


def _check_session(lib: Lib, task: Task, payload, result) -> str | None:
    code, stdout = result
    argv = payload[0]
    command = argv[0]
    if code not in SESSION_EXIT[command]:
        return f"{command} exited {code}"
    field = (lib.fields.PrimeField(task.meta["p"]) if task.field == "Fp"
             else None)
    if command == "roundtrip":
        original = lib.problem_io.parse(task.meta["text"], field_override=field)
        if lib.problem_io.parse(stdout, field_override=field) != original:
            return "roundtrip output does not reparse to the problem"
        return None
    if "machine" not in argv:
        return None
    lines = stdout.splitlines()
    if not lines or lines[0] != f"command {command}":
        return "machine output does not start with the command echo"
    status = "ok" if code == 0 else "fail"
    if f"status {status}" not in lines:
        return f"no 'status {status}' line for exit code {code}"
    if command == "normalize":
        problem = lib.problem_io.parse(task.meta["text"], field_override=field)
        _, terms, order = problem.deformation_candidate("D")
        lead = next((i for i in range(1, order + 1)
                     if not terms[i].is_zero()), order)
        through = [int(line.split()[1]) for line in lines
                   if line.startswith("zero.through ")]
        if not through or through[0] < lead:
            return f"normalized series does not vanish through order {lead}"
    return None


# ----------------------------------------------------------------- registry

def build(lib: Lib, workload: str, seed: int, workdir: Path) -> Batch:
    """The seeded batch; it names its problem files, if any, under
    workdir, and writes nothing until Batch.write_files."""
    if workload == "cohomology":
        return build_cohomology(lib, seed)
    if workload == "extend":
        return build_extend(lib, seed)
    return build_session(lib, seed, workdir)


WORKLOADS = ("cohomology", "extend", "session")


def digest(workload: str, result) -> str:
    """A short stable fingerprint of one task's output."""
    if workload == "cohomology":
        return _digest(" ".join(str(d) for d in result))
    if workload == "extend":
        return _digest(_extend_text(*result))
    code, stdout = result
    return _digest(f"exit={code}\n{stdout}")


def certify(lib: Lib, workload: str, task: Task, payload, result) -> str | None:
    """None when the exact certificates hold, else what failed."""
    check = {"cohomology": _check_cohomology, "extend": _check_extend,
             "session": _check_session}[workload]
    return check(lib, task, payload, result)
