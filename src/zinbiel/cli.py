"""Command-line entry points.

Exit codes: 0 = computed/verified, 1 = mathematical failure (an identity
or deformation condition fails, an obstruction class is nontrivial, a
leading term is not a coboundary), 2 = usage error (bad flags, unreadable
or malformed problem file).

Each handler states every fact once, as one `emit(key, *values,
report=...)` call: an optional machine key with its values and an
optional report line.  `main` picks the renderer once from `--output`
and each fact prints as it is emitted, so a usage error partway through
a command leaves the facts emitted before it on stdout.  `main` also
echoes `command <name>` once the problem file has loaded (not for
`roundtrip`, which prints the file itself).

`validate` and `verify-identities` walk the file's objects once, in file
order (`_objects`), which skips each object that uses an algebra or
morphism that failed or was skipped.

Human-readable reports label the per-order deformation conditions as
P_n(R), P_n(S) (product condition at order n) and M_n (morphism
condition at order n).  `--output machine` emits stable `key value`
lines with exact scalars; the key vocabulary is documented in README.md.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .algebra import IdentityError
from .cochains import (COHOMOLOGY_DEGREES, DEGREES, all_tuples,
                       coboundary_preimage, cohomology_dim,
                       differential_matrix, product_cochain)
from .deformation import (DeformationError, check_deformation,
                          extend_from_cocycle, extend_to,
                          normalize_leading_term, obstruction,
                          obstruction_naturality, rigidity_check, trivialize)
from .fields import FieldError, field_from_spec, integer
from .morphism_complex import (_spaces, morphism_cohomology_dim,
                               morphism_differential_matrix,
                               push_forward_left, push_forward_right)
from .problem_io import (_REFERENCES, _SECTIONS, ProblemFileError, parse,
                         serialize)
from .sampling import random_cochain, random_deformation


def _emitter(machine: bool):
    """The one renderer, chosen from --output: each fact prints as it is
    emitted, as a `key value...` line or as its report line."""
    def emit(key: str | None = None, *values, report: str | None = None):
        if machine:
            if key is not None:
                print(" ".join([key] + [str(v) for v in values]))
        elif report is not None:
            print(report)
    return emit


def _indices(where) -> str:
    return " ".join(str(i + 1) for i in where)


def _fmt_vector(field, vec) -> str:
    parts = [f"{field.format(c)}*e{i + 1}" for i, c in enumerate(vec) if c]
    return " + ".join(parts) if parts else "0"


def _fmt_basis(where) -> str:
    return "(" + ",".join(f"e{i + 1}" for i in where) + ")"


def _emit_cochain_entries(emit, key: str, name: str, cochain) -> int:
    """Emit the nonzero coefficients of one component; returns the count."""
    count = 0
    field = cochain.field
    for idx, row in zip(all_tuples(cochain.source.dim, cochain.arity),
                        cochain.coeffs):
        for b, c in enumerate(row):
            if c:
                count += 1
                scalar = field.format(c)
                emit(f"{key}.entry", name, _indices(idx + (b,)), scalar,
                     report=f"  {name}{_fmt_basis(idx)} -> {scalar}*e{b + 1}")
    return count


def _emit_triple(emit, key: str, triple) -> int:
    return sum(_emit_cochain_entries(emit, key, name, part)
               for (name, *_), part
               in zip(_spaces(triple.morphism, triple.degree), triple.parts))


def _emit_violations(emit, field, key: str, name: str, violations) -> None:
    """Emit each failed identity instance of a validated object."""
    for v in violations:
        emit(key, name, _indices(v.where), *map(field.format, v.residual),
             report=f"  at {_fmt_basis(v.where)}: residual "
                    f"{_fmt_vector(field, v.residual)}")


def _failed_condition(v, field=None) -> str:
    """A failed deformation condition as reported: P_n(R), P_n(S) or M_n,
    where it fails and, given the field, its residual."""
    label = (f"P_{v.order}({v.component})" if v.kind == "product"
             else f"M_{v.order}")
    text = f"{label} fails at {_fmt_basis(v.where)}"
    return text if field is None else \
        f"{text}: residual {_fmt_vector(field, v.residual)}"


# the smallest meaningful value of each integer option, per subcommand
_LEAST = {"check-deformation": {"--order": 0}, "obstruction": {"--order": 1},
          "extend": {"--target-order": 1},
          "rigidity": {"--probe-order": 1, "--demo": 0}}


def _load(args):
    try:
        with open(args.file, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ProblemFileError(0, 0, f"cannot read {args.file}: {e}") from None
    override = field_from_spec(args.field) if args.field else None
    return parse(text, field_override=override)


def _pick(table: dict, requested: str | None, kind: str):
    if requested is not None:
        if requested not in table:
            raise ProblemFileError(0, 0, f"no {kind} named {requested!r}")
        return requested
    if len(table) == 1:
        return next(iter(table))
    if not table:
        raise ProblemFileError(0, 0, f"the file has no {kind}")
    raise ProblemFileError(
        0, 0, f"--{kind} is required when the file has {len(table)} of them")


def _deformation(problem, args, emit, order=None, explain=False, least=0):
    """The deformation named by --deformation, validated through order
    (default: its own); (name, None) once it is reported invalid.  One of
    order below least is a usage error."""
    name = _pick(problem.deformations, args.deformation, "deformation")
    f, terms, top = problem.deformation_candidate(name)
    if top < least:
        raise ProblemFileError(
            0, 0, f"{args.command} needs a deformation of order at least "
                  f"{least}, {name} has order {top}")
    try:
        return name, check_deformation(
            f, terms, top if order is None else min(top, order))
    except DeformationError as e:
        why = f": {_failed_condition(e.violations[0])}" if explain else ""
        emit("status", "fail")
        emit("reason", "invalid-deformation",
             report=f"deformation {name} is itself invalid{why}")
        return name, None


# why an object is not built, by the kind of the failed object it uses
_UNBUILT = {"algebra": "an algebra it uses is invalid",
            "morphism": "its morphism was not validated"}


def _objects(problem, kinds, skip):
    """Build the objects of the given section kinds, kind by kind in file
    order, and yield (kind, name, spec, built) for each: built is the
    object, or the IdentityError/DeformationError its build raised.  An
    object that uses a failed or skipped algebra or morphism (one its
    spec's headers name) is not built: skip(kind, name, why) reports it,
    and it counts as failed too."""
    failed = set()      # (kind, name) of each object not built
    for kind in kinds:
        for name, spec in getattr(problem, kind + "s").items():
            uses = [(_REFERENCES[h], getattr(spec, h))
                    for h in _SECTIONS[kind][1] if h in _REFERENCES]
            if failed.intersection(uses):
                failed.add((kind, name))
                skip(kind, name, _UNBUILT[uses[0][0]])
                continue
            try:
                built = (check_deformation(*problem.deformation_candidate(name))
                         if kind == "deformation"
                         else getattr(problem, "build_" + kind)(name))
            except (IdentityError, DeformationError) as e:
                failed.add((kind, name))
                built = e
            yield kind, name, spec, built


def _cmd_validate(problem, args, emit) -> int:
    failed = 0

    def skip(kind: str, name: str, why: str) -> None:
        emit(kind, name, "skipped", report=f"{kind} {name}: skipped ({why})")

    for kind, name, spec, built in _objects(problem, _SECTIONS, skip):
        failed += isinstance(built, Exception)
        if isinstance(built, DeformationError):
            emit(kind, name, "violated", built.order,
                 report=f"deformation {name}: "
                 f"{_failed_condition(built.violations[0], problem.field)}")
        elif isinstance(built, IdentityError):
            count = len(built.violations)
            emit(kind, name, "violated", count, report=(
                f"algebra {name}: Zinbiel identity FAILS on {count} of "
                f"{spec.dim ** 3} triples" if kind == "algebra" else
                f"morphism {name}: FAILS to respect products on {count} "
                "pairs"))
            _emit_violations(emit, problem.field, f"{kind}.violation", name,
                             built.violations)
        elif kind == "algebra":
            emit(kind, name, "ok", spec.dim ** 3,
                 report=f"algebra {name}: Zinbiel identity verified on "
                        f"{spec.dim ** 3} triples")
        elif kind == "morphism":
            emit(kind, name, "ok", built.source.dim ** 2,
                 report=f"morphism {name}: respects products on "
                        f"{built.source.dim ** 2} pairs")
        elif kind == "deformation":
            emit(kind, name, "ok", built.order, report=f"deformation {name}: "
                 f"conditions hold through order {built.order}")
        else:
            emit(kind, name, "ok", report=f"{kind} {name}: well-formed" + (
                " (identity constant term)" if kind == "isomorphism" else ""))
    emit("status", "ok" if not failed else "fail")
    return 0 if not failed else 1


def _cmd_cohomology(problem, args, emit) -> int:
    n = args.degree
    if args.algebra is not None:
        name = _pick(problem.algebras, args.algebra, "algebra")
        algebra = problem.build_algebra(name)
        dim = cohomology_dim(algebra, algebra.regular_bimodule(), n)
    else:
        name = _pick(problem.morphisms, args.morphism, "morphism")
        dim = morphism_cohomology_dim(problem.build_morphism(name), n)
    emit("h.degree", n)
    emit("h.dim", dim, report=f"dim H^{n}({name},{name}) = {dim}")
    emit("status", "ok")
    return 0


def _cmd_check_deformation(problem, args, emit) -> int:
    name = _pick(problem.deformations, args.deformation, "deformation")
    f, terms, order = problem.deformation_candidate(name)
    if args.order is not None:
        order = min(order, args.order)
    try:
        check_deformation(f, terms, order)
    except DeformationError as e:
        emit("status", "fail")
        emit("violation.order", e.order)
        for v in e.violations:
            emit("violation", v.kind, v.component, v.order, _indices(v.where),
                 *map(problem.field.format, v.residual),
                 report=_failed_condition(v, problem.field))
        return 1
    emit("status", "ok")
    emit("order", order, report=f"deformation {name}: conditions hold "
                                f"through order {order}")
    return 0


def _cmd_obstruction(problem, args, emit) -> int:
    name, theta = _deformation(problem, args, emit, args.order, explain=True,
                               least=1)
    if theta is None:
        return 1
    ob = obstruction(theta)
    emit(report=f"obstruction of {name} at order {theta.order}:")
    count = _emit_triple(emit, "obstruction", ob)
    emit("obstruction.nonzero", "true" if count else "false",
         report=None if count else "  0 (extends with the zero term)")
    if count and coboundary_preimage(ob) is None:
        emit("obstruction.coboundary", "false", report="the obstruction "
             "class is nontrivial: no extension exists")
        emit("status", "fail")
        return 1
    if count:
        emit("obstruction.coboundary", "true", report="the obstruction is "
             "a coboundary: an extension exists")
    emit("status", "ok")
    return 0


def _cmd_extend(problem, args, emit) -> int:
    target = args.target_order
    if args.cochain is not None:
        cname = _pick(problem.cochains, args.cochain, "cochain")
        theta_1 = problem.build_cochain(cname)
        if theta_1.degree != 2:
            raise ProblemFileError(0, 0, "extend needs a degree-2 cochain")
        try:
            trace = extend_from_cocycle(theta_1.morphism, theta_1, target)
        except ValueError:   # target >= 1, so theta_1 is no 2-cocycle
            emit("status", "fail")
            emit("reason", "not-a-cocycle",
                 report=f"cochain {cname} is not a 2-cocycle")
            return 1
    else:
        _, theta = _deformation(problem, args, emit, least=1)
        if theta is None:
            return 1
        trace = extend_to(theta, target)
    if not trace.succeeded:
        # the report names the blocked order before the residual, machine
        # output after it
        emit(report=f"extension blocked at order {trace.failed_at}: "
                    "the obstruction class is nontrivial")
        emit(report="obstruction residual:")
        _emit_triple(emit, "obstruction", trace.obstruction)
        emit("status", "fail")
        emit("failed.at", trace.failed_at)
        return 1
    emit("status", "ok")
    emit("order", trace.deformation.order,
         report=f"extended to order {trace.deformation.order}")
    for i, term in enumerate(trace.deformation.terms[1:], start=1):
        emit(report=f"term {i}:" if not term.is_zero() else f"term {i}: 0")
        _emit_triple(emit, f"term.{i}", term)
    return 0


def _cmd_normalize(problem, args, emit) -> int:
    _, theta = _deformation(problem, args, emit)
    if theta is None:
        return 1
    try:
        phi, bar = normalize_leading_term(theta)
    except DeformationError as e:
        emit("status", "fail")
        emit("reason", "not-a-coboundary", report=str(e))
        return 1
    lead = bar.leading_order()
    zero_through = bar.order if lead is None else lead - 1
    emit("status", "ok")
    emit("zero.through", zero_through,
         report=f"conjugation kills all terms through order {zero_through}")
    for k, term in enumerate(phi.terms[1:], start=1):
        _emit_triple(emit, f"iso.{k}", term)
    return 0


def _cmd_rigidity(problem, args, emit) -> int:
    name = _pick(problem.morphisms, args.morphism, "morphism")
    f = problem.build_morphism(name)
    rigidity = rigidity_check(f)
    emit("h2.dim", rigidity.h2_dim, report=f"dim H^2({name},{name}) = "
         f"{rigidity.h2_dim}, {rigidity.verdict}")
    emit("verdict", rigidity.verdict)
    if args.demo and rigidity.certified_rigid:
        # random valid deformations of the probe order, each trivialized
        # by iterated normalization as a live demonstration
        rng = random.Random(args.seed)
        done = 0
        for _ in range(args.demo):
            _, final = trivialize(random_deformation(f, args.probe_order, rng))
            done += final.is_trivial()
        emit("demo.run", args.demo, report=f"trivialized {done} of "
             f"{args.demo} random order-{args.probe_order} deformations "
             f"(seed {args.seed})")
        emit("demo.trivialized", done)
        emit("demo.seed", args.seed)
    emit("status", "ok")
    return 0


def _cmd_verify_identities(problem, args, emit) -> int:
    rng = random.Random(args.seed)
    failed = 0
    built_as = {"algebra": "satisfies the Zinbiel identity",
                "morphism": "respects products",
                "deformation": "is a valid deformation"}

    def check(label: str, ok: bool) -> None:
        nonlocal failed
        failed += not ok
        emit("identity", label.replace(" ", "-"), "ok" if ok else "fail",
             report=f"{'verified' if ok else 'FAILED'}: {label}")

    def skip(kind: str, name: str, why: str) -> None:
        label = f"{kind} {name}: {built_as[kind]}"
        emit("identity", label.replace(" ", "-"), "skipped",
             report=f"skipped: {label} ({why})")

    # each matrix of d^n the command uses, assembled once: keyed by the
    # ids of its complex's objects, (algebra, module) or (morphism,), and
    # n; each entry keeps those objects, so no id is reused meanwhile
    matrices = {}

    def d_matrix(space: tuple, n: int):
        key = (*map(id, space), n)
        if key not in matrices:
            assemble = (differential_matrix if len(space) == 2
                        else morphism_differential_matrix)
            matrices[key] = space, assemble(*space, n)
        return matrices[key][1]

    def d(x):
        """differential(x), with the matrix from d_matrix."""
        n = x.degree
        return x._rebuild(d_matrix(x._space()[:-1], n).matvec(x.flatten()),
                          n + 1)

    def squares_vanish(label: str, space: tuple) -> None:
        ds = {i: d_matrix(space, i) for i in DEGREES}
        for i in DEGREES[:-1]:
            check(f"{label}: d{i + 1} after d{i} vanishes",
                  (ds[i + 1] @ ds[i]).is_zero())

    for kind, name, _, built in _objects(
            problem, ("algebra", "morphism", "deformation"), skip):
        if isinstance(built, Exception):
            check(f"{kind} {name}: {built_as[kind]}", False)
        elif kind == "algebra":
            squares_vanish(f"algebra {name}",
                           (built, built.regular_bimodule()))
            check(f"algebra {name}: the product is a 2-cocycle",
                  d(product_cochain(built)).is_zero())
        elif kind == "morphism":
            squares_vanish(f"morphism {name}", (built,))
            r, s = built.source, built.target
            for i in DEGREES:
                xi = random_cochain(r, r.regular_bimodule(), i, rng)
                pi = random_cochain(s, s.regular_bimodule(), i, rng)
                ok = (push_forward_left(built, d(xi))
                      == d(push_forward_left(built, xi)))
                ok = ok and (push_forward_right(built, d(pi))
                             == d(push_forward_right(built, pi)))
                check(f"morphism {name}: push-forwards commute with d{i}", ok)
        else:
            check(f"deformation {name}: {built_as[kind]}", True)
            if built.order >= 1:
                ob = obstruction(built)
                check(f"deformation {name}: obstruction is a 3-cocycle",
                      d(ob).is_zero())
                check(f"deformation {name}: obstruction naturality",
                      obstruction_naturality(ob).ok)
    emit("status", "ok" if not failed else "fail")
    return 0 if not failed else 1


def _cmd_roundtrip(problem, args, emit) -> int:
    text = serialize(problem)
    if parse(text, field_override=problem.field) != problem:
        print("round-trip mismatch", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and prog is fixed, so help and usage text do not
    depend on the caller."""
    parser = argparse.ArgumentParser(
        prog="zinbiel",
        description="Exact deformation cohomology of Zinbiel algebra "
                    "morphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file")
        p.add_argument("--field", default=None,
                       help="override the declared field (Q or Fp:<prime>)")
        p.add_argument("--output", choices=("report", "machine"),
                       default="report")

    p = sub.add_parser("validate", help="check every object in the file")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("cohomology", help="dimension of H^2 or H^3")
    common(p)
    p.add_argument("--degree", type=integer, choices=COHOMOLOGY_DEGREES,
                   required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--morphism", default=None)
    which.add_argument("--algebra", default=None,
                       help="use the algebra's own complex instead of a morphism")
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("check-deformation",
                       help="validate a deformation order by order")
    common(p)
    p.add_argument("--deformation", default=None)
    p.add_argument("--order", type=integer, default=None,
                   help="validate only through this order")
    p.set_defaults(handler=_cmd_check_deformation)

    p = sub.add_parser("obstruction",
                       help="obstruction class of a deformation")
    common(p)
    p.add_argument("--deformation", default=None)
    p.add_argument("--order", type=integer, default=None,
                   help="truncate the series to this order first")
    p.set_defaults(handler=_cmd_obstruction)

    p = sub.add_parser("extend", help="extend order by order")
    common(p)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--deformation", default=None)
    start.add_argument("--cochain", default=None,
                       help="start from a 2-cocycle instead of a deformation")
    p.add_argument("--target-order", type=integer, required=True)
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("normalize",
                       help="kill a coboundary leading term by conjugation")
    common(p)
    p.add_argument("--deformation", default=None)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("rigidity", help="H^2 rigidity criterion")
    common(p)
    p.add_argument("--morphism", default=None)
    p.add_argument("--probe-order", type=integer, default=4)
    p.add_argument("--demo", type=integer, default=0,
                   help="when rigid, trivialize this many random deformations")
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(handler=_cmd_rigidity)

    p = sub.add_parser("verify-identities",
                       help="machine-check the complex identities on the file")
    common(p)
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(handler=_cmd_verify_identities)

    p = sub.add_parser("roundtrip",
                       help="parse, re-serialize and verify the file")
    common(p)
    p.set_defaults(handler=_cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    emit = _emitter(args.output == "machine")
    try:
        for flag, least in _LEAST.get(args.command, {}).items():
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None and value < least:
                raise ProblemFileError(
                    0, 0, f"{flag} must be at least {least}, got {value}")
        problem = _load(args)
        if args.command != "roundtrip":   # it prints the file, not facts
            emit("command", args.command)
        return args.handler(problem, args, emit)
    except (ProblemFileError, FieldError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IdentityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
