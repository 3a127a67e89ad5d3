"""Command-line entry points.

Exit codes: 0 = computed/verified, 1 = mathematical failure (an identity
or deformation condition fails, an obstruction class is nontrivial, a
leading term is not a coboundary), 2 = usage error (bad flags, unreadable
or malformed problem file).

Human-readable reports label the per-order deformation conditions as
P_n(R), P_n(S) (product condition at order n) and M_n (morphism
condition at order n).  `--output machine` emits stable `key value`
lines with exact scalars; the key vocabulary is documented in README.md.
"""

from __future__ import annotations

import argparse
import random
import sys

from .algebra import IdentityError
from .deformation import (DeformationError, check_deformation,
                          extend_from_cocycle, extend_to,
                          normalize_leading_term, obstruction,
                          rigidity_check, verify_obstruction_identity)
from .cochains import (cohomology_dim, differential, differential_matrix,
                       product_cochain)
from .fields import FieldError, field_from_spec
from .morphism_complex import (coboundary_preimage, is_cocycle,
                               morphism_cohomology_dim,
                               morphism_differential_matrix,
                               push_forward_left, push_forward_right)
from .problem_io import ProblemFileError, parse, serialize
from .sampling import random_cochain


class _Out:
    """Collects either prose lines or `key value` pairs, one mode per run."""

    def __init__(self, machine: bool):
        self.machine = machine

    def say(self, text: str) -> None:
        if not self.machine:
            print(text)

    def kv(self, key: str, *parts) -> None:
        if self.machine:
            print(" ".join([key] + [str(p) for p in parts]))


def _fmt_vector(field, vec) -> str:
    parts = [f"{field.format(c)}*e{i + 1}" for i, c in enumerate(vec) if c]
    return " + ".join(parts) if parts else "0"


def _fmt_basis(where) -> str:
    return "(" + ",".join(f"e{i + 1}" for i in where) + ")"


def _emit_cochain_entries(out: _Out, field, key: str, name: str, cochain,
                          dim_in: int) -> int:
    """Print the nonzero coefficients of one component; returns the count."""
    count = 0
    arity = cochain.arity
    for t, row in enumerate(cochain.coeffs):
        idx = []
        rem = t
        for _ in range(arity):
            idx.append(rem % dim_in)
            rem //= dim_in
        idx = tuple(reversed(idx))
        for b, c in enumerate(row):
            if c:
                count += 1
                pos = " ".join(str(i + 1) for i in idx)
                sep = " " if pos else ""
                out.kv(f"{key}.entry", name, f"{pos}{sep}{b + 1}",
                       field.format(c))
                out.say(f"  {name}{_fmt_basis(idx)} -> "
                        f"{field.format(c)}*e{b + 1}")
    return count


def _emit_triple(out: _Out, field, key: str, triple) -> int:
    f = triple.morphism
    n = _emit_cochain_entries(out, field, key, "R", triple.xi, f.source.dim)
    n += _emit_cochain_entries(out, field, key, "S", triple.pi, f.target.dim)
    if triple.phi is not None:
        n += _emit_cochain_entries(out, field, key, "f", triple.phi,
                                   f.source.dim)
    return n


def _emit_violations(out: _Out, field, key: str, name: str,
                     violations) -> None:
    """Print each failed identity instance of a validated object."""
    for v in violations:
        out.say(f"  at {_fmt_basis(v.where)}: residual "
                f"{_fmt_vector(field, v.residual)}")
        out.kv(key, name, " ".join(str(i + 1) for i in v.where),
               *[field.format(c) for c in v.residual])


def _condition_label(v) -> str:
    if v.kind == "product":
        return f"P_{v.order}({v.component})"
    return f"M_{v.order}"


def _at_least(flag: str, value, least: int) -> None:
    """Reject an integer option below its smallest meaningful value."""
    if value is not None and value < least:
        raise ProblemFileError(
            0, 0, f"{flag} must be at least {least}, got {value}")


def _load(args):
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as e:
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
    raise ProblemFileError(
        0, 0, f"--{kind} is required when the file has {len(table)} of them")


def _cmd_validate(args) -> int:
    problem = _load(args)
    out = _Out(args.output == "machine")
    out.kv("command", "validate")
    failed = 0
    bad_algebras = set()
    bad_morphisms = set()
    for name, spec in problem.algebras.items():
        try:
            problem.build_algebra(name)
            out.say(f"algebra {name}: Zinbiel identity verified on "
                    f"{spec.dim ** 3} triples")
            out.kv("algebra", name, "ok", spec.dim ** 3)
        except IdentityError as e:
            failed += 1
            bad_algebras.add(name)
            out.kv("algebra", name, "violated", len(e.violations))
            out.say(f"algebra {name}: Zinbiel identity FAILS on "
                    f"{len(e.violations)} of {spec.dim ** 3} triples")
            _emit_violations(out, problem.field, "algebra.violation", name,
                             e.violations)
    for name, spec in problem.morphisms.items():
        if spec.source in bad_algebras or spec.target in bad_algebras:
            bad_morphisms.add(name)
            out.say(f"morphism {name}: skipped (an algebra it uses is invalid)")
            out.kv("morphism", name, "skipped")
            continue
        try:
            f = problem.build_morphism(name)
            out.say(f"morphism {name}: respects products on "
                    f"{f.source.dim ** 2} pairs")
            out.kv("morphism", name, "ok", f.source.dim ** 2)
        except IdentityError as e:
            failed += 1
            bad_morphisms.add(name)
            out.kv("morphism", name, "violated", len(e.violations))
            out.say(f"morphism {name}: FAILS to respect products on "
                    f"{len(e.violations)} pairs")
            _emit_violations(out, problem.field, "morphism.violation", name,
                             e.violations)
    for name in problem.cochains:
        if problem.cochains[name].morphism in bad_morphisms:
            out.say(f"cochain {name}: skipped (its morphism was not validated)")
            out.kv("cochain", name, "skipped")
            continue
        problem.build_cochain(name)
        out.say(f"cochain {name}: well-formed")
        out.kv("cochain", name, "ok")
    for name in problem.deformations:
        if problem.deformations[name].morphism in bad_morphisms:
            out.say(f"deformation {name}: skipped (its morphism was not validated)")
            out.kv("deformation", name, "skipped")
            continue
        f, terms, order = problem.deformation_candidate(name)
        try:
            check_deformation(f, terms, order)
            out.say(f"deformation {name}: conditions hold through order {order}")
            out.kv("deformation", name, "ok", order)
        except DeformationError as e:
            failed += 1
            v = e.violations[0]
            out.say(f"deformation {name}: {_condition_label(v)} fails at "
                    f"{_fmt_basis(v.where)}: residual "
                    f"{_fmt_vector(problem.field, v.residual)}")
            out.kv("deformation", name, "violated", e.order)
    for name in problem.isomorphisms:
        if problem.isomorphisms[name].morphism in bad_morphisms:
            out.say(f"isomorphism {name}: skipped (its morphism was not validated)")
            out.kv("isomorphism", name, "skipped")
            continue
        problem.build_isomorphism(name)
        out.say(f"isomorphism {name}: well-formed (identity constant term)")
        out.kv("isomorphism", name, "ok")
    out.kv("status", "ok" if not failed else "fail")
    return 0 if not failed else 1


def _cmd_cohomology(args) -> int:
    problem = _load(args)
    out = _Out(args.output == "machine")
    out.kv("command", "cohomology")
    n = args.degree
    if args.algebra is not None:
        algebra = problem.build_algebra(
            _pick(problem.algebras, args.algebra, "algebra"))
        dim = cohomology_dim(algebra, algebra.regular_bimodule(), n)
        out.say(f"dim H^{n}({args.algebra},{args.algebra}) = {dim}")
        out.kv("h.degree", n)
        out.kv("h.dim", dim)
    else:
        name = _pick(problem.morphisms, args.morphism, "morphism")
        f = problem.build_morphism(name)
        dim = morphism_cohomology_dim(f, n)
        out.say(f"dim H^{n}({name},{name}) = {dim}")
        out.kv("h.degree", n)
        out.kv("h.dim", dim)
    out.kv("status", "ok")
    return 0


def _cmd_check_deformation(args) -> int:
    _at_least("--order", args.order, 0)
    problem = _load(args)
    out = _Out(args.output == "machine")
    out.kv("command", "check-deformation")
    name = _pick(problem.deformations, args.deformation, "deformation")
    f, terms, order = problem.deformation_candidate(name)
    if args.order is not None:
        order = min(order, args.order)
    try:
        check_deformation(f, terms, order)
    except DeformationError as e:
        out.kv("status", "fail")
        out.kv("violation.order", e.order)
        for v in e.violations:
            out.say(f"{_condition_label(v)} fails at {_fmt_basis(v.where)}: "
                    f"residual {_fmt_vector(problem.field, v.residual)}")
            out.kv("violation", v.kind, v.component, v.order,
                   " ".join(str(i + 1) for i in v.where),
                   *[problem.field.format(c) for c in v.residual])
        return 1
    out.say(f"deformation {name}: conditions hold through order {order}")
    out.kv("status", "ok")
    out.kv("order", order)
    return 0


def _cmd_obstruction(args) -> int:
    _at_least("--order", args.order, 1)
    problem = _load(args)
    out = _Out(args.output == "machine")
    out.kv("command", "obstruction")
    name = _pick(problem.deformations, args.deformation, "deformation")
    f, terms, order = problem.deformation_candidate(name)
    if args.order is not None:
        order = min(order, args.order)
    try:
        theta = check_deformation(f, terms, order)
    except DeformationError as e:
        v = e.violations[0]
        out.say(f"deformation {name} is itself invalid: {_condition_label(v)} "
                f"fails at {_fmt_basis(v.where)}")
        out.kv("status", "fail")
        out.kv("reason", "invalid-deformation")
        return 1
    ob = obstruction(theta)
    out.say(f"obstruction of {name} at order {theta.order}:")
    count = _emit_triple(out, problem.field, "obstruction", ob)
    if count == 0:
        out.say("  0 (extends with the zero term)")
    out.kv("obstruction.nonzero", "true" if count else "false")
    pre = coboundary_preimage(ob) if count else ob
    if count and pre is None:
        out.say("the obstruction class is nontrivial: no extension exists")
        out.kv("obstruction.coboundary", "false")
        out.kv("status", "fail")
        return 1
    if count:
        out.say("the obstruction is a coboundary: an extension exists")
        out.kv("obstruction.coboundary", "true")
    out.kv("status", "ok")
    return 0


def _cmd_extend(args) -> int:
    _at_least("--target-order", args.target_order, 1)
    problem = _load(args)
    out = _Out(args.output == "machine")
    out.kv("command", "extend")
    target = args.target_order
    if args.cochain is not None:
        cname = _pick(problem.cochains, args.cochain, "cochain")
        theta_1 = problem.build_cochain(cname)
        if theta_1.degree != 2:
            raise ProblemFileError(0, 0, "extend needs a degree-2 cochain")
        ok, _ = is_cocycle(theta_1)
        if not ok:
            out.say(f"cochain {cname} is not a 2-cocycle")
            out.kv("status", "fail")
            out.kv("reason", "not-a-cocycle")
            return 1
        trace = extend_from_cocycle(theta_1.morphism, theta_1, target)
    else:
        name = _pick(problem.deformations, args.deformation, "deformation")
        f, terms, order = problem.deformation_candidate(name)
        try:
            theta = check_deformation(f, terms, order)
        except DeformationError:
            out.say(f"deformation {name} is itself invalid")
            out.kv("status", "fail")
            out.kv("reason", "invalid-deformation")
            return 1
        trace = extend_to(theta, target)
    if not trace.succeeded:
        out.say(f"extension blocked at order {trace.failed_at}: "
                "the obstruction class is nontrivial")
        out.say("obstruction residual:")
        _emit_triple(out, problem.field, "obstruction", trace.obstruction)
        out.kv("status", "fail")
        out.kv("failed.at", trace.failed_at)
        return 1
    out.say(f"extended to order {trace.deformation.order}")
    out.kv("status", "ok")
    out.kv("order", trace.deformation.order)
    for i, term in enumerate(trace.deformation.terms[1:], start=1):
        out.say(f"term {i}:" if not term.is_zero() else f"term {i}: 0")
        _emit_triple(out, problem.field, f"term.{i}", term)
    return 0


def _cmd_normalize(args) -> int:
    problem = _load(args)
    out = _Out(args.output == "machine")
    out.kv("command", "normalize")
    name = _pick(problem.deformations, args.deformation, "deformation")
    f, terms, order = problem.deformation_candidate(name)
    try:
        theta = check_deformation(f, terms, order)
    except DeformationError:
        out.say(f"deformation {name} is itself invalid")
        out.kv("status", "fail")
        out.kv("reason", "invalid-deformation")
        return 1
    try:
        phi, bar = normalize_leading_term(theta)
    except DeformationError as e:
        out.say(str(e))
        out.kv("status", "fail")
        out.kv("reason", "not-a-coboundary")
        return 1
    lead = next((i for i in range(1, bar.order + 1)
                 if not bar.terms[i].is_zero()), None)
    zero_through = bar.order if lead is None else lead - 1
    out.say(f"conjugation kills all terms through order {zero_through}")
    out.kv("status", "ok")
    out.kv("zero.through", zero_through)
    for k, (pr, ps) in enumerate(phi.terms):
        if k == 0:
            continue
        _emit_cochain_entries(out, problem.field, f"iso.{k}", "R", pr,
                              f.source.dim)
        _emit_cochain_entries(out, problem.field, f"iso.{k}", "S", ps,
                              f.target.dim)
    return 0


def _cmd_rigidity(args) -> int:
    _at_least("--probe-order", args.probe_order, 1)
    _at_least("--demo", args.demo, 0)
    problem = _load(args)
    out = _Out(args.output == "machine")
    out.kv("command", "rigidity")
    name = _pick(problem.morphisms, args.morphism, "morphism")
    f = problem.build_morphism(name)
    report = rigidity_check(f, probe_order=args.probe_order,
                            demo_count=args.demo, seed=args.seed)
    out.say(f"dim H^2({name},{name}) = {report.h2_dim}, {report.verdict}")
    out.kv("h2.dim", report.h2_dim)
    out.kv("verdict", report.verdict)
    if report.demos_run:
        out.say(f"trivialized {report.demos_trivialized} of "
                f"{report.demos_run} random order-{report.probe_order} "
                f"deformations (seed {args.seed})")
        out.kv("demo.run", report.demos_run)
        out.kv("demo.trivialized", report.demos_trivialized)
        out.kv("demo.seed", args.seed)
    out.kv("status", "ok")
    return 0


def _cmd_verify_identities(args) -> int:
    problem = _load(args)
    out = _Out(args.output == "machine")
    out.kv("command", "verify-identities")
    rng = random.Random(args.seed)
    failed = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failed
        if ok:
            out.say(f"verified: {label}")
        else:
            failed += 1
            out.say(f"FAILED: {label}")
        out.kv("identity", label.replace(" ", "-"), "ok" if ok else "fail")

    for name in problem.algebras:
        algebra = problem.build_algebra(name)
        reg = algebra.regular_bimodule()
        for i in (1, 2):
            prod = (differential_matrix(algebra, reg, i + 1)
                    @ differential_matrix(algebra, reg, i))
            check(f"algebra {name}: d{i + 1} after d{i} vanishes",
                  prod.is_zero())
        check(f"algebra {name}: the product is a 2-cocycle",
              differential(product_cochain(algebra)).is_zero())
    for name in problem.morphisms:
        f = problem.build_morphism(name)
        for i in (1, 2):
            prod = (morphism_differential_matrix(f, i + 1)
                    @ morphism_differential_matrix(f, i))
            check(f"morphism {name}: d{i + 1} after d{i} vanishes",
                  prod.is_zero())
        r, s = f.source, f.target
        for i in (1, 2, 3):
            xi = random_cochain(r, r.regular_bimodule(), i, rng)
            pi = random_cochain(s, s.regular_bimodule(), i, rng)
            ok = (push_forward_left(f, differential(xi))
                  == differential(push_forward_left(f, xi)))
            ok = ok and (push_forward_right(f, differential(pi))
                         == differential(push_forward_right(f, pi)))
            check(f"morphism {name}: push-forwards commute with d{i}", ok)
    for name in problem.deformations:
        f, terms, order = problem.deformation_candidate(name)
        try:
            theta = check_deformation(f, terms, order)
        except DeformationError:
            check(f"deformation {name}: is a valid deformation", False)
            continue
        check(f"deformation {name}: is a valid deformation", True)
        if theta.order >= 1:
            ob = obstruction(theta)
            ok, _ = is_cocycle(ob)
            check(f"deformation {name}: obstruction is a 3-cocycle", ok)
            check(f"deformation {name}: obstruction naturality",
                  verify_obstruction_identity(theta).ok)
    out.kv("status", "ok" if not failed else "fail")
    return 0 if not failed else 1


def _cmd_roundtrip(args) -> int:
    problem = _load(args)
    text = serialize(problem)
    if parse(text, field_override=problem.field) != problem:
        print("round-trip mismatch", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def _parser() -> argparse.ArgumentParser:
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
    p.add_argument("--degree", type=int, choices=(2, 3), required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--morphism", default=None)
    which.add_argument("--algebra", default=None,
                       help="use the algebra's own complex instead of a morphism")
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("check-deformation",
                       help="validate a deformation order by order")
    common(p)
    p.add_argument("--deformation", default=None)
    p.add_argument("--order", type=int, default=None,
                   help="validate only through this order")
    p.set_defaults(handler=_cmd_check_deformation)

    p = sub.add_parser("obstruction",
                       help="obstruction class of a deformation")
    common(p)
    p.add_argument("--deformation", default=None)
    p.add_argument("--order", type=int, default=None,
                   help="truncate the series to this order first")
    p.set_defaults(handler=_cmd_obstruction)

    p = sub.add_parser("extend", help="extend order by order")
    common(p)
    p.add_argument("--deformation", default=None)
    p.add_argument("--cochain", default=None,
                   help="start from a 2-cocycle instead of a deformation")
    p.add_argument("--target-order", type=int, required=True)
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("normalize",
                       help="kill a coboundary leading term by conjugation")
    common(p)
    p.add_argument("--deformation", default=None)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("rigidity", help="H^2 rigidity criterion")
    common(p)
    p.add_argument("--morphism", default=None)
    p.add_argument("--probe-order", type=int, default=4)
    p.add_argument("--demo", type=int, default=0,
                   help="when rigid, trivialize this many random deformations")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_rigidity)

    p = sub.add_parser("verify-identities",
                       help="machine-check the complex identities on the file")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_identities)

    p = sub.add_parser("roundtrip",
                       help="parse, re-serialize and verify the file")
    common(p)
    p.set_defaults(handler=_cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ProblemFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FieldError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IdentityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
