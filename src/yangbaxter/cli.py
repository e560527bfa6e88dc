"""Command-line surface.

Exit codes follow one contract everywhere: 0 means the mathematical claim
the command checked holds, 1 means it is false (a non-solution, a failed
condition, a failed theorem sweep), 2 means the invocation itself was bad
(usage, parse, dimension, side-condition or budget problems). Output is
plain text, or a JSON payload under ``--json``; the same invocation
always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import families as fam
from . import groebner, matio, oracle
from .core import check_pencil_condition, residual
from .errors import AlgebraError, ParseError, PreconditionError
from .fields import Field
from .groebner import MultiPoly, PolyRing, Reducers, buchberger, normal_form, ybe_ideal, ybe_ring
from .matrices import annihilator_basis, centralizer_basis, jordan_matrix
from .sylvester import SylvesterProblem, sylvester_solve

USAGE_ERROR = 2
CLAIM_FALSE = 1
OK = 0


def _emit(args, text: str | None, payload: dict | str | None) -> None:  # payload may be JSON text
    if args.json:
        text = (payload if isinstance(payload, str) else matio.dumps_json(payload)) + "\n"
    if getattr(args, "out", None):
        matio.save_text(args.out, text)
    else:
        sys.stdout.write(text)


def _field_of(args) -> Field:
    return Field.from_spec(args.field)


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args) -> int:
    a = matio.load_matrix(args.A)
    x = matio.load_matrix(args.X)
    rep = residual(a, x)
    text = (f"is_solution: {rep.is_solution}\n"
            f"residual: {rep.residual}\n")
    payload = {
        "is_solution": rep.is_solution,
        "residual": matio.matrix_to_json(rep.residual),
    }
    _emit(args, text, payload)
    return OK if rep.is_solution else CLAIM_FALSE


def _parse_params(fam_desc, pairs, field) -> dict:
    schema = {p.name: p for p in fam_desc.params}
    out = {}
    for raw in pairs:
        if "=" not in raw:
            raise ParseError(f"parameter {raw!r} is not name=value")
        name, _, value = raw.partition("=")
        if name not in schema:
            raise ParseError(f"family {fam_desc.name!r} has no parameter {name!r}")
        kind = schema[name].kind
        if kind == "scalar":
            out[name] = field.parse(value)
        elif kind == "count":
            if not value.isdecimal():
                raise ParseError(f"parameter {name} needs a positive integer")
            out[name] = int(value)
        elif kind == "choice":
            if value not in schema[name].choices:
                raise ParseError(
                    f"parameter {name} must be one of {', '.join(schema[name].choices)}"
                )
            out[name] = value
        elif kind == "scalars":
            out[name] = [field.parse(v) for v in value.split(",")] if value else []
        else:  # matrix
            out[name] = matio.load_matrix(value)
    return out


def cmd_construct(args) -> int:
    field = _field_of(args)
    fam_desc = fam.find_family(args.family)
    if fam_desc.build is None:
        raise PreconditionError(f"family {fam_desc.name!r} is API-only")
    params = _parse_params(fam_desc, args.param, field)
    coeff, x = fam.build_family(field, fam_desc.name, params)
    text = payload = None  # each output encodes only what it prints
    if args.json:
        payload = {
            "family": fam_desc.name,
            "coefficient": matio.matrix_to_json(coeff),
            "solution": matio.matrix_to_json(x),
        }
    else:
        text = matio.dumps_matrix(x)
    _emit(args, text, payload)
    if args.out_coefficient:
        matio.save_matrix(args.out_coefficient, coeff)
    return OK


def cmd_families(args) -> int:
    payload = {"families": [f.to_json() for f in fam.CATALOG]}
    lines = []
    for f in fam.CATALOG:
        alias = f" (aliases: {', '.join(f.aliases)})" if f.aliases else ""
        lines.append(f"{f.name}{alias}")
        lines.append(f"  coefficient: {f.coefficient}")
        lines.append(f"  side condition: {f.side_condition}")
        for p in f.params:
            choice = f" one of {','.join(p.choices)}" if p.choices else ""
            lines.append(f"  param {p.name} ({p.kind}{choice}): {p.doc}")
    _emit(args, "\n".join(lines) + "\n", payload)
    return OK


def cmd_census(args) -> int:
    field = _field_of(args)
    if field.p is None:
        raise PreconditionError("census needs --field gf:<p>")
    jordan = None
    if args.jordan:
        jordan = matio.parse_jordan(field, args.jordan)
        oracle.check_budget(field.p, jordan.dimension, args.budget, args.commuting)
        a = jordan_matrix(field, jordan)
    elif args.A:
        a = matio.load_matrix(args.A)
        if a.field is not field:
            raise PreconditionError("matrix field does not match --field")
    else:
        raise PreconditionError("census needs --jordan or --A")
    if args.commuting:
        report = oracle.enumerate_commuting_solutions(a, jordan=jordan,
                                                      budget=args.budget)
    else:
        report = oracle.enumerate_solutions(a, jordan=jordan, budget=args.budget)
    verdicts = oracle.verify_theorems_on_census(report)
    failures = [v for v in verdicts if not v.holds]
    lines = [
        f"field: {field.spec()}",
        f"coefficient: {a}",
        f"commuting_only: {args.commuting}",
        f"total: {report.total}",
        f"by_rank: {dict(sorted(report.by_rank.items()))}",
        f"by_kernel: {dict(sorted(report.by_kernel.items()))}",
    ]
    if report.family_tallies is not None:
        lines.append(f"family_tallies: {dict(sorted(report.family_tallies.items()))}")
    lines.append(f"theorem_checks: {len(verdicts)} run, {len(failures)} failed")
    for v in failures:
        lines.append(f"  FAIL {v.name}: {v.note}")
    if args.solutions:
        for x in report.solutions:
            lines.append(str(x))
    payload = None  # the text output never reads it
    if args.json:
        checks = {"run": len(verdicts), "failed": len(failures),
                  "failures": [{"name": v.name, "note": v.note} for v in failures]}
        payload = matio.dumps_census(report, theorem_checks=checks)
    _emit(args, "\n".join(lines) + "\n", payload)
    return OK if not failures else CLAIM_FALSE


def cmd_sylvester(args) -> int:
    a = matio.load_matrix(args.A)
    b = matio.load_matrix(args.B)
    c = matio.load_matrix(args.C)
    sol = sylvester_solve(SylvesterProblem(a, b, c))
    lines = [f"unique_for_every_rhs: {sol.unique}"]
    payload: dict = {"unique_for_every_rhs": sol.unique}
    if sol.inconsistent:
        lines.append("inconsistent: no solution")
        payload["inconsistent"] = True
    else:
        lines.append(f"particular: {sol.particular}")
        payload["particular"] = matio.matrix_to_json(sol.particular)
    lines.append(f"kernel_dimension: {len(sol.kernel)}")
    payload["kernel"] = [matio.matrix_to_json(k) for k in sol.kernel]
    for k in sol.kernel:
        lines.append(f"kernel basis: {k}")
    _emit(args, "\n".join(lines) + "\n", payload)
    return OK if not sol.inconsistent else CLAIM_FALSE


def cmd_groebner(args) -> int:
    if args.ideal == "ybe":
        if not args.jordan:
            raise PreconditionError("--ideal ybe needs --jordan")
        field = Field.rationals()
        jordan = matio.parse_jordan(field, args.jordan)
        ring = ybe_ring(jordan.dimension)
        gens = ybe_ideal(jordan_matrix(field, jordan), jordan.dimension)
    elif args.gens:
        if args.jordan:
            raise PreconditionError("--jordan belongs to --ideal ybe, not to --gens")
        doc = matio.load_json(args.gens)
        if not (isinstance(doc, dict) and all(
                isinstance(doc.get(key), list) and all(isinstance(v, str) for v in doc[key])
                for key in ("variables", "generators"))):
            raise ParseError(f"{args.gens}: needs 'variables' and 'generators' lists of strings")
        ring = PolyRing(doc["variables"])
        gens = [ring.parse(g) for g in doc["generators"]]
    else:
        raise PreconditionError("groebner needs --ideal ybe or --gens")
    if args.order:
        if not args.order.startswith("lex:"):
            raise ParseError("only lex orders are supported, e.g. lex:a..i")
        spec = args.order[4:]
        if ".." in spec:
            lo, _, hi = spec.partition("..")
            if len(lo) != 1 or len(hi) != 1 or ord(lo) > ord(hi):
                raise ParseError(f"bad order range {spec!r}")
            variables = tuple(chr(v) for v in range(ord(lo), ord(hi) + 1))
        else:
            variables = tuple(v.strip() for v in spec.split(","))
        new_ring = PolyRing(variables)
        if set(new_ring.variables) != set(ring.variables):
            raise ParseError("order override must permute the ring variables")
        remap = [ring.variables.index(v) for v in new_ring.variables]
        gens = [MultiPoly(new_ring, {tuple(m[i] for i in remap): c for m, c in g.terms})
                for g in gens]
        ring = new_ring
    basis = Reducers(buchberger(gens, pair_cap=args.pair_cap))  # one table for every probe
    payload = {"basis": [str(g) for g in basis], "probes": {}}  # each formatted once
    lines = ["reduced basis:", *(f"  {g}" for g in payload["basis"])]
    for probe_text in args.probe:
        nf = payload["probes"][probe_text] = str(normal_form(ring.parse(probe_text), basis))
        lines.append(f"normal_form({probe_text}) = {nf}")
    _emit(args, "\n".join(lines) + "\n", payload)
    return OK


def cmd_pencil(args) -> int:
    a = matio.load_matrix(args.A)
    x0 = matio.load_matrix(args.X0)
    x1 = matio.load_matrix(args.X1)
    verdict = check_pencil_condition(a, x0, x1)
    lines = [str(verdict)]
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness}")
    payload = {
        "holds": verdict.holds,
        "note": verdict.note,
        "witness": matio.matrix_to_json(verdict.witness) if verdict.witness else None,
    }
    _emit(args, "\n".join(lines) + "\n", payload)
    return OK if verdict.holds else CLAIM_FALSE


def cmd_centralizer(args) -> int:
    a = matio.load_matrix(args.A)
    basis = annihilator_basis(a) if args.annihilator else centralizer_basis(a)
    kind = "annihilator" if args.annihilator else "centralizer"
    lines = [f"{kind} dimension: {len(basis)}"]
    lines.extend(str(m) for m in basis)
    payload = {"kind": kind, "dimension": len(basis),
               "basis": [matio.matrix_to_json(m) for m in basis]}
    _emit(args, "\n".join(lines) + "\n", payload)
    return OK


# -- parser ---------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type for an int of at least ``low``; smaller values exit 2."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Exact tools for the matrix equation AXA = XAX.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=True):
        p.add_argument("--json", action="store_true", help="emit a JSON payload")
        p.add_argument("--out", help="write output to a file instead of stdout")
        if field:
            p.add_argument("--field", default="rat",
                           help="field spec: rat, gf:<p> or quad:<a> (default rat)")

    p = sub.add_parser("verify", help="check AXA = XAX for two matrix files")
    p.add_argument("--A", required=True, help="coefficient matrix file ('-' for stdin)")
    p.add_argument("--X", required=True, help="candidate matrix file")
    common(p, field=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="build a verified member of a solution family")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--out-coefficient", help="also write the coefficient matrix here")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("families", help="list the family catalog")
    common(p, field=False)
    p.set_defaults(func=cmd_families)

    for name in ("census", "enumerate"):
        p = sub.add_parser(name, help="exhaustive solution census over GF(p)")
        coefficient = p.add_mutually_exclusive_group()
        coefficient.add_argument("--A", help="coefficient matrix file")
        coefficient.add_argument("--jordan", help="Jordan shorthand, e.g. 0^3 or 1^2,1^2")
        p.add_argument("--commuting", action="store_true",
                       help="restrict to commuting solutions")
        p.add_argument("--budget", type=_int_at_least(1), default=oracle.DEFAULT_BUDGET,
                       help="candidate budget guard")
        p.add_argument("--solutions", action="store_true",
                       help="also print every solution")
        common(p)
        p.set_defaults(func=cmd_census)

    p = sub.add_parser("sylvester", help="solve AX + XB = C exactly")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    common(p, field=False)
    p.set_defaults(func=cmd_sylvester)

    p = sub.add_parser("groebner", help="reduced Groebner basis and normal forms")
    ideal = p.add_mutually_exclusive_group()
    ideal.add_argument("--ideal", choices=("ybe",), help="built-in ideal family")
    p.add_argument("--jordan", help="coefficient for the built-in ideal, e.g. 0^3")
    ideal.add_argument("--gens", help="JSON file with variables and generators")
    p.add_argument("--order", help="monomial order override, e.g. lex:a..i")
    p.add_argument("--probe", action="append", default=[],
                   help="polynomial whose normal form is reported")
    p.add_argument("--pair-cap", type=_int_at_least(0), default=groebner.DEFAULT_PAIR_CAP,
                   help="most S-pairs taken off the queue for reduction (exit 2 "
                        "beyond it); pairs the Gebauer-Moeller update drops never count")
    common(p, field=False)
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("pencil", help="check the pencil conditions for X0, X1")
    p.add_argument("--A", required=True)
    p.add_argument("--X0", required=True)
    p.add_argument("--X1", required=True)
    common(p, field=False)
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("centralizer", help="canonical centralizer or annihilator basis")
    p.add_argument("--A", required=True)
    p.add_argument("--annihilator", action="store_true")
    common(p, field=False)
    p.set_defaults(func=cmd_centralizer)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parsing leaves
    no state in it, so every call of ``main`` can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except AlgebraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
