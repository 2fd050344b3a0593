"""Command-line front end: relation generation, verification suites,
series dumps and rank computations.

Exit codes: 0 on success, 1 when a verification or internal check fails,
2 when a precondition or argument is violated (the offending condition is
named on stderr).  All rationals in emitted files are decimal strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .catalog import (
    SeriesCatalog,
    check_orders,
    delta_edge,
    edge_series_xy,
    identity_suite,
)
from .classes import (
    TautClass,
    matrix_rank,
    pushforward_forget,
    to_vector,
)
from .graphs import (
    PreconditionError,
    WeightData,
    check_stable,
    enumerate_graphs,
)
from .relations import (
    boundary_sq_relation,
    extended_fz_relation,
    fz_relation,
    open_fz_relation,
    open_sq_relation,
    pushforward_oracle,
    verify_chain,
)
from .serialize import dumps, series_to_dict
from .series import numerators

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2

class UsageError(ValueError):
    """Argument problem; maps to exit code 2."""


class Logger:
    """Lines of fields, as ``key=value`` text or, with ``--log json``, one
    JSON object each: ``row`` writes payload rows to stdout and ``event``
    writes status events to stderr."""

    def __init__(self, mode: str):
        self.mode = mode

    def _line(self, fields: dict) -> str:
        if self.mode == "json":
            return dumps(fields)
        return " ".join(f"{k}={v}" for k, v in sorted(fields.items()))

    def row(self, **fields) -> None:
        print(self._line(fields))

    def event(self, **fields) -> None:
        print(self._line(fields), file=sys.stderr)


def _parse_list(text: str, flag: str, parse, kind: str) -> tuple:
    """The comma-separated values of ``flag``, each read by ``parse``."""
    out = []
    for part in text.split(",") if text else ():
        try:
            out.append(parse(part))
        except (ValueError, ZeroDivisionError):
            raise UsageError(
                f"{flag} part {part!r} is not {kind}") from None
    return tuple(out)


def _parse_fractions(text: str, flag: str) -> tuple:
    return _parse_list(text, flag, Fraction, "a rational number")


def _parse_ints(text: str, flag: str) -> tuple:
    return _parse_list(text, flag, int, "an integer")


def _parse_orders(text: str) -> dict:
    """The ``--orders`` of a series dump; a variable given twice exits 2
    naming it."""
    out = {}
    for part in text.split(","):
        var, _, value = part.partition("=")
        var = var.strip()
        try:
            order = int(value)
        except ValueError:
            raise UsageError(
                f"order {part!r} is not of the form var=N") from None
        if order < 0:
            raise UsageError(f"order >= 0 violated: {part}")
        if var in out:
            raise UsageError(f"order {var} is given twice")
        out[var] = order
    return out


def _write_payload(payload: dict, out: str | None) -> None:
    text = dumps(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _primitive_scale(rel: TautClass) -> TautClass:
    """Clear denominators and divide by the content, keeping the sign of
    the lexicographically first stored coefficient."""
    if not rel.terms:
        return rel
    den, nums = numerators(rel.terms)
    scale = Fraction(den, math.gcd(*nums.values()))
    return rel.scale(scale if nums[min(nums)] > 0 else -scale)


def _given(**values) -> dict:
    """The keyword arguments the user gave; the others keep the callee's
    defaults."""
    return {name: value for name, value in values.items() if value is not None}


def _reject_unread(args, table: dict, reader: str, kind: str) -> None:
    """Exit 2 on a flag of ``table`` that ``args`` gives and ``reader`` does
    not read."""
    reads = table[reader][0]
    for flag in dict.fromkeys(f for flags, _ in table.values() for f in flags):
        given = getattr(args, flag[2:].replace("-", "_")) is not None
        if given and flag not in reads:
            raise UsageError(f"{flag} is not read by the {reader} {kind}")


def _sq(build, args) -> TautClass:
    """A stable-quotient construction; signs the user did not give keep the
    construction's own defaults."""
    return build(args.genus, args.weights, args.codim, args.d or 0,
                 _parse_ints(args.a, "--a") or (0,) * args.weights.n,
                 **_given(half_sign=args.half_sign, pd_sign=args.pd_sign))


_SQ_FLAGS = ("--d", "--a", "--half-sign", "--pd-sign")

# construction -> (the flags of its own it reads, builder)
_CONSTRUCTIONS = {
    "fz": (("--subset", "--sigma"), lambda args: fz_relation(
        args.genus, args.weights, args.codim, args.subset)),
    "open-fz": (("--subset",), lambda args: open_fz_relation(
        args.genus, args.weights, args.codim, args.subset)),
    "open-sq": (_SQ_FLAGS, lambda args: _sq(open_sq_relation, args)),
    "boundary-sq": (_SQ_FLAGS, lambda args: _sq(boundary_sq_relation, args)),
    "extended": (("--subset", "--sigma"), lambda args: extended_fz_relation(
        args.genus, args.weights, args.codim, args.sigma, args.subset)),
}


def cmd_relations_gen(args, log: Logger) -> int:
    construction = args.construction
    _reject_unread(args, _CONSTRUCTIONS, construction, "construction")
    args.weights = WeightData.of(_parse_fractions(args.weights, "--weights"))
    args.subset = _parse_ints(args.subset, "--subset")
    args.sigma = _parse_ints(args.sigma, "--sigma")
    if args.sigma and construction == "fz":
        construction = "extended"
    started = time.perf_counter()
    rel = _CONSTRUCTIONS[construction][1](args)
    if args.primitive:
        rel = _primitive_scale(rel)
    elapsed = time.perf_counter() - started
    _, rows = to_vector([rel])
    rank = matrix_rank(rows)
    payload = {
        "construction": construction,
        "genus": args.genus,
        "codim": args.codim,
        "weights": [str(w) for w in args.weights.weights],
        "subset": list(args.subset),
        "sigma": list(args.sigma),
        "relations": [rel.to_dict()],
        "generators": len(rel.terms),
        "rank": rank,
    }
    _write_payload(payload, args.out)
    log.event(command="relations gen", generators=len(rel.terms), rank=rank,
              seconds=round(elapsed, 6))
    return EXIT_OK


def _report(rows, log: Logger) -> int:
    ok_all = True
    for name, ok, detail in rows:
        ok_all = ok_all and ok
        log.row(check=name, ok=bool(ok), detail=str(detail))
    log.row(passed=sum(1 for _, ok, _ in rows if ok), total=len(rows))
    return EXIT_OK if ok_all else EXIT_FAIL


def _read_json(path: str, what: str, parse):
    """``parse`` applied to the JSON in ``path``; a file that cannot be read
    or does not hold what ``parse`` expects exits 2 naming the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def _batch_classes(data) -> list:
    if isinstance(data, dict):
        data = data.get("relations", [data])
    return [
        TautClass.from_dict(item["relation"] if "relation" in item else item)
        for item in data
    ]


def _load_batch(path: str) -> list:
    classes = _read_json(path, "batch", _batch_classes)
    if not classes:
        raise UsageError("batch holds no relations")
    codims = set()
    for c in classes:
        codims |= c.codims()
    if len(codims) > 1:
        raise UsageError(f"mixed-codimension batch: {sorted(codims)}")
    spaces = {(c.genus, ",".join(map(str, c.weights.weights))) for c in classes}
    if len(spaces) > 1:
        raise UsageError(f"mixed-space batch: {sorted(spaces)}")
    return classes


def cmd_rank(args, log: Logger) -> int:
    classes = _load_batch(args.batch)
    _, rows = to_vector(classes)
    rank = matrix_rank(rows)
    print(dumps({"relations": len(classes), "rank": rank}))
    log.event(command="rank", relations=len(classes), rank=rank)
    return EXIT_OK


def _chain(args) -> list:
    genus = 3 if args.genus is None else args.genus
    return verify_chain(genus, genus - 1 if args.codim is None else args.codim)


# suite -> (the flags of its own it reads, runner)
_SUITES = {
    "series": (("--quick", "--seed"), lambda args: identity_suite(
        **_given(quick=args.quick, seed=args.seed))),
    "chain": (("--genus", "--codim"), _chain),
    "pushforward": (("--d",), lambda args: pushforward_oracle(
        **_given(d_max=args.d))),
}


def cmd_verify(args, log: Logger) -> int:
    _reject_unread(args, _SUITES, args.suite, "suite")
    return _report(_SUITES[args.suite][1](args), log)


def _rename_ring(data: dict, mapping: dict) -> dict:
    for spec in data["ring"]:
        spec["var"] = mapping.get(spec["var"], spec["var"])
    return data


# the edge kernels series dump tabulates over sign pairs:
# name -> (the orders it reads, kernel of the signs and orders)
_EDGE_KERNELS = {
    "DeltaE": (("t",), lambda z1, z2, orders: delta_edge(z1, z2, orders["t"])),
    "Edge3": (("t", "x"), lambda z1, z2, orders: edge_series_xy(
        z1, z2, orders["t"], orders.get("x", 0), kind=3)),
    "Edge4": (("t", "x"), lambda z1, z2, orders: edge_series_xy(
        z1, z2, orders["t"], orders.get("x", 0), kind=4)),
}


def cmd_series_dump(args, log: Logger) -> int:
    name = args.name
    if name == "C":
        if args.i is None:
            raise UsageError("series C needs --i")
        name = f"C{args.i}"
    elif args.i is not None:
        raise UsageError(f"--i is not read by series {name}")
    orders = _parse_orders(args.orders)
    try:
        check_orders(name, orders,
                     _EDGE_KERNELS[name][0] if name in _EDGE_KERNELS else None)
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    payload = {"name": args.name, "orders": orders}
    if name in _EDGE_KERNELS:
        table = []
        for z1 in (1, -1):
            for z2 in (1, -1):
                series = _EDGE_KERNELS[name][1](z1, z2, orders)
                entry = _rename_ring(series_to_dict(series),
                                     {"p1": "psi1", "p2": "psi2"})
                entry["zeta"] = [z1, z2]
                table.append(entry)
        payload["table"] = table
    else:
        payload.update(series_to_dict(SeriesCatalog().get(name, **orders)))
    _write_payload(payload, args.out)
    log.event(command="series dump", name=args.name)
    return EXIT_OK


def cmd_graphs_list(args, log: Logger) -> int:
    weights = WeightData.of(_parse_fractions(args.weights, "--weights"))
    graphs = enumerate_graphs(args.genus, weights, args.max_edges)
    check_stable(args.genus, weights)  # after the checks of the arguments
    payload = {"genus": args.genus,
               "weights": [str(w) for w in weights.weights],
               "graphs": [g.to_dict() for g in graphs]}
    _write_payload(payload, args.out)
    log.event(command="graphs list", count=len(graphs))
    return EXIT_OK


def _read_class(path: str) -> TautClass:
    return _read_json(path, "class file", TautClass.from_dict)


def cmd_classes_normal_form(args, log: Logger) -> int:
    c = _read_class(args.infile)
    _write_payload(c.to_dict(), args.out)
    log.event(command="classes normal-form", terms=len(c.terms))
    return EXIT_OK


def cmd_classes_pushforward(args, log: Logger) -> int:
    c = pushforward_forget(_read_class(args.infile), args.forget)
    _write_payload(c.to_dict(), args.out)
    log.event(command="classes pushforward", terms=len(c.terms))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautrels",
        description="Construct and verify tautological relations on "
                    "weighted moduli of curves.",
    )
    parser.add_argument("--seed", type=int, help="seed for the randomized "
                        "checks of verify --suite series")
    parser.add_argument("--log", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    relations = sub.add_parser("relations", help="relation generation")
    rel_sub = relations.add_subparsers(dest="subcommand", required=True)
    gen = rel_sub.add_parser("gen", help="generate one relation")
    gen.add_argument("--genus", type=int, required=True)
    gen.add_argument("--weights", default="", help="comma-separated rationals")
    gen.add_argument("--codim", type=int, required=True)
    gen.add_argument("--subset", help="markings, e.g. 1,3")
    gen.add_argument("--sigma", help="partition, e.g. 1,1,4")
    gen.add_argument("--construction", choices=tuple(_CONSTRUCTIONS),
                     default="fz")
    gen.add_argument("--d", type=int, default=None, help="x-degree for the "
                     "stable-quotient constructions (default 0)")
    gen.add_argument("--a", help="marking exponents for the "
                     "stable-quotient constructions")
    gen.add_argument("--half-sign", type=int, choices=(1, -1), default=None)
    gen.add_argument("--pd-sign", type=int, choices=(1, -1), default=None)
    gen.add_argument("--primitive", action="store_true",
                     help="rescale to a primitive integer form")
    gen.add_argument("--out", help="output file (default stdout)")
    gen.set_defaults(func=cmd_relations_gen)

    verify = sub.add_parser("verify", help="verification suites")
    verify.add_argument("--suite", choices=tuple(_SUITES), required=True)
    verify.add_argument("--genus", type=int, default=None)
    verify.add_argument("--codim", type=int, default=None)
    verify.add_argument("--d", type=int, default=None)
    verify.add_argument("--quick", action="store_true", default=None)
    verify.set_defaults(func=cmd_verify)

    series = sub.add_parser("series", help="series dumps")
    ser_sub = series.add_subparsers(dest="subcommand", required=True)
    dump = ser_sub.add_parser("dump", help="dump a named series as JSON")
    dump.add_argument("--name", required=True)
    dump.add_argument("--orders", required=True, help="e.g. t=10,x=3")
    dump.add_argument("--i", type=int, default=None, help="index for C_i")
    dump.add_argument("--out", help="output file (default stdout)")
    dump.set_defaults(func=cmd_series_dump)

    rank = sub.add_parser("rank", help="rank of a relation batch")
    rank.add_argument("--batch", required=True)
    rank.set_defaults(func=cmd_rank)

    graphs = sub.add_parser("graphs", help="stable graph enumeration")
    gr_sub = graphs.add_subparsers(dest="subcommand", required=True)
    glist = gr_sub.add_parser("list")
    glist.add_argument("--genus", type=int, required=True)
    glist.add_argument("--weights", default="")
    glist.add_argument("--max-edges", type=int, required=True)
    glist.add_argument("--out")
    glist.set_defaults(func=cmd_graphs_list)

    classes = sub.add_parser("classes", help="decorated class utilities")
    cl_sub = classes.add_subparsers(dest="subcommand", required=True)
    nform = cl_sub.add_parser("normal-form")
    nform.add_argument("--in", dest="infile", required=True)
    nform.add_argument("--out")
    nform.set_defaults(func=cmd_classes_normal_form)
    push = cl_sub.add_parser("pushforward")
    push.add_argument("--in", dest="infile", required=True)
    push.add_argument("--forget", type=int, default=1,
                      help="number of trailing points to forget, each by "
                           "the rule its weight fixes (default 1)")
    push.add_argument("--out")
    push.set_defaults(func=cmd_classes_pushforward)

    return parser


# global flags that are gone -> what replaces them
_REMOVED_FLAGS = {
    "--cache-dir": "set the cache directory with TAUTRELS_CACHE",
    "--config": "give each setting as a command-line flag",
    "--threads": "every command runs on one thread",
}


def main(argv: list | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for arg in argv:
        flag = arg.partition("=")[0]
        if flag in _REMOVED_FLAGS:
            parser.error(f"{flag} was removed: {_REMOVED_FLAGS[flag]}")
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.func is not cmd_verify:
            raise UsageError("--seed is read only by verify --suite series")
        return args.func(args, Logger(args.log))
    except PreconditionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PRECONDITION
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PRECONDITION
    except (NotImplementedError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
