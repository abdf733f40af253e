"""Command-line surface.

One verb per invocation:

    field | graph | spectrum | srg | walks | trees | waring | ramanujan |
    zeta | tables | verify | export

Specs are addressed with --p --s --m --ell, plus --complement on the verbs
whose output depends on it. JSON output is the machine-stable schema: field
names fixed, big integers always emitted as decimal strings (53-bit-safe for
downstream consumers).
The closed-form verbs (spectrum, srg, walks, trees, ramanujan, zeta, tables,
and waring without witnesses) read the spec alone and load no numpy; field,
graph, verify and export import the table layer inside the verb, and so does
waring when q^m is within the ``graph`` budget (--max-order): it then builds
the graph and searches its witnesses (``graphs.waring_witnesses``).
Exit status: 0 success, 1 verification failure, library error or an --out
that cannot be written, 2 usage error (a malformed flag, a flag the verb
does not offer, or a bad --p/--s/--m/--ell/--r/--tmax value or a negative
--max-order).
"""

import argparse
import json
import sys
from functools import cache

from .applications import family_table, ihara_zeta, is_ramanujan, waring_number, zeta_json
from .arith import int_to_str
from .budgets import budget
from .errors import GPaleyError
from .spec import FieldParams, GraphSpec, Record
from .spectra import closed_walks, record_json, spectrum, tree_count_text


class Verb(Record):
    """Everything the CLI knows about one verb."""

    reads: type | None  # GraphSpec, FieldParams, or None when no spec is named
    # (args, subject) -> text, a JSON payload, or None when nothing is printed;
    # a payload whose "ok" is false exits 1
    run: object
    complement: bool = False  # offers --complement: the output depends on it
    flags: tuple = ()  # the verb's own (flag, add_argument keywords) pairs
    formats: tuple[str, ...] = ("json",)  # --format choices; the first is the default
    budgeted: bool = False  # offers --max-order: it materializes a field or graph
    checks: tuple = ()  # (rejects(args), message) pairs, run before the verb


def _spectrum_text(sp) -> str:
    terms = (f"[{int_to_str(lam)}]^{int_to_str(mult)}" for lam, mult in sp.pairs)
    return "{" + ", ".join(terms) + "}"


def _field(args, params):
    from .field import element_to_string, field_to_dict, get_field

    fld = get_field(params.p, params.s, params.m, max_order=args.max_order)
    payload = field_to_dict(fld)
    payload["alpha_digits"] = element_to_string(fld, fld.alpha)
    return payload


def _graph(args, spec):
    from .graphs import build_graph

    g = build_graph(spec, max_order=args.max_order)
    return {
        "spec": spec.to_json(),
        "n": int_to_str(g.n),
        "k": int_to_str(g.k),
        "edges": int_to_str(g.n * g.k // 2),
    }


def _spectrum(args, spec):
    sp = spectrum(spec)
    if args.format == "text":
        return _spectrum_text(sp)
    return {
        "spec": spec.to_json(),
        "spectrum": [[int_to_str(lam), int_to_str(mult)] for lam, mult in sp.pairs],
    }


def _waring(args, spec):
    cert = waring_number(spec)  # refuses before a graph is built
    if spec.order <= budget("graph", args.max_order):
        from .graphs import build_graph, waring_witnesses

        cert = waring_witnesses(build_graph(spec, max_order=args.max_order))
    return {
        "exponent": int_to_str(cert.k_exp),
        "field_size": int_to_str(cert.field_size),
        "g": cert.g,
        "witnessed": cert.witnesses is not None,
    }


def _tables(args, _):
    """The family table, every integer as a decimal string."""
    rows = [
        {"t": int_to_str(spec.m // 2), "graph": spec.label(),
         **dict(zip(("v", "k", "e", "d"), map(int_to_str, rec.params()))),
         "spectrum": _spectrum_text(sp)}
        for spec, rec, sp in family_table(args.family, args.tmax)
    ]
    if args.format == "csv":
        return "\n".join(["t,graph,v,k,e,d,spectrum"] + [
            f'{r["t"]},{r["graph"]},{r["v"]},{r["k"]},{r["e"]},{r["d"]},'
            f'"{r["spectrum"].replace(" ", "")}"'
            for r in rows
        ])
    if args.format == "text":
        return "\n".join(
            f'{r["t"]}  {r["graph"]:22s} ({r["v"]}, {r["k"]}, {r["e"]}, {r["d"]})  {r["spectrum"]}'
            for r in rows
        )
    return rows


def _verify(args, spec):
    from .oracles import run_suite

    return run_suite(spec, max_order=args.max_order).to_json()


def _export(args, spec):
    from .graphs import build_graph, dimacs_lines, edge_list_lines, write_bit_dump

    g = build_graph(spec, max_order=args.max_order)
    if args.kind == "bits":
        write_bit_dump(g, args.out)
        return None
    return "\n".join(edge_list_lines(g) if args.kind == "edges" else dimacs_lines(g))


VERBS = {
    "field": Verb(FieldParams, _field, budgeted=True),
    "graph": Verb(GraphSpec, _graph, complement=True, budgeted=True),
    "spectrum": Verb(GraphSpec, _spectrum, complement=True, formats=("json", "text")),
    "srg": Verb(GraphSpec, lambda args, spec: record_json(spec), complement=True),
    "walks": Verb(
        GraphSpec,
        lambda args, spec: {"spec": spec.to_json(), "r": args.r,
                            "walks": int_to_str(closed_walks(spec, args.r))},
        complement=True,
        flags=(("--r", {"type": int, "default": 3, "help": "walk length"}),),
        checks=((lambda args: args.r < 1, "walk length --r must be positive"),),
    ),
    "trees": Verb(
        GraphSpec,
        lambda args, spec: {"spec": spec.to_json(), "trees": tree_count_text(spec)},
        complement=True,
    ),
    "waring": Verb(GraphSpec, _waring, budgeted=True),
    "ramanujan": Verb(
        GraphSpec,
        lambda args, spec: {"spec": spec.to_json(), "ramanujan": is_ramanujan(spec)},
        complement=True,
    ),
    "zeta": Verb(
        GraphSpec,
        lambda args, spec: {"spec": spec.to_json(), **zeta_json(ihara_zeta(spec))},
        complement=True,
    ),
    "tables": Verb(
        None,
        _tables,
        flags=(("--family", {"type": int, "required": True, "choices": (2, 3, 4)}),
               ("--tmax", {"type": int, "default": 4})),
        formats=("json", "csv", "text"),
        checks=((lambda args: args.tmax < 2, "--tmax must be at least 2"),),
    ),
    "verify": Verb(GraphSpec, _verify, budgeted=True),
    "export": Verb(
        GraphSpec,
        _export,
        complement=True,
        budgeted=True,
        flags=(("--kind", {"choices": ("edges", "dimacs", "bits"), "default": "edges"}),),
        checks=((lambda args: args.kind == "bits" and not args.out, "--kind bits requires --out"),),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpaley", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        sub = subparsers.add_parser(name)
        if verb.reads is not None:
            sub.add_argument("--p", type=int, required=True, help="characteristic (prime)")
            sub.add_argument("--s", type=int, default=1, help="base field degree: q = p^s")
            sub.add_argument("--m", type=int, required=True, help="extension degree over q")
        if verb.reads is GraphSpec:
            sub.add_argument("--ell", type=int, required=True, help="power index: exponent q^ell + 1")
        if verb.complement:
            sub.add_argument("--complement", action="store_true", help="use the complement graph")
        for flag, options in verb.flags:
            sub.add_argument(flag, **options)
        if len(verb.formats) > 1:
            sub.add_argument("--format", choices=verb.formats, default=verb.formats[0])
        sub.add_argument("--out", default=None, help="write to a file instead of stdout")
        if verb.budgeted:
            sub.add_argument("--max-order", type=int, default=None, help="materialization budget")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``dispatch`` reuses: built on the first call, and a parse
    leaves no state on it."""
    return build_parser()


def _subject(args, verb: Verb):
    """The field parameters or spec the arguments name (None for tables);
    raises ValueError on a bad argument value."""
    for rejects, message in verb.checks:
        if rejects(args):
            raise ValueError(message)
    if verb.budgeted and args.max_order is not None and args.max_order < 0:
        raise ValueError(f"--max-order must be 0 or more, not {args.max_order}")
    if verb.reads is FieldParams:
        return FieldParams(args.p, args.s, args.m)
    if verb.reads is GraphSpec:
        return GraphSpec(args.p, args.s, args.m, args.ell, verb.complement and args.complement)
    return None


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def dispatch(argv=None) -> int:
    args = _parser().parse_args(argv)
    verb = VERBS[args.verb]
    try:
        subject = _subject(args, verb)
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    try:
        out = verb.run(args, subject)
        if out is not None:
            _emit(args, out if isinstance(out, str) else json.dumps(out, indent=2))
    except (GPaleyError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 1 if isinstance(out, dict) and out.get("ok") is False else 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
