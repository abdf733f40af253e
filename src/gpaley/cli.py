"""Command-line surface.

One verb per invocation:

    field | graph | spectrum | srg | walks | trees | waring | ramanujan |
    zeta | tables | verify | export

Specs are addressed with --p --s --m --ell and optionally --complement.
JSON output is the machine-stable schema: field names fixed, big integers
always emitted as decimal strings (53-bit-safe for downstream consumers).
Exit status: 0 success, 1 verification failure or library error, 2 usage
error (a malformed flag or a bad --p/--s/--m/--ell/--r value).
"""

import argparse
import json
import sys

from .applications import family_table, ihara_zeta, is_ramanujan, waring_number, zeta_json
from .arith import int_to_str
from .errors import CompositeP, GPaleyError
from .field import FieldParams, build_field, element_to_string, field_to_dict
from .graphs import (
    GraphSpec,
    build_graph,
    dimacs_lines,
    edge_list_lines,
    write_bit_dump,
)
from .oracles import run_suite
from .spectra import closed_walks, record_json, spanning_trees, spectrum


def _spec_args(sub):
    sub.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    sub.add_argument("--s", type=int, default=1, help="base field degree: q = p^s")
    sub.add_argument("--m", type=int, required=True, help="extension degree over q")
    sub.add_argument("--ell", type=int, required=True, help="power index: exponent q^ell + 1")
    sub.add_argument("--complement", action="store_true", help="use the complement graph")


# The output formats of the verbs that offer more than JSON, and the verbs
# that materialize a field or graph and so take a size budget.
_FORMATS = {"spectrum": ("json", "text"), "tables": ("json", "csv", "text")}
_BUDGETED = ("field", "graph", "export", "waring", "verify")


def _output_args(sub, verb):
    if verb in _FORMATS:
        sub.add_argument("--format", choices=_FORMATS[verb], default="json")
    sub.add_argument("--out", default=None, help="write to a file instead of stdout")
    if verb in _BUDGETED:
        sub.add_argument("--max-order", type=int, default=None, help="materialization budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpaley", description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)

    for verb, needs_spec in [
        ("field", False),
        ("graph", True),
        ("spectrum", True),
        ("srg", True),
        ("walks", True),
        ("trees", True),
        ("waring", True),
        ("ramanujan", True),
        ("zeta", True),
        ("verify", True),
        ("export", True),
    ]:
        sub = verbs.add_parser(verb)
        if needs_spec:
            _spec_args(sub)
        else:
            sub.add_argument("--p", type=int, required=True)
            sub.add_argument("--s", type=int, default=1)
            sub.add_argument("--m", type=int, required=True)
        _output_args(sub, verb)
        if verb == "walks":
            sub.add_argument("--r", type=int, default=3, help="walk length")
        if verb == "export":
            sub.add_argument(
                "--kind", choices=("edges", "dimacs", "bits"), default="edges"
            )

    tables = verbs.add_parser("tables")
    tables.add_argument("--family", type=int, required=True, choices=(2, 3, 4))
    tables.add_argument("--tmax", type=int, default=4)
    _output_args(tables, "tables")
    return parser


def _subject(args):
    """The field parameters or spec the arguments name (None for tables);
    raises ValueError or CompositeP on a bad argument value."""
    if args.verb == "tables":
        return None
    if args.verb == "field":
        return FieldParams(args.p, args.s, args.m)
    if args.verb == "walks" and args.r < 1:
        raise ValueError("walk length --r must be positive")
    if args.verb == "export" and args.kind == "bits" and not args.out:
        raise ValueError("--kind bits requires --out")
    return GraphSpec(args.p, args.s, args.m, args.ell, args.complement)


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)


def _spectrum_text(sp) -> str:
    terms = (f"[{int_to_str(lam)}]^{int_to_str(mult)}" for lam, mult in sp.pairs)
    return "{" + ", ".join(terms) + "}"


def _table_rows(q: int, tmax: int) -> list[dict]:
    """The family table, every integer as a decimal string."""
    return [
        {"t": int_to_str(spec.m // 2), "graph": spec.label(),
         **dict(zip(("v", "k", "e", "d"), map(int_to_str, rec.params()))),
         "spectrum": _spectrum_text(sp)}
        for spec, rec, sp in family_table(q, tmax)
    ]


def _tables_csv(rows: list[dict]) -> str:
    out = ["t,graph,v,k,e,d,spectrum"]
    for r in rows:
        spec_str = r["spectrum"].replace(" ", "")
        out.append(f'{r["t"]},{r["graph"]},{r["v"]},{r["k"]},{r["e"]},{r["d"]},"{spec_str}"')
    return "\n".join(out)


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        subject = _subject(args)
    except (ValueError, CompositeP) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    try:
        return _run_verb(args, subject)
    except (GPaleyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _run_verb(args, subject) -> int:
    verb = args.verb

    if verb == "field":
        fld = build_field(subject, max_order=args.max_order)
        payload = field_to_dict(fld)
        payload["alpha_digits"] = element_to_string(fld.element(fld.alpha))
        _emit(args, _json_dump(payload))
        return 0

    if verb == "tables":
        rows = _table_rows(args.family, args.tmax)
        if args.format == "csv":
            _emit(args, _tables_csv(rows))
        elif args.format == "text":
            _emit(args, "\n".join(
                f'{r["t"]}  {r["graph"]:22s} ({r["v"]}, {r["k"]}, {r["e"]}, {r["d"]})  {r["spectrum"]}'
                for r in rows
            ))
        else:
            _emit(args, _json_dump(rows))
        return 0

    spec = subject

    if verb == "spectrum":
        sp = spectrum(spec)
        payload = {
            "spec": spec.to_json(),
            "spectrum": [[int_to_str(l), int_to_str(mlt)] for l, mlt in sp.pairs],
        }
        if args.format == "text":
            _emit(args, _spectrum_text(sp))
        else:
            _emit(args, _json_dump(payload))
        return 0

    if verb == "srg":
        _emit(args, _json_dump(record_json(spec)))
        return 0

    if verb == "walks":
        w = closed_walks(spec, args.r)
        _emit(args, _json_dump({"spec": spec.to_json(), "r": args.r, "walks": int_to_str(w)}))
        return 0

    if verb == "trees":
        t = spanning_trees(spec)
        _emit(args, _json_dump({"spec": spec.to_json(), "trees": int_to_str(t)}))
        return 0

    if verb == "waring":
        cert = waring_number(spec, max_order=args.max_order)
        payload = {
            "exponent": int_to_str(cert.k_exp),
            "field_size": int_to_str(cert.field_size),
            "g": cert.g,
            "witnessed": cert.witnesses is not None,
        }
        _emit(args, _json_dump(payload))
        return 0

    if verb == "ramanujan":
        _emit(args, _json_dump({"spec": spec.to_json(), "ramanujan": is_ramanujan(spec)}))
        return 0

    if verb == "zeta":
        z = ihara_zeta(spec)
        _emit(args, _json_dump({"spec": spec.to_json(), **zeta_json(z)}))
        return 0

    if verb == "graph":
        g = build_graph(spec, max_order=args.max_order)
        payload = {
            "spec": spec.to_json(),
            "n": int_to_str(g.n),
            "k": int_to_str(g.k),
            "edges": int_to_str(int(g.adjacency.sum()) // 2),
        }
        _emit(args, _json_dump(payload))
        return 0

    if verb == "export":
        g = build_graph(spec, max_order=args.max_order)
        if args.kind == "bits":
            write_bit_dump(g, args.out)
            return 0
        lines = edge_list_lines(g) if args.kind == "edges" else dimacs_lines(g)
        _emit(args, "\n".join(lines))
        return 0

    if verb == "verify":
        report = run_suite(spec, max_order=args.max_order)
        _emit(args, _json_dump(report.to_json()))
        return 0 if report.ok else 1

    sys.stderr.write(f"usage error: unknown verb {verb}\n")  # unreachable
    return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
