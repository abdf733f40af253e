import json
import re
import sys

import numpy as np
import pytest

import gpaley.cli
from gpaley.cli import dispatch
from gpaley.graphs import GraphSpec, build_graph, read_bit_dump


def _run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_json(capsys):
    code, out = _run(capsys, "spectrum", "--p", "2", "--s", "1", "--m", "12", "--ell", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"] == [["1365", "1"], ["21", "2730"], ["-43", "1365"]]
    assert payload["spec"] == {"p": 2, "s": 1, "m": 12, "ell": 1, "complemented": False}


def test_srg_record_json(capsys):
    code, out = _run(capsys, "srg", "--p", "3", "--m", "4", "--ell", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["srg"] == ["81", "20", "1", "6"]
    assert payload["array"] == ["20", "18", "1", "6"]
    assert payload["flags"]["ramanujan"] is True
    assert payload["flags"]["latin_square"] is None
    assert payload["trees"].isdigit()


GOLDEN_TABLE_2 = """t,graph,v,k,e,d,spectrum
2,Gamma_{3,4}(1),81,20,1,6,"{[20]^1,[2]^60,[-7]^20}"
2,co-Gamma_{3,4}(1),81,60,45,42,"{[60]^1,[6]^20,[-3]^60}"
3,Gamma_{3,6}(1),729,182,55,42,"{[182]^1,[20]^182,[-7]^546}"
3,co-Gamma_{3,6}(1),729,546,405,420,"{[546]^1,[6]^546,[-21]^182}"
4,Gamma_{3,8}(1),6561,1640,379,420,"{[1640]^1,[20]^4920,[-61]^1640}"
4,co-Gamma_{3,8}(1),6561,4920,3699,3660,"{[4920]^1,[60]^1640,[-21]^4920}"
"""


def test_tables_csv_byte_stable(capsys):
    code, out = _run(capsys, "tables", "--family", "3", "--tmax", "4", "--format", "csv")
    assert code == 0
    assert out == GOLDEN_TABLE_2
    # identical on a second run
    code, out2 = _run(capsys, "tables", "--family", "3", "--tmax", "4", "--format", "csv")
    assert out2 == out


def test_tables_family_2(capsys):
    code, out = _run(capsys, "tables", "--family", "2", "--tmax", "4", "--format", "csv")
    lines = out.strip().split("\n")
    assert len(lines) == 7  # header + six rows
    assert lines[1].startswith("2,Gamma_{2,4}(1),16,5,0,2")


GOLDEN_TREES = {
    "spec": {"p": 2, "s": 1, "m": 4, "ell": 1, "complemented": False},
    "trees": "2147483648",
}


def test_trees_golden(capsys):
    code, out = _run(capsys, "trees", "--p", "2", "--m", "4", "--ell", "1")
    assert code == 0
    assert json.loads(out) == GOLDEN_TREES


def test_walks_flag(capsys):
    code, out = _run(capsys, "walks", "--p", "2", "--m", "4", "--ell", "1",
                     "--complement", "--r", "3")
    assert code == 0
    assert json.loads(out)["walks"] == "960"


def test_zeta(capsys):
    code, out = _run(capsys, "zeta", "--p", "2", "--m", "4", "--ell", "1")
    payload = json.loads(out)
    assert payload["square_exp"] == "24"
    assert payload["factors"][0] == {"linear_coeff": "-5", "quad_coeff": "4", "exp": "1"}


def test_field_verb(capsys):
    code, out = _run(capsys, "field", "--p", "2", "--m", "4")
    payload = json.loads(out)
    assert payload["modulus"] == [1, 1, 0, 0, 1]
    assert payload["alpha"] == 2


def test_verify_exit_codes(capsys):
    code, out = _run(capsys, "verify", "--p", "2", "--m", "4", "--ell", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_ramanujan_verb(capsys):
    code, out = _run(capsys, "ramanujan", "--p", "2", "--m", "12", "--ell", "3")
    assert json.loads(out)["ramanujan"] is False


def test_waring_verb(capsys):
    code, out = _run(capsys, "waring", "--p", "2", "--m", "4", "--ell", "1")
    payload = json.loads(out)
    assert payload["g"] == 2 and payload["witnessed"] is True


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["spectrum", "--p", "2"])  # missing required flags
    assert exc.value.code == 2


def test_domain_error_exit_1(capsys):
    code, _ = _run(capsys, "spectrum", "--p", "2", "--m", "3", "--ell", "1")
    assert code == 1  # not a proper family member


def test_export_round_trip(tmp_path, capsys):
    path = tmp_path / "clebsch.bits"
    code, _ = _run(capsys, "export", "--p", "2", "--m", "4", "--ell", "1",
                   "--kind", "bits", "--out", str(path))
    assert code == 0
    header, adj = read_bit_dump(str(path))
    g = build_graph(GraphSpec(2, 1, 4, 1))
    assert np.array_equal(adj, g.adjacency)
    assert header["k"] == 5


def test_export_edges(capsys):
    code, out = _run(capsys, "export", "--p", "2", "--m", "2", "--ell", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    code, out = _run(capsys, "export", "--p", "2", "--m", "2", "--ell", "1",
                     "--kind", "dimacs")
    assert out.startswith("p edge 4 2")


def test_graph_verb(capsys):
    code, out = _run(capsys, "graph", "--p", "2", "--m", "4", "--ell", "1")
    payload = json.loads(out)
    assert payload["n"] == "16" and payload["k"] == "5" and payload["edges"] == "40"


def test_env_budget_override(monkeypatch, capsys):
    monkeypatch.setenv("GPG_MAX_ORDER", "8")
    code, _ = _run(capsys, "graph", "--p", "2", "--m", "4", "--ell", "1")
    assert code == 1  # 16 vertices over the overridden budget
    monkeypatch.delenv("GPG_MAX_ORDER")


_SPEC = ["--p", "2", "--m", "4", "--ell", "1"]
# one small invocation per verb, in the order of the verb table
_EVERY_VERB = {
    "field": ["--p", "2", "--m", "4"],
    "graph": _SPEC,
    "spectrum": _SPEC,
    "srg": _SPEC,
    "walks": _SPEC,
    "trees": _SPEC,
    "waring": _SPEC,
    "ramanujan": _SPEC,
    "zeta": _SPEC,
    "tables": ["--family", "2", "--tmax", "2"],
    "verify": _SPEC,
    "export": _SPEC,
}


def _untimed(report: str) -> dict:
    payload = json.loads(report)
    assert len(payload.pop("build_seconds")) == 2  # primal and complement
    for check in payload["checks"]:
        del check["seconds"]
    return payload


@pytest.mark.parametrize("verb", list(_EVERY_VERB))
def test_every_verb_writes_its_output_to_out(verb, tmp_path, capsys):
    argv = [verb, *_EVERY_VERB[verb]]
    code, expected = _run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out"
    code, out = _run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    written = path.read_text()
    if verb == "verify":  # build and check timings vary from run to run
        written, expected = _untimed(written), _untimed(expected)
    assert written == expected


def test_docstring_lists_every_verb():
    usage = gpaley.cli.build_parser().format_usage()
    parser_verbs = re.search(r"\{(.*?)\}", usage).group(1).split(",")
    block = gpaley.cli.__doc__.split("One verb per invocation:")[1].split("\n\n")[1]
    assert [verb.strip() for verb in block.split("|")] == parser_verbs
    assert parser_verbs == list(_EVERY_VERB)  # the --out test covers every verb


def test_out_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    code, out = _run(capsys, "spectrum", "--p", "2", "--m", "4", "--ell", "1",
                     "--out", str(path))
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["spectrum"][0] == ["5", "1"]


def test_digit_limit_untouched(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = _run(capsys, "srg", "--p", "2", "--m", "12", "--ell", "1")
    assert code == 0
    assert len(json.loads(out)["trees"]) > limit
    assert sys.get_int_max_str_digits() == limit


def _negated(text: str) -> str:
    return text[1:] if text.startswith("-") else "-" + text


def test_symbolic_verbs_past_the_digit_limit(capsys):
    # eigenvalues of Gamma_{2,14400}(1) run to 4,335 digits, past the
    # interpreter's default limit of 4,300
    limit = sys.get_int_max_str_digits()
    spec = ["--p", "2", "--m", "14400", "--ell", "1"]
    code, out = _run(capsys, "spectrum", *spec)
    assert code == 0
    pairs = json.loads(out)["spectrum"]
    assert max(len(lam) for lam, _ in pairs) > limit
    code, out = _run(capsys, "spectrum", *spec, "--format", "text")
    assert code == 0
    assert out == "{" + ", ".join(f"[{lam}]^{mult}" for lam, mult in pairs) + "}\n"
    code, out = _run(capsys, "zeta", *spec)
    assert code == 0
    factors = json.loads(out)["factors"]
    assert [[_negated(f["linear_coeff"]), f["exp"]] for f in factors] == pairs
    assert len({f["quad_coeff"] for f in factors}) == 1
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_tables_past_the_digit_limit(fmt, capsys):
    # the default limit is first passed near t = 3600; the lowest limit the
    # interpreter accepts (640 digits) is passed at t = 532
    code, expected = _run(capsys, "tables", "--family", "4", "--tmax", "540", "--format", fmt)
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = _run(capsys, "tables", "--family", "4", "--tmax", "540", "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert out == expected
    if fmt == "json":  # every integer as a decimal string
        assert all(isinstance(v, str) for row in json.loads(out) for v in row.values())


@pytest.mark.parametrize(
    "argv",
    [
        ["srg", "--p", "2", "--m", "4", "--ell", "1", "--format", "csv"],
        ["walks", "--p", "2", "--m", "4", "--ell", "1", "--format", "text"],
        ["spectrum", "--p", "2", "--m", "4", "--ell", "1", "--format", "csv"],
        ["srg", "--p", "2", "--m", "4", "--ell", "1", "--max-order", "8"],
        ["spectrum", "--p", "2", "--m", "4", "--ell", "1", "--max-order", "8"],
        ["tables", "--family", "2", "--max-order", "8"],
        ["verify", "--p", "2", "--m", "4", "--ell", "1", "--complement"],
        ["waring", "--p", "2", "--m", "4", "--ell", "1", "--complement"],
    ],
)
def test_flags_without_effect_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2


def test_spectrum_text(capsys):
    code, out = _run(capsys, "spectrum", "--p", "2", "--m", "4", "--ell", "1", "--format", "text")
    assert code == 0
    assert out == "{[5]^1, [1]^10, [-3]^5}\n"


@pytest.mark.parametrize("verb", ["field", "graph", "export", "verify"])
def test_max_order_takes_effect(verb, capsys):
    spec = ["--p", "2", "--m", "4"] + (["--ell", "1"] if verb != "field" else [])
    assert _run(capsys, verb, *spec, "--max-order", "8")[0] == 1
    assert _run(capsys, verb, *spec, "--max-order", "16")[0] == 0


def test_max_order_caps_waring_witnesses(capsys):
    spec = ["--p", "2", "--m", "4", "--ell", "1"]
    for max_order, witnessed in (("8", False), ("16", True)):
        code, out = _run(capsys, "waring", *spec, "--max-order", max_order)
        assert code == 0 and json.loads(out)["witnessed"] is witnessed


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--p", "4", "--m", "4", "--ell", "1"],
        ["field", "--p", "4", "--m", "2"],
        ["field", "--p", "2", "--m", "0"],
        ["srg", "--p", "2", "--s", "0", "--m", "4", "--ell", "1"],
        ["trees", "--p", "2", "--m", "0", "--ell", "1"],
        ["graph", "--p", "2", "--m", "4", "--ell", "4"],
        ["walks", "--p", "2", "--m", "4", "--ell", "1", "--r", "0"],
        ["export", "--p", "2", "--m", "4", "--ell", "1", "--kind", "bits"],
        ["tables", "--family", "2", "--tmax", "1"],
    ],
)
def test_bad_argument_values_exit_2(argv, capsys):
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(spec):
        raise ValueError("broken closed form")

    monkeypatch.setattr(gpaley.cli, "spectrum", broken)
    code = dispatch(["spectrum", "--p", "2", "--m", "4", "--ell", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: broken closed form\n"


_SRG = ["srg", "--p", "3", "--m", "4", "--ell", "1"]


def test_same_argv_twice_gives_the_same_output(capsys):
    # dispatch reuses one parser: a parse must leave nothing behind on it
    for argv in (_SRG, ["tables", "--family", "3", "--format", "csv"],
                 ["walks", "--p", "2", "--m", "4", "--ell", "1", "--r", "5", "--complement"]):
        first, second = _run(capsys, *argv), _run(capsys, *argv)
        assert first[0] == 0 and first == second


@pytest.mark.parametrize(
    "bad", [["srg", "--p", "3", "--m", "4"], ["walks", "--p", "2", "--m", "4", "--ell", "1", "--r", "0"]]
)
def test_usage_error_leaves_the_next_call_unaffected(bad, capsys):
    code, good = _run(capsys, *_SRG)
    assert code == 0
    try:
        assert dispatch(bad) == 2
    except SystemExit as exc:
        assert exc.code == 2
    capsys.readouterr()
    assert _run(capsys, *_SRG) == (0, good)


def test_parser_is_built_once_across_calls(monkeypatch, capsys):
    builds = []
    real = gpaley.cli.build_parser
    monkeypatch.setattr(gpaley.cli, "build_parser", lambda: builds.append(1) or real())
    gpaley.cli._parser.cache_clear()
    try:
        for argv in (_SRG, ["spectrum", "--p", "2", "--m", "4", "--ell", "1"], _SRG):
            assert _run(capsys, *argv)[0] == 0
        assert len(builds) == 1
        assert gpaley.cli.build_parser() is not gpaley.cli.build_parser()
    finally:
        gpaley.cli._parser.cache_clear()
