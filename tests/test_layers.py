"""The import layers: the closed forms load no numpy, no table module and
no ``dataclasses``, the CLI no ``typing``; the table layer is reached on
first access."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gpaley

SRC = str(Path(gpaley.__file__).resolve().parent.parent)
TABLE_MODULES = ("gpaley.field", "gpaley.graphs", "gpaley.forms", "gpaley.oracles")
CLOSED_FORM_MODULES = ("spec", "spectra", "applications", "arith", "budgets", "errors")
# what ``dataclasses`` costs a cold import: itself, and inspect, which it loads
RECORD_MACHINERY = ("dataclasses", "inspect")


def _run(script: str, *flags: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter, started with ``flags``, that
    imports gpaley from this tree."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


CLOSED_FORM_DISPATCH = f"""
import contextlib, io, sys
import gpaley
machinery = sorted(m for m in sys.modules if m in {RECORD_MACHINERY!r})
assert not machinery, ("import gpaley", machinery)
import gpaley.cli
spec = ["--p", "2", "--m", "8", "--ell", "2"]
argvs = [[verb] + spec for verb in ("srg", "spectrum", "trees", "walks")]
argvs += [["ramanujan", "--p", "3", "--m", "4", "--ell", "1", "--complement"],
          ["zeta", "--p", "2", "--s", "2", "--m", "4", "--ell", "1"],
          ["tables", "--family", "3"], ["waring", "--max-order", "0"] + spec]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert gpaley.cli.dispatch(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy"
                or m in {TABLE_MODULES!r} or m in {RECORD_MACHINERY!r})
assert not loaded, loaded
"""


def test_closed_form_verbs_load_no_numpy():
    # import gpaley and gpaley.cli, then dispatch every verb that reads the
    # spec alone: neither numpy, nor a table module, nor dataclasses or
    # inspect is imported on the way
    result = _run(CLOSED_FORM_DISPATCH)
    assert result.returncode == 0, result.stderr


CLI_WITHOUT_TYPING = """
import contextlib, io, sys
import gpaley.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert gpaley.cli.dispatch(["srg", "--p", "2", "--m", "8", "--ell", "2"]) == 0
assert "typing" not in sys.modules
"""


def test_cli_dispatch_imports_no_typing():
    # under -S no site .pth has loaded typing first, so this sees what the
    # package itself imports: the CLI and a closed-form verb need no typing
    result = _run(CLI_WITHOUT_TYPING, "-S")
    assert result.returncode == 0, result.stderr


def _imports(tree: ast.Module):
    """(line, module) of every module that an import in ``tree`` names,
    function bodies included; a package's own modules without the
    ``gpaley.`` prefix."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # from . import graphs, and from gpaley import graphs, name modules
            package = node.module is None or node.module == "gpaley"
            names = [a.name for a in node.names] if package else [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.removeprefix("gpaley.")


def test_closed_form_modules_import_no_table_layer():
    # the static half of the test above: no import in a closed-form module,
    # at its top or inside a function, reaches numpy or a table module
    table = {"numpy"} | {name.removeprefix("gpaley.") for name in TABLE_MODULES}
    package = Path(gpaley.__file__).parent
    found = [
        (module, line, name)
        for module in CLOSED_FORM_MODULES
        for line, name in _imports(ast.parse((package / f"{module}.py").read_text()))
        if name.split(".")[0] in table
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # every record in src/ is a spec.Record, the one record mechanism, so no
    # module, closed form or table layer, imports dataclasses anywhere
    package = Path(gpaley.__file__).parent
    found = [
        (path.name, line)
        for path in sorted(package.glob("*.py"))
        for line, name in _imports(ast.parse(path.read_text()))
        if name.split(".")[0] == "dataclasses"
    ]
    assert found == []


LAZY_NAMES = """
import sys
import gpaley
assert "numpy" not in sys.modules
import gpaley.field, gpaley.graphs, gpaley.spec
assert gpaley.field.get_field is gpaley.get_field
assert gpaley.build_graph is gpaley.graphs.build_graph
assert gpaley.GraphSpec is gpaley.graphs.GraphSpec is gpaley.spec.GraphSpec
assert gpaley.FieldParams is gpaley.field.FieldParams is gpaley.spec.FieldParams
from gpaley import trace
assert trace is gpaley.field.trace
assert gpaley.forms.TraceForm and gpaley.oracles.run_suite
try:
    gpaley.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


def test_table_layer_resolves_on_first_access():
    # gpaley.field, gpaley.get_field, gpaley.build_graph and gpaley.GraphSpec
    # resolve through the package, from a fresh interpreter where numpy is
    # not yet loaded, and an unknown name is still an AttributeError
    result = _run(LAZY_NAMES)
    assert result.returncode == 0, result.stderr

