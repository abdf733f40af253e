import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gpaley

MODULES = sorted(p for p in Path(gpaley.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


def _module_constants(tree: ast.Module) -> set[str]:
    """Upper-case names bound at module level, such as ``_ROW_BLOCK``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.lstrip("_").isupper()}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_constant_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(_module_constants(tree) - read) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """Functions, methods and classes with a single leading underscore."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, defs) and node.name.startswith("_") and not node.name.startswith("__")
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_read(path):
    # a private helper that its own module never reads is dead code
    tree = ast.parse(path.read_text(), filename=str(path))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    assert sorted(_private_definitions(tree) - read) == []


def _nodes_by_function(tree: ast.Module, kind: type = ast.Call):
    """(enclosing function name or None, node) for every node of ``kind``,
    a call by default."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, kind):
                yield owner, child
            yield from visit(child, owner)

    return visit(tree, None)


def _sites(predicate, kind: type = ast.Call) -> set[tuple[str, str | None]]:
    return {
        (path.name, owner)
        for path in MODULES
        for owner, node in _nodes_by_function(ast.parse(path.read_text()), kind)
        if predicate(node)
    }


def test_budget_refusals_come_from_require():
    # every size refusal goes through budgets.require; the other
    # BudgetExceeded raise refuses work that no size budget describes
    sites = _sites(lambda c: isinstance(c.func, ast.Name) and c.func.id == "BudgetExceeded")
    allowed = {("arith.py", "factorize")}
    assert sorted(s for s in sites if s[0] != "budgets.py" and s not in allowed) == []


def _is_attr(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == name


def _is_adjacency_sum(call: ast.Call) -> bool:
    """A sum over a whole adjacency, with or without ``axis``: of the bool
    matrix, ``<x>.adjacency.sum(...)`` or ``<x>.adjacency.view(...).sum(...)``,
    or a popcount of the packed bits or a slice of them,
    ``<table>[<x>.bits].sum(...)`` or ``<f>(..., <x>.bits[...], ...).sum(...)``
    for ``<f>`` one of ``take``, ``bitwise_count`` and ``unpackbits``."""
    if not _is_attr(call.func, "sum"):
        return False
    summed = call.func.value
    if isinstance(summed, ast.Call) and _is_attr(summed.func, "view"):
        summed = summed.func.value
    if isinstance(summed, ast.Subscript):
        return _reads_bits(summed.slice)
    if isinstance(summed, ast.Call):
        f = summed.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return name in ("take", "bitwise_count", "unpackbits") and any(
            _reads_bits(arg) for arg in summed.args
        )
    return _is_attr(summed, "adjacency")


def _reads_bits(node: ast.AST) -> bool:
    """``<x>.bits`` or a subscript of it, such as a block of its rows."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return _is_attr(node, "bits")


def test_adjacency_sum_matcher_sees_every_form():
    forms = ["g.adjacency.sum(axis=1)", "g.adjacency.view(np.uint8).sum()",
             "_POPCOUNT[self.bits].sum(axis=1)", "np.take(_POPCOUNT, self.bits).sum(axis=1)",
             "np.take(_POPCOUNT, self.bits[start : start + 256]).sum(axis=1, dtype=dtype)",
             "np.bitwise_count(g.bits).sum()",
             "np.unpackbits(g.bits, axis=1).sum(axis=1)"]
    others = ["g.row0.sum()", "g.bits.sum()", "counts.sum(axis=1)", "_POPCOUNT[g.row0].sum()",
              "np.take(_POPCOUNT, g.row0).sum()"]
    for text, expected in [(f, True) for f in forms] + [(f, False) for f in others]:
        assert _is_adjacency_sum(ast.parse(text, mode="eval").body) is expected, text


def test_degrees_are_counted_once():
    # no N^2 pass over an adjacency for its degrees or its edge count, the
    # bool matrix summed or the packed bits popcounted, is left: the degree
    # is k, read off the connection set, and gpaley graph prints n k / 2 edges
    assert _sites(_is_adjacency_sum) == set()


def test_spectra_are_counted_by_one_transform():
    # every eigenvalue, walk, srg, tree and Ramanujan count reads the
    # character transform through the graph's cached eigenvalues and row 0
    # of A^2, and nothing else calls it
    sites = _sites(
        lambda c: isinstance(c.func, ast.Attribute) and c.func.attr == "_character_sums"
    )
    assert sites == {("graphs.py", "eigenvalues"), ("graphs.py", "square_row")}


def test_the_packed_rows_are_read_by_few_sites():
    # CayleyGraph.bits fills the packed rows from the connection set; only
    # the unpacking and the bit-dump export read them. Every oracle count
    # reads row 0 and its transform, or the unpacked matrix
    sites = _sites(lambda a: a.attr == "bits" and isinstance(a.ctx, ast.Load), ast.Attribute)
    assert sites == {("graphs.py", "adjacency"), ("graphs.py", "write_bit_dump")}


def test_the_field_is_certified_by_build_graph_alone():
    # the O(N) field certificate runs on every graph build_graph returns, and
    # neither get_field nor a field table's construction calls it
    sites = _sites(lambda c: isinstance(c.func, ast.Name) and c.func.id == "certify_field")
    assert sites == {("graphs.py", "build_graph")}


def test_the_trace_sequence_has_one_reader():
    # every trace-form count reads its coset as a strided view of the
    # log-order trace table, and nothing else reads that table
    sites = _sites(
        lambda c: isinstance(c.func, ast.Attribute) and c.func.attr == "trace_sequence"
    )
    assert sites == {("forms.py", "_unit_values")}


def _connectivity_rules() -> set[tuple[str, str | None]]:
    """(module, enclosing function) of every boolean expression in src/
    that reads both ``is_half`` and ``complemented``."""
    def visit(node, owner, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name, name)
                continue
            if isinstance(child, ast.BoolOp) and {"is_half", "complemented"} <= _reads(child):
                yield name, owner
            yield from visit(child, owner, name)

    return {site for path in MODULES for site in visit(ast.parse(path.read_text()), None, path.name)}


def test_connectivity_is_stated_once():
    # the ell = m/2 primal is the one disconnected graph; every other test
    # of connectivity reads GraphSpec.connected
    assert _connectivity_rules() == {("graphs.py", "connected")}


def test_field_tables_are_built_in_one_place():
    # get_field, through its memo of one table per (p, n), is the one
    # constructor of a field; its views are copies
    sites = _sites(lambda c: isinstance(c.func, ast.Name) and c.func.id == "FieldTable")
    assert sites == {("field.py", "_memoized_table")}


def test_field_arithmetic_is_on_digit_matrices():
    # F_p-linear algebra is done on base-p digit vectors and n x n matrices
    # in field.py alone; no coefficient-list polynomial helper comes back
    sites = _sites(lambda c: isinstance(c.func, ast.Name) and c.func.id == "_matpow")
    assert sites and {module for module, _ in sites} == {"field.py"}
    defined = {
        (path.name, node.name)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_poly_")
    }
    assert sorted(defined) == []


# Public functions that nothing else in src/ reads, each with its reason.
NO_SRC_CALLER = {
    "classify_form": "the per-gamma closed rule, run by the forms-large-field benchmark",
    "enumerate_family": "the proper members of a family, until a tower-inclusion check",
    "family_lattice": "the family's divisibility lattice, until a tower-inclusion check",
    "is_subgraph": "the spec-level subgraph test, until a tower-inclusion check",
}

# Public methods and properties that nothing else in src/ reads, each with
# its reason.
NO_SRC_READER = {
    "FieldTable.mul": "the scalar product, beside add, neg, inv and pow, for callers of the field",
    "FieldTable.pow": "the scalar power, beside add, neg, mul and inv, for callers of the field",
    "FieldTable.trace_map": "the trace by index, for callers and the reference tests; the library "
                            "reads the log-order trace_sequence, built without it",
    "VerificationReport.failures": "for callers of run_suite",
}


def _reads(node: ast.AST) -> set[str]:
    """Names and attributes that ``node`` reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def test_every_public_function_has_a_caller_or_a_reason():
    # a public function that no other code in src/ reads is either listed
    # above with its reason, or dead; a listed one that gains a caller
    # leaves the list
    bodies = [node for path in MODULES for node in ast.parse(path.read_text()).body]
    reads = [_reads(node) for node in bodies]
    uncalled = {
        fn.name
        for fn in bodies
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and not any(fn.name in r for node, r in zip(bodies, reads) if node is not fn)
    }
    assert sorted(uncalled) == sorted(NO_SRC_CALLER)


def _attributes(node: ast.AST) -> Counter:
    """How often each attribute name is read in ``node``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_method_and_property_has_a_reader_or_a_reason():
    # the same rule for classes: a public method or property that no code in
    # src/ outside its own definition reads as an attribute is listed above
    # with its reason, or dead
    trees = [ast.parse(path.read_text()) for path in MODULES]
    everywhere = sum(map(_attributes, trees), Counter())
    unread = {
        f"{cls.name}.{fn.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and everywhere[fn.name] == _attributes(fn)[fn.name]
    }
    assert sorted(unread) == sorted(NO_SRC_READER)


# Annotated class fields that nothing in src/ reads, each with its reason.
NO_FIELD_READER: dict[str, str] = {}


def test_every_dataclass_field_has_a_reader_or_a_reason():
    # a field that src/ only ever sets, by a keyword at construction or by
    # an assignment, carries a value that no code looks at: it is listed
    # above with its reason, or dead
    trees = [ast.parse(path.read_text()) for path in MODULES]
    read = {
        n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = {
        f"{cls.name}.{stmt.target.id}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    }
    assert sorted(unread) == sorted(NO_FIELD_READER)


def test_the_benchmark_checks_pass_their_selftest():
    # bench/selftest.py holds the benchmark's output checks to the program's
    # real outputs; a report shape or check name they would refuse fails here
    repo = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(repo / "bench" / "selftest.py")],
        cwd=repo, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
