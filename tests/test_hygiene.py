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


def _row_block_names(node: ast.AST) -> set[str]:
    """Names bound to a block of rows of A inside ``node``: ``block`` in
    ``for _, block in _row_blocks(...)``, in a loop or a comprehension."""
    names = set()
    for n in ast.walk(node):
        if not isinstance(n, (ast.For, ast.comprehension)) or not isinstance(n.iter, ast.Call):
            continue
        if _called(n.iter) != "_row_blocks":
            continue
        target = n.target.elts[-1] if isinstance(n.target, ast.Tuple) else n.target
        if isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _called(call: ast.Call) -> str | None:
    """The name of the function or method that ``call`` calls."""
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _reads_adjacency(node: ast.AST, blocks: set[str]) -> bool:
    """``<x>.adjacency``, a name in ``blocks``, or a slice, ``view(...)`` or
    ``packbits(...)`` of either, or a table indexed by one."""
    if isinstance(node, ast.Subscript):
        return _reads_adjacency(node.value, blocks) or _reads_adjacency(node.slice, blocks)
    if isinstance(node, ast.Call) and _is_attr(node.func, "view"):
        return _reads_adjacency(node.func.value, blocks)
    if isinstance(node, ast.Call) and _called(node) == "packbits":
        return any(_reads_adjacency(arg, blocks) for arg in node.args)
    return _is_attr(node, "adjacency") or (isinstance(node, ast.Name) and node.id in blocks)


def _is_adjacency_sum(call: ast.Call, blocks: set[str]) -> bool:
    """A sum over an adjacency, with or without ``axis``: ``<a>.sum(...)``
    for ``<a>`` the bool matrix ``<x>.adjacency`` or a block of its rows
    (a name in ``blocks``), or a slice, view or packing of either, or a
    table indexed by one; or a popcount of one, ``<f>(..., <a>, ...).sum(...)`` for ``<f>`` one of
    ``take``, ``bitwise_count`` and ``unpackbits``."""
    if not _is_attr(call.func, "sum"):
        return False
    summed = call.func.value
    if isinstance(summed, ast.Call) and _called(summed) in ("take", "bitwise_count", "unpackbits"):
        return any(_reads_adjacency(arg, blocks) for arg in summed.args)
    return _reads_adjacency(summed, blocks)


def _adjacency_sums(tree: ast.AST):
    """(enclosing function name or None, call) for every adjacency sum in
    ``tree``, the blocks being those bound in the enclosing function."""
    def visit(node, owner, blocks):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name, _row_block_names(child))
                continue
            if isinstance(child, ast.Call) and _is_adjacency_sum(child, blocks):
                yield owner, child
            yield from visit(child, owner, blocks)

    return visit(tree, None, _row_block_names(tree))


def test_adjacency_sum_matcher_sees_every_form():
    loop = "for _, block in _row_blocks(g):\n    "
    forms = ["g.adjacency.sum(axis=1)", "g.adjacency.view(np.uint8).sum()",
             "g.adjacency[:256].sum(axis=1)", "np.take(_POPCOUNT, g.adjacency).sum()",
             "np.bitwise_count(g.adjacency).sum()", "np.unpackbits(g.adjacency, axis=1).sum()",
             loop + "degrees.append(block.sum(axis=1))", loop + "edges += block.sum()",
             loop + "edges += block[:, 1:].sum(dtype=np.int64)",
             loop + "edges += block.view(np.uint8).sum()",
             loop + "edges += np.unpackbits(block, axis=1).sum()",
             loop + "edges += np.bitwise_count(np.packbits(block, axis=1)).sum()",
             loop + "edges += np.take(_POPCOUNT, np.packbits(block[:8])).sum()",
             loop + "edges += _POPCOUNT[np.packbits(block, axis=1)].sum(axis=1)",
             "_POPCOUNT[g.adjacency.view(np.uint8)].sum()",
             "total = sum(b.sum() for _, b in _row_blocks(g))",
             "def degrees(g):\n    for start, rows in _row_blocks(g):\n"
             "        yield rows.sum(axis=1)"]
    others = ["g.row0.sum()", "g.bits.sum()", "counts.sum(axis=1)", "_POPCOUNT[g.row0].sum()",
              "np.take(_POPCOUNT, g.row0).sum()", "block.sum()",
              "for block in chunks(g):\n    block.sum()",
              "for _, block in _row_blocks(g):\n    fh.write(np.packbits(block).tobytes())",
              "def f(g):\n    for _, block in _row_blocks(g):\n        pass\n"
              "def h(block):\n    return block.sum()"]
    for text, expected in [(f, True) for f in forms] + [(f, False) for f in others]:
        assert bool(list(_adjacency_sums(ast.parse(text)))) is expected, text


def test_degrees_are_counted_once():
    # no N^2 pass over an adjacency for its degrees or its edge count, the
    # bool matrix or its row blocks summed or popcounted, is left: the degree
    # is k, read off the connection set, and gpaley graph prints n k / 2 edges
    assert {
        (path.name, owner)
        for path in MODULES
        for owner, _ in _adjacency_sums(ast.parse(path.read_text()))
    } == set()


def test_spectra_are_counted_by_one_transform():
    # every eigenvalue, walk, srg, tree and Ramanujan count reads the
    # character transform through the graph's cached eigenvalues and row 0
    # of A^2, and nothing else calls it
    sites = _sites(
        lambda c: isinstance(c.func, ast.Attribute) and c.func.attr == "_character_sums"
    )
    assert sites == {("graphs.py", "eigenvalues"), ("graphs.py", "square_row")}


def test_the_packed_rows_are_read_by_few_sites():
    # _row_blocks builds the rows of A from the connection set; only the
    # cached matrix and the bit-dump export read them, and no packed matrix
    # is held. Every oracle count reads row 0 and its transform, or the
    # cached matrix
    sites = _sites(lambda c: isinstance(c.func, ast.Name) and c.func.id == "_row_blocks")
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
    assert _connectivity_rules() == {("spec.py", "connected")}


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
