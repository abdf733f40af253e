import ast
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


def _calls_by_function(tree: ast.Module):
    """(enclosing function name or None, call node) for every call."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield owner, child
            yield from visit(child, owner)

    return visit(tree, None)


def _sites(predicate) -> set[tuple[str, str | None]]:
    return {
        (path.name, owner)
        for path in MODULES
        for owner, call in _calls_by_function(ast.parse(path.read_text()))
        if predicate(call)
    }


def test_budget_refusals_come_from_require():
    # every size refusal goes through budgets.require; the other two
    # BudgetExceeded raises refuse work that no size budget describes
    sites = _sites(lambda c: isinstance(c.func, ast.Name) and c.func.id == "BudgetExceeded")
    allowed = {("arith.py", "factorize"), ("oracles.py", "determinant_primes")}
    assert sorted(s for s in sites if s[0] != "budgets.py" and s not in allowed) == []


def _is_adjacency_sum(call: ast.Call) -> bool:
    """``<x>.adjacency.sum(...)``, with or without ``axis``."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "sum"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "adjacency"
    )


def test_degrees_are_counted_once():
    # every N^2 pass over an adjacency for its degrees or its edge count
    # reads CayleyGraph.degrees instead
    assert _sites(_is_adjacency_sum) == {("graphs.py", "degrees")}


def test_field_tables_are_built_in_one_place():
    # get_field, through its memo, is the one constructor of a field
    sites = _sites(lambda c: isinstance(c.func, ast.Name) and c.func.id == "FieldTable")
    assert sites == {("field.py", "_memoized_field")}


# Public functions that nothing else in src/ reads, each with its reason.
NO_SRC_CALLER = {
    "classify_form": "the per-gamma closed rule, run by the forms-large-field benchmark",
    "eigenvalue_relations_check": "the eigenvalue identities, read by tests until a spectrum check",
    "element_from_string": "the inverse of element_to_string, for reading digit strings back",
    "element_order": "the multiplicative order, exported from the package",
    "enumerate_family": "the proper members of a family, exported from the package",
    "family_lattice": "the family's divisibility lattice, exported from the package",
    "field_from_dict": "the inverse of field_to_dict, for reading a recorded field back",
    "is_subgraph": "the spec-level subgraph test, exported from the package",
    "read_bit_dump": "the inverse of write_bit_dump, for reading an exported adjacency back",
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
