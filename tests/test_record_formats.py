"""Each record format of dasearch has one owner: JSON lines are parsed only
by corpus.read_records and written only by corpus.write_records, and CSV
writers are built only by cli._write_rows. This walks the syntax tree of
every module and fails on any other use of those functions."""

import ast
from pathlib import Path

import dasearch

SRC = Path(dasearch.__file__).resolve().parent

# module function -> (module, function) of its one user
OWNERS = {
    "json.loads": ("corpus", "read_records"),
    "json.dumps": ("corpus", "write_records"),
    "csv.writer": ("cli", "_write_rows"),
    "csv.DictWriter": ("cli", "_write_rows"),
}


def module_attribute_uses(tree: ast.Module):
    """(innermost enclosing function or None, "module.attribute") of every
    attribute read off a plain name, e.g. `json.loads`."""
    out = []

    def visit(node, func):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out.append((func, f"{node.value.id}.{node.attr}"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_each_record_format_has_one_owner():
    users = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            # `from json import loads` or `import csv as c` would hide a use
            if isinstance(node, ast.ImportFrom):
                assert node.module not in ("json", "csv"), f"{path.name}: from {node.module} import"
            if isinstance(node, ast.Import):
                assert all(a.asname is None for a in node.names
                           if a.name in ("json", "csv")), f"{path.name}: renamed import"
        for func, name in module_attribute_uses(tree):
            if name in OWNERS:
                users.setdefault(name, set()).add((path.stem, func))
    assert users == {"json.loads": {("corpus", "read_records")},
                     "json.dumps": {("corpus", "write_records")},
                     "csv.writer": {("cli", "_write_rows")}}
