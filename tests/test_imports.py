"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import tanglekit

SRC = Path(tanglekit.__file__).parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    assert unused_imports("import os\nfrom a import b, c as d\nd(os.sep)\n") == [(2, "b")]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append("%s:%d %s" % (path.name, line, name))
    assert not found, "unused imports: " + ", ".join(found)
