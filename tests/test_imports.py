"""Every name a module of the package imports is used in that module,
every module-level private name is used somewhere in the package, the
sampler imports no rational arithmetic, only asym.py imports mpmath and
only the commands that print floats load it, and the counting routes
stay independent of one another."""

import ast
import os
import subprocess
import sys
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


def unused_private_names(sources):
    """(module, name) for each module-level private name of `sources`, a
    dict of module name -> source, that no other top-level statement of
    any module refers to, by name or as an attribute."""
    defined = {}
    refs = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = stmt
            refs.append((stmt, {node.id if isinstance(node, ast.Name) else node.attr
                                for node in ast.walk(stmt)
                                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
                                or isinstance(node, ast.Attribute)}))
    return sorted(key for key, stmt in defined.items()
                  if not any(key[1] in names for other, names in refs if other is not stmt))


def test_unused_private_name_detector():
    sources = {"a": "_x = 1\n_y = 2\n_z = 3\ndef _f():\n    return _f()\ndef g():\n    return _x\n",
               "b": "import a\nprint(a._y)\n_z = 4\n"}
    assert unused_private_names(sources) == [("a", "_f"), ("a", "_z"), ("b", "_z")]


def test_no_unused_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = unused_private_names(sources)
    assert not found, "unused private names: " + ", ".join("%s:%s" % key for key in found)


def test_sampler_is_integer_only():
    # every option table of the sampler holds integers: nothing from
    # fractions, no lcm to put Fractions over one denominator, and not
    # partition.q_of, which returns a Fraction
    imported = set()
    for node in ast.walk(ast.parse((SRC / "sample.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"fractions", "Fraction", "lcm", "q_of"}, imported


def test_only_asym_imports_mpmath():
    # floats live in asym.py alone, which also formats those the CLI prints
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[0] == "mpmath" for m in modules):
                found.append(path.name)
    assert set(found) <= {"asym.py"}, found


def test_cli_loads_mpmath_only_for_floats():
    # importing the CLI and sampling a tree leave mpmath unloaded;
    # const, which prints a float, loads it
    script = (
        "import sys\n"
        "import tanglekit.cli as cli\n"
        "assert cli.run(['sample', 'tree', '--n', '5', '--seed', '1', '--count', '1']) == 0\n"
        "assert 'mpmath' not in sys.modules, 'sample tree loaded mpmath'\n"
        "assert cli.run(['const', 'f-quarter', '--precision', '64']) == 0\n"
        "assert 'mpmath' in sys.modules\n"
    )
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def names_in_functions(source):
    """A dict of module-level function name -> the names and attributes
    its body refers to."""
    return {stmt.name: {node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            for stmt in ast.parse(source).body if isinstance(stmt, ast.FunctionDef)}


def test_counting_routes_are_independent():
    # the direct and mu sums never read the level table, and the level
    # recurrence never lists partitions, so their agreement is a check
    names = names_in_functions((SRC / "counting.py").read_text())
    for route in ("_power_sum", "chain_count", "tanglegram_count_mu"):
        assert not names[route] & {"level_terms", "level_r", "_level_table"}, route
    for route in ("level_terms", "level_r"):
        assert not names[route] & {"_power_sum", "binary_partitions"}, route
    # the direct and mu sums each fold a tail of 2s, in code of their own
    assert not names["tanglegram_count_mu"] & {"_power_sum", "chain_count", "tanglegram_count"}
    assert "tanglegram_count_mu" not in names["_power_sum"]
