"""Every name a module of the package imports is used in that module,
every module-level private name is used somewhere in the package, no
module imports a private name from another module of the package, only
asym.py and oracle.py import rational arithmetic, only asym.py imports
mpmath and only the commands that print floats load it, the CLI loads
no argparse, brute force and its caps stay in oracle.py, which only
cli.py and __init__.py import and which imports neither the samplers
nor the counting routes, each module imports alone, and the counting
routes stay independent of one another."""

import ast
from pathlib import Path

import tanglekit

from support import run_python

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


def private_imports(source):
    """The _-prefixed names that `source` imports from a module of the
    package, by a relative import or one from tanglekit."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "tanglekit")
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_private_import_detector():
    source = ("from .a import _x, y\nfrom tanglekit.b import _z\nfrom os import _exit\n"
              "from . import _w\nfrom .c import __version__\n")
    assert private_imports(source) == ["_w", "_x", "_z"]


def test_no_private_imports_across_modules():
    # a module reads another's internals only through its public names
    found = ["%s: %s" % (path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in private_imports(path.read_text())]
    assert not found, "private imports: " + ", ".join(found)


def imported_names(source):
    """Every module and name the imports of `source` mention, each
    dotted module split into its parts: `from .oracle import q_of`
    gives {"oracle", "q_of"}."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names - {""}


def importers(name):
    """The file names of the package modules that import `name`."""
    return {path.name for path in SRC.glob("*.py") if name in imported_names(path.read_text())}


def test_sampler_is_integer_only():
    # every option table of the sampler holds integers: nothing from
    # fractions, no lcm to put Fractions over one denominator, and not
    # oracle.q_of, which returns a Fraction
    imported = imported_names((SRC / "sample.py").read_text())
    assert not imported & {"fractions", "Fraction", "lcm", "q_of"}, imported


def test_only_asym_imports_mpmath():
    # floats live in asym.py alone, which also formats those the CLI prints
    assert importers("mpmath") <= {"asym.py"}


def test_only_asym_and_oracle_import_fractions():
    # every counting route, table and sampler stays in integers; asym
    # keeps its series coefficients and oracle its exact references in
    # Fractions
    assert importers("fractions") == {"asym.py", "oracle.py"}


def test_brute_force_stays_in_oracle():
    # no formula or sampler can come to depend on brute force, and every
    # cap, with the error raised past one, is defined next to it
    assert importers("oracle") == {"__init__.py", "cli.py"}
    # and the oracle reads nothing of what it checks
    assert not imported_names((SRC / "oracle.py").read_text()) & {"sample", "counting"}
    defined = {}
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name == "CapError" or name.endswith("_CAP"):
                    defined.setdefault(name, set()).add(path.name)
    assert {"CapError", "ENUMERATION_CAP", "AUT_CAP"} <= set(defined), defined
    assert all(files == {"oracle.py"} for files in defined.values()), defined


def test_each_module_imports_alone():
    # each module in a fresh interpreter, with the package's __init__.py
    # left out, so its import order cannot hide a cycle between modules
    script = (
        "import importlib, sys, types\n"
        "package = types.ModuleType('tanglekit')\n"
        "package.__path__ = [sys.argv[1]]\n"
        "sys.modules['tanglekit'] = package\n"
        "importlib.import_module('tanglekit.' + sys.argv[2])\n"
    )
    modules = sorted(path.stem for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert "oracle" in modules and "cli" in modules
    for module in modules:
        proc = run_python(script, str(SRC), module)
        assert proc.returncode == 0, (module, proc.stderr)


def test_cli_loads_mpmath_only_for_floats():
    # importing the CLI and sampling a tree leave mpmath and argparse
    # unloaded; const, which prints a float, loads mpmath
    script = (
        "import sys\n"
        "import tanglekit.cli as cli\n"
        "assert cli.run(['sample', 'tree', '--n', '5', '--seed', '1', '--count', '1']) == 0\n"
        "assert 'mpmath' not in sys.modules, 'sample tree loaded mpmath'\n"
        "assert 'argparse' not in sys.modules, 'the CLI loaded argparse'\n"
        "assert cli.run(['const', 'f-quarter', '--precision', '64']) == 0\n"
        "assert 'mpmath' in sys.modules\n"
    )
    proc = run_python(script)
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
        assert not names[route] & {"level_options", "_level_table", "chain_count_rec"}, route
    for route in ("_level_table", "level_options", "chain_count_rec"):
        assert not names[route] & {"_power_sum", "chain_count", "binary_partitions"}, route
    # the oracle tree route reads neither the level table nor the partitions
    oracle_names = names_in_functions((SRC / "oracle.py").read_text())["tree_count_oracle"]
    assert not oracle_names & {"level_options", "_level_table", "chain_count_rec",
                               "_power_sum", "binary_partitions"}
    # the direct and mu sums each fold a tail of 2s, in code of their own
    assert not names["tanglegram_count_mu"] & {"_power_sum", "chain_count", "tanglegram_count"}
    assert "tanglegram_count_mu" not in names["_power_sum"]
