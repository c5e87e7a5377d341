"""No module of the package keeps an unbounded functools cache."""

import importlib
import pkgutil

import tanglekit


def test_caches_are_bounded():
    sizes = {}
    for info in pkgutil.iter_modules(tanglekit.__path__):
        module = importlib.import_module("tanglekit." + info.name)
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)):
                sizes["%s.%s" % (info.name, name)] = obj.cache_info().maxsize
    assert {"counting._level_table", "counting.tree_count_table", "sample._lam_step",
            "cli._build_parser"} <= set(sizes)
    assert not [name for name, maxsize in sizes.items() if maxsize is None], sizes
