"""Helpers shared by the test modules; pytest collects no test from it.

run_python starts a fresh interpreter that imports the package from
src/, and child_env is the environment it gives that child, for a test
that must stream from a Popen itself.  caterpillar builds the tree whose
every internal vertex has a leaf as one child."""

import os
import subprocess
import sys

import tanglekit
from tanglekit.tree import LEAF, node

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tanglekit.__file__)))


def child_env():
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def run_python(script, *args, flags=()):
    """The finished run of `script` in a child interpreter started with
    `flags`, given `args` as sys.argv[1:], with its output captured as
    text and a 60 s timeout."""
    return subprocess.run([sys.executable, *flags, "-c", script, *args], env=child_env(),
                          capture_output=True, text=True, timeout=60)


def caterpillar(n):
    t = LEAF
    for _ in range(n - 1):
        t = node(t, LEAF)
    return t
