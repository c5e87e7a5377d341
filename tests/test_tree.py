import gc
import random
import tracemalloc
from math import factorial

import pytest

from tanglekit.counting import double_coset_count
from tanglekit.oracle import enumerate_trees
from tanglekit.partition import binary_partitions
from tanglekit.sample import random_automorphism
from tanglekit.tree import (
    LEAF,
    aut_size,
    compare,
    count_occurrences,
    cycle_type_table,
    node,
    parse,
    symmetry_count,
)

from support import caterpillar, run_python

B_SEQ = [1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451]

CHERRY = node(LEAF, LEAF)
BAL4 = node(CHERRY, CHERRY)


def balanced(depth):
    t = LEAF
    for _ in range(depth):
        t = node(t, t)
    return t


def test_serialization():
    assert LEAF.key == "."
    assert CHERRY.key == "(..)"
    assert node(LEAF, CHERRY).key == "((..).)"
    assert parse("((..).)") == node(CHERRY, LEAF)
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert parse(t.key) == t


def test_parse_rejects_malformed():
    for bad in ("", ".)", "..", "(.", "((..)", "(..))", "(...)", "(..)xyz", "(.x)"):
        with pytest.raises(ValueError):
            parse(bad)


def test_parse_deep():
    deep = "(" * 1500 + "..)" + ".)" * 1499
    t = parse(deep)
    assert t.leaves == 1501 and t.key == deep
    assert symmetry_count(t) == 1
    assert aut_size(t) == 2
    assert count_occurrences(CHERRY, t) == 1
    # its two automorphisms: the identity and the swap of the bottom cherry
    assert cycle_type_table(t) == {(1,) * 1501: 1, (2,) + (1,) * 1499: 1}
    assert double_coset_count(t, t) == (factorial(1501) + 2 * factorial(1499)) // 4
    ident = tuple(range(1, 1502))
    assert random_automorphism(t, random.Random(1)) in (ident, (2, 1) + ident[2:])


def test_parse_two_deep_spines():
    # the two children have equal size and differ only 1200 levels down,
    # so putting them in canonical order compares past the recursion limit
    spine = lambda bottom: "(" * 1200 + bottom + ".)" * 1200
    t = parse("(" + spine("((..)(..))") + spine("(((..).).)") + ")")
    assert t.left.key == spine("(((..).).)")
    assert t.right.key == spine("((..)(..))")
    assert compare(t.left, t.right) == 1


def test_parse_retains_nothing():
    # a dropped tree leaves no table of its subtrees behind; the bottom
    # (a 3-caterpillar plus a cherry) keeps every subtree new to the process
    deep = "(" * 1200 + "(((..).)(..))" + ".)" * 1200
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = parse(deep)
        assert t.leaves == 1205
        del t
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 500_000, retained


def test_parse_checks_survive_optimize():
    # input checks are exceptions, not asserts, so python -O keeps them
    script = (
        "from tanglekit.tree import parse\n"
        "for bad in ('(..)xyz', '(...)', '(.'):\n"
        "    try:\n"
        "        parse(bad)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('accepted %r' % bad)\n"
    )
    proc = run_python(script, flags=("-O",))
    assert proc.returncode == 0, proc.stderr


def test_node_canonicalizes():
    assert node(LEAF, CHERRY) == node(CHERRY, LEAF)
    assert node(LEAF, CHERRY).left == CHERRY


def test_compare():
    assert compare(LEAF, LEAF) == 0
    assert compare(caterpillar(4), BAL4) == 1
    assert compare(BAL4, caterpillar(4)) == -1
    assert compare(caterpillar(3), CHERRY) == 1  # more leaves wins


def test_compare_total_order():
    trees = enumerate_trees(6)
    for a in trees:
        for b in trees:
            c = compare(a, b)
            assert c == -compare(b, a)
            assert (c == 0) == (a == b)


@pytest.mark.parametrize("n", range(1, 13))
def test_enumeration_count(n):
    assert len(enumerate_trees(n)) == B_SEQ[n - 1]


def test_enumeration_order_and_uniqueness():
    for n in range(1, 9):
        out = enumerate_trees(n)
        assert len(set(out)) == len(out)
        for i in range(len(out) - 1):
            assert compare(out[i], out[i + 1]) == 1
        assert all(t.leaves == n for t in out)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_trees(21)
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_aut_size():
    assert aut_size(LEAF) == 1
    assert aut_size(CHERRY) == 2
    assert aut_size(BAL4) == 8
    assert aut_size(caterpillar(7)) == 2
    assert aut_size(balanced(3)) == 2 ** 7


def test_cycle_type_table_balanced4():
    assert cycle_type_table(BAL4) == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 2,
        (2, 2): 3,
        (4,): 2,
    }


def test_cycle_type_table_sums_and_keys():
    for n in range(1, 10):
        lams = set(binary_partitions(n))
        for t in enumerate_trees(n):
            table = cycle_type_table(t)
            assert sum(table.values()) == aut_size(t)
            assert set(table) <= lams
            assert all(v > 0 for v in table.values())
            assert table[(1,) * n] == 1  # only the identity fixes all leaves


def test_cherries():
    assert count_occurrences(CHERRY, LEAF) == 0
    assert count_occurrences(CHERRY, CHERRY) == 1
    assert count_occurrences(CHERRY, BAL4) == 2
    for n in range(2, 9):
        assert count_occurrences(CHERRY, caterpillar(n)) == 1
    assert count_occurrences(CHERRY, balanced(3)) == 4


def test_count_occurrences():
    assert count_occurrences(CHERRY, BAL4) == 2
    for t in enumerate_trees(6):
        assert count_occurrences(LEAF, t) == 6
        # a cherry is exactly a "(..)" in the canonical string
        assert count_occurrences(CHERRY, t) == t.key.count("(..)")
    assert count_occurrences(BAL4, balanced(3)) == 2
    assert count_occurrences(balanced(3), BAL4) == 0


def test_symmetry_count():
    assert symmetry_count(LEAF) == 0
    assert symmetry_count(CHERRY) == 1
    assert symmetry_count(BAL4) == 3
    assert symmetry_count(caterpillar(5)) == 1
    assert symmetry_count(balanced(3)) == 7
