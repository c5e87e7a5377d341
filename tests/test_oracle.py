from collections import Counter

import pytest

from tanglekit.counting import chain_count, tanglegram_count, tree_count
from tanglekit.oracle import (
    automorphism_group,
    brute_automorphisms,
    brute_chains,
    brute_pair_classes,
    brute_tanglegrams,
    canonical_rep,
    enumerate_trees,
)
from tanglekit.tree import LEAF, aut_size, cycle_type_table, node

CHERRY = node(LEAF, LEAF)


def test_cherry_group():
    assert set(brute_automorphisms(CHERRY)) == {(1, 2), (2, 1)}


def test_brute_group_matches_formula():
    from tanglekit.perm import cycle_type
    for n in range(1, 8):
        for t in enumerate_trees(n):
            group = brute_automorphisms(t)
            assert len(group) == aut_size(t)
            census = Counter(cycle_type(w) for w in group)
            assert dict(census) == cycle_type_table(t)


def test_brute_group_matches_recursive_group():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert set(automorphism_group(t)) == set(brute_automorphisms(t))


def test_pair_reps_are_minimal():
    from tanglekit.perm import compose
    T = enumerate_trees(4)[0]
    S = enumerate_trees(4)[1]
    gt = brute_automorphisms(T)
    gs = brute_automorphisms(S)
    for rep in brute_pair_classes(T, S):
        orbit = {compose(u, compose(rep, w)) for u in gt for w in gs}
        assert rep == min(orbit)


def test_brute_reps_agree_with_canonical_rep():
    # brute expansion and the recursive-group minimizer pick the same
    # representative, so the reps are already canonical
    for n in range(1, 6):
        for tg in brute_tanglegrams(n):
            assert canonical_rep(tg) == tg


def test_brute_chain_counts():
    assert len(brute_chains(1, 4)) == tree_count(4) == 2
    assert len(brute_chains(2, 4)) == tanglegram_count(4) == 13
    assert brute_chains(2, 5) == brute_tanglegrams(5)  # the same classes in the same order
    assert len(brute_chains(3, 3)) == chain_count(3, 3) == 5
    assert len(brute_chains(3, 4)) == chain_count(3, 4) == 151


def test_caps():
    with pytest.raises(ValueError):
        brute_tanglegrams(9)
    with pytest.raises(ValueError):
        brute_tanglegrams(8)  # needs allow_slow=True
    with pytest.raises(ValueError):
        brute_chains(3, 5)
    with pytest.raises(ValueError):
        brute_chains(4, 4)  # 24^3 tuples of matchings need allow_slow=True
    assert len(brute_chains(1, 5)) == tree_count(5)
    big = enumerate_trees(9)[0]
    with pytest.raises(ValueError):
        brute_automorphisms(big)
