"""Exact counting and uniform random sampling of tanglegrams,
inequivalent binary rooted trees, and tangled chains.

The package is organized around sums over binary partitions: partition
holds the partitions and their weights, counting the exact formulas and
recurrences, sample the uniform generators, which draw every object
by the paper's route through one level table, asym the floating-point
approximations, oracle the brute-force cross-checks (the tree listing
enumerate_trees, the classical tree count tree_count_oracle, every cap,
and the exact Fraction references the tests compare against), and cli
the command-line front end.
"""

from .counting import (
    chain_count,
    chain_count_rec,
    double_coset_count,
    tanglegram_count,
    tanglegram_count_mu,
    tanglegram_count_rec,
    tree_count,
)
from .oracle import enumerate_trees, tree_count_oracle
from .sample import (
    Tanglegram,
    TangledChain,
    random_chain,
    random_tanglegram,
    random_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Tanglegram",
    "TangledChain",
    "chain_count",
    "chain_count_rec",
    "double_coset_count",
    "enumerate_trees",
    "random_chain",
    "random_tanglegram",
    "random_tree",
    "tanglegram_count",
    "tanglegram_count_mu",
    "tanglegram_count_rec",
    "tree_count",
    "tree_count_oracle",
    "__version__",
]
