"""Inequivalent binary rooted trees in canonical form.

A tree is either a leaf or an ordered pair of trees.  Two trees are
equivalent when one can be turned into the other by swapping children at
internal vertices; we work with one canonical representative per class,
the one in which every left subtree compares >= the right subtree.
Trees are immutable values that compare equal by their canonical
string, so isomorphism testing is string equality of the canonical
serialization: "." for a leaf, "(" + left + right + ")" for an internal
vertex, so the 3-leaf tree prints as "((..).)".  node() is the one
place that puts children in canonical order.

Leaves are implicitly numbered 1..n by depth-first traversal that visits
the left (greater or equal) subtree first; all permutation work in
perm.py and sample.py uses that labeling.

The other values live here too: TangledChain, k trees tied by
matchings, and Tanglegram, its two-tree case.  So oracle.py, which
lists them, need not import sample.py, which draws them.
"""


class Tree:
    __slots__ = ("left", "right", "leaves", "key")

    def __init__(self, left, right, leaves, key):
        self.left = left
        self.right = right
        self.leaves = leaves
        self.key = key

    @property
    def is_leaf(self):
        return self.left is None

    def __eq__(self, other):
        return isinstance(other, Tree) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key

    def to_json(self):
        return {"n": self.leaves, "tree": self.key}

    def to_text(self):
        return self.key


class TangledChain:
    """k trees in a row with a matching between each neighboring pair:
    leaf i of trees[j] is tied to leaf matchings[j](i) of trees[j+1],
    leaves numbered by DFS.  Two chains are equal when their trees and
    matchings are, whatever their class, so a Tanglegram equals the
    two-tree TangledChain with the same trees and matching."""

    __slots__ = ("trees", "matchings")

    def __init__(self, trees, matchings):
        trees = tuple(trees)
        matchings = tuple(tuple(m) for m in matchings)
        if not trees:
            raise ValueError("need at least one tree")
        n = trees[0].leaves
        if any(t.leaves != n for t in trees) or len(matchings) != len(trees) - 1:
            raise ValueError("leaf counts and matching count must agree")
        if any(sorted(m) != list(range(1, n + 1)) for m in matchings):
            raise ValueError("every matching must be a permutation of 1..n")
        self.trees = trees
        self.matchings = matchings

    @property
    def n(self):
        return self.trees[0].leaves

    @property
    def k(self):
        return len(self.trees)

    def __eq__(self, other):
        return (isinstance(other, TangledChain)
                and self.trees == other.trees
                and self.matchings == other.matchings)

    def __hash__(self):
        return hash((self.trees, self.matchings))

    def __repr__(self):
        return "TangledChain(%r, %r)" % ([t.key for t in self.trees],
                                         [list(m) for m in self.matchings])

    def to_json(self):
        return {"n": self.n, "trees": [t.key for t in self.trees],
                "matchings": [list(m) for m in self.matchings]}

    def to_text(self):
        text = " ".join(t.key for t in self.trees)
        if self.matchings:
            text += " | " + " ".join(",".join(map(str, m)) for m in self.matchings)
        return text


class Tanglegram(TangledChain):
    """The two-tree chain: leaf i of the left tree is tied to leaf
    matching(i) of the right tree."""

    __slots__ = ()

    def __init__(self, left, right, matching):
        super().__init__((left, right), (matching,))

    left = property(lambda self: self.trees[0])
    right = property(lambda self: self.trees[1])
    matching = property(lambda self: self.matchings[0])

    def __repr__(self):
        return "Tanglegram(%s, %s, %r)" % (self.left.key, self.right.key, list(self.matching))

    def to_json(self):
        return {"n": self.n, "left": self.left.key, "right": self.right.key,
                "matching": list(self.matching)}

    def to_text(self):
        return "%s %s %s" % (self.left.key, self.right.key, ",".join(map(str, self.matching)))


LEAF = Tree(None, None, 1, ".")


def node(left, right):
    """Internal vertex with children in canonical order (left >= right).
    The caller may pass the children either way around.  The leaf
    counts decide most pairs, as they decide compare, so compare runs
    only on a tie."""
    a, b = left.leaves, right.leaves
    if a < b or (a == b and compare(left, right) < 0):
        left, right = right, left
    return Tree(left, right, a + b, "(" + left.key + right.key + ")")


def parse(s):
    """Inverse of the canonical serialization.  Raises ValueError on a
    string that is not a tree.  Nesting depth is not limited."""
    frames = [[]]  # children read so far, one list per open "("
    for pos, ch in enumerate(s):
        if ch == "(":
            frames.append([])
            continue
        if ch == ".":
            t = LEAF
        elif ch == ")" and len(frames) > 1 and len(frames[-1]) == 2:
            t = node(*frames.pop())
        else:
            raise ValueError("malformed tree string at position %d" % pos)
        frames[-1].append(t)
        if len(frames[-1]) > (1 if len(frames) == 1 else 2):
            raise ValueError("malformed tree string at position %d" % pos)
    if len(frames) != 1 or not frames[0]:
        raise ValueError("unterminated tree string")
    return frames[0][0]


def compare(a, b):
    """Total order: more leaves first, ties broken by (left, right)
    lexicographically under the same order.  Returns -1, 0 or 1.  A loop
    that descends left and keeps the right pairs still to compare on a
    stack, so depth is not limited."""
    stack = []
    while True:
        if a.key != b.key:
            if a.leaves != b.leaves:
                return -1 if a.leaves < b.leaves else 1
            stack.append((a.right, b.right))
            a, b = a.left, b.left
        elif stack:
            a, b = stack.pop()
        else:
            return 0


def aut_size(t):
    """Order of the automorphism group: each vertex whose two child
    subtrees coincide contributes one independent swap, so it is 2 to
    the number of such vertices."""
    return 1 << symmetry_count(t)


def _merge(mu, nu):
    return tuple(sorted(mu + nu, reverse=True))


def fold(t, leaf, join):
    """The value of t computed bottom-up: `leaf` at every leaf, and
    join(v, a, b) at an internal vertex v whose children have the
    values a and b.  The vertices are joined in post-order, left
    subtree first, by a loop, so depth is not limited."""
    done = []  # values of the subtrees finished so far
    stack = [(t, False)]
    while stack:
        v, children_done = stack.pop()
        if v.is_leaf:
            done.append(leaf)
        elif children_done:
            b = done.pop()
            done.append(join(v, done.pop(), b))
        else:
            stack += ((v, True), (v.right, False), (v.left, False))
    return done[0]


def cycle_type_table(t):
    """dict mapping each binary partition lam of leaves(t) to the number
    of automorphisms of t whose induced leaf permutation has cycle type
    lam.  Missing keys mean zero.

    At a vertex with distinct children the type is the multiset union of
    the two child types; at a vertex with equal children it is either a
    union of two child types (no swap) or the double 2*mu of a single
    child type mu (swap), each swap appearing aut_size(child) times.
    """
    def join(v, ta, tb):
        out = {}
        for mu, cm in ta.items():
            for nu, cn in tb.items():
                key = _merge(mu, nu)
                out[key] = out.get(key, 0) + cm * cn
        if v.left == v.right:
            a = aut_size(v.left)
            for mu, cm in ta.items():
                key = tuple(sorted((2 * p for p in mu), reverse=True))
                out[key] = out.get(key, 0) + a * cm
        return out

    table = fold(t, {(1,): 1}, join)
    assert sum(table.values()) == aut_size(t)
    return table


def count_occurrences(pattern, t):
    """Number of vertices of t whose full rooted subtree is isomorphic
    to pattern.  Subtrees with fewer leaves than pattern are skipped."""
    count = 0
    stack = [t]
    while stack:
        v = stack.pop()
        if v.leaves > pattern.leaves:
            stack += (v.left, v.right)
        elif v.leaves == pattern.leaves:
            count += v == pattern
    return count


def symmetry_count(t):
    """Number of internal vertices whose two child subtrees coincide."""
    return fold(t, 0, lambda v, a, b: a + b + (v.left == v.right))
