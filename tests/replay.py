"""The exact output law of a sampler, by walking its whole choice tree:
Replay stands in for the rng, and exact_distribution re-runs the
sampler once per path.  The module tests and acceptance criterion 8
import it; pytest collects no test from it."""

from fractions import Fraction

from tanglekit import sample


class Replay:
    """Stands in for the rng, and through it for sample._pick_scan:
    each draw takes the branch that the path names, or the first
    possible branch past the path's end.  A uniform draw records only
    its number of branches, a weighted one its integer weights, and
    returns the option of the branch taken.  shuffle is Fisher-Yates
    on randrange."""

    def __init__(self, path):
        self.path = path
        self.draws = []

    def _branch(self, draw):
        i = len(self.draws)
        self.draws.append(draw)
        if i == len(self.path):
            self.path.append(0 if type(draw) is int else next(j for j, w in enumerate(draw) if w))
        return self.path[i]

    def pick_scan(self, options, total):
        options = list(options)
        weights = [w for _, w in options]
        assert sum(weights) == total
        return options[self._branch(weights)][0]

    def randrange(self, n):
        return self._branch(n)

    def shuffle(self, x):
        for i in reversed(range(1, len(x))):
            j = self.randrange(i + 1)
            x[i], x[j] = x[j], x[i]


def exact_distribution(draw, monkeypatch):
    """The exact output distribution of draw(rng): the sampler is re-run
    once per path through its choice tree, and each output collects its
    path's probability, one Fraction of the products of the branch
    weights taken and of the branch totals."""
    monkeypatch.setattr(sample, "_pick_scan",
                        lambda options, total, rng: rng.pick_scan(options, total))
    out = {}
    path = []
    while True:
        rep = Replay(path)
        obj = draw(rep)
        assert len(rep.draws) == len(path)
        num = den = 1
        for d, i in zip(rep.draws, path):
            if type(d) is int:
                den *= d
            else:
                num *= d[i]
                den *= sum(d)
        out[obj] = out.get(obj, 0) + Fraction(num, den)
        # advance the deepest draw that has a further possible branch
        while path:
            d = rep.draws[len(path) - 1]
            if type(d) is int:
                nxt = path[-1] + 1 if path[-1] + 1 < d else None
            else:
                nxt = next((j for j in range(path[-1] + 1, len(d)) if d[j]), None)
            if nxt is not None:
                path[-1] = nxt
                break
            path.pop()
        if not path:
            return out
