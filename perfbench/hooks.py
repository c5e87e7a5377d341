"""Layer timers and counters for the traced run.

The hooks wrap public functions of the package from outside, on the
module attributes that callers look up, so no source file changes.
Each wrapper adds its call count and, for the outermost frame of a
recursive function only, its inclusive wall time.  Generators are not
timed: their calls and the items they yield are counted, and the time
spent producing items stays with whoever consumes them.

A hook whose target no longer exists is skipped and every metric that
needs it is left out of the report, so refactors of the package do not
crash the benchmark.
"""

import time

# (module, attribute, counter key, kind); kinds: "timed", "gen".
# Keys shared by two hooks add up.
HOOKS = [
    ("cli", "run", "cli", "timed"),
    ("sample", "random_tanglegram", "sampler", "timed"),
    ("sample", "random_tree", "sampler", "timed"),
    ("sample", "random_tree_and_perm", "tree_build", "timed"),
    ("sample", "split_pairs", "split_pairs", "gen"),
    ("sample", "q_of", "q_of", "timed"),
    ("sample", "node", "node", "timed"),
    ("sample", "interleave", "interleave", "timed"),
    ("sample", "random_automorphism", "automorphism", "timed"),
    ("sample", "sample_conjugator", "conjugator", "timed"),
    ("sample", "binary_partitions", "partitions", "gen"),
    ("counting", "binary_partitions", "partitions", "gen"),
    ("counting", "tanglegram_count", "direct", "timed"),
    ("counting", "tanglegram_count_rec", "recurrence", "timed"),
    ("counting", "tanglegram_count_mu", "mu", "timed"),
]

ROUTES = ("direct", "recurrence", "mu")


class Tracer:
    """Installs the hooks on the given modules and accumulates, per
    counter key, seconds, calls and generated items."""

    def __init__(self, modules):
        self.seconds = {}
        self.calls = {}
        self.items = {}
        self.digits = 0
        self.build_lookups = 0
        self._wrapped = []
        for mod_name, attr, key, kind in HOOKS:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self.seconds.setdefault(key, 0.0)
            self.calls.setdefault(key, 0)
            self.items.setdefault(key, 0)
            wrap = self._timed(key, fn) if kind == "timed" else self._gen(key, fn)
            self._wrapped.append((mod, attr, fn, wrap))

    def install(self):
        for mod, attr, _, wrap in self._wrapped:
            setattr(mod, attr, wrap)

    def uninstall(self):
        for mod, attr, fn, _ in self._wrapped:
            setattr(mod, attr, fn)

    def _timed(self, key, fn):
        seconds, calls = self.seconds, self.calls
        perf_counter = time.perf_counter
        depth = 0
        routes = key in ROUTES
        build = key == "tree_build"

        def wrapper(*args, **kwargs):
            nonlocal depth
            calls[key] += 1
            if build and args[0] != (1,):
                # every tree-build frame above a single leaf consults the split table
                self.build_lookups += 1
            depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                depth -= 1
                if not depth:
                    seconds[key] += perf_counter() - t0
            if routes:
                self.digits += len(str(abs(out)))
            return out

        return wrapper

    def _gen(self, key, fn):
        calls, items = self.calls, self.items

        def wrapper(*args, **kwargs):
            calls[key] += 1
            for item in fn(*args, **kwargs):
                items[key] += 1
                yield item

        return wrapper

    def totals(self):
        return {"seconds": self.seconds, "calls": self.calls, "items": self.items,
                "digits": self.digits, "build_lookups": self.build_lookups}


def layer_metrics(totals):
    """Per-layer metrics from the summed totals of a traced run.  A
    metric is reported only when every counter it needs was hooked."""
    sec, calls, items = totals["seconds"], totals["calls"], totals["items"]
    have = set(sec)
    out = {}

    def put(name, unit, needs, value):
        if set(needs) <= have:
            out[name] = {"value": value(), "unit": unit}

    put("sample.lam_s", "s", ("sampler", "tree_build", "conjugator"),
        lambda: sec["sampler"] - sec["tree_build"] - sec["conjugator"])
    put("partition.partitions_listed", "count", ("partitions",), lambda: items["partitions"])
    put("sample.split_misses", "count", ("split_pairs",), lambda: calls["split_pairs"])
    put("sample.split_hit_ratio", "1", ("split_pairs", "tree_build"),
        lambda: (1 - calls["split_pairs"] / totals["build_lookups"])
        if totals["build_lookups"] else 0.0)
    put("partition.q_of_s", "s", ("q_of",), lambda: sec["q_of"])
    put("partition.q_of_calls", "count", ("q_of",), lambda: calls["q_of"])
    put("sample.tree_build_s", "s", ("tree_build",), lambda: sec["tree_build"])
    put("sample.tree_build_calls", "count", ("tree_build",), lambda: totals["build_lookups"])
    put("tree.node_s", "s", ("node",), lambda: sec["node"])
    put("tree.node_calls", "count", ("node",), lambda: calls["node"])
    put("perm.interleave_s", "s", ("interleave",), lambda: sec["interleave"])
    put("sample.automorphism_s", "s", ("automorphism",), lambda: sec["automorphism"])
    put("perm.conjugator_s", "s", ("conjugator",), lambda: sec["conjugator"])
    put("perm.conjugator_calls", "count", ("conjugator",), lambda: calls["conjugator"])
    put("cli.self_s", "s", ("cli", "sampler") + ROUTES,
        lambda: sec["cli"] - sec["sampler"] - sum(sec[r] for r in ROUTES))
    put("counting.route_s", "s", ROUTES, lambda: sum(sec[r] for r in ROUTES))
    put("counting.result_digits", "count", ROUTES, lambda: totals["digits"])
    return out
