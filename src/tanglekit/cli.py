"""Command-line front end.

Subcommands:

    count tanglegrams --n N [--method recurrence|direct|mu]
    count trees       --n N [--method recurrence|direct|oracle]
    count chains      --k K --n N [--method recurrence|direct]
    sample tanglegram --n N --seed S --count C [--format json|text]
    sample tree       --n N --seed S --count C [--format json|text]
    sample chain      --n N [--k K] --seed S --count C [--format json|text]
    asym  --n N --terms T --family a|b [--precision BITS]
    const f-quarter [--precision BITS]
    stats cherries --n N --samples M --seed S
    stats pattern --pattern TREE --n N --samples M --seed S
    oracle tanglegrams --n N [--list] [--allow-slow]
    oracle tanglegrams --n N --unordered [--allow-slow]
    table paper

Counts print as full decimal integers.  Samples print one object per
line; JSON keys are emitted in a fixed order, and a fixed seed gives
byte-identical output across runs.  The first method listed is the
default, and sampled chains have three trees unless --k says otherwise.
Each form takes only the flags on its line, each at most once, as
`--flag value`; a value may start with "-", as in `--seed -3`.  -h or
--help prints the lines above.  Exit codes: 0 success, 1 output cut
short because the reader closed stdout (nothing is printed on stderr),
2 usage error or rejected argument (one line on stderr), 3 cap exceeded.
"""

import json
import os
import random
import sys
import warnings
from types import SimpleNamespace

from . import counting, oracle, sample, tree


def _value(says, convert, ok):
    """A flag's converter: `convert`, checked by `ok`; `says` names what passes."""
    def checked(s):
        try:
            v = convert(s)
            if ok(v):
                return v
        except ValueError:
            pass
        raise ValueError("must be %s, not %r" % (says, s))
    return checked


_positive = _value("a positive integer", int, lambda v: v >= 1)


# Count routes per object, the default first: the level recurrence,
# since it scales to n in the thousands; the others stay as
# cross-checks.  The lambdas look each route up on its module at call
# time, so wrappers put on the module's functions see every call.
_COUNT_ROUTES = {
    "tanglegrams": {
        "recurrence": lambda a: counting.tanglegram_count_rec(a.n),
        "direct": lambda a: counting.tanglegram_count(a.n),
        "mu": lambda a: counting.tanglegram_count_mu(a.n),
    },
    "trees": {
        "recurrence": lambda a: counting.chain_count_rec(1, a.n),
        "direct": lambda a: counting.tree_count(a.n),
        "oracle": lambda a: oracle.tree_count_oracle(a.n),
    },
    "chains": {
        "recurrence": lambda a: counting.chain_count_rec(a.k, a.n),
        "direct": lambda a: counting.chain_count(a.k, a.n),
    },
}


def print_count(value):
    """Print an exact count in full decimal, however many digits it has:
    the integer-to-string digit limit of Python 3.11+ is lifted for
    this one conversion and then restored."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        print(value)
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        text = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)


def _cmd_count(args):
    print_count(_COUNT_ROUTES[args.what][args.method](args))
    return 0


def _cmd_sample(args):
    rng = random.Random(args.seed)
    for _ in range(args.count):
        if args.what == "tanglegram":
            obj = sample.random_tanglegram(args.n, rng)
        elif args.what == "tree":
            obj = sample.random_tree(args.n, rng)
        else:
            obj = sample.random_chain(args.k, args.n, rng)
        print(obj.to_text() if args.format == "text" else json.dumps(obj.to_json()))
    return 0


# asym loads mpmath, so only the two commands that print floats import it.

def _cmd_asym(args):
    from . import asym
    val = asym.t_asym(args.n, args.terms, args.family, args.precision)
    print(asym.to_decimal(val, args.precision))
    if args.n <= 2000:
        exact = counting.tanglegram_count_rec(args.n)
        print("relative error vs exact: %s" % asym.relative_error(val, exact, args.precision))
    return 0


def _cmd_const(args):
    from . import asym
    print(asym.to_decimal(asym.f_fixed_point(args.precision), args.precision))
    return 0


def _cmd_stats(args):
    rng = random.Random(args.seed)
    pattern = getattr(args, "pattern", None)  # stats cherries has no --pattern
    print(json.dumps(sample.cherry_statistics(args.n, args.samples, rng, pattern=pattern)))
    return 0


def _cmd_oracle(args):
    if args.unordered and args.list:
        raise ValueError("--list does not apply with --unordered")
    reps = oracle.brute_tanglegrams(args.n, args.allow_slow)
    print(oracle.unordered_count(reps) if args.unordered else len(reps))
    if args.list:
        for tg in reps:
            print(json.dumps(tg.to_json()))
    return 0


def _cmd_table(args):
    rows = []
    rows.append(("n", "tanglegrams", "trees", "chains k=3", "rooted ordered", "rooted unordered"))
    for n in range(1, 11):
        t_n = counting.tanglegram_count(n)
        b_n = counting.tree_count(n)
        c_n = counting.chain_count(3, n)
        if n <= 7:
            reps = oracle.brute_tanglegrams(n)
            rows.append((n, t_n, b_n, c_n, len(reps), oracle.unordered_count(reps)))
        else:
            rows.append((n, t_n, b_n, c_n, "", ""))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
    return 0


_REQUIRED = object()  # the default of a flag that must be given
_SWITCH = (None, False)
_SIZE = (_positive, _REQUIRED)
_SEED = (_value("an integer", int, lambda v: True), _REQUIRED)
_SAMPLE_FLAGS = {"--n": _SIZE, "--seed": _SEED, "--count": _SIZE,
                 "--format": (_value("json|text", str, ("json", "text").__contains__), "json")}
_STATS_FLAGS = {"--n": _SIZE, "--samples": _SIZE, "--seed": _SEED}

# Each form, by its words, maps to its handler and its flags, and each
# flag to (converter, default); a flag with no converter is a switch.
_FORMS = {
    **{("count", what): (_cmd_count, {
        **({"--k": _SIZE} if what == "chains" else {}), "--n": _SIZE,
        "--method": (_value("|".join(routes), str, routes.__contains__), next(iter(routes)))})
       for what, routes in _COUNT_ROUTES.items()},
    ("sample", "tanglegram"): (_cmd_sample, _SAMPLE_FLAGS),
    ("sample", "tree"): (_cmd_sample, _SAMPLE_FLAGS),
    ("sample", "chain"): (_cmd_sample, {**_SAMPLE_FLAGS, "--k": (_positive, 3)}),
    ("asym",): (_cmd_asym, {
        "--n": _SIZE, "--terms": (_value("0|1|2|3|4|5|6", int, range(7).__contains__), _REQUIRED),
        "--family": (_value("a|b", str, ("a", "b").__contains__), _REQUIRED),
        "--precision": (_positive, 200)}),
    ("const", "f-quarter"): (_cmd_const, {"--precision": (_positive, 200)}),
    ("stats", "cherries"): (_cmd_stats, _STATS_FLAGS),
    ("stats", "pattern"): (_cmd_stats, {"--pattern": (tree.parse, _REQUIRED), **_STATS_FLAGS}),
    ("oracle", "tanglegrams"): (_cmd_oracle, {
        "--n": _SIZE, "--unordered": _SWITCH, "--list": _SWITCH, "--allow-slow": _SWITCH}),
    ("table", "paper"): (_cmd_table, {}),
}


def _parse(argv):
    """The namespace of argv's form: its words (cmd, what), its handler
    and all its flags; raises ValueError on what its usage line forbids."""
    words = tuple(argv[:2]) if tuple(argv[:2]) in _FORMS else tuple(argv[:1])
    if words not in _FORMS:
        raise ValueError("expected a command, not %r; --help lists them" % " ".join(argv[:2]))
    handler, flags = _FORMS[words]
    values = {}
    rest = iter(argv[len(words):])
    for flag in rest:
        if flag not in flags:
            raise ValueError("%r is not a flag of %s" % (flag, " ".join(words)))
        if flag in values:
            raise ValueError("%s is given twice" % flag)
        convert = flags[flag][0]
        if convert is None:
            values[flag] = True
            continue
        value = next(rest, None)
        if value is None:
            raise ValueError("%s needs a value" % flag)
        try:
            values[flag] = convert(value)
        except ValueError as e:
            raise ValueError("%s: %s" % (flag, e)) from None
    for flag, (_, default) in flags.items():
        if flag not in values:
            if default is _REQUIRED:
                raise ValueError("%s needs %s" % (" ".join(words), flag))
            values[flag] = default
    return SimpleNamespace(cmd=words[0], what=(*words, None)[1], handler=handler,
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _size_flag(args):
    """The size flag of args with the largest value, such as --n; every
    form whose work grows with its input has one."""
    return "--" + max((getattr(args, name), name) for name in ("n", "k", "precision")
                      if getattr(args, name, None) is not None)[1]


def run(argv):
    """Parse argv (no program name) and execute; returns the exit code."""
    if "-h" in argv or "--help" in argv:
        print("\n".join(line[4:] for line in __doc__.split("\n\n")[2].splitlines()))
        return 0
    try:
        args = _parse(argv)
        with warnings.catch_warnings():
            # a warning prints as one plain line, as every other message does
            warnings.showwarning = lambda message, *rest: print(
                "warning: %s" % message, file=sys.stderr)
            return args.handler(args)
    except oracle.CapError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except ValueError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except (OverflowError, MemoryError):
        # a size past the machine-integer range, or one whose tables this
        # machine cannot allocate, is a usage error too; the text of
        # either error names a CPython internal, so name the flag
        print("usage error: %s is too large for this machine" % _size_flag(args),
              file=sys.stderr)
        return 2


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
