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
    stats pattern --pattern "((..).)" --n N --samples M --seed S
    oracle tanglegrams --n N [--list] [--allow-slow]
    oracle tanglegrams --n N --unordered [--allow-slow]
    table paper

Counts print as full decimal integers.  Samples print one object per
line; JSON keys are emitted in a fixed order, and a fixed seed gives
byte-identical output across runs.  The first method listed is the
default, and sampled chains have three trees unless --k says otherwise.
Each form takes only the flags shown on its line; any other flag is a
usage error.  Exit codes: 0 success, 1 output cut short because the
reader closed stdout (nothing is printed on stderr), 2 usage error or
rejected argument, 3 cap exceeded.
"""

import argparse
import json
import os
import random
import sys
import warnings
from functools import lru_cache

from . import counting, oracle, sample, tree


def _positive(s):
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


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


@lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process: a warm run of a
    memoized count costs less than building its sub-parsers."""
    ap = argparse.ArgumentParser(prog="tanglekit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    # count, sample and stats take one sub-parser per form, so each
    # form accepts only its own flags.
    p = sub.add_parser("count", help="exact counts")
    forms = p.add_subparsers(dest="what", required=True)
    for what, routes in _COUNT_ROUTES.items():
        p = forms.add_parser(what)
        if what == "chains":
            p.add_argument("--k", type=_positive, required=True)
        p.add_argument("--n", type=_positive, required=True)
        p.add_argument("--method", choices=list(routes), default=next(iter(routes)))

    sample_flags = argparse.ArgumentParser(add_help=False)
    sample_flags.add_argument("--n", type=_positive, required=True)
    sample_flags.add_argument("--seed", type=int, required=True)
    sample_flags.add_argument("--count", type=_positive, required=True)
    sample_flags.add_argument("--format", default="json", choices=["json", "text"])
    p = sub.add_parser("sample", help="uniform random objects")
    forms = p.add_subparsers(dest="what", required=True)
    forms.add_parser("tanglegram", parents=[sample_flags])
    forms.add_parser("tree", parents=[sample_flags])
    forms.add_parser("chain", parents=[sample_flags]).add_argument(
        "--k", type=_positive, default=3)

    p = sub.add_parser("asym", help="asymptotic approximations of the tanglegram count")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--terms", type=int, required=True, choices=range(0, 7))
    p.add_argument("--family", required=True, choices=["a", "b"])
    p.add_argument("--precision", type=_positive, default=200)

    p = sub.add_parser("const", help="constants")
    p.add_argument("name", choices=["f-quarter"])
    p.add_argument("--precision", type=_positive, default=200)

    stats_flags = argparse.ArgumentParser(add_help=False)
    stats_flags.add_argument("--n", type=_positive, required=True)
    stats_flags.add_argument("--samples", type=_positive, required=True)
    stats_flags.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("stats", help="sampled statistics of random tanglegrams")
    forms = p.add_subparsers(dest="what", required=True)
    forms.add_parser("cherries", parents=[stats_flags]).set_defaults(pattern=None)
    forms.add_parser("pattern", parents=[stats_flags]).add_argument(
        "--pattern", type=tree.parse, required=True, metavar="TREE")

    p = sub.add_parser("oracle", help="brute-force enumeration")
    p.add_argument("what", choices=["tanglegrams"])
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--unordered", action="store_true")
    p.add_argument("--list", action="store_true", dest="list_classes")
    p.add_argument("--allow-slow", action="store_true")

    p = sub.add_parser("table", help="reference tables")
    p.add_argument("which", choices=["paper"])

    return ap


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
    print(json.dumps(sample.cherry_statistics(args.n, args.samples, rng, pattern=args.pattern)))
    return 0


def _cmd_oracle(args):
    if args.unordered and args.list_classes:
        raise ValueError("--list does not apply with --unordered")
    reps = oracle.brute_tanglegrams(args.n, args.allow_slow)
    print(oracle.unordered_count(reps) if args.unordered else len(reps))
    if args.list_classes:
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


_HANDLERS = {
    "count": _cmd_count,
    "sample": _cmd_sample,
    "asym": _cmd_asym,
    "const": _cmd_const,
    "stats": _cmd_stats,
    "oracle": _cmd_oracle,
    "table": _cmd_table,
}


def _size_flag(args):
    """The size flag of args with the largest value, such as --n; every
    form whose work grows with its input has one."""
    return "--" + max((getattr(args, name), name) for name in ("n", "k", "precision")
                      if getattr(args, name, None) is not None)[1]


def run(argv):
    """Parse argv (no program name) and execute; returns the exit code."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        with warnings.catch_warnings():
            # a warning prints as one plain line, as every other message does
            warnings.showwarning = lambda message, *rest: print(
                "warning: %s" % message, file=sys.stderr)
            return _HANDLERS[args.cmd](args)
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
