import hashlib
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import warnings

import pytest

from tanglekit import cli, oracle
from tanglekit.cli import print_count, run
from tanglekit.sample import random_tree
from tanglekit.tree import parse

from support import child_env, run_python

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def out_of(capsys):
    return capsys.readouterr().out


def test_count_basics(capsys):
    assert run(["count", "tanglegrams", "--n", "4"]) == 0
    assert out_of(capsys) == "13\n"
    assert run(["count", "chains", "--k", "3", "--n", "4"]) == 0
    assert out_of(capsys) == "151\n"
    assert run(["count", "trees", "--n", "12"]) == 0
    assert out_of(capsys) == "451\n"


def test_count_methods_agree(capsys):
    outs = []
    for method in ("direct", "recurrence", "mu"):
        assert run(["count", "tanglegrams", "--n", "10", "--method", method]) == 0
        outs.append(out_of(capsys))
    assert outs[0] == outs[1] == outs[2] == "382728552\n"
    # the mu sum takes n = 1 like the other routes
    assert run(["count", "tanglegrams", "--n", "1", "--method", "mu"]) == 0
    assert out_of(capsys) == "1\n"
    assert run(["count", "trees", "--n", "30", "--method", "oracle"]) == 0
    oracle_out = out_of(capsys)
    assert run(["count", "trees", "--n", "30"]) == 0
    assert out_of(capsys) == oracle_out
    # the tree default is the level recurrence; compare it with the direct sum too
    assert run(["count", "trees", "--n", "30", "--method", "direct"]) == 0
    assert out_of(capsys) == oracle_out
    assert run(["count", "tanglegrams", "--n", "10"]) == 0
    assert out_of(capsys) == outs[0]
    # the chain default is the recurrence; compare it with the direct sum
    assert run(["count", "chains", "--k", "4", "--n", "8", "--method", "direct"]) == 0
    direct_out = out_of(capsys)
    assert run(["count", "chains", "--k", "4", "--n", "8"]) == 0
    assert out_of(capsys) == direct_out


def test_usage_errors(capsys):
    # every bad invocation exits 2, prints nothing on stdout and one
    # "usage error: " line on stderr
    bad = [
        [],
        ["count", "tanglegrams", "--n"],                      # no value
        ["count", "tanglegrams", "--n", "x"],
        ["count", "tanglegrams", "--n", "4", "--n", "5"],     # a flag given twice
        ["sample", "tree", "--n", "4", "--cou", "1", "--seed", "1"],  # an abbreviated flag
        ["count", "tanglegrams", "--n=4"],
        ["asym", "--n", "10", "--terms", "-1", "--family", "a"],
        ["count", "chains", "--n", "4"],                      # missing --k
        ["count", "tanglegrams", "--n", "4", "--method", "oracle"],
        ["count", "trees", "--n", "4", "--method", "mu"],
        ["count", "chains", "--k", "2", "--n", "4", "--method", "mu"],
        ["count", "tanglegrams", "--n", "0"],
        ["count", "tanglegrams"],
        ["count", "widgets", "--n", "4"],
        ["sample", "tanglegram", "--n", "4", "--count", "2"],  # missing --seed
        ["asym", "--n", "100", "--terms", "7", "--family", "a"],
        ["asym", "--n", "100", "--terms", "3", "--family", "a", "--precision", "1"],
        ["stats", "pattern", "--n", "6", "--samples", "10", "--seed", "1"],
        ["stats", "pattern", "--pattern", "((.)", "--n", "6",
         "--samples", "10", "--seed", "1"],
        ["stats", "pattern", "--pattern", "(..)xyz", "--n", "6",
         "--samples", "10", "--seed", "1"],
        # flags that do not apply to the command
        ["count", "tanglegrams", "--n", "4", "--k", "9"],
        ["sample", "tree", "--n", "3", "--k", "5", "--seed", "1", "--count", "1"],
        ["stats", "cherries", "--pattern", "((..).)", "--n", "6",
         "--samples", "10", "--seed", "1"],
        ["oracle", "tanglegrams", "--n", "4", "--unordered", "--list"],
        ["--bogus"],
    ]
    for argv in bad:
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)


def test_overflowing_n_is_a_usage_error(capsys):
    # an n past the machine-integer range fails at once with one line
    # that names the flag, not a traceback
    huge = str(10 ** 22)
    for argv in (["count", "tanglegrams", "--n", huge],
                 ["count", "trees", "--n", huge],
                 ["count", "chains", "--k", "3", "--n", huge, "--method", "direct"]):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1, argv
        assert "--n" in err, argv


@pytest.mark.parametrize("argv, flag", [
    (["count", "tanglegrams", "--n", str(10 ** 12), "--method", "direct"], "--n"),
    (["count", "tanglegrams", "--n", str(10 ** 12), "--method", "mu"], "--n"),
    (["const", "f-quarter", "--precision", str(10 ** 12)], "--precision"),
    (["sample", "tree", "--n", str(10 ** 12), "--seed", "1", "--count", "1"], "--n"),
    (["sample", "tree", "--n", str(10 ** 22), "--seed", "1", "--count", "1"], "--n"),
    (["count", "trees", "--n", str(10 ** 12), "--method", "oracle"], "--n"),
    (["count", "trees", "--n", str(10 ** 22), "--method", "oracle"], "--n"),
    (["sample", "tanglegram", "--n", str(10 ** 12), "--seed", "1", "--count", "1"], "--n"),
    (["sample", "tanglegram", "--n", str(10 ** 22), "--seed", "1", "--count", "1"], "--n"),
    (["count", "tanglegrams", "--n", str(10 ** 12)], "--n"),
    (["count", "chains", "--k", "3", "--n", str(10 ** 12)], "--n"),
    (["sample", "chain", "--k", "1", "--n", str(10 ** 22), "--seed", "1", "--count", "1"], "--n"),
    (["stats", "cherries", "--n", str(10 ** 22), "--samples", "1", "--seed", "1"], "--n"),
], ids=["n", "tanglegram-count-mu-1e12", "precision", "tree-sample-1e12", "tree-sample-1e22",
        "tree-oracle-1e12", "tree-oracle-1e22", "tanglegram-sample-1e12",
        "tanglegram-sample-1e22", "tanglegram-count-1e12", "chain-count-1e12",
        "chain-sample-1e22", "cherries-1e22"])
def test_unallocatable_size_is_a_usage_error(argv, flag):
    # 10^12 fits a machine integer, but the direct or mu sum's table of n + 1
    # entries, the tree-count table b_0..b_n, the level table's transform
    # list of n/2 + 1 entries, or a float of 10^12 bits does not fit in
    # memory, and 10^22 does not fit a machine integer;
    # the child's address space is capped, so the outcome does not
    # depend on the host's overcommit, and a size that is not refused at
    # once runs into the timeout instead of stalling the suite
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from tanglekit.cli import run\n"
        "sys.exit(run(sys.argv[1:]))\n"
    )
    proc = run_python(script, *argv)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert flag in proc.stderr


def test_cap_exit_code(capsys):
    assert run(["oracle", "tanglegrams", "--n", "9"]) == 3
    assert capsys.readouterr().out == ""
    assert run(["oracle", "tanglegrams", "--n", "8"]) == 3
    assert "--allow-slow" in capsys.readouterr().err


def test_count_prints_past_digit_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    print_count(10 ** 4999 + 7)
    out = out_of(capsys)
    assert len(out) == 5001 and out.startswith("1000") and out.endswith("7\n")
    assert get_limit() == limit


def test_deep_pattern_answers(capsys):
    # a caterpillar nested 1500 deep parses and is answered
    deep = "(" * 1500 + "..)" + ".)" * 1499
    assert run(["stats", "pattern", "--pattern", deep, "--n", "6",
                "--samples", "5", "--seed", "1"]) == 0
    d = json.loads(out_of(capsys))
    assert d["mean"] == 0.0
    # so is a pattern whose two equal-size subtrees differ only 1200
    # levels down
    spine = lambda bottom: "(" * 1200 + bottom + ".)" * 1200
    wide = "(" + spine("((..)(..))") + spine("(((..).).)") + ")"
    assert run(["stats", "pattern", "--pattern", wide, "--n", "6",
                "--samples", "5", "--seed", "1"]) == 0
    d = json.loads(out_of(capsys))
    assert d["mean"] == 0.0 and d["statistic"] == "pattern " + parse(wide).key


def usage_lines():
    """The lines of README's "Command line" block, each without its
    `tanglekit ` prefix."""
    with open(README, encoding="utf-8") as f:
        block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", f.read(), re.M | re.S).group(1)
    return [line[len("tanglekit "):] for line in block.splitlines()]


@pytest.mark.parametrize("argv", [["--help"], ["count", "tanglegrams", "-h"]])
def test_help_prints_the_usage_lines(argv, capsys):
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines() == usage_lines()


def test_every_form_has_a_usage_line():
    # each form of the parse table has a line in README's block, each
    # line names a form, and a form's lines show exactly its flags
    shown = {}
    for line in usage_lines():
        words = tuple(itertools.takewhile(lambda w: not w.startswith(("-", "[")), line.split()))
        shown.setdefault(words, set()).update(re.findall(r"--[a-z-]+", line))
    assert shown == {words: set(flags) for words, (_, flags) in cli._FORMS.items()}


def test_readme_example(capsys):
    # every "$ tanglekit ..." line of README's example block prints
    # exactly the lines shown under it
    with open(README, encoding="utf-8") as f:
        examples = re.findall(r"^\$ tanglekit (.*)\n((?:(?![$`]).*\n)*)", f.read(), re.M)
    assert len(examples) == 5
    for argv, shown in examples:
        assert run(shlex.split(argv)) == 0, argv
        assert out_of(capsys) == shown, argv


def test_sample_deterministic(capsys):
    argv = ["sample", "tanglegram", "--n", "6", "--seed", "7", "--count", "5"]
    assert run(argv) == 0
    first = out_of(capsys)
    assert run(argv) == 0
    assert out_of(capsys) == first
    lines = first.splitlines()
    assert len(lines) == 5
    for line in lines:
        d = json.loads(line)
        assert list(d) == ["n", "left", "right", "matching"]
        assert d["n"] == 6
        assert parse(d["left"]).leaves == 6
        assert parse(d["right"]).leaves == 6
        assert sorted(d["matching"]) == list(range(1, 7))


# The seed-to-sample map, pinned: each command's stdout by its SHA-256.
# A change to how any draw consumes the rng shows here, also under -O.
PINNED_OUTPUT = {
    "sample tanglegram --n 120 --seed 5 --count 100":
        "8805eda323e157c1781d35c9eb1801f1d401daee07b5a14ecff526cc05e7bf5c",
    "sample chain --k 3 --n 40 --seed 2 --count 30":
        "26145b766165aef574df0485173fba5399961791b078977ed5b15b94b4210292",
    "sample chain --k 5 --n 9 --seed 4 --count 80":
        "19388a1212564eabf036db98551c388126add9b4ac52a440c0fcc48d48a6ca31",
    "sample tree --n 60 --seed 3 --count 40":
        "d18684c7a247ace6e81779220b61920fbfd54f53a1aacbcf0c6559721147ba82",
    "stats cherries --n 200 --samples 50 --seed 1":
        "8fb7ae34fe8bb65db538c3b585935d19acf38b1a8696f618d921f3c36c565a6a",
    "sample tanglegram --n 40 --seed 6 --count 50 --format text":
        "a300fbed952caaed509585fcc71ec86434006935afe8e36099e868e65c0c0359",
    "sample tree --n 60 --seed 3 --count 40 --format text":
        "eaf3176874ebe63f344e9863321db04c4074fe58cb76453563a2e2643c0fc3f3",
    "sample chain --k 3 --n 40 --seed 2 --count 30 --format text":
        "a4dc71e1b058369785c5d2d56c5dedba6bfc95cf6cb6509a8354a5ef3244822b",
    "sample chain --k 1 --n 30 --seed 8 --count 40 --format text":
        "6dbf215813e23b51b654c0ceb3a0675b714aeb8945b00418fed57867ca9facc5",
    # a chain with k >= 3 whose draws include lam != (1^n)
    "sample chain --k 3 --n 6 --seed 2 --count 40 --format text":
        "a7af920f2ce95c6917150b28367cdeacf7ef1c1a8c8cfd064530c1424658ded3",
}


def test_pinned_output(capsys):
    for argv, digest in PINNED_OUTPUT.items():
        assert run(shlex.split(argv)) == 0, argv
        assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == digest, argv


def test_closed_pipe_is_quiet():
    # a reader that stops after the first line gets no traceback.  The
    # 2 MB of trees overrun any pipe buffer, so that command must meet the
    # closed pipe and exit 1; the 10 kB oracle listing may fit whole
    for argv, codes in (("oracle tanglegrams --n 5 --list", (0, 1)),
                        ("sample tree --n 30 --seed 1 --count 20000", (1,))):
        with subprocess.Popen([sys.executable, "-m", "tanglekit.cli"] + argv.split(),
                              env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode in codes, argv
        assert err == b"", argv


def test_sample_tree_json(capsys):
    assert run(["sample", "tree", "--n", "5", "--seed", "3", "--count", "4"]) == 0
    for line in out_of(capsys).splitlines():
        d = json.loads(line)
        assert list(d) == ["n", "tree"]
        assert parse(d["tree"]).leaves == 5
    # a value that starts with "-" is still a value
    assert run(["sample", "tree", "--n", "4", "--seed", "-3", "--count", "1"]) == 0
    assert out_of(capsys) == json.dumps(random_tree(4, random.Random(-3)).to_json()) + "\n"


def test_sample_chain_json(capsys):
    assert run(["sample", "chain", "--n", "4", "--seed", "9", "--count", "3"]) == 0
    for line in out_of(capsys).splitlines():
        d = json.loads(line)
        assert list(d) == ["n", "trees", "matchings"]
        assert len(d["trees"]) == 3  # --k defaults to 3
        assert len(d["matchings"]) == 2
    assert run(["sample", "chain", "--n", "4", "--k", "2", "--seed", "9",
                "--count", "1"]) == 0
    d = json.loads(out_of(capsys))
    assert len(d["trees"]) == 2 and len(d["matchings"]) == 1


def test_sample_text_format(capsys):
    assert run(["sample", "tanglegram", "--n", "4", "--seed", "1", "--count", "2",
                "--format", "text"]) == 0
    for line in out_of(capsys).splitlines():
        left, right, matching = line.split(" ")
        assert parse(left).leaves == 4 and parse(right).leaves == 4
        assert sorted(int(v) for v in matching.split(",")) == [1, 2, 3, 4]
    assert run(["sample", "tree", "--n", "7", "--seed", "2", "--count", "2",
                "--format", "text"]) == 0
    for line in out_of(capsys).splitlines():
        assert parse(line).leaves == 7


def test_asym_output(capsys):
    assert run(["asym", "--n", "100", "--terms", "3", "--family", "a"]) == 0
    lines = out_of(capsys).splitlines()
    assert len(lines) == 2
    float(lines[0].replace("e+", "e"))  # parses as a number
    assert lines[1].startswith("relative error vs exact: ")
    # past the exact-comparison range only the approximation is printed
    assert run(["asym", "--n", "2001", "--terms", "2", "--family", "b"]) == 0
    assert len(out_of(capsys).splitlines()) == 1


def test_const_output(capsys):
    assert run(["const", "f-quarter"]) == 0
    assert out_of(capsys).startswith("0.2710416936088327870")


def test_stats_output(capsys):
    assert run(["stats", "cherries", "--n", "2", "--samples", "50",
                "--seed", "5"]) == 0
    d = json.loads(out_of(capsys))
    assert list(d) == ["n", "samples", "statistic", "mean", "variance",
                       "reference", "histogram"]
    assert d["mean"] == 1.0 and d["samples"] == 50
    assert run(["stats", "pattern", "--pattern", "(..)", "--n", "8",
                "--samples", "20", "--seed", "5"]) == 0
    d = json.loads(out_of(capsys))
    assert d["statistic"] == "pattern (..)"
    assert d["reference"] == 2.0


def test_oracle_output(capsys):
    assert run(["oracle", "tanglegrams", "--n", "4"]) == 0
    assert out_of(capsys) == "13\n"
    assert run(["oracle", "tanglegrams", "--n", "4", "--unordered"]) == 0
    assert out_of(capsys) == "10\n"
    # --allow-slow lifts the cap for the unordered count too
    assert run(["oracle", "tanglegrams", "--n", "4", "--unordered", "--allow-slow"]) == 0
    assert out_of(capsys) == "10\n"
    assert run(["oracle", "tanglegrams", "--n", "3", "--list"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "2" and len(lines) == 3
    for line in lines[1:]:
        d = json.loads(line)
        assert list(d) == ["n", "left", "right", "matching"]


def test_slow_enumeration_warns_in_one_line(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "BRUTE_CAP", 2)
    showwarning = warnings.showwarning
    assert run(["oracle", "tanglegrams", "--n", "3", "--allow-slow"]) == 0
    out, err = capsys.readouterr()
    assert out == "2\n"
    assert err.splitlines() == ["warning: brute enumeration of 6 tuples of matchings runs for "
                                "minutes"]
    assert warnings.showwarning is showwarning


def test_table_output(capsys):
    assert run(["table", "paper"]) == 0
    out = out_of(capsys)
    assert "25595" in out       # tanglegrams at n = 7
    assert "13048" in out       # unordered classes at n = 7
    assert "13305590" in out    # tanglegrams at n = 9
    header = out.splitlines()[0].split()
    assert header[0] == "n" and "tanglegrams" in header
