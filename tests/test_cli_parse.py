"""The CLI's table parser against the argparse parser it replaced.

``oracles.build_parser`` is that argparse parser.  Every well-formed
command line must give the namespace it gives, and every malformed one
must be refused by both: argparse with SystemExit(2), ``cli.main`` with
exit 2, no stdout and one ``error:`` line.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import invhom
from invhom.cli import _parse, main as cli_main
from oracles import build_parser

COMMON = {"--format": "choice", "--field": "text", "--max-degree": "int",
          "--seed": "int", "--cap-columns": "int"}

# Each form of the command line -> (its required options, its optional
# ones) beside COMMON; a verify target takes only the options it reads.
FORMS = {
    ("homology",): (["--monoid"], ["--module"]),
    ("cohomology",): (["--monoid"], ["--module"]),
    ("crossed-product",): (["--action"], []),
    ("steinberg",): (["--groupoid"], []),
    ("resolution-check",): (["--monoid"], []),
    ("verify", "separable-homology"): (["--action"], ["--module"]),
    ("verify", "separable-cohomology"): (["--action"], ["--module"]),
    ("verify", "steinberg-homology"): (["--groupoid"], ["--module"]),
    ("verify", "steinberg-cohomology"): (["--groupoid"], ["--module"]),
    ("verify", "ks-crossed-product"): (["--monoid"], []),
}


def _flags(command):
    """Every option that argparse knows for a command, --help included."""
    return {"--help", *COMMON, *(flag for form, (req, opt) in FORMS.items()
                                 if form[0] == command for flag in req + opt)}


def _spellings(flag, command):
    """The unique prefixes of flag among the command's options."""
    flags = _flags(command)
    return [flag[:n] for n in range(3, len(flag) + 1)
            if [f for f in flags if f.startswith(flag[:n])] == [flag]]


WORD = st.text("abcz019:,._/= ", max_size=8)

# Values with which every form runs to exit 0, so that a malformed line
# built from them is refused for its fault alone.
REAL = {"--monoid": ["z:2", "chain:2"],
        "--action": ["ke:chain:2", "trivial:z:2"],
        "--groupoid": ["pair:2", "discrete:2"],
        "--field": ["q", "fp:2", "fp:3"]}


def _value(flag, command, eq, real):
    kind = COMMON.get(flag, "text")
    if kind == "int":
        low, high = -10 ** 6, 10 ** 6
        if real and flag == "--max-degree":
            low, high = 0, 2
        elif real and flag == "--cap-columns":
            low, high = 10 ** 4, 10 ** 5
        return st.integers(low, high).map(str)
    if kind == "choice":
        return st.sampled_from(["text", "json"])
    if real:
        modules = ["regular"] if command == "verify" else [
            "trivial-ke", "regular-ks"]
        return st.sampled_from(REAL.get(flag, modules))
    # Only after "=" may a value start with "-".  argparse before Python
    # 3.13 reads a lone "--" after "=" as [], so that value has its own
    # test below.
    return st.text("abz09:-,= ", max_size=8).filter(
        lambda w: w != "--") if eq else WORD.filter(
        lambda w: not w.startswith("-"))


@st.composite
def _occurrence(draw, flag, command, real):
    """One --opt value of flag, as one or two words."""
    spelled = draw(st.sampled_from(_spellings(flag, command)))
    eq = draw(st.booleans())
    value = draw(_value(flag, command, eq, real))
    return [f"{spelled}={value}"] if eq else [spelled, value]


@st.composite
def _command_line(draw, forms=tuple(FORMS), drop_required=False,
                  real=False):
    """A well-formed command line: its form, the word groups of its options
    in a drawn order (some repeated) and the verify target's index."""
    form = draw(st.sampled_from(forms))
    required, optional = FORMS[form]
    groups = []
    for flag in ([] if drop_required else required):
        groups += draw(st.lists(_occurrence(flag, form[0], real),
                                min_size=1, max_size=3))
    for flag in optional + list(COMMON):
        groups += draw(st.lists(_occurrence(flag, form[0], real), max_size=2))
    groups = draw(st.permutations(groups))
    at = draw(st.integers(0, len(groups)))
    return form, groups, at


def _argv(form, groups, at, target=None):
    words = [word for group in groups for word in group]
    if len(form) == 2:
        cut = sum(len(group) for group in groups[:at])
        words[cut:cut] = [target or form[1]]
    return [form[0], *words]


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


def _oracle(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        return vars(build_parser().parse_args(argv))


@settings(deadline=None, max_examples=300)
@given(_command_line())
def test_well_formed_lines_parse_as_argparse_parsed_them(line):
    argv = _argv(*line)
    expected = _oracle(argv)
    got = vars(_parse(argv))
    expected.pop("run")
    got.pop("run")
    assert got == expected, argv


def test_a_lone_double_dash_after_equals_is_the_value():
    assert _parse(["crossed-product", "--action=--"]).action == "--"
    args = _parse(["steinberg", "--groupoid=--", "--field=--"])
    assert (args.groupoid, args.field) == ("--", "--")


@settings(deadline=None, max_examples=60)
@given(_command_line(real=True))
def test_well_formed_lines_of_real_values_run(line):
    # The malformed lines below are built from such lines, so that each is
    # refused for its fault alone.
    argv = _argv(*line)
    code, _, err = _run(argv)
    assert code == 0, (argv, err)


MALFORMED = ("no command", "unknown command", "unknown option",
             "missing value", "--max-degree x", "--format xml",
             "missing required", "bad target", "--m")


@st.composite
def _malformed(draw):
    """A malformed command line of each kind in MALFORMED."""
    kind = draw(st.sampled_from(MALFORMED))
    forms = tuple(form for form in FORMS if {
        # argparse requires no option of a verify target.
        "missing required": form[0] != "verify",
        "bad target": form[0] == "verify",
        # Among the options of crossed-product and steinberg, --m is
        # --max-degree.
        "--m": form[0] not in ("crossed-product", "steinberg"),
    }.get(kind, True))
    form, groups, at = draw(_command_line(
        forms, drop_required=kind == "missing required", real=True))
    word = draw(st.text("abcdefghz-", min_size=1, max_size=10).filter(
        lambda w: not w.startswith("-")))
    if kind == "no command":
        return [w for group in groups for w in group]
    if kind == "unknown command":
        assume(word not in {form[0] for form in FORMS})
        return [word, *_argv(form, groups, at)[1:]]
    if kind == "unknown option":
        assume(not any(f.startswith("--" + word) for f in _flags(form[0])))
        groups.insert(draw(st.integers(0, len(groups))), ["--" + word])
    if kind == "bad target":
        assume(word not in {form[1] for form in forms})
        return _argv(form, groups, at, target=word)
    argv = _argv(form, groups, at)
    if kind == "missing value":
        required, optional = FORMS[form]
        flag = draw(st.sampled_from(required + optional + list(COMMON)))
        argv.append(draw(st.sampled_from(_spellings(flag, form[0]))))
    if kind in ("--max-degree x", "--format xml"):
        argv += kind.split()
    if kind == "--m":
        # A value that --max-degree and --monoid would both take.
        argv += ["--m", "1"]
    return argv


@settings(deadline=None, max_examples=300)
@given(_malformed())
def test_malformed_lines_are_refused_by_both(argv):
    with pytest.raises(SystemExit) as refused:
        _oracle(argv)
    assert refused.value.code == 2, argv
    code, out, lines = _run(argv)
    assert (code, out) == (2, ""), argv
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


def test_verify_refuses_options_its_target_does_not_read():
    # None of these options is read, and the file does not exist.
    assert _run(["verify", "ks-crossed-product", "--monoid", "chain:2",
                 "--groupoid", "pair:2", "--action", "zzz",
                 "--module", "file:/nope"]) == (2, "", [
        "error: verify ks-crossed-product does not read --groupoid"])
    values = {"--action": "ke:chain:2", "--groupoid": "pair:2",
              "--monoid": "chain:2", "--module": "regular"}
    for form, (required, optional) in FORMS.items():
        if form[0] != "verify":
            continue
        argv = [*form, *(w for flag in required for w in (flag, values[flag]))]
        for flag in sorted(set(values) - set(required + optional)):
            message = f"error: {' '.join(form)} does not read {flag}"
            assert _run([*argv, flag, values[flag]]) == (2, "", [message])
            assert _run([*argv, f"{flag}=x"]) == (2, "", [message])


def test_help_prints_the_table_and_exits_0():
    everything = _run(["-h"])
    assert everything[0] == 0 and everything[2] == []
    for form in FORMS:
        assert f"usage: invhom {' '.join(form)} " in everything[1], form
    for argv in (["--help"], ["--he"], ["homology", "--monoid", "x", "-h"],
                 ["verify", "--hel"]):
        code, out, err = _run(argv)
        assert (code, err) == (0, []), argv
        assert out.startswith("usage: invhom "), argv
    assert _run(["steinberg", "-h"])[1] == (
        "usage: invhom steinberg --groupoid GROUPOID [--format text] "
        "[--field q] [--max-degree 2] [--seed 0] [--cap-columns 50000]\n"
        "\nbisections, convolution algebra, psi\n")


def test_a_job_loads_no_argparse():
    # Building argparse parsers cost each job 3 to 6 ms before any of its
    # mathematics; a job that imports argparse again has brought that back.
    src = str(Path(invhom.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys\n"
            "from invhom.cli import main\n"
            "code = main(['homology', '--monoid', 'i:2', '--max-degree', '1'])"
            "\nprint(code, 'argparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
