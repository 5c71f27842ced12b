import contextlib
import copy
import io
import json
import subprocess
import sys
import time

import pytest

from invhom.algebras import Algebra, dual_numbers, regular_bimodule
from invhom.cli import main as cli_main
from invhom.crossed import natural_ke_action
from invhom.groupoids import bisections_with_masks, pair_groupoid
from invhom.homology import trivial_module_ke
from invhom.linalg import Field
from invhom.monoids import chain_semilattice, symmetric_inverse_monoid
from invhom.serialize import (action_from_dict, action_to_dict,
                              algebra_from_dict, algebra_to_dict,
                              bimodule_from_dict, bimodule_to_dict,
                              groupoid_from_dict, groupoid_to_dict,
                              ks_module_from_dict, ks_module_to_dict,
                              monoid_from_dict, monoid_to_dict, parse_field,
                              resolve_groupoid, resolve_monoid)

Q = Field(0)


def _unknown(spec):
    return f"unknown field spec {spec!r}; use q or fp:<p>"


# Field specs that are not q or fp: and ASCII decimal digits naming a prime.
BAD_FIELD_SPECS = (
    ("fp:0", "characteristic must be a prime, got 0"),
    ("fp:00", "characteristic must be a prime, got 0"),
    ("fp:1", "characteristic must be a prime, got 1"),
    ("fp:6", "characteristic must be 0 or a prime, got 6"),
    *((spec, _unknown(spec)) for spec in (
        "r", "fp:", "fp:1_1", "fp: 3", "fp:3 ", "fp:+3", "fp:-3", "fp:abc",
        "fp:\u0663", "fp:3.0")),
)


def test_parse_field():
    assert parse_field("q").char == 0
    assert parse_field("fp:5").char == 5
    assert parse_field("fp:011").char == 11
    for spec, message in BAD_FIELD_SPECS:
        with pytest.raises(ValueError) as exc:
            parse_field(spec)
        assert str(exc.value) == message


def _unknown_spec(kind, spec):
    return f"unknown {kind} spec {spec!r}"


# Shorthand numbers follow fp:<p>: ASCII decimal digits and nothing else.
BAD_SHORTHAND_SPECS = (
    *(("monoid", spec, _unknown_spec("monoid", spec)) for spec in (
        "i:", "i: 2", "i:-1", "chain:2 ", "chain:1_0", "z:+2", "z:\u0663",
        "z:2.0")),
    ("monoid", "prod:z:2,z:+2", _unknown_spec("monoid", "z:+2")),
    *(("groupoid", spec, _unknown_spec("groupoid", spec)) for spec in (
        "pair:_4", "pair:+2", "pair:-1", "discrete:+2", "discrete:\u0663")),
    ("groupoid", "group:z:+3", _unknown_spec("monoid", "z:+3")),
)


def test_resolve_refuses_malformed_shorthand_numbers():
    assert resolve_monoid("z:002").size == 2
    for kind, spec, message in BAD_SHORTHAND_SPECS:
        resolve, argv = {
            "monoid": (resolve_monoid, ["homology", "--monoid", spec]),
            "groupoid": (resolve_groupoid, ["steinberg", "--groupoid", spec]),
        }[kind]
        with pytest.raises(ValueError) as exc:
            resolve(spec)
        assert str(exc.value) == message
        assert _cli_error_lines(argv) == [f"error: {message}"]


def test_monoid_roundtrip():
    m = symmetric_inverse_monoid(2)
    doc = json.loads(json.dumps(monoid_to_dict(m)))
    m2 = monoid_from_dict(doc)
    assert m2.table == m.table and m2.unit == m.unit and m2.names == m.names


def test_ks_module_roundtrip():
    m = chain_semilattice(3)
    v = trivial_module_ke(m, Q)
    doc = json.loads(json.dumps(ks_module_to_dict(v)))
    v2 = ks_module_from_dict(doc, m)
    assert v2.dim == v.dim
    assert all(a == b for a, b in zip(v.act, v2.act))


def test_algebra_roundtrip_rational_tokens():
    a = dual_numbers(Q)
    doc = json.loads(json.dumps(algebra_to_dict(a)))
    assert all(isinstance(tok, str) and "/" in tok for tok in doc["sc"])
    a2 = algebra_from_dict(doc)
    assert a2.sc == a.sc and a2.unit == a.unit


def test_algebra_prime_field_tokens():
    a = dual_numbers(Field(3))
    doc = json.loads(json.dumps(algebra_to_dict(a)))
    assert all(isinstance(tok, int) for tok in doc["sc"])
    a2 = algebra_from_dict(doc)
    assert a2.sc == a.sc


def test_action_roundtrip():
    m = chain_semilattice(2)
    act = natural_ke_action(m, Q)
    doc = json.loads(json.dumps(action_to_dict(act)))
    act2 = action_from_dict(doc, m, act.algebra)
    assert act2.one == act.one
    assert all(a == b for a, b in zip(act.theta, act2.theta))


def test_bimodule_roundtrip():
    a = dual_numbers(Q)
    m = regular_bimodule(a)
    doc = json.loads(json.dumps(bimodule_to_dict(m)))
    m2 = bimodule_from_dict(doc, a)
    assert all(x == y for x, y in zip(m.left, m2.left))


def test_groupoid_roundtrip():
    g = pair_groupoid(2)
    doc = json.loads(json.dumps(groupoid_to_dict(g)))
    g2 = groupoid_from_dict(doc)
    assert g2.n_objects == g.n_objects
    assert g2.comp == g.comp and g2.inv == g.inv


def test_resolve_monoid_specs():
    assert resolve_monoid("i:2").size == 7
    assert resolve_monoid("chain:3").size == 3
    assert resolve_monoid("z:4").size == 4
    assert resolve_monoid("trivial").size == 1
    p = resolve_monoid("prod:chain:2,z:2")
    assert p.size == 4 and p.is_e_unitary()
    with pytest.raises(ValueError):
        resolve_monoid("nope:1")


def test_resolve_groupoid_specs():
    assert resolve_groupoid("pair:2").n_arrows == 4
    assert resolve_groupoid("group:z:2").n_arrows == 2
    assert resolve_groupoid("discrete:3").n_arrows == 3


def _run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "invhom.cli", *args],
        capture_output=True, text=True, timeout=timeout)
    return proc


def test_cli_homology_json():
    p = _run_cli("homology", "--monoid", "i:2", "--module", "trivial-ke",
                 "--field", "q", "--max-degree", "2", "--format", "json")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["betti"] == [3, 0, 0]


def test_cli_cohomology_f2():
    p = _run_cli("cohomology", "--monoid", "z:2", "--field", "fp:2",
                 "--max-degree", "3", "--format", "json")
    assert p.returncode == 0
    assert json.loads(p.stdout)["betti"] == [1, 1, 1, 1]


def test_cli_verify_steinberg():
    p = _run_cli("verify", "steinberg-homology", "--groupoid", "pair:2",
                 "--module", "regular", "--max-degree", "2", "--format", "json")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["verdict"] == "PASS"
    assert doc["report"]["data"]["monoid_side"] == [1, 0, 0]


def test_cli_resolution_check():
    p = _run_cli("resolution-check", "--monoid", "chain:2", "--max-degree", "2")
    assert p.returncode == 0
    assert "homotopy_identity = True" in p.stdout


def test_cli_crossed_product():
    p = _run_cli("crossed-product", "--action", "trivial:prod:chain:2,z:2",
                 "--format", "json")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["dim_crossed_product"] == 2
    assert doc["sigma_class_sums_vanish"] is True
    assert doc["phi"]["data"]["bijective"] is True


def test_cli_ks_crossed_product():
    p = _run_cli("verify", "ks-crossed-product", "--monoid", "prod:chain:2,z:2")
    assert p.returncode == 0


def test_cli_input_error_exit_2():
    p = _run_cli("homology", "--monoid", "file:/does/not/exist.json")
    assert p.returncode == 2
    p = _run_cli("homology", "--monoid", "bogus:7")
    assert p.returncode == 2
    assert "error:" in p.stderr


def _assert_one_error_line(p):
    assert p.returncode == 2
    assert p.stdout == ""
    lines = p.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), p.stderr


def _cli_error_lines(argv):
    """Run the CLI in-process on argv, which must fail with exit 2 and no
    stdout; return its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert (code, out.getvalue()) == (2, ""), argv
    return err.getvalue().splitlines()


def test_cli_bad_field_spec_exit_2(tmp_path):
    # fp:0 would be Q, and fp:1_1 F_11, under a report naming the spec.
    for k, (spec, message) in enumerate(BAD_FIELD_SPECS):
        assert _cli_error_lines(["homology", "--monoid", "z:2",
                                 "--field", spec]) == [f"error: {message}"]
        module = tmp_path / f"module{k}.json"
        module.write_text(json.dumps(
            {"field": spec, "dim": 1, "act": [["1"], ["1"]]}))
        assert _cli_error_lines(["homology", "--monoid", "z:2", "--module",
                                 f"file:{module}"]) == [f"error: {message}"]


def test_cli_long_field_spec_is_refused_unread(tmp_path):
    # More than 20 digits is at least 10^20 > 2^64, refused before int()
    # runs, in one line that neither echoes the number nor names Python's
    # integer-conversion limit; leading zeros do not count.
    message = ("error: characteristic must be below 2^64, got a number of "
               "more than 20 digits")
    for digits in ("1" * 21, "9" * 5000):
        spec = f"fp:{digits}"
        start = time.monotonic()
        lines = _cli_error_lines(["homology", "--monoid", "z:2",
                                  "--field", spec])
        assert time.monotonic() - start < 2.0
        assert lines == [message]
        assert "set_int_max_str_digits" not in lines[0]
        module = tmp_path / "module.json"
        module.write_text(json.dumps(
            {"field": spec, "dim": 1, "act": [["1"], ["1"]]}))
        assert _cli_error_lines(["homology", "--monoid", "z:2", "--module",
                                 f"file:{module}"]) == [message]
    assert parse_field("fp:" + "0" * 30 + "5").char == 5


def test_cli_large_prime_field():
    p = _run_cli("homology", "--monoid", "z:2", "--field",
                 "fp:2305843009213693951", "--max-degree", "1",
                 "--format", "json", timeout=10)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["betti"] == [1, 0]
    for bad in ("fp:561", f"fp:{2 ** 89 - 1}"):
        _assert_one_error_line(
            _run_cli("homology", "--monoid", "z:2", "--field", bad))


def test_cli_negative_max_degree_exit_2():
    for job in (("homology", "--monoid", "z:2"),
                ("cohomology", "--monoid", "z:2"),
                ("verify", "separable-homology", "--action", "ke:i:2"),
                ("resolution-check", "--monoid", "chain:2")):
        _assert_one_error_line(_run_cli(*job, "--max-degree", "-1"))


def test_cli_refuses_file_over_another_field(tmp_path):
    # An F_2 module or action read from a file is not computed over Q: the
    # report would name --field while the numbers came from the file's field.
    F2 = Field(2)
    z2 = resolve_monoid("z:2")
    (tmp_path / "mod.json").write_text(json.dumps(
        ks_module_to_dict(trivial_module_ke(z2, F2))))
    act = natural_ke_action(z2, F2)
    (tmp_path / "mon.json").write_text(json.dumps(monoid_to_dict(z2)))
    (tmp_path / "alg.json").write_text(json.dumps(algebra_to_dict(act.algebra)))
    (tmp_path / "act.json").write_text(json.dumps(action_to_dict(
        act, monoid_ref=f"file:{tmp_path}/mon.json",
        algebra_ref=f"file:{tmp_path}/alg.json")))
    module = ("homology", "--monoid", "z:2", "--module",
              f"file:{tmp_path}/mod.json", "--max-degree", "3")
    action = ("verify", "separable-homology", "--action",
              f"file:{tmp_path}/act.json")
    for job in (module, action):
        p = _run_cli(*job, "--field", "q", timeout=30)
        _assert_one_error_line(p)
        assert "over fp:2, but --field is q" in p.stderr, job
        p = _run_cli(*job, "--field", "fp:2", "--format", "json", timeout=30)
        assert p.returncode == 0, p.stderr
        assert json.loads(p.stdout)["field"] == "fp:2"


def test_cli_monoid_size_cap_exit_2_quickly():
    # The refusal itself is timed in-process, so interpreter start-up does
    # not count; the subprocess timeout fails a CLI that hangs instead.
    refusals = (lambda: resolve_monoid("i:5"),
                lambda: resolve_monoid("i:2000"),
                lambda: resolve_monoid("i:20000"),
                lambda: resolve_monoid("z:100000"),
                lambda: bisections_with_masks(resolve_groupoid("discrete:12")))
    for refuse in refusals:
        start = time.monotonic()
        with pytest.raises(ValueError, match="size cap exceeded"):
            refuse()
        assert time.monotonic() - start < 2.0
    for job in (("homology", "--monoid", "i:5"),
                ("homology", "--monoid", "i:2000"),
                ("homology", "--monoid", "i:20000"),
                ("homology", "--monoid", "z:100000"),
                ("steinberg", "--groupoid", "discrete:12")):
        p = _run_cli(*job, timeout=10)
        _assert_one_error_line(p)
        assert "size cap exceeded" in p.stderr


def test_cli_long_shorthand_number_is_refused_unread():
    # More digits than the largest cap (256) is past every cap, refused
    # before int() runs, in one line that names neither the number nor
    # Python's integer-conversion limit; leading zeros do not count.
    for job, prefix in (("homology --monoid", "i:"),
                        ("homology --monoid", "chain:"),
                        ("homology --monoid", "z:"),
                        ("steinberg --groupoid", "pair:"),
                        ("steinberg --groupoid", "discrete:")):
        for digits, width in (("1000", 4), ("0" * 9 + "1000", 4),
                              ("9" * 5000, 5000)):
            start = time.monotonic()
            lines = _cli_error_lines([*job.split(), prefix + digits])
            assert time.monotonic() - start < 2.0
            assert lines == [f"error: size cap exceeded: {prefix}N with a "
                             f"{width}-digit N is past every cap"]


def test_cli_exponent_scalars_are_refused_unread(tmp_path):
    # Fraction writes "1e3000000" out as an integer of three million digits,
    # which takes seconds; a scalar in exponent notation is refused before
    # it is read, in module, algebra, action and bimodule files alike.
    good_algebra = tmp_path / "unit-algebra.json"
    good_algebra.write_text(json.dumps(
        {"field": "q", "dim": 1, "sc": [1], "unit": [1]}))
    for token in ("1e3000000", "1E5", "-1e-5"):
        algebra = tmp_path / "bad-algebra.json"
        algebra.write_text(json.dumps(
            {"field": "q", "dim": 1, "sc": [token], "unit": [1]}))
        action = {"monoid_ref": "trivial", "one": [[1]], "theta": [[1]]}
        files = {
            "module": ({"field": "q", "dim": 1, "act": [[token], ["1"]]},
                       ["homology", "--monoid", "z:2", "--module"]),
            "algebra": ({**action, "algebra_ref": f"file:{algebra}"},
                        ["crossed-product", "--action"]),
            "action": ({**action, "algebra_ref": f"file:{good_algebra}",
                        "one": [[token]]}, ["crossed-product", "--action"]),
            "bimodule": ({"dim": 1, "left": [[token]], "right": [[1]]},
                         ["verify", "separable-homology", "--action",
                          "trivial:trivial", "--module"]),
        }
        for kind, (doc, job) in files.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            start = time.monotonic()
            lines = _cli_error_lines([*job, f"file:{path}"])
            assert time.monotonic() - start < 1.0, (kind, token)
            assert len(lines) == 1 and "exponent notation" in lines[0], \
                (kind, token, lines)
    # Fractions and decimals still load: z:2 acting by a swap scaled by
    # x on one side and 1/x on the other.
    for x, inverse in (("3/4", "4/3"), ("1.5", "2/3")):
        module = tmp_path / "module.json"
        module.write_text(json.dumps({"field": "q", "dim": 2, "act": [
            ["1", "0", "0", "1"], ["0", x, inverse, "0"]]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["homology", "--monoid", "z:2", "--module",
                             f"file:{module}", "--max-degree", "1"]) == 0
        assert out.getvalue()


def test_cli_long_digit_scalars_are_refused_with_the_digit_limit(tmp_path):
    # int() refuses a string of more than 4300 digits with Python's own
    # message; a scalar string or a bare JSON integer that long is refused
    # by invhom, naming the limit, in module, algebra, action and bimodule
    # files alike.  A bare number is spliced in as text, as json.dumps
    # cannot write it.
    good_algebra = tmp_path / "unit-algebra.json"
    good_algebra.write_text(json.dumps(
        {"field": "q", "dim": 1, "sc": [1], "unit": [1]}))
    bare = "1" * 5000
    for token in ('"' + "1" * 5000 + '"', '"0.' + "1" * 5000 + '"', bare,
                  "-" + bare):
        algebra = tmp_path / "bad-algebra.json"
        algebra.write_text(json.dumps(
            {"field": "q", "dim": 1, "sc": ["TOKEN"], "unit": [1]}
        ).replace('"TOKEN"', token))
        action = {"monoid_ref": "trivial", "one": [[1]], "theta": [[1]]}
        files = {
            "module": ({"field": "q", "dim": 1, "act": [["TOKEN"], ["1"]]},
                       ["homology", "--monoid", "z:2", "--module"]),
            "algebra": ({**action, "algebra_ref": f"file:{algebra}"},
                        ["crossed-product", "--action"]),
            "action": ({**action, "algebra_ref": f"file:{good_algebra}",
                        "one": [["TOKEN"]]}, ["crossed-product", "--action"]),
            "bimodule": ({"dim": 1, "left": [["TOKEN"]], "right": [[1]]},
                         ["verify", "separable-homology", "--action",
                          "trivial:trivial", "--module"]),
        }
        for kind, (doc, job) in files.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc).replace('"TOKEN"', token))
            start = time.monotonic()
            lines = _cli_error_lines([*job, f"file:{path}"])
            assert time.monotonic() - start < 1.0, (kind, token[:8])
            assert len(lines) == 1 and "more than 4300 digits" in lines[0], \
                (kind, token[:8], lines)
    # 4000-digit scalars still load, as strings and as bare numbers: z:2
    # acting by a swap scaled by x on one side and 1/x on the other.
    x = "1" * 4000
    for token in ('"' + x + '"', x):
        module = tmp_path / "module.json"
        module.write_text(json.dumps({"field": "q", "dim": 2, "act": [
            ["1", "0", "0", "1"], ["0", "TOKEN", "1/" + x, "0"]]}
        ).replace('"TOKEN"', token))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["homology", "--monoid", "z:2", "--module",
                             f"file:{module}", "--max-degree", "1"]) == 0
        assert out.getvalue()


def _discrete_file(tmp_path, n):
    """A groupoid file of n objects with one unit arrow each."""
    path = tmp_path / f"discrete{n}.json"
    path.write_text(json.dumps(
        {"objects": n, "arrows": [{"src": x, "rng": x} for x in range(n)],
         "comp": [[x, x, x] for x in range(n)], "inv": list(range(n))}))
    return f"file:{path}"


def test_arrow_cap_refuses_before_building(tmp_path):
    # Every arrow is a bisection, and so is the empty set: 256 arrows make
    # one bisection over the cap.  group:z:17 and a 17-arrow file pass.
    specs = ("pair:20", "pair:16", "discrete:400", "group:z:256",
             _discrete_file(tmp_path, 256))
    for spec in specs:
        start = time.monotonic()
        with pytest.raises(ValueError) as exc:
            resolve_groupoid(spec)
        assert str(exc.value) == ("size cap exceeded: groupoid has more "
                                  "than 256 bisections"), spec
        assert time.monotonic() - start < 0.5, spec
    assert resolve_groupoid("group:z:17").n_arrows == 17
    # The file's 2^17 bisections are refused as they are listed.
    wide = _discrete_file(tmp_path, 17)
    assert resolve_groupoid(wide).n_arrows == 17
    for spec in (*specs, wide):
        p = _run_cli("steinberg", "--groupoid", spec, timeout=10)
        _assert_one_error_line(p)
        assert "size cap exceeded" in p.stderr


def test_groupoid_file_giving_one_composite_twice_is_refused(tmp_path):
    # pair:2 with (2,1) -> 3 given again as 2, before or after the true
    # entry: either order is refused, naming the pair.
    doc = groupoid_to_dict(pair_groupoid(2))
    assert [2, 1, 3] in doc["comp"]
    for extra in ([[2, 1, 2]] + doc["comp"], doc["comp"] + [[2, 1, 2]]):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({**doc, "comp": extra}))
        lines = _cli_error_lines(["steinberg", "--groupoid", f"file:{path}"])
        assert lines == ["error: comp gives (2,1) twice"]


def test_groupoid_file_of_255_arrows_with_two_composites_swapped(tmp_path):
    # Z/255 with 1 + 1 given as 3 and 1 + 2 as 2: refused by Light's test
    # on the table with a zero adjoined, naming the first failing triple.
    doc = groupoid_to_dict(resolve_groupoid("group:z:255"))
    comp = {(a, b): c for a, b, c in doc["comp"]}
    comp[1, 1], comp[1, 2] = comp[1, 2], comp[1, 1]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(
        {**doc, "comp": [[a, b, c] for (a, b), c in comp.items()]}))
    start = time.monotonic()
    p = _run_cli("steinberg", "--groupoid", f"file:{path}", timeout=10)
    assert time.monotonic() - start < 2.0
    _assert_one_error_line(p)
    assert p.stderr == "error: not associative at (1,1,2)\n"


def test_cli_bad_table_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"size": 2, "table": [0, 0, 1, 0], "unit": 0}))
    p = _run_cli("homology", "--monoid", f"file:{bad}")
    assert p.returncode == 2
    assert "not associative" in p.stderr


def test_cli_determinism_byte_identical():
    jobs = [
        ("homology", "--monoid", "i:2", "--module", "trivial-ke",
         "--field", "q", "--max-degree", "2", "--format", "json"),
        ("verify", "steinberg-cohomology", "--groupoid", "pair:2",
         "--module", "regular", "--max-degree", "1"),
        ("crossed-product", "--action", "ke:i:1", "--seed", "3",
         "--format", "json"),
        ("steinberg", "--groupoid", "discrete:2"),
    ]
    for job in jobs:
        out1 = _run_cli(*job).stdout
        out2 = _run_cli(*job).stdout
        assert out1 == out2


def test_cli_json_rationals_roundtrip(tmp_path):
    # exact 'p/q' tokens in emitted algebra documents parse back identically
    from invhom.serialize import algebra_to_dict, algebra_from_dict
    from invhom.crossed import crossed_product, trivial_action
    from invhom.algebras import field_algebra
    cp = crossed_product(trivial_action(chain_semilattice(2), field_algebra(Q)))
    doc = algebra_to_dict(cp.algebra)
    text = json.dumps(doc)
    again = algebra_from_dict(json.loads(text))
    assert again.sc == cp.algebra.sc and again.unit == cp.algebra.unit


def test_cli_file_based_action_and_module(tmp_path):
    import invhom
    from invhom.serialize import (action_to_dict, algebra_to_dict,
                                  ks_module_to_dict, monoid_to_dict)

    # file-backed unital action: the natural action of chain:2 on its
    # idempotent span, shipped as three JSON documents
    m = chain_semilattice(2)
    act = natural_ke_action(m, Q)
    (tmp_path / "mon.json").write_text(json.dumps(monoid_to_dict(m)))
    (tmp_path / "alg.json").write_text(json.dumps(algebra_to_dict(act.algebra)))
    doc = action_to_dict(act,
                         monoid_ref=f"file:{tmp_path}/mon.json",
                         algebra_ref=f"file:{tmp_path}/alg.json")
    (tmp_path / "act.json").write_text(json.dumps(doc))
    p = _run_cli("crossed-product", "--action", f"file:{tmp_path}/act.json",
                 "--format", "json")
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    assert out["dim_crossed_product"] == 2

    # file-backed coefficient module for the homology command
    v = trivial_module_ke(m, Q)
    mod_doc = ks_module_to_dict(v, monoid_ref=f"file:{tmp_path}/mon.json")
    (tmp_path / "mod.json").write_text(json.dumps(mod_doc))
    p = _run_cli("homology", "--monoid", "chain:2",
                 "--module", f"file:{tmp_path}/mod.json",
                 "--max-degree", "2", "--format", "json")
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["betti"] == [2, 0, 0]


def test_cli_verify_missing_required_option_exit_2():
    for job, option in ((("separable-homology", "--monoid", "z:2"), "--action"),
                        (("steinberg-homology", "--action", "ke:z:2"),
                         "--groupoid"),
                        (("ks-crossed-product",), "--monoid")):
        p = _run_cli("verify", *job, timeout=30)
        _assert_one_error_line(p)
        assert option in p.stderr


def test_cli_json_document_not_an_object_exit_2(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    (tmp_path / "act.json").write_text(json.dumps(
        {"monoid_ref": "chain:2", "algebra_ref": f"file:{listed}"}))
    loaders = {
        "monoid": ("homology", "--monoid", f"file:{listed}"),
        "module": ("homology", "--monoid", "z:2", "--module", f"file:{listed}"),
        "groupoid": ("steinberg", "--groupoid", f"file:{listed}"),
        "action": ("crossed-product", "--action", f"file:{listed}"),
        "algebra": ("crossed-product", "--action", f"file:{tmp_path}/act.json"),
    }
    for name, job in loaders.items():
        p = _run_cli(*job, timeout=30)
        _assert_one_error_line(p)
        assert "expected a JSON object" in p.stderr, name


def test_cli_zero_denominator_exit_2(tmp_path):
    for field in ("q", "fp:3"):
        module = tmp_path / f"module-{field[:2]}.json"
        module.write_text(json.dumps(
            {"field": field, "dim": 1, "act": [["1/0"], ["1"]]}))
        p = _run_cli("homology", "--monoid", "z:2", "--field", field,
                     "--module", f"file:{module}", timeout=30)
        _assert_one_error_line(p)
        assert "zero denominator" in p.stderr, field


def test_cli_deeply_nested_json_exit_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"size": ' + "[" * 100000 + "]" * 100000 + "}")
    p = _run_cli("homology", "--monoid", f"file:{deep}", timeout=30)
    _assert_one_error_line(p)
    assert "nested too deeply" in p.stderr


def test_cli_loader_field_types_exit_2(tmp_path):
    table = [0, 1, 1, 0]
    monoids = [
        {"size": 2, "table": 5},
        {"size": "2", "table": table},
        {"size": True, "table": table},
        {"size": -1, "table": table},
        {"size": 2, "table": [0, 1, 1, 0.0]},
        {"size": 2, "table": [0, 1, 1, False]},
        {"size": 2, "table": [[0, 1], 5]},
        {"size": 2, "table": [[0, 1], [1, "0"]]},
        {"size": 2, "table": table, "names": "ab"},
        {"size": 2, "table": table, "names": ["a", 2]},
        {"size": 2, "table": table, "unit": "0"},
    ]
    modules = [
        {"field": "q", "dim": 1, "act": 3},
        {"field": "q", "dim": "1", "act": [[1], [1]]},
        {"field": "q", "dim": True, "act": [[1], [1]]},
        {"field": 5, "dim": 1, "act": [[1], [1]]},
        {"field": "q", "dim": 1, "act": [[1], 5]},
        {"field": "q", "dim": 1, "act": [[1], [None]]},
        {"field": "q", "dim": 1, "act": [[[1]], [1.5]]},
    ]
    jobs = []
    for k, doc in enumerate(monoids):
        path = tmp_path / f"monoid{k}.json"
        path.write_text(json.dumps(doc))
        jobs.append(("homology", "--monoid", f"file:{path}"))
    for k, doc in enumerate(modules):
        path = tmp_path / f"module{k}.json"
        path.write_text(json.dumps(doc))
        jobs.append(("homology", "--monoid", "z:2", "--module", f"file:{path}"))
    arrow = {"src": 0, "rng": 0}
    groupoids = [
        {"objects": 1, "arrows": 5, "comp": [], "inv": [0]},
        {"objects": "1", "arrows": [arrow], "comp": [[0, 0, 0]], "inv": [0]},
        {"objects": 1, "arrows": [0], "comp": [[0, 0, 0]], "inv": [0]},
        {"objects": 1, "arrows": [{"src": 1, "rng": 0}], "comp": [[0, 0, 0]],
         "inv": [0]},
        {"objects": 1, "arrows": [arrow], "comp": [[0, 0, 5]], "inv": [0]},
        {"objects": 1, "arrows": [arrow], "comp": [0], "inv": [0]},
        {"objects": 1, "arrows": [arrow], "comp": [[0, 0, 0]], "inv": [0, 0]},
        {"objects": 1, "arrows": [arrow], "comp": [[0, 0, 0]], "inv": [0],
         "unit_of": [0, 0]},
    ]
    for k, doc in enumerate(groupoids):
        path = tmp_path / f"groupoid{k}.json"
        path.write_text(json.dumps(doc))
        jobs.append(("steinberg", "--groupoid", f"file:{path}"))
    good_algebra = tmp_path / "algebra.json"
    good_algebra.write_text(json.dumps(
        {"field": "q", "dim": 1, "sc": [1], "unit": [1]}))
    algebras = [
        {"field": "q", "dim": "2", "sc": [1] * 8, "unit": [1, 0]},
        {"field": "q", "dim": 1, "sc": 5, "unit": [1]},
    ]
    actions = []
    for k, doc in enumerate(algebras):
        path = tmp_path / f"algebra{k}.json"
        path.write_text(json.dumps(doc))
        actions.append({"monoid_ref": "trivial", "algebra_ref": f"file:{path}",
                        "one": [[1]], "theta": [[1]]})
    good = {"monoid_ref": "trivial", "algebra_ref": f"file:{good_algebra}",
            "one": [[1]], "theta": [[1]]}
    actions += [{**good, "algebra_ref": 5}, {**good, "monoid_ref": 5},
                {**good, "one": 5}, {**good, "theta": 5}]
    for k, doc in enumerate(actions):
        path = tmp_path / f"action{k}.json"
        path.write_text(json.dumps(doc))
        jobs.append(("crossed-product", "--action", f"file:{path}"))
    bimodules = [
        {"dim": "1", "left": [[1]], "right": [[1]]},
        {"dim": 1, "left": 3, "right": [[1]]},
        {"dim": 1, "left": [[1]], "right": 3},
    ]
    for k, doc in enumerate(bimodules):
        path = tmp_path / f"bimodule{k}.json"
        path.write_text(json.dumps(doc))
        jobs.append(("verify", "separable-homology", "--action",
                     "trivial:trivial", "--module", f"file:{path}"))
    path = tmp_path / "module_ref.json"
    path.write_text(json.dumps({**modules[0], "monoid_ref": 5,
                                "act": [[1], [1]]}))
    jobs.append(("homology", "--monoid", "z:2", "--module", f"file:{path}"))
    for job in jobs:
        _assert_one_error_line(_run_cli(*job, timeout=30))


def test_groupoid_with_more_objects_than_arrows_exit_2(tmp_path):
    # Every object needs its own unit arrow, so the object count is refused
    # before anything of that size is allocated.
    arrows = [{"src": 0, "rng": 0}]
    for objects in (10 ** 30, len(arrows) + 1):
        path = tmp_path / "groupoid.json"
        path.write_text(json.dumps({"objects": objects, "arrows": arrows,
                                    "comp": [[0, 0, 0]], "inv": [0]}))
        p = _run_cli("steinberg", "--groupoid", f"file:{path}", timeout=30)
        _assert_one_error_line(p)
        assert "objects but 1 arrows" in p.stderr


FUZZ_VALUES = [None, "x", 1.5, -1, True, [], {}, [[]], [None], ["a"], 10 ** 30]


def _fuzz_paths(doc):
    """Every key of doc, plus an arrow's src and rng and one comp triple."""
    paths = [(key,) for key in doc]
    if "arrows" in doc:
        paths += [("arrows", 0, "src"), ("arrows", 0, "rng"), ("comp", 0)]
    return paths


def test_cli_json_loader_fuzz_exit_0_or_2(tmp_path):
    # Each loader's document has one field replaced at a time by a value of
    # the wrong type or size.  cli.main runs in-process, so an exception
    # that escapes it fails the test; exit 1 would mean "verification
    # failed", which no malformed input may report.
    algebra = tmp_path / "algebra.json"
    algebra_doc = {"field": "q", "dim": 1, "sc": [1], "unit": [1]}
    action = tmp_path / "action.json"
    action_doc = {"monoid_ref": "chain:2", "algebra_ref": f"file:{algebra}",
                  "one": [[1], [1]], "theta": [[1], [1]]}
    # Z_2 as a one-object groupoid; without unit_of the loader finds the
    # unit arrows itself.
    z2_groupoid = {"objects": 1,
                   "arrows": [{"src": 0, "rng": 0}, {"src": 0, "rng": 0}],
                   "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
                   "inv": [0, 1]}
    cases = {
        "monoid": ({"size": 2, "table": [0, 1, 1, 0], "unit": 0,
                    "names": ["1", "g"]},
                   ["homology", "--monoid", "file:{}", "--max-degree", "1"]),
        "module": ({"monoid_ref": "z:2", "field": "q", "dim": 1,
                    "act": [[1], [1]], "side": "left"},
                   ["homology", "--monoid", "z:2", "--module", "file:{}",
                    "--max-degree", "1"]),
        "algebra": (algebra_doc,
                    ["crossed-product", "--action", f"file:{action}"]),
        "action": (action_doc, ["crossed-product", "--action", "file:{}"]),
        "bimodule": ({"dim": 1, "left": [[1]], "right": [[1]]},
                     ["verify", "separable-homology", "--action",
                      "trivial:trivial", "--module", "file:{}",
                      "--max-degree", "1"]),
        "groupoid": (z2_groupoid, ["steinberg", "--groupoid", "file:{}"]),
        "groupoid-units": ({**z2_groupoid, "unit_of": [0]},
                           ["steinberg", "--groupoid", "file:{}"]),
    }
    runs = 0
    for name, (base, argv) in cases.items():
        algebra.write_text(json.dumps(algebra_doc))
        action.write_text(json.dumps(action_doc))
        path = tmp_path / f"{name}.json"
        for field_path in [None, *_fuzz_paths(base)]:
            for value in FUZZ_VALUES if field_path else [None]:
                doc = copy.deepcopy(base)
                if field_path:
                    *outer, last = field_path
                    target = doc
                    for key in outer:
                        target = target[key]
                    target[last] = value
                path.write_text(json.dumps(doc))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli_main([a.format(path) for a in argv])
                case = (name, field_path, value, err.getvalue())
                if field_path is None:
                    assert code == 0, case
                else:
                    assert code in (0, 2), case
                if code == 2:
                    lines = err.getvalue().splitlines()
                    assert out.getvalue() == "", case
                    assert len(lines) == 1 and lines[0].startswith("error:"), case
                runs += 1
    assert runs == 7 + 11 * (4 + 5 + 4 + 4 + 3 + 7 + 8)


def test_cli_action_law_failure_names_its_pair(tmp_path):
    # Z/3 permuting the coordinates of Q^3, with T_g2 replaced by T_g1.  g2
    # is not a generator and T_g1 passes every per-element check, so only
    # the action law fails, first at (g1, g1): T_g1 T_g1 = T_g2 is refused.
    from invhom.algebras import diagonal_algebra
    from invhom.crossed import UnitalAction
    from invhom.linalg import Matrix
    from oracles import from_rows
    z3 = resolve_monoid("z:3")
    assert 2 not in z3.generators
    algebra = diagonal_algebra(Q, 3)
    shift = from_rows(Q, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    theta = [Matrix.identity(Q, 3), shift, shift]
    action = UnitalAction(z3, algebra, [dict(algebra.unit)] * 3, theta)
    (tmp_path / "alg.json").write_text(json.dumps(algebra_to_dict(algebra)))
    (tmp_path / "act.json").write_text(json.dumps(action_to_dict(
        action, monoid_ref="z:3", algebra_ref=f"file:{tmp_path}/alg.json")))
    p = _run_cli("crossed-product", "--action", f"file:{tmp_path}/act.json",
                 timeout=30)
    _assert_one_error_line(p)
    assert "action invalid: " in p.stderr
    assert "action law fails at (g1,g1)" in p.stderr


def test_vector_of_wrong_length_in_a_file_exit_2(tmp_path):
    # A JSON vector is a dense list of dim scalars; a unit or an idempotent
    # 1_s of another length is refused with one line, whether too long or
    # too short.  The algebra is K^2 with pointwise product.
    algebra = tmp_path / "algebra.json"
    action = tmp_path / "action.json"
    algebra_doc = {"field": "q", "dim": 2, "sc": [1, 0, 0, 0, 0, 0, 0, 1],
                   "unit": [1, 1]}
    action_doc = {"monoid_ref": "trivial", "algebra_ref": f"file:{algebra}",
                  "one": [[1, 1]], "theta": [[1, 0, 0, 1]]}
    cases = [({"unit": [1, 1, 0]}, {}, "unit vector has wrong length"),
             ({"unit": [1]}, {}, "unit vector has wrong length"),
             ({}, {"one": [[1, 1, 0]]}, "idempotent vector has wrong length"),
             ({}, {"one": [[1]]}, "idempotent vector has wrong length")]
    for algebra_change, action_change, message in cases:
        algebra.write_text(json.dumps({**algebra_doc, **algebra_change}))
        action.write_text(json.dumps({**action_doc, **action_change}))
        p = _run_cli("crossed-product", "--action", f"file:{action}",
                     timeout=30)
        _assert_one_error_line(p)
        assert message in p.stderr and "Traceback" not in p.stderr


def test_max_degree_without_columns_is_refused_quickly(tmp_path):
    # A trivial monoid or a 0-dimensional module puts next to no columns in
    # a degree, but each degree still costs time: degree n is refused once
    # n * n is above the cap, before anything of it is built.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(
        {"monoid_ref": "z:2", "field": "q", "dim": 0, "act": [[], []]}))
    jobs = (["homology", "--monoid", "trivial", "--max-degree", "2000"],
            ["resolution-check", "--monoid", "trivial", "--max-degree", "2000"],
            ["verify", "separable-homology", "--action", "trivial:trivial",
             "--max-degree", "1000"],
            ["homology", "--monoid", "z:2", "--module", f"file:{empty}",
             "--max-degree", "250"],
            # The Hochschild side runs first here; its degree is refused
            # before dim^degree is formed.
            ["verify", "steinberg-cohomology", "--groupoid", "pair:3",
             "--max-degree", "10000000"],
            ["verify", "steinberg-cohomology", "--groupoid", "pair:3",
             "--max-degree", "100000000"])
    for argv in jobs:
        err = io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(err):
            assert cli_main(argv) == 2, argv
        assert time.monotonic() - start < 2.0, argv
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        assert lines[0].startswith("error: size cap exceeded"), lines
    from invhom.algebras import field_algebra, hochschild_homology
    with pytest.raises(ValueError, match="size cap exceeded"):
        hochschild_homology(field_algebra(Q),
                            regular_bimodule(field_algebra(Q)), 1000)


def test_right_module_file_is_refused(tmp_path):
    # Homology and cohomology take left modules only, so a module file may
    # say "side": "left" or leave it out, and any other side is refused.
    doc = {"monoid_ref": "z:2", "field": "q", "dim": 1, "act": [[1], [1]]}
    path = tmp_path / "module.json"
    argv = ["homology", "--monoid", "z:2", "--module", f"file:{path}",
            "--max-degree", "1"]
    for side, code in ((None, 0), ("left", 0), ("right", 2)):
        path.write_text(json.dumps(doc if side is None
                                   else {**doc, "side": side}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(err):
            assert cli_main(argv) == code, side
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().splitlines() == [
                "error: not a left module: side is 'right'"]


def test_verify_honours_cap_columns():
    # --cap-columns reaches the monoid and Hochschild complexes of every
    # verifier, so a small cap refuses what the default admits.
    # The Steinberg homology job stops at its monoid side's Z_8 summand,
    # whose W_e is Z_8 acting by conjugation on 8 points, trivially, so
    # over F_2 it is resolved in full (degree 0 of its complex has 8
    # columns); the cohomology job at its L(X) side, whose degree 0 has
    # one column per object.
    jobs = (["verify", "steinberg-homology", "--groupoid", "group:z:8",
             "--field", "fp:2", "--max-degree", "1", "--cap-columns", "7"],
            ["verify", "steinberg-cohomology", "--groupoid", "pair:2",
             "--max-degree", "0", "--cap-columns", "1"],
            ["verify", "separable-homology", "--action", "ke:chain:2",
             "--max-degree", "1", "--cap-columns", "3"],
            ["verify", "separable-cohomology", "--action", "ke:chain:2",
             "--max-degree", "1", "--cap-columns", "3"])
    for argv in jobs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(err):
            assert cli_main(argv) == 2, argv
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        assert lines[0].startswith("error: size cap exceeded"), lines
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli_main(argv[:-2]) == 0, argv


def test_resolution_cap_names_degree_and_columns():
    # The S_4 summand of I_4 resolves with r_5 = 21 generators, so its
    # degree 5 has 21 * 24 = 504 columns.  Over Q the summand is projective
    # and resolved to P_1 only, so the job runs over F_2.
    argv = ["homology", "--monoid", "i:4", "--field", "fp:2",
            "--max-degree", "6", "--cap-columns", "500"]
    start = time.monotonic()
    assert _cli_error_lines(argv) == [
        "error: size cap exceeded: degree 5 needs 504 columns, more than 500"]
    assert time.monotonic() - start < 5.0


def test_group_resolution_walls_finish_at_the_default_cap():
    # Each job was refused at the default cap while every D-class summand
    # used the bar complex of its group: S_4 has 24^n tuples in degree n.
    jobs = ((["homology", "--monoid", "i:4", "--field", "fp:2",
              "--max-degree", "6"], "betti", [5, 3, 4, 5, 5, 6, 7]),
            (["verify", "steinberg-homology", "--groupoid", "pair:4",
              "--max-degree", "3"], "monoid_side", [1, 0, 0, 0]),
            (["verify", "steinberg-cohomology", "--groupoid", "pair:4",
              "--max-degree", "3"], "monoid_side", [1, 0, 0, 0]))
    for argv, key, expected in jobs:
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli_main(argv + ["--format", "json"]) == 0, argv
        assert time.monotonic() - start < 15.0, argv
        doc = json.loads(out.getvalue())
        if key == "betti":
            assert doc["betti"] == expected
        else:
            assert doc["verdict"] == "PASS"
            assert doc["report"]["data"][key] == expected


def test_ks_crossed_product_wall_finishes(monkeypatch):
    # The 256-dimensional skew algebra of prod:chain:16,z:16 is monomial,
    # so Light's test reads its product table and _failure only checks the
    # unit law: about 0.6 s in all, where the test as sparse sums on the
    # generators took 3.8 s.
    ks, failure = [], Algebra._failure
    monkeypatch.setattr(Algebra, "_failure",
                        lambda self, k: ks.append(list(k)) or failure(self, k))
    argv = ["verify", "ks-crossed-product", "--monoid", "prod:chain:16,z:16",
            "--field", "fp:2"]
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(argv + ["--format", "json"]) == 0
    assert time.monotonic() - start < 15.0
    doc = json.loads(out.getvalue())
    assert doc["verdict"] == "PASS"
    assert doc["report"]["data"]["dim_skew"] == 256
    assert ks and not any(ks)


def test_cap_columns_below_one_is_refused_before_any_work():
    # The unknown monoid and groupoid show that nothing else is read first.
    jobs = (["homology", "--monoid", "bogus:7"],
            ["resolution-check", "--monoid", "i:2"],
            ["crossed-product", "--action", "ke:chain:2"],
            ["verify", "steinberg-homology", "--groupoid", "bogus:7"])
    for cap in ("-5", "0"):
        for argv in jobs:
            assert _cli_error_lines(argv + ["--cap-columns", cap]) == [
                f"error: --cap-columns must be a positive integer, got {cap}"]


def test_hochschild_cap_names_degree_and_columns():
    # Each job passes the degree cap and its monoid side, and stops at the
    # Hochschild column cap.  The complex is relative to the Möbius family
    # of KE(I_3) (66 and 312 columns in degrees 1 and 2) or, on the L(X)
    # side, to the points of X (one column per object in degree 0).
    jobs = ((["verify", "separable-homology", "--action", "ke:i:3",
              "--max-degree", "1", "--cap-columns", "300"],
             "Hochschild degree 2 needs 312 columns, more than 300"),
            (["verify", "separable-cohomology", "--action", "ke:i:3",
              "--max-degree", "1", "--cap-columns", "300"],
             "Hochschild degree 2 needs 312 columns, more than 300"),
            (["verify", "steinberg-cohomology", "--groupoid", "pair:2",
              "--max-degree", "0", "--cap-columns", "1"],
             "Hochschild degree 0 needs 2 columns, more than 1"))
    for argv, message in jobs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(err):
            assert cli_main(argv) == 2, argv
        assert out.getvalue() == ""
        assert err.getvalue().splitlines() == [
            f"error: size cap exceeded: {message}"]


def test_large_resolution_checks_finish_in_bounded_time():
    jobs = ((["--monoid", "i:2", "--max-degree", "5"],
             [7, 27, 121, 615, 3457, 20967]),
            (["--monoid", "chain:3", "--max-degree", "9"],
             [3, 6, 14, 36, 98, 276, 794, 2316, 6818, 20196]))
    for args, dims in jobs:
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["resolution-check", *args, "--format", "json"])
        assert time.monotonic() - start < 30.0, args
        doc = json.loads(out.getvalue())
        assert code == 0 and doc["pass"] is True, args
        assert doc["dims"] == dims


def test_a_missing_field_names_the_field_and_the_file(tmp_path):
    # Each reader's document with one required field left out, an arrow's
    # rng among them: exit 2 with one line that names the field and the
    # file it is missing from.
    algebra = tmp_path / "algebra.json"
    algebra_doc = {"field": "q", "dim": 1, "sc": [1], "unit": [1]}
    action_doc = {"monoid_ref": "chain:2", "algebra_ref": f"file:{algebra}",
                  "one": [[1], [1]], "theta": [[1], [1]]}
    z2_groupoid = {"objects": 1,
                   "arrows": [{"src": 0, "rng": 0}, {"src": 0, "rng": 0}],
                   "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
                   "inv": [0, 1]}
    cases = {
        "monoid": ({"size": 2, "table": [0, 1, 1, 0], "unit": 0}, "table",
                   ["homology", "--monoid", "file:{}"]),
        "module": ({"monoid_ref": "z:2", "field": "q", "dim": 1,
                    "act": [[1], [1]]}, "act",
                   ["homology", "--monoid", "z:2", "--module", "file:{}"]),
        "algebra": (algebra_doc, "sc", ["crossed-product", "--action",
                                        f"file:{tmp_path}/action.json"]),
        "action": (action_doc, "theta",
                   ["crossed-product", "--action", "file:{}"]),
        "bimodule": ({"dim": 1, "left": [[1]], "right": [[1]]}, "right",
                     ["verify", "separable-homology", "--action",
                      "trivial:trivial", "--module", "file:{}"]),
        "groupoid": (z2_groupoid, "inv",
                     ["steinberg", "--groupoid", "file:{}"]),
        "arrow": (z2_groupoid, ("arrows", 1, "rng"),
                  ["steinberg", "--groupoid", "file:{}"]),
    }
    for name, (base, field, argv) in cases.items():
        algebra.write_text(json.dumps(algebra_doc))
        (tmp_path / "action.json").write_text(json.dumps(action_doc))
        path = tmp_path / f"{name}.json"
        doc = copy.deepcopy(base)
        *outer, last = field if isinstance(field, tuple) else (field,)
        target = doc
        for key in outer:
            target = target[key]
        del target[last]
        path.write_text(json.dumps(doc))
        assert _cli_error_lines([a.format(path) for a in argv]) == [
            f"error: {path}: missing field {last!r}"], name


def _subcommands():
    """Each subcommand of the CLI, each verify target as one."""
    from invhom.cli import _COMMANDS, _VERIFY_TARGETS
    return [(c,) for c in _COMMANDS if c != "verify"] + [
        ("verify", t) for t in _VERIFY_TARGETS]


def test_every_subcommand_accepts_a_seed_that_changes_nothing():
    # The benchmark passes --seed N to every job; no command reads it.
    args = {
        ("homology",): ["--monoid", "i:2"],
        ("cohomology",): ["--monoid", "i:2"],
        ("crossed-product",): ["--action", "ke:prod:chain:2,z:2"],
        ("steinberg",): ["--groupoid", "pair:2"],
        ("resolution-check",): ["--monoid", "chain:2"],
        ("verify", "separable-homology"): ["--action", "ke:chain:2"],
        ("verify", "separable-cohomology"): ["--action", "ke:chain:2"],
        ("verify", "steinberg-homology"): ["--groupoid", "pair:2"],
        ("verify", "steinberg-cohomology"): ["--groupoid", "pair:2"],
        ("verify", "ks-crossed-product"): ["--monoid", "prod:chain:2,z:2"],
    }
    assert sorted(args) == sorted(_subcommands())
    for command, rest in args.items():
        runs = set()
        for seed in ("0", "7", "9", "123456789"):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main([*command, *rest, "--max-degree", "1",
                                 "--seed", seed])
            runs.add((code, out.getvalue()))
        assert len(runs) == 1 and runs.pop()[0] == 0, command
