"""The CLI's stdout, byte for byte, against reports kept in tests/golden/.

Each job runs ``cli.main`` in-process in both output formats; its stdout
must equal ``tests/golden/<name>.<format>.txt`` and its exit status must
be 0.  Jobs run with the repository root as working directory, so a
``file:`` path under ``tests/fixtures/`` is printed the same everywhere.
To record the files again from the current tree:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib.util
import io
import json
import os
import time
from pathlib import Path

from invhom.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURE = "tests/fixtures/monoid-1-e-ge.json"

JOBS = [
    ("steinberg-pair2", ["steinberg", "--groupoid", "pair:2"]),
    ("steinberg-pair3", ["steinberg", "--groupoid", "pair:3"]),
    ("steinberg-z3", ["steinberg", "--groupoid", "group:z:3"]),
    ("steinberg-discrete2", ["steinberg", "--groupoid", "discrete:2"]),
    ("verify-steinberg-homology-pair2",
     ["verify", "steinberg-homology", "--groupoid", "pair:2",
      "--max-degree", "2"]),
    ("verify-steinberg-cohomology-pair2",
     ["verify", "steinberg-cohomology", "--groupoid", "pair:2",
      "--max-degree", "2"]),
    ("verify-steinberg-homology-z3-f3",
     ["verify", "steinberg-homology", "--groupoid", "group:z:3",
      "--field", "fp:3", "--max-degree", "2"]),
    ("verify-steinberg-cohomology-z3-f3",
     ["verify", "steinberg-cohomology", "--groupoid", "group:z:3",
      "--field", "fp:3", "--max-degree", "2"]),
    ("verify-separable-homology-ke-chain2-z2",
     ["verify", "separable-homology", "--action", "ke:prod:chain:2,z:2"]),
    ("verify-separable-cohomology-ke-chain2-z2",
     ["verify", "separable-cohomology", "--action", "ke:prod:chain:2,z:2"]),
    ("crossed-product-trivial-chain2-z2",
     ["crossed-product", "--action", "trivial:prod:chain:2,z:2",
      "--seed", "7"]),
    ("crossed-product-ke-i2", ["crossed-product", "--action", "ke:i:2"]),
    ("verify-ks-crossed-product-chain2-z2",
     ["verify", "ks-crossed-product", "--monoid", "prod:chain:2,z:2"]),
    ("homology-i2-trivial-ke",
     ["homology", "--monoid", "i:2", "--module", "trivial-ke",
      "--max-degree", "3"]),
    ("cohomology-i2-regular-ks-f2",
     ["cohomology", "--monoid", "i:2", "--module", "regular-ks",
      "--field", "fp:2", "--max-degree", "3"]),
    ("homology-i3-trivial-ke-f3",
     ["homology", "--monoid", "i:3", "--module", "trivial-ke",
      "--field", "fp:3", "--max-degree", "1"]),
    ("resolution-check-chain3",
     ["resolution-check", "--monoid", "chain:3", "--max-degree", "2"]),
    ("resolution-check-i2-deg4",
     ["resolution-check", "--monoid", "i:2", "--max-degree", "4"]),
    ("resolution-check-i2-deg4-f2",
     ["resolution-check", "--monoid", "i:2", "--max-degree", "4",
      "--field", "fp:2"]),
    ("verify-ks-crossed-product-chain3",
     ["verify", "ks-crossed-product", "--monoid", "chain:3"]),
    ("verify-ks-crossed-product-z3-f3",
     ["verify", "ks-crossed-product", "--monoid", "z:3", "--field", "fp:3"]),
    ("verify-ks-crossed-product-chain2-z3-f2",
     ["verify", "ks-crossed-product", "--monoid", "prod:chain:2,z:3",
      "--field", "fp:2"]),
    ("crossed-product-ke-chain2-z3",
     ["crossed-product", "--action", "ke:prod:chain:2,z:3"]),
    # {1, e, ge}: the induced partial action of G(S) = Z_2 on KE(S) = K^2 is
    # proper, its domain D_g = eK^2 has dimension 1.
    ("crossed-product-ke-1-e-ge",
     ["crossed-product", "--action", f"ke:file:{FIXTURE}"]),
    ("verify-ks-crossed-product-1-e-ge",
     ["verify", "ks-crossed-product", "--monoid", f"file:{FIXTURE}"]),
    ("verify-ks-crossed-product-chain4-z8-f2",
     ["verify", "ks-crossed-product", "--monoid", "prod:chain:4,z:8",
      "--field", "fp:2"]),
    # The trivial action of z:2 on the dual numbers over F_3, whose
    # structure constants are read from the flat dim^3 JSON format.
    ("crossed-product-file-z2-dual-f3",
     ["crossed-product", "--action",
      "file:tests/fixtures/action-z2-trivial-dual-f3.json",
      "--field", "fp:3"]),
    # KS over I_4 and I_3: D-class summands W_e of more than one point.
    ("homology-i4-regular-ks-f2-deg2",
     ["homology", "--monoid", "i:4", "--module", "regular-ks",
      "--field", "fp:2", "--max-degree", "2"]),
    ("cohomology-i3-regular-ks-f3-deg3",
     ["cohomology", "--monoid", "i:3", "--module", "regular-ks",
      "--field", "fp:3", "--max-degree", "3"]),
]

# Jobs that the undivided |S|^n complex refused at the default cap and the
# D-class split finishes in well under a second or two each.  Their Betti
# numbers are also checked against perfbench/answers.py::monoid_betti,
# which computes them without invhom: [4, 2, 2, 2], [5, 3, 4] and
# [4, 0, 0, 0, 0].
D_CLASS_JOBS = [
    ("homology-i3-trivial-ke-f2-deg3",
     ["homology", "--monoid", "i:3", "--field", "fp:2", "--max-degree", "3"],
     (3, "trivial-ke", 2, 3)),
    ("homology-i4-trivial-ke-f2-deg2",
     ["homology", "--monoid", "i:4", "--field", "fp:2", "--max-degree", "2"],
     (4, "trivial-ke", 2, 2)),
    ("homology-i3-trivial-ke-deg4",
     ["homology", "--monoid", "i:3", "--max-degree", "4"],
     (3, "trivial-ke", 0, 4)),
]
D_CLASS_SECONDS = 10.0

FORMATS = ("text", "json")


def _stdout(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def test_cli_stdout_matches_golden_files():
    for name, argv in JOBS:
        for fmt in FORMATS:
            code, text = _stdout([*argv, "--format", fmt])
            assert code == 0, (name, fmt)
            path = GOLDEN / f"{name}.{fmt}.txt"
            assert text == path.read_text(encoding="utf-8"), (name, fmt)


def _monoid_betti():
    spec = importlib.util.spec_from_file_location(
        "perfbench_answers", ROOT / "perfbench" / "answers.py")
    answers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(answers)
    return answers.monoid_betti


def test_jobs_past_the_old_cap_match_golden_files_in_bounded_time():
    monoid_betti = _monoid_betti()
    for name, argv, answer in D_CLASS_JOBS:
        for fmt in FORMATS:
            start = time.monotonic()
            code, text = _stdout([*argv, "--format", fmt])
            assert time.monotonic() - start < D_CLASS_SECONDS, (name, fmt)
            assert code == 0, (name, fmt)
            path = GOLDEN / f"{name}.{fmt}.txt"
            assert text == path.read_text(encoding="utf-8"), (name, fmt)
            if fmt == "json":
                assert json.loads(text)["betti"] == monoid_betti(*answer)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, _ in D_CLASS_JOBS:
        JOBS.append((name, argv))
    for name, argv in JOBS:
        for fmt in FORMATS:
            code, text = _stdout([*argv, "--format", fmt])
            if code != 0:
                raise SystemExit(f"{name} --format {fmt} exited {code}")
            (GOLDEN / f"{name}.{fmt}.txt").write_text(text, encoding="utf-8")
