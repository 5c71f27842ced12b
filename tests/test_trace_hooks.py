"""Every function that ``perfbench/tracing.py`` wraps must still exist,
and a traced run must measure what it reports.

The benchmark's ``--trace 1`` wraps invhom functions named as
"module:qualname" strings; a rename would break it only when it is run.
The first test resolves each name without installing any wrapper; the
second installs the wrappers on two CLI jobs in a fresh interpreter.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import invhom

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _tracing()
    targets = [t for table in (tracing.LAYERS, tracing.COUNTS)
               for targets, _ in table.values() for t in targets]
    assert targets
    for target in targets:
        modname, qualname = target.split(":")
        obj = importlib.import_module(f"{invhom.__name__}.{modname}")
        *owners, attr = qualname.split(".")
        for name in owners:
            obj = getattr(obj, name, None)
            assert obj is not None, target
        fn = getattr(obj, attr, None)
        assert callable(fn), target
        # install() replaces a method through its class's own namespace.
        if owners:
            assert attr in vars(obj), target


# Runs one CLI job untraced, then again with every wrapper installed, and
# prints both (exit code, stdout) pairs and the tracer's counts as JSON.
TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from invhom.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()

argv = json.loads(sys.argv[2])
plain = run(argv)
tracer = tracing.Tracer()
tracing.install(tracer)
traced = run(argv)
print(json.dumps({"plain": plain, "traced": traced, "counts": tracer.counts}))
"""


def test_traced_run_keeps_stdout_and_measures_sizes():
    src = str(Path(invhom.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    # The monoid side of a pair groupoid is a trivial group acting on a
    # line, whose resolution stops at P_0, so its complex has no nonzero
    # boundary; that of group:z:3 is Z_3 acting on KZ_3.  KE(I_2) is an
    # index table, whose D-class split makes no matrix product.
    jobs = (["homology", "--monoid", "i:2", "--max-degree", "1"],
            ["verify", "steinberg-homology", "--groupoid", "group:z:3",
             "--max-degree", "1"])
    for argv in jobs:
        proc = subprocess.run(
            [sys.executable, "-c", TRACED_RUN, str(TRACING.parent),
             json.dumps(argv)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["plain"][0] == 0, argv
        assert result["traced"] == result["plain"], argv
        counts = result["counts"]
        products = counts.get("linalg.matmul.calls", 0)
        assert products == 0 if argv[0] == "homology" else products > 0, argv
        for key in ("linalg.rank.cols", "linalg.rank.nnz",
                    "homology.boundary.nnz"):
            assert counts.get(key, 0) > 0, (argv, key)
