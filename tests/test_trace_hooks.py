"""Every function that ``perfbench/tracing.py`` wraps must still exist.

The benchmark's ``--trace 1`` wraps invhom functions named as
"module:qualname" strings; a rename would break it only when it is run.
This resolves each name without installing any wrapper.
"""

import importlib
import importlib.util
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
