"""Spans and counts around invhom's public functions, installed from outside.

``install()`` replaces each function named in LAYERS and COUNTS by a
wrapper, in its defining module and in every invhom module that imported
it with ``from .x import ...``; methods are replaced on their class.  A
span is (name, start_ns, end_ns, parent_index).  A call into a layer that
is already open (``SparseCols.rank`` calling ``mat_rank``, ``bisections``
calling ``bisections_with_masks``) is not a new span, so each layer
counts its outermost calls only.  The work of measuring sizes after a
call is recorded as a ``trace`` span, so it is no layer's self time.
"""

from __future__ import annotations

import sys
import time


def _dense_nnz(m):
    return sum(1 for row in m.data for v in row if v)


def _rank_sizes(args, result):
    m = args[0]
    if hasattr(m, "columns"):
        return {"linalg.rank.cols": m.cols, "linalg.rank.nnz": m.nnz()}
    return {"linalg.rank.cols": m.cols, "linalg.rank.nnz": _dense_nnz(m)}


def _complex_sizes(args, result):
    return {"homology.complex.cols": sum(result.space_dims),
            "homology.boundary.nnz": sum(d.nnz() for d in result.boundaries
                                         if d is not None)}


# layer name -> (functions as "module:qualname", size measure or None)
LAYERS = {
    "linalg.rank": (["linalg:SparseCols.rank", "linalg:mat_rank"],
                    _rank_sizes),
    "linalg.span": (["linalg:ColumnSpan.__init__", "linalg:ColumnSpan.coords"],
                    None),
    "linalg.matmul": (["linalg:Matrix.__matmul__"], None),
    "linalg.quotient": (["linalg:quotient_space", "linalg:induced_map",
                         "linalg:kernel_basis", "linalg:image_basis",
                         "linalg:rref"], None),
    "homology.complex": (["homology:homology_complex",
                          "homology:cohomology_complex"], _complex_sizes),
    "homology.module": (["homology:KSModule.__init__"], None),
    "monoids.from_table": (["monoids:from_table"], None),
    "algebras.algebra": (["algebras:Algebra.__init__"], None),
    "algebras.hochschild": (["algebras:hochschild_homology",
                             "algebras:hochschild_cohomology"], None),
    "algebras.separable": (["algebras:is_separable"], None),
    "crossed.crossed_product": (["crossed:crossed_product"], None),
    "crossed.validate_action": (["crossed:validate_action"], None),
    "crossed.coinvariants": (["crossed:coinvariants",
                              "crossed:invariants_sub"], None),
    "groupoids.bisections": (["groupoids:bisections",
                              "groupoids:bisections_with_masks"], None),
    "groupoids.psi": (["groupoids:psi_map"], None),
    "serialize.resolve": (["serialize:parse_field", "serialize:resolve_monoid",
                           "serialize:resolve_groupoid"], None),
    "cli.emit": (["cli:_emit"], None),
}

# counter name -> (functions, amount added per call from (args, result))
COUNTS = {
    "crossed.l_mult.calls": (["crossed:CrossedProduct.l_mult"], None),
    "groupoids.steinberg_algebra.calls": (["groupoids:steinberg_algebra"],
                                          None),
    "algebras.hochschild.cols": (["algebras:_hochschild_chain_boundary",
                                  "algebras:_hochschild_cochain_boundary"],
                                 lambda args, result: result.cols),
}


class Tracer:
    """Records spans and counts in memory for one job."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._open = set()

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def span_wrapper(self, name, fn, measure):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            self._open.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._open.discard(name)
                self.spans[idx] = (name, start, end, parent)
            self._add(name + ".calls", 1)
            if measure is not None:
                for key, amount in measure(args, result).items():
                    self._add(key, amount)
                self.spans.append(("trace", end, clock(), parent))
            return result
        return wrapper

    def count_wrapper(self, name, fn, amount):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._add(name, 1 if amount is None else amount(args, result))
            return result
        return wrapper

    def self_times(self):
        """Per layer: total span time minus the time of its child spans."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0) + (end - start - inner)
        return {name: ns / 1e9 for name, ns in out.items()}


def _replace(target, wrap):
    """Wrap one "module:qualname" everywhere invhom refers to it."""
    modname, qualname = target.split(":")
    module = sys.modules["invhom." + modname]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, attr, wrap(cls.__dict__[attr]))
        return
    original = getattr(module, qualname)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        if name == "invhom" or name.startswith("invhom."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def install(tracer):
    """Wrap every function in LAYERS and COUNTS; invhom must be imported."""
    for name, (targets, measure) in LAYERS.items():
        for target in targets:
            _replace(target, lambda fn, n=name, m=measure:
                     tracer.span_wrapper(n, fn, m))
    for name, (targets, amount) in COUNTS.items():
        for target in targets:
            _replace(target, lambda fn, n=name, a=amount:
                     tracer.count_wrapper(n, fn, a))
