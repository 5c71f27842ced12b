"""JSON schemas for the domain objects and shorthand object references.

Scalars are exact: rationals as "p/q" strings, prime-field elements as
integers 0..p-1.  Matrices and tables are flat row-major arrays (nested
row lists are accepted on input).  Vectors are dense lists, read into and
written from the sparse {i: x} form that the library holds.  References
inside documents and on the command line are either builtin shorthands
(i:2, chain:3, z:2, prod:chain:2,z:2, pair:2, group:z2, discrete:3) or
file:PATH.
"""

from __future__ import annotations

import functools
import json

from .algebras import Algebra, Bimodule
from .crossed import UnitalAction
from .groupoids import (FiniteGroupoid, check_bisections, discrete_groupoid,
                        group_as_groupoid, pair_groupoid)
from .homology import KSModule
from .linalg import Field, Matrix
from .monoids import (MONOID_SIZE_CAP, InverseMonoid, chain_semilattice,
                      cyclic_group, direct_product, from_table,
                      symmetric_inverse_monoid, trivial_monoid)


class InputError(ValueError):
    pass


def parse_field(token):
    if not isinstance(token, str):
        raise InputError(f"field must be a string, got {token!r:.40}")
    if token in ("q", "Q", "rationals"):
        return Field(0)
    digits = token[3:]
    if token.startswith("fp:") and digits.isascii() and digits.isdigit():
        # 2^64 has 20 digits; a longer number is refused unread, so int()
        # never meets a spec of thousands of digits.
        if len(digits.lstrip("0")) > 20:
            raise InputError("characteristic must be below 2^64, got a "
                             "number of more than 20 digits")
        p = int(digits)
        if p < 2:
            raise InputError(f"characteristic must be a prime, got {p}")
        return Field(p)
    raise ValueError(f"unknown field spec {token!r}; use q or fp:<p>")


def field_token(field):
    return "q" if field.char == 0 else f"fp:{field.char}"


def _scalars_out(field, vec, dim):
    """The sparse vector vec as a dense list of dim tokens."""
    zero = field.zero
    return [field.to_token(vec.get(i, zero)) for i in range(dim)]


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _count(doc, key):
    """doc[key], which must be a non-negative integer."""
    v = doc[key]
    if not (_is_int(v) and v >= 0):
        raise InputError(f"{key} must be a non-negative integer, got {v!r:.40}")
    return v


def _list(value, what):
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _string(value, what):
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r:.40}")
    return value


def _indices(seq, bound, what):
    """seq, which must be a list of integers in range(bound)."""
    for v in _list(seq, what):
        if not (_is_int(v) and 0 <= v < bound):
            raise InputError(f"{what} entries must be integers in "
                             f"0..{bound - 1}, got {v!r:.40}")
    return seq


def _scalars_in(field, seq):
    for v in _list(seq, "a scalar vector"):
        if not (_is_int(v) or isinstance(v, str)):
            raise InputError(
                f"scalar must be an integer or a 'p/q' string, got {v!r:.40}")
    return [field.of(v) for v in seq]


def _vector_in(field, seq, dim, what):
    """A dense vector of dim scalars, in the sparse form {i: x}."""
    vec = _scalars_in(field, seq)
    if len(vec) != dim:
        raise ValueError(f"{what} vector has wrong length")
    return {i: x for i, x in enumerate(vec) if x}


def _matrix_out(m):
    """The entries of m, row-major."""
    zero = m.field.zero
    return [m.field.to_token(m.columns[j].get(i, zero))
            for i in range(m.rows) for j in range(m.cols)]


def _matrix_in(field, rows, cols, data):
    if _list(data, "matrix data") and isinstance(data[0], list):
        data = [v for row in data for v in _list(row, "each matrix row")]
    flat = _scalars_in(field, data)
    if len(flat) != rows * cols:
        raise ValueError(f"matrix data has {len(flat)} entries, expected {rows * cols}")
    m = Matrix(field, rows, cols)
    for k, v in enumerate(flat):
        m.add_at(k // cols, k % cols, v)
    return m


def monoid_to_dict(m):
    doc = {
        "size": m.size,
        "table": [v for row in m.table for v in row],
        "unit": m.unit,
    }
    if m.names is not None:
        doc["names"] = list(m.names)
    return doc


def monoid_from_dict(doc):
    size = _count(doc, "size")
    raw = _list(doc["table"], "table")
    if raw and isinstance(raw[0], list):
        table = [list(_list(row, "each table row")) for row in raw]
    else:
        if len(raw) != size * size:
            raise ValueError("monoid table has wrong length")
        table = [raw[i * size:(i + 1) * size] for i in range(size)]
    if len(table) != size:
        raise ValueError(f"monoid table has {len(table)} rows, expected {size}")
    if not all(_is_int(v) for row in table for v in row):
        raise InputError("table entries must be integers")
    unit = doc.get("unit")
    if unit is not None and not _is_int(unit):
        raise InputError(f"unit must be an integer, got {unit!r:.40}")
    names = doc.get("names")
    if names is not None and not (
            isinstance(names, list) and len(names) == size
            and all(isinstance(x, str) for x in names)):
        raise InputError(f"names must be a list of {size} strings")
    return from_table(table, unit=unit, names=names)


def ks_module_to_dict(module, monoid_ref="file:inline"):
    return {
        "monoid_ref": monoid_ref,
        "field": field_token(module.field),
        "dim": module.dim,
        "act": [_matrix_out(m) for m in module.act],
        "side": "left",
    }


def ks_module_from_dict(doc, monoid):
    """A left KS-module; "side" may be "left" or left out."""
    side = doc.get("side", "left")
    if side != "left":
        raise InputError(f"not a left module: side is {side!r:.40}")
    field = parse_field(doc["field"])
    dim = _count(doc, "dim")
    act = [_matrix_in(field, dim, dim, m) for m in _list(doc["act"], "act")]
    return KSModule(monoid, field, dim, act)


def algebra_to_dict(a):
    """The algebra with its structure constants written out dim^3 flat."""
    zero = a.field.zero
    sc = [a.field.to_token(prod.get(k, zero))
          for row in a.sc for prod in row for k in range(a.dim)]
    return {
        "field": field_token(a.field),
        "dim": a.dim,
        "sc": sc,
        "unit": _scalars_out(a.field, a.unit, a.dim),
    }


def algebra_from_dict(doc):
    field = parse_field(doc["field"])
    d = _count(doc, "dim")
    flat = _list(doc["sc"], "sc")
    if len(flat) != d ** 3:
        raise ValueError(f"structure constants have {len(flat)} entries, expected {d ** 3}")
    vals = _scalars_in(field, flat)
    prods = [{k: c for k, c in enumerate(vals[b * d:b * d + d]) if c}
             for b in range(d * d)]
    sc = [prods[i * d:i * d + d] for i in range(d)]
    return Algebra(field, d, sc, _vector_in(field, doc["unit"], d, "unit"))


def action_to_dict(action, monoid_ref="file:inline", algebra_ref="file:inline"):
    F = action.algebra.field
    return {
        "monoid_ref": monoid_ref,
        "algebra_ref": algebra_ref,
        "one": [_scalars_out(F, v, action.algebra.dim) for v in action.one],
        "theta": [_matrix_out(m) for m in action.theta],
    }


def action_from_dict(doc, monoid, algebra):
    F = algebra.field
    one = [_vector_in(F, v, algebra.dim, "idempotent")
           for v in _list(doc["one"], "one")]
    theta = [_matrix_in(F, algebra.dim, algebra.dim, m)
             for m in _list(doc["theta"], "theta")]
    return UnitalAction(monoid, algebra, one, theta)


def bimodule_to_dict(module, algebra_ref="file:inline"):
    return {
        "algebra_ref": algebra_ref,
        "dim": module.dim,
        "left": [_matrix_out(m) for m in module.left],
        "right": [_matrix_out(m) for m in module.right],
    }


def bimodule_from_dict(doc, algebra):
    F = algebra.field
    d = _count(doc, "dim")
    left = [_matrix_in(F, d, d, m) for m in _list(doc["left"], "left")]
    right = [_matrix_in(F, d, d, m) for m in _list(doc["right"], "right")]
    return Bimodule(algebra, d, left, right)


def groupoid_to_dict(g):
    comp = []
    for a in range(g.n_arrows):
        for b in range(g.n_arrows):
            c = g.comp[a][b]
            if c is not None:
                comp.append([a, b, c])
    return {
        "objects": g.n_objects,
        "arrows": [{"src": g.src[a], "rng": g.rng[a]}
                   for a in range(g.n_arrows)],
        "comp": comp,
        "inv": list(g.inv),
    }


def groupoid_from_dict(doc):
    n_obj = _count(doc, "objects")
    arrows = _list(doc["arrows"], "arrows")
    if not all(isinstance(a, dict) for a in arrows):
        raise InputError("each arrow must be an object with src and rng")
    n = len(arrows)
    if n_obj > n:
        raise InputError(
            f"{n_obj} objects but {n} arrows: each object needs a unit arrow")
    check_bisections(n + 1)
    src = _indices([a["src"] for a in arrows], n_obj, "arrow src")
    rng = _indices([a["rng"] for a in arrows], n_obj, "arrow rng")
    comp = [[None] * n for _ in range(n)]
    for triple in _list(doc["comp"], "comp"):
        if len(_indices(triple, n, "comp")) != 3:
            raise InputError("each comp entry must be [a, b, a after b]")
        a, b, c = triple
        if comp[a][b] is not None:
            raise InputError(f"comp gives ({a},{b}) twice")
        comp[a][b] = c
    inv = _indices(doc["inv"], n, "inv")
    if len(inv) != n:
        raise InputError(f"inv must have one entry per arrow, got {len(inv)}")
    unit_of = doc.get("unit_of")
    if unit_of is not None and len(_indices(unit_of, n, "unit_of")) != n_obj:
        raise InputError("unit_of must have one entry per object")
    if unit_of is None:
        # In a groupoid a after a = a forces a = a after a^-1, a unit arrow.
        units = {src[a]: a for a in range(n) if comp[a][a] == a}
        if len(units) != n_obj:
            raise ValueError("could not identify a unit arrow for every object")
        unit_of = [units[x] for x in range(n_obj)]
    return FiniteGroupoid(n_obj, src, rng, comp, inv, unit_of)


class _Fields(dict):
    """A JSON object read from path; reading a field it lacks is an input
    error that names the field and the file."""

    __slots__ = ("path",)

    def __init__(self, path, pairs):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise InputError(f"{self.path}: missing field {key!r}")


def _load_json(path):
    """The JSON object in a file; any other document is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=functools.partial(
                _Fields, path))
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(
            f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


# A shorthand number of more digits than the monoid cap is past the cap
# of what it would build, so it is refused before int() reads it.
_SPEC_DIGITS = len(str(MONOID_SIZE_CAP))


def _spec_count(spec, prefix, kind):
    """The number after prefix in a shorthand spec, in ASCII digits as for
    fp:<p>."""
    digits = spec[len(prefix):]
    if not (digits.isascii() and digits.isdigit()):
        raise InputError(f"unknown {kind} spec {spec!r}")
    width = len(digits.lstrip("0"))
    if width > _SPEC_DIGITS:
        raise InputError(f"size cap exceeded: {prefix}N with a {width}-digit "
                         "N is past every cap")
    return int(digits)


def resolve_monoid(spec):
    """Builtin shorthand or file:PATH -> InverseMonoid."""
    if spec.startswith("file:"):
        return monoid_from_dict(_load_json(spec[5:]))
    if spec == "trivial":
        return trivial_monoid()
    for prefix, build in (("i:", symmetric_inverse_monoid),
                          ("chain:", chain_semilattice), ("z:", cyclic_group)):
        if spec.startswith(prefix):
            return build(_spec_count(spec, prefix, "monoid"))
    if spec.startswith("prod:"):
        parts = spec[5:].split(",")
        if len(parts) < 2:
            raise ValueError(f"prod spec needs at least two factors: {spec!r}")
        m = resolve_monoid(parts[0])
        for p in parts[1:]:
            m = direct_product(m, resolve_monoid(p))
        return m
    raise ValueError(f"unknown monoid spec {spec!r}")


def resolve_groupoid(spec):
    """Builtin shorthand or file:PATH -> FiniteGroupoid.

    Every arrow is a bisection, and so is the empty set, so a groupoid
    whose arrows + 1 pass MONOID_SIZE_CAP is refused before it is built.
    """
    if spec.startswith("file:"):
        return groupoid_from_dict(_load_json(spec[5:]))
    if spec.startswith("pair:"):
        n = _spec_count(spec, "pair:", "groupoid")
        check_bisections(n ** 2 + 1)
        return pair_groupoid(n)
    if spec.startswith("group:"):
        group = resolve_monoid(spec[6:])
        check_bisections(group.size + 1)
        return group_as_groupoid(group)
    if spec.startswith("discrete:"):
        n = _spec_count(spec, "discrete:", "groupoid")
        check_bisections(n + 1)
        return discrete_groupoid(n)
    raise ValueError(f"unknown groupoid spec {spec!r}")
