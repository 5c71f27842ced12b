"""Batch command-line driver.

One job per invocation; reports go to stdout (byte-identical across runs
for identical inputs), timing goes to stderr.  Exit status: 0 on
success/pass, 1 on verification failure, 2 on input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebras import field_algebra, regular_bimodule
from .crossed import (IncompatibleAction, crossed_product,
                      ks_as_crossed_product, natural_ke_action, phi_map,
                      trivial_action, verify_separable_collapse_cohomology,
                      verify_separable_collapse_homology)
from .groupoids import (steinberg_data, verify_steinberg_cohomology,
                        verify_steinberg_homology)
from .homology import (build_resolution, cohomology, homology,
                       regular_ks_module, trivial_module_ke,
                       DEFAULT_COLUMN_CAP)
from .serialize import (InputError, action_from_dict, algebra_from_dict,
                        bimodule_from_dict, field_token, ks_module_from_dict,
                        parse_field, resolve_groupoid, resolve_monoid,
                        _load_json, _string)


def _check_field(found, field, what):
    """Refuse a file object over another field than --field names."""
    if found.char != field.char:
        raise InputError(f"{what} is over {field_token(found)}, "
                         f"but --field is {field_token(field)}")


def _resolve_ks_module(spec, monoid, field):
    if spec == "trivial-ke":
        return trivial_module_ke(monoid, field)
    if spec == "regular-ks":
        return regular_ks_module(monoid, field)
    if spec.startswith("file:"):
        doc = _load_json(spec[5:])
        ref = doc.get("monoid_ref")
        if ref and not _string(ref, "monoid_ref").startswith("file:inline"):
            monoid = resolve_monoid(ref)
        module = ks_module_from_dict(doc, monoid)
        _check_field(module.field, field, "module")
        return module
    raise InputError(f"unknown module spec {spec!r}")


def _resolve_action(spec, field):
    if spec.startswith("trivial:"):
        monoid = resolve_monoid(spec[8:])
        return trivial_action(monoid, field_algebra(field))
    if spec.startswith("ke:"):
        monoid = resolve_monoid(spec[3:])
        return natural_ke_action(monoid, field)
    if spec.startswith("file:"):
        doc = _load_json(spec[5:])
        monoid = resolve_monoid(_string(doc["monoid_ref"], "monoid_ref"))
        aref = _string(doc["algebra_ref"], "algebra_ref")
        if not aref.startswith("file:"):
            raise InputError("algebra_ref must be a file: reference")
        algebra = algebra_from_dict(_load_json(aref[5:]))
        _check_field(algebra.field, field, "action's algebra")
        return action_from_dict(doc, monoid, algebra)
    raise InputError(f"unknown action spec {spec!r}")


def _resolve_bimodule(spec, algebra):
    if spec == "regular":
        return regular_bimodule(algebra)
    if spec.startswith("file:"):
        return bimodule_from_dict(_load_json(spec[5:]), algebra)
    raise InputError(f"unknown bimodule spec {spec!r}")


def _emit(doc, fmt):
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    def walk(d, indent=""):
        for key in d:
            val = d[key]
            if isinstance(val, dict):
                print(f"{indent}{key}:")
                walk(val, indent + "  ")
            elif isinstance(val, list) and val and isinstance(val[0], dict):
                print(f"{indent}{key}:")
                for item in val:
                    if "name" in item and "pass" in item:
                        status = "ok" if item["pass"] else "FAIL"
                        detail = f"  ({item['detail']})" if item.get("detail") else ""
                        print(f"{indent}  [{status}] {item['name']}{detail}")
                    else:
                        print(f"{indent}  - {item}")
            else:
                print(f"{indent}{key} = {val}")
    walk(doc)


def _betti_cmd(args):
    field = parse_field(args.field)
    monoid = resolve_monoid(args.monoid)
    module = _resolve_ks_module(args.module, monoid, field)
    fn = homology if args.command == "homology" else cohomology
    betti = fn(monoid, module, args.max_degree, cap=args.cap_columns)
    doc = {
        "command": args.command,
        "monoid": args.monoid,
        "monoid_size": monoid.size,
        "module": args.module,
        "module_dim": module.dim,
        "field": args.field,
        "max_degree": args.max_degree,
        "betti": betti,
    }
    _emit(doc, args.format)
    return 0


def _crossed_product_cmd(args):
    field = parse_field(args.field)
    action = _resolve_action(args.action, field)
    cp = crossed_product(action)
    # phi needs the induced partial action, whose guard decides compatibility.
    try:
        phi = phi_map(cp)[1].as_dict()
    except IncompatibleAction:
        phi = None
    doc = {
        "command": "crossed-product",
        "action": args.action,
        "field": args.field,
        "monoid_size": action.monoid.size,
        "algebra_dim": action.algebra.dim,
        "dim_L": cp.l_dim,
        "dim_N": cp.n_space.subspace_basis.cols,
        "dim_crossed_product": cp.algebra.dim,
        "compatible": phi is not None,
    }
    # class_sums is linear: it vanishes on N iff on a basis of N.
    sums_ok = not any(any(cp.class_sums(col))
                      for col in cp.n_space.subspace_basis.columns)
    doc["sigma_class_sums_vanish"] = sums_ok
    if phi is not None:
        doc["phi"] = phi
    _emit(doc, args.format)
    if not sums_ok or (phi is not None and not phi["pass"]):
        return 1
    return 0


def _steinberg_cmd(args):
    field = parse_field(args.field)
    g = resolve_groupoid(args.groupoid)
    data = steinberg_data(g, field)
    monoid = data.bisection_monoid
    ak = data.steinberg_algebra
    rep = data.psi_report
    ind = data.indicators
    # ind[unit] is the unit of the associative ak: generators suffice.
    indicator_ok = all(ak.mul(ind[s], ind[g]) == ind[monoid.table[s][g]]
                       for s in range(monoid.size) for g in monoid.generators)
    doc = {
        "command": "steinberg",
        "groupoid": args.groupoid,
        "field": args.field,
        "objects": g.n_objects,
        "arrows": g.n_arrows,
        "bisections": monoid.size,
        "steinberg_dim": ak.dim,
        "indicator_convolution_identity": indicator_ok,
        "psi": rep.as_dict(),
    }
    _emit(doc, args.format)
    return 0 if (indicator_ok and rep.ok) else 1


def _resolution_cmd(args):
    field = parse_field(args.field)
    monoid = resolve_monoid(args.monoid)
    res = build_resolution(monoid, field, args.max_degree, cap=args.cap_columns)
    composites = res.verify_composites()
    homotopy = res.verify_homotopy()
    doc = {
        "command": "resolution-check",
        "monoid": args.monoid,
        "field": args.field,
        "max_degree": args.max_degree,
        "dims": res.dims(),
        "boundary_composites_vanish": composites,
        "homotopy_identity": homotopy,
        "pass": composites and homotopy,
    }
    _emit(doc, args.format)
    return 0 if doc["pass"] else 1


def _required(args, option):
    """The value of an option that the verify target cannot do without."""
    value = getattr(args, option)
    if value is None:
        raise InputError(f"verify {args.target} needs --{option}")
    return value


def _separable(args, field, verifier):
    cp = crossed_product(_resolve_action(_required(args, "action"), field))
    module = _resolve_bimodule(args.module, cp.algebra)
    return verifier(cp, module, args.max_degree, args.cap_columns)


def _steinberg(args, field, verifier):
    data = steinberg_data(resolve_groupoid(_required(args, "groupoid")), field)
    module = _resolve_bimodule(args.module, data.steinberg_algebra)
    return verifier(data, module, args.max_degree, args.cap_columns)


def _ks(args, field, verifier):
    return verifier(resolve_monoid(_required(args, "monoid")), field)


# verify target -> (what it reads from the arguments, the verifier it runs)
_VERIFY_TARGETS = {
    "separable-homology": (_separable, verify_separable_collapse_homology),
    "separable-cohomology": (_separable, verify_separable_collapse_cohomology),
    "steinberg-homology": (_steinberg, verify_steinberg_homology),
    "steinberg-cohomology": (_steinberg, verify_steinberg_cohomology),
    "ks-crossed-product": (_ks, ks_as_crossed_product),
}


def _verify_cmd(args):
    read, verifier = _VERIFY_TARGETS[args.target]
    rep = read(args, parse_field(args.field), verifier)
    doc = {"command": "verify", "target": args.target, "field": args.field,
           "report": rep.as_dict(),
           "verdict": "PASS" if rep.ok else "FAIL"}
    _emit(doc, args.format)
    return 0 if rep.ok else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--field", default="q", help="q or fp:<p>")
    common.add_argument("--max-degree", type=int, default=2)
    common.add_argument("--seed", type=int, default=0,
                        help="accepted and ignored: no command reads it")
    common.add_argument("--cap-columns", type=int, default=DEFAULT_COLUMN_CAP)

    p = argparse.ArgumentParser(
        prog="invhom",
        description="Exact (co)homology of finite inverse monoids, "
                    "crossed products, and Steinberg algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, text):
        sp = sub.add_parser(name, parents=[common], help=text)
        sp.set_defaults(run=run)
        return sp

    for kind in ("homology", "cohomology"):
        sp = command(kind, _betti_cmd, f"{kind} of an inverse monoid")
        sp.add_argument("--monoid", required=True)
        sp.add_argument("--module", default="trivial-ke",
                        help="trivial-ke | regular-ks | file:PATH")

    sp = command("crossed-product", _crossed_product_cmd,
                 "build and check a crossed product")
    sp.add_argument("--action", required=True,
                    help="trivial:MONOID | ke:MONOID | file:PATH")

    sp = command("steinberg", _steinberg_cmd,
                 "bisections, convolution algebra, psi")
    sp.add_argument("--groupoid", required=True,
                    help="pair:N | group:z:N | discrete:N | file:PATH")

    sp = command("resolution-check", _resolution_cmd,
                 "resolution exactness self-check")
    sp.add_argument("--monoid", required=True)

    sp = command("verify", _verify_cmd, "run a named verifier")
    sp.add_argument("target", choices=tuple(_VERIFY_TARGETS))
    sp.add_argument("--action", help="for separable-* targets")
    sp.add_argument("--groupoid", help="for steinberg-* targets")
    sp.add_argument("--monoid", help="for ks-crossed-product")
    sp.add_argument("--module", default="regular",
                    help="regular | file:PATH")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.cap_columns < 1:
            raise InputError("--cap-columns must be a positive integer, "
                             f"got {args.cap_columns}")
        code = args.run(args)
    except (InputError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
