"""Batch command-line driver.

One job per invocation; reports go to stdout (byte-identical across runs
for identical inputs), timing goes to stderr.  Exit status: 0 on
success/pass, 1 on verification failure, 2 on input error.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

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


def _separable(args, field, verifier):
    cp = crossed_product(_resolve_action(args.action, field))
    module = _resolve_bimodule(args.module, cp.algebra)
    return verifier(cp, module, args.max_degree, args.cap_columns)


def _steinberg(args, field, verifier):
    data = steinberg_data(resolve_groupoid(args.groupoid), field)
    module = _resolve_bimodule(args.module, data.steinberg_algebra)
    return verifier(data, module, args.max_degree, args.cap_columns)


def _ks(args, field, verifier):
    return verifier(resolve_monoid(args.monoid), field)


# An options dict maps each option that a command or verify target reads
# beside _COMMON to its default, or to None if the option is required.
_COMMON = {"format": "text", "field": "q", "max-degree": 2, "seed": 0,
           "cap-columns": DEFAULT_COLUMN_CAP}
_BETTI = {"monoid": None, "module": "trivial-ke"}
_SEPARABLE = {"action": None, "module": "regular"}
_STEINBERG = {"groupoid": None, "module": "regular"}

# verify target -> (what it reads, the options it takes, the verifier)
_VERIFY_TARGETS = {
    "separable-homology":
        (_separable, _SEPARABLE, verify_separable_collapse_homology),
    "separable-cohomology":
        (_separable, _SEPARABLE, verify_separable_collapse_cohomology),
    "steinberg-homology": (_steinberg, _STEINBERG, verify_steinberg_homology),
    "steinberg-cohomology":
        (_steinberg, _STEINBERG, verify_steinberg_cohomology),
    "ks-crossed-product": (_ks, {"monoid": None}, ks_as_crossed_product),
}


def _verify_cmd(args):
    read, _, verifier = _VERIFY_TARGETS[args.target]
    rep = read(args, parse_field(args.field), verifier)
    doc = {"command": "verify", "target": args.target, "field": args.field,
           "report": rep.as_dict(),
           "verdict": "PASS" if rep.ok else "FAIL"}
    _emit(doc, args.format)
    return 0 if rep.ok else 1


# command -> (its handler, its help line, the options it takes)
_COMMANDS = {
    "homology": (_betti_cmd, "homology of an inverse monoid", _BETTI),
    "cohomology": (_betti_cmd, "cohomology of an inverse monoid", _BETTI),
    "crossed-product": (_crossed_product_cmd,
                        "build and check a crossed product", {"action": None}),
    "steinberg": (_steinberg_cmd, "bisections, convolution algebra, psi",
                  {"groupoid": None}),
    "resolution-check": (_resolution_cmd, "resolution exactness self-check",
                         {"monoid": None}),
    "verify": (_verify_cmd, "run a named verifier", {
        o: d for row in _VERIFY_TARGETS.values() for o, d in row[1].items()}),
}


def _usage(command):
    """The -h text of a command: its forms, then its help line."""
    _, text, own = _COMMANDS[command]
    forms = {command: own} if command != "verify" else {
        f"verify {t}": reads for t, (_, reads, _) in _VERIFY_TARGETS.items()}
    return "".join(f"usage: invhom {form} " + " ".join(
        f"--{o} {o.upper()}" if d is None else f"[--{o} {d}]"
        for o, d in {**reads, **_COMMON}.items()) + "\n"
        for form, reads in forms.items()) + f"\n{text}"


def _parse(argv):
    """The namespace that the handlers read, or the -h text.  An option may
    be any unique prefix of its name; the last of a repeated option wins."""
    if argv and argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
        return "\n\n".join(map(_usage, _COMMANDS))
    if not argv or argv[0] not in _COMMANDS:
        raise InputError(f"expected a command: {', '.join(_COMMANDS)}")
    command, *rest = argv
    run, _, reads = _COMMANDS[command]
    defaults = {**_COMMON, **reads}
    flags = {"-h": None, "--help": None} | {"--" + o: o for o in defaults}
    args = SimpleNamespace(command=command, run=run, **{
        o.replace("-", "_"): d for o, d in defaults.items()})
    given, positional, words = [], [], iter(rest)
    for word in words:
        if word == "--":
            positional += words
            break
        if not word.startswith("-"):
            positional.append(word)
            continue
        key, eq, value = word.partition("=")
        hits = [key] if key in flags else [
            f for f in flags if key[:2] == f[:2] == "--" and f.startswith(key)]
        if len(hits) != 1:
            raise InputError(f"{key}: {'ambiguous' if hits else 'unknown'}")
        name = flags[hits[0]]
        if name is None:
            return _usage(command)
        number = isinstance(defaults[name], int)
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("-") and not number:
                raise InputError(f"--{name} needs a value")
        try:
            value = int(value) if number else value
        except ValueError:
            raise InputError(f"--{name} needs an integer, got {value!r}")
        if name == "format" and value not in ("text", "json"):
            raise InputError(f"--format is text or json, got {value!r}")
        setattr(args, name.replace("-", "_"), value)
        given.append(name)
    if command == "verify":
        args.target = " ".join(positional)
        if args.target not in _VERIFY_TARGETS:
            raise InputError("verify needs one target of "
                             + ", ".join(_VERIFY_TARGETS))
        reads = _VERIFY_TARGETS[args.target][1]
        command = f"verify {args.target}"
    elif positional:
        raise InputError(f"{command} takes no argument {positional[0]!r}")
    for name in [*reads, *given]:
        if reads.get(name, "") is None and name not in given:
            raise InputError(f"{command} needs --{name}")
        if name not in reads and name not in _COMMON:
            raise InputError(f"{command} does not read --{name}")
    return args


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):
            print(args)
            return 0
        t0 = time.monotonic()
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
