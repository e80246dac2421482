"""Command-line front end.

Verbs: group-info, chartab, rsr-count, rsr-enumerate, rsr-iso,
bimodule-verify, yd-verify, nichols-dims, hopf-verify, hopf-dims, selftest.
Output is JSON (sorted keys; byte-identical for identical argv + seed);
CSV is available for the tabular census verbs.  Exit codes: 0 ok,
1 verification failure, 2 input error or exceeded budget (a module or
tensor power over the Nichols dimension caps); errors are one
`error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .bimodule import build_bimodule, verify_bimodule
from .groups import InputError, conjugacy_classes, inner_only, parse_group
from .modrep import choose_prime, group_table, validate_prime
from .quiver import parse_ramification
from .rsr import (
    RSR,
    count_classes,
    enumerate_types,
    isomorphic,
    load_rsr,
    read_rsr_doc,
    rsr_from_json,
    rsr_from_type,
    rsr_type,
)
from .typeone import skew_primitive_report, tensor_hopf, type_one_dims, verify_hopf
from .yd import BudgetError, nichols_dims_multiprime, verify_yd, yd_from_rsr


def _meta(args, field=None, primes=None) -> dict:
    meta = {"tool_version": __version__, "seed": getattr(args, "seed", 0)}
    if primes is not None:
        meta["primes"] = list(primes)
    elif field is not None:
        meta["prime"] = field.p
    return meta


def _group_and_field(args):
    g = parse_group(args.group)
    field = validate_prime(g, args.prime) if args.prime else choose_prime(g)
    return g, field


def _rsrs_for(args) -> list[RSR]:
    """RSRs selected by --rsr FILE, or --group/--ram with --type-index."""
    if getattr(args, "rsr", None):
        return [load_rsr(args.rsr)]
    if not args.group:
        raise InputError("need --rsr FILE or --group/--ram")
    g, field = _group_and_field(args)
    ram = parse_ramification(g, args.ram or "")
    types = enumerate_types(g, ram, field)
    if getattr(args, "type_index", None) is not None:
        if not 0 <= args.type_index < len(types):
            raise InputError(f"--type-index out of range (0..{len(types) - 1})")
        types = [types[args.type_index]]
    return [rsr_from_type(g, ram, t, field, seed=args.seed) for t in types]


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload: dict) -> str:
    lines = []
    if "types" in payload:
        lines.append("type_index,class,multiplicities")
        for i, t in enumerate(payload["types"]):
            if not t:
                lines.append(f"{i},,")
            for entry in t:
                mults = "|".join(str(m) for m in entry["multiplicities"])
                lines.append(f"{i},{entry['class']},{mults}")
    elif "rows" in payload:
        lines.append("degree," + ",".join(
            f"class{j}" for j in range(len(payload["rows"][0]))))
        for deg, row in zip(payload["degrees"], payload["rows"]):
            lines.append(str(deg) + "," + ",".join(str(v) for v in row))
    else:
        lines.append("key,value")
        for k in sorted(payload):
            lines.append(f"{k},{payload[k]}")
    return "\n".join(lines) + "\n"


def cmd_group_info(args) -> tuple[dict, int]:
    g = parse_group(args.group)
    classes = conjugacy_classes(g)
    payload = {
        "group": g.spec,
        "degree": g.degree,
        "order": g.order,
        "exponent": g.exponent,
        "classes": [{"index": c.class_index,
                     "rep": g.element_name(c.rep),
                     "size": c.size,
                     "centralizer_order": len(c.centralizer)}
                    for c in classes],
    }
    payload.update(_meta(args))
    return payload, 0


def cmd_chartab(args) -> tuple[dict, int]:
    g, field = _group_and_field(args)
    table = group_table(g, field)
    payload = table.to_json(g)
    payload.update(_meta(args, field))
    return payload, 0


def cmd_rsr_count(args) -> tuple[dict, int]:
    g, field = _group_and_field(args)
    ram = parse_ramification(g, args.ram or "")
    payload = {
        "group": g.spec,
        "ramification": ram.describe(g),
        "count": count_classes(g, ram, field),
        "inner_only_assumed": inner_only_or_none(g),
    }
    payload.update(_meta(args, field))
    return payload, 0


def inner_only_or_none(g) -> Optional[bool]:
    try:
        return inner_only(g)
    except InputError:
        return None


def cmd_rsr_enumerate(args) -> tuple[dict, int]:
    g, field = _group_and_field(args)
    ram = parse_ramification(g, args.ram or "")
    types = enumerate_types(g, ram, field)
    payload = {
        "group": g.spec,
        "ramification": ram.describe(g),
        "count": len(types),
        "types": [t.to_json() for t in types],
        "inner_only_assumed": inner_only_or_none(g),
    }
    payload.update(_meta(args, field))
    return payload, 0


def cmd_rsr_iso(args) -> tuple[dict, int]:
    a = load_rsr(args.rsr_a)
    doc_b = read_rsr_doc(args.rsr_b)
    if parse_group(doc_b.get("group")).elements != a.group.elements:
        raise InputError("the two RSR files use different groups")
    b = rsr_from_json(doc_b, group=a.group)
    if a.field.p != b.field.p:
        raise InputError("the two RSR files use different primes")
    result = isomorphic(a, b, mode=args.mode)
    payload = {
        "mode": args.mode,
        "isomorphic": result,
        "type_a": rsr_type(a).to_json(),
        "type_b": rsr_type(b).to_json(),
    }
    payload.update(_meta(args, a.field))
    return payload, 0


def _verify_each(args, verify) -> tuple[dict, int]:
    """Run verify(rsr) -> {result key: Report} on every selected RSR."""
    results = []
    ok = True
    field = None
    for rsr in _rsrs_for(args):
        field = rsr.field
        reports = verify(rsr)
        ok = ok and all(r.passed for r in reports.values())
        results.append({"rsr": rsr.to_json(),
                        **{k: r.to_json() for k, r in reports.items()}})
    payload = {"passed": ok, "results": results}
    payload.update(_meta(args, field))
    return payload, 0 if ok else 1


def cmd_bimodule_verify(args) -> tuple[dict, int]:
    return _verify_each(args, lambda rsr: {"report": verify_bimodule(
        build_bimodule(rsr), exhaustive=args.exhaustive, samples=args.samples,
        seed=args.seed)})


def cmd_yd_verify(args) -> tuple[dict, int]:
    return _verify_each(args, lambda rsr: {"report": verify_yd(yd_from_rsr(rsr))})


def cmd_nichols_dims(args) -> tuple[dict, int]:
    nprimes = args.nprimes
    if nprimes is None:
        try:
            nprimes = int(os.environ.get("NPRIMES", "3"))
        except ValueError:
            raise InputError("NPRIMES must be an integer") from None
        _at_least_one("NPRIMES", nprimes)
    results = []
    primes = None
    for rsr in _rsrs_for(args):
        res = nichols_dims_multiprime(rsr, args.max_degree, nprimes=nprimes)
        primes = res["primes"]
        results.append({"rsr": rsr.to_json(), **res})
    payload = {"results": results}
    payload.update(_meta(args, primes=primes))
    return payload, 0


def cmd_hopf_verify(args) -> tuple[dict, int]:
    def verify(rsr):
        h = tensor_hopf(rsr, args.max_degree)
        return {"report": verify_hopf(h, seed=args.seed, samples=args.samples),
                "skew_primitivity": skew_primitive_report(h)}
    return _verify_each(args, verify)


def cmd_hopf_dims(args) -> tuple[dict, int]:
    results = []
    field = None
    for rsr in _rsrs_for(args):
        field = rsr.field
        dims = type_one_dims(rsr, args.max_degree)
        results.append({"rsr": rsr.to_json(), "dims": dims,
                        "group_order": rsr.group.order})
    payload = {"results": results}
    payload.update(_meta(args, field))
    return payload, 0


def cmd_selftest(args) -> tuple[dict, int]:
    g, field = _group_and_field(args)
    classes = conjugacy_classes(g)
    if args.ram:
        ram_specs = [args.ram]
    else:
        ram_specs = [f"{g.element_name(c.rep)}:1" for c in classes]
    sections = []
    ok = True
    for spec in ram_specs:
        ram = parse_ramification(g, spec)
        types = enumerate_types(g, ram, field)[:2]
        for t in types:
            rsr = rsr_from_type(g, ram, t, field, seed=args.seed)
            m = build_bimodule(rsr)
            rep_b = verify_bimodule(m, samples=args.samples, seed=args.seed)
            rep_y = verify_yd(yd_from_rsr(rsr))
            h = tensor_hopf(rsr, min(args.max_degree, 2))
            rep_h = verify_hopf(h, seed=args.seed,
                                samples=min(args.samples, 300))
            skew = skew_primitive_report(h)
            section_ok = all(r.passed for r in (rep_b, rep_y, rep_h, skew))
            ok = ok and section_ok
            sections.append({
                "ramification": ram.describe(g),
                "type": t.to_json(),
                "passed": section_ok,
                "bimodule": rep_b.to_json(),
                "yd": rep_y.to_json(),
                "hopf": rep_h.to_json(),
                "skew_primitivity": skew.to_json(),
            })
    payload = {"group": g.spec, "passed": ok, "sections": sections}
    payload.update(_meta(args, field))
    return payload, 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverhopf",
        description="Hopf quivers, Yetter-Drinfeld modules and Nichols-algebra "
                    "dimensions over splitting prime fields.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, group=True, ram=False, rsr=False, verify=False, degree=None):
        if group:
            p.add_argument("--group", help="group spec, e.g. S3, D4, C2xC2, "
                           "perm:(0 1 2)(3 4);(0 1)")
        if ram:
            p.add_argument("--ram", default="",
                           help='ramification, e.g. "e:2" or "(0 1):1,(0 1 2):2"')
        if rsr:
            p.add_argument("--rsr", help="RSR JSON file (alternative to --group/--ram)")
            p.add_argument("--type-index", type=int, default=None,
                           help="pick one enumerated type (default: all)")
        p.add_argument("--prime", type=int, default=None,
                       help="splitting prime (default: smallest valid)")
        p.add_argument("--seed", type=int, default=0)
        if verify:
            p.add_argument("--samples", type=int, default=100_000,
                           help="sample count when not exhaustive")
            p.add_argument("--exhaustive", action="store_true", default=None)
        if degree is not None:
            p.add_argument("--max-degree", type=int, default=degree)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("group-info", help="order, exponent and classes")
    common(p)
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("chartab", help="character table over F_p")
    common(p)
    p.set_defaults(func=cmd_chartab)

    p = sub.add_parser("rsr-count", help="number of RSR isomorphism classes")
    common(p, ram=True)
    p.set_defaults(func=cmd_rsr_count)

    p = sub.add_parser("rsr-enumerate", help="all RSR types for a ramification")
    common(p, ram=True)
    p.set_defaults(func=cmd_rsr_enumerate)

    p = sub.add_parser("rsr-iso", help="test two RSR files for isomorphism")
    p.add_argument("rsr_a")
    p.add_argument("rsr_b")
    p.add_argument("--mode", choices=("assume-inner", "search-aut"),
                   default="assume-inner")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rsr_iso)

    p = sub.add_parser("bimodule-verify", help="check the Hopf bimodule axioms")
    common(p, ram=True, rsr=True, verify=True)
    p.set_defaults(func=cmd_bimodule_verify)

    p = sub.add_parser("yd-verify", help="check the Yetter-Drinfeld axioms")
    common(p, ram=True, rsr=True)
    p.set_defaults(func=cmd_yd_verify)

    p = sub.add_parser("nichols-dims", help="Nichols-algebra graded dimensions")
    common(p, ram=True, rsr=True, degree=4)
    p.add_argument("--nprimes", type=int, default=None,
                   help="number of primes (default: NPRIMES env var or 3)")
    p.set_defaults(func=cmd_nichols_dims)

    p = sub.add_parser("hopf-verify", help="check the truncated Hopf algebra")
    common(p, ram=True, rsr=True, verify=True, degree=3)
    p.set_defaults(func=cmd_hopf_verify, samples=300)

    p = sub.add_parser("hopf-dims", help="type-one Hopf algebra graded dimensions")
    common(p, ram=True, rsr=True, degree=4)
    p.set_defaults(func=cmd_hopf_dims)

    p = sub.add_parser("selftest", help="run the verifier suite on a group")
    common(p, ram=True, verify=True, degree=2)
    p.set_defaults(func=cmd_selftest)

    return parser


def _at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise InputError(f"{name} must be at least 1, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("samples", "nprimes"):
            value = getattr(args, flag, None)
            if value is not None:
                _at_least_one(f"--{flag}", value)
        payload, code = args.func(args)
    except (InputError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
