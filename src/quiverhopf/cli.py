"""Command-line front end.

Each verb is one row of VERBS: a handler from the parsed arguments to its
payload and exit code, and the flags it reads.  `main` adds the tool
version and seed and writes the payload as JSON (sorted keys; byte-identical
for identical argv + seed), or CSV for the tabular census verbs.  Exit
codes: 0 ok, 1 verification failure, 2 input error, argparse rejection,
exceeded budget (groups.BudgetError) or an --out path that cannot be
written; errors are one `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from functools import cache, partial
from typing import Callable, Iterable, Optional

from . import __version__
from .bimodule import Report, build_bimodule, verify_bimodule
from .groups import BudgetError, InputError, conjugacy_classes, inner_only, parse_group
from .modrep import choose_prime, group_table, validate_prime
from .quiver import parse_ramification
from .rsr import (
    RSR,
    count_classes,
    enumerate_types,
    isomorphic,
    iter_types,
    load_rsr,
    read_rsr_doc,
    rsr_from_json,
    rsr_from_type,
    rsr_type,
)
from .typeone import skew_primitive_report, tensor_hopf, type_one_dims, verify_hopf
from .yd import nichols_dims_multiprime, verify_yd, yd_from_rsr


def _setting(args):
    """The group of --group, the field of --prime (by default the smallest
    splitting prime) and the ramification of --ram, None for a verb without it."""
    g = parse_group(args.group)
    field = choose_prime(g) if args.prime is None else validate_prime(g, args.prime)
    return g, field, parse_ramification(g, args.ram) if "ram" in args else None


def _rsrs_for(args) -> list[tuple[dict, RSR]]:
    """The RSRs of --rsr FILE, or of --group/--ram, only the type of
    --type-index if given, each labelled {"rsr": its JSON}."""
    if args.rsr:
        rsrs = [load_rsr(args.rsr)]
    elif not args.group:
        raise InputError("need --rsr FILE or --group/--ram")
    else:
        g, field, ram = _setting(args)
        i = args.type_index
        if i is None:
            types = enumerate_types(g, ram, field)
        elif not 0 <= i < (count := count_classes(g, ram, field)):
            raise InputError(f"--type-index out of range (0..{count - 1})")
        else:
            types = itertools.islice(iter_types(g, ram, field), i, i + 1)
        rsrs = [rsr_from_type(g, ram, t, field, seed=args.seed) for t in types]
    return [({"rsr": rsr.to_json()}, rsr) for rsr in rsrs]


def _collect(args, run: Callable[..., dict], labelled: Optional[Iterable] = None,
             key: str = "results") -> tuple[dict, int]:
    """{key: [{**label, **run(args, rsr)} for each (label, rsr) of labelled,
    by default _rsrs_for(args)], "prime": p of the last RSR}.  The Reports
    among run's values are written as JSON; when there are any, "passed"
    says whether all of them passed, and the exit code is 1 if not."""
    entries, verdicts = [], []
    for label, rsr in labelled or _rsrs_for(args):
        out = run(args, rsr)
        verdicts += [r.passed for r in out.values() if isinstance(r, Report)]
        entries.append({**label, **{k: r.to_json() if isinstance(r, Report) else r
                                    for k, r in out.items()}})
    payload = {key: entries, "prime": rsr.field.p}
    if verdicts:
        payload["passed"] = all(verdicts)
    return payload, 0 if all(verdicts) else 1


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
    return {
        "group": g.spec,
        "degree": g.degree,
        "order": g.order,
        "exponent": g.exponent,
        "classes": [{"index": c.class_index,
                     "rep": g.element_name(c.rep),
                     "size": c.size,
                     "centralizer_order": g.order // c.size}
                    for c in conjugacy_classes(g)],
    }, 0


def cmd_chartab(args) -> tuple[dict, int]:
    g, field, _ = _setting(args)
    return {**group_table(g, field).to_json(g), "prime": field.p}, 0


def cmd_rsr_census(args) -> tuple[dict, int]:
    """rsr-count: the number of types; rsr-enumerate: the types themselves."""
    g, field, ram = _setting(args)
    payload = {"group": g.spec, "ramification": ram.describe(g), "prime": field.p}
    if args.verb == "rsr-count":
        payload["count"] = count_classes(g, ram, field)
    else:
        types = enumerate_types(g, ram, field)
        payload.update(count=len(types), types=[t.to_json() for t in types])
    try:
        payload["inner_only_assumed"] = inner_only(g)
    except BudgetError:             # past the automorphism budget, and not S_n
        payload["inner_only_assumed"] = None
    return payload, 0


def cmd_rsr_iso(args) -> tuple[dict, int]:
    a = load_rsr(args.rsr_a)
    b = rsr_from_json(read_rsr_doc(args.rsr_b), group=a.group)
    if a.field.p != b.field.p:
        raise InputError("the two RSR files use different primes")
    return {
        "mode": args.mode,
        "isomorphic": isomorphic(a, b, mode=args.mode),
        "type_a": rsr_type(a).to_json(),
        "type_b": rsr_type(b).to_json(),
        "prime": a.field.p,
    }, 0


def _bimodule_report(args, rsr: RSR) -> dict:
    return {"report": verify_bimodule(build_bimodule(rsr))}


def _yd_report(args, rsr: RSR) -> dict:
    return {"report": verify_yd(yd_from_rsr(rsr))}


def _hopf_report(args, rsr: RSR) -> dict:
    h = tensor_hopf(rsr, args.max_degree)
    return {"report": verify_hopf(h, seed=args.seed, samples=args.samples,
                                  exhaustive=args.exhaustive),
            "skew_primitivity": skew_primitive_report(h)}


def _hopf_dims(args, rsr: RSR) -> dict:
    return {"dims": type_one_dims(rsr, args.max_degree), "group_order": rsr.group.order}


def cmd_nichols_dims(args) -> tuple[dict, int]:
    payload, code = _collect(args, lambda args, rsr: nichols_dims_multiprime(
        rsr, args.max_degree, nprimes=args.nprimes))
    del payload["prime"]
    return {**payload, "primes": payload["results"][-1]["primes"]}, code


def _selftest_section(args, rsr: RSR) -> dict:
    reports = {"bimodule": _bimodule_report(args, rsr)["report"],
               "yd": _yd_report(args, rsr)["report"]}
    hopf = _hopf_report(args, rsr)
    reports.update(hopf=hopf["report"], skew_primitivity=hopf["skew_primitivity"])
    return {"passed": all(r.passed for r in reports.values()), **reports}


def cmd_selftest(args) -> tuple[dict, int]:
    """The verifiers on the first two types of --ram, by default of each
    class at r = 1."""
    g, field, ram = _setting(args)
    rams = [ram] if args.ram else [parse_ramification(g, f"{g.element_name(c.rep)}:1")
                                   for c in conjugacy_classes(g)]
    labelled = (({"ramification": r.describe(g), "type": t.to_json()},
                 rsr_from_type(g, r, t, field, seed=args.seed))
                for r in rams for t in itertools.islice(iter_types(g, r, field), 2))
    payload, code = _collect(args, _selftest_section, labelled, key="sections")
    return {**payload, "group": g.spec}, code


class _Parser(argparse.ArgumentParser):
    """Rejections raise InputError, so that they too are one error line."""

    def error(self, message):
        raise InputError(message)


# every flag once: its argparse keywords (--max-degree's default is per verb)
FLAGS = {
    "--group": dict(help="group spec, e.g. S3, D4, C2xC2, perm:(0 1 2)(3 4);(0 1)"),
    "--ram": dict(default="", help='ramification, e.g. "e:2" or "(0 1):1,(0 1 2):2"'),
    "--rsr": dict(help="RSR JSON file (alternative to --group/--ram)"),
    "--type-index": dict(type=int, help="pick one enumerated type (default: all)"),
    "--prime": dict(type=int, help="splitting prime (default: smallest valid)"),
    "--samples": dict(type=int, default=300,
                      help="Hopf-algebra sample count when not exhaustive"),
    "--exhaustive": dict(action="store_true", default=None,
                         help="check every Hopf-algebra case (default: by size)"),
    "--nprimes": dict(type=int, default=3, help="number of primes (default: 3)"),
    "rsr_a": {}, "rsr_b": {},
    "--mode": dict(choices=("assume-inner", "search-aut"), default="assume-inner"),
    "--max-degree": dict(type=int),
    "--seed": dict(type=int, default=0),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(help="write the report to a file"),
}
SETTING = ("--group", "--ram", "--prime")
SELECTION = (*SETTING, "--rsr", "--type-index")
SAMPLING = ("--samples", "--exhaustive")

# (verb, help, handler, flags, --max-degree default or None); every verb
# also takes --seed, --format and --out, which main reads
VERBS = [
    ("group-info", "order, exponent and classes", cmd_group_info, ("--group",), None),
    ("chartab", "character table over F_p", cmd_chartab, ("--group", "--prime"), None),
    ("rsr-count", "number of RSR types, the isomorphism classes when Aut G = Inn G",
     cmd_rsr_census, SETTING, None),
    ("rsr-enumerate", "all RSR types for a ramification", cmd_rsr_census, SETTING, None),
    ("rsr-iso", "test two RSR files for isomorphism", cmd_rsr_iso,
     ("rsr_a", "rsr_b", "--mode"), None),
    ("bimodule-verify", "check the Hopf bimodule axioms",
     partial(_collect, run=_bimodule_report), SELECTION, None),
    ("yd-verify", "check the Yetter-Drinfeld axioms",
     partial(_collect, run=_yd_report), SELECTION, None),
    ("nichols-dims", "Nichols-algebra graded dimensions", cmd_nichols_dims,
     (*SELECTION, "--nprimes"), 4),
    ("hopf-verify", "check the truncated Hopf algebra",
     partial(_collect, run=_hopf_report), (*SELECTION, *SAMPLING), 3),
    ("hopf-dims", "type-one Hopf algebra graded dimensions",
     partial(_collect, run=_hopf_dims), SELECTION, 4),
    ("selftest", "run the verifier suite on a group", cmd_selftest, (*SETTING, *SAMPLING), 2),
]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quiverhopf",
                     description="Hopf quivers, Yetter-Drinfeld modules and Nichols-algebra "
                                 "dimensions over splitting prime fields.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text, handler, flags, degree in VERBS:
        p = sub.add_parser(verb, help=text)
        degree_flag = ("--max-degree",) if degree is not None else ()
        for flag in (*flags, *degree_flag, "--seed", "--format", "--out"):
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(handler=handler, max_degree=degree)
    return parser


# parsing leaves the parser as it was, so one serves every call of main
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        for flag in ("samples", "nprimes"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise InputError(f"--{flag} must be at least 1, got {value}")
        payload, code = args.handler(args)
    except (InputError, OverflowError) as exc:
        # OverflowError: a prime too large for the int64 products of linalg
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload.update(tool_version=__version__, seed=args.seed)
    text = (_to_csv(payload) if args.format == "csv"
            else json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
