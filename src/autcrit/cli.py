"""Command-line interface.

    autcrit list
    autcrit analyze <name|path>
    autcrit verify <name|path> [--criterion ID]... [--format text|json] [--strict]
    autcrit verify-all [--max-order N] [--p P] [--format text|json] [--strict]
    autcrit hom <A> <B>

Group references are catalog names (``autcrit list``) or paths to
``cayley``/``perm`` files.  Hom arguments use the partition syntax
``p^[e1,e2,...]``.  The environment variable AUTCRIT_AUT_BOUND caps the
order of groups whose automorphisms are enumerated; ``--force`` lifts
the cap for the given run, and no other bound.  The subgroup enumeration
bound (order 128) still holds: ``verify --force`` of a non-abelian group
of order 243 exits 2 with OrderBoundExceededError, as it does without
``--force``, unless every ``--criterion`` is a single-group one, which
reads no normal-subgroup lattice.  A side that would compose more than
250,000 automorphisms still leaves its rows unconfirmed.  Exit status is
nonzero whenever a predicted verdict disagrees with brute force, or
input validation fails; with ``--strict`` it is also 1 when a row was
left unconfirmed (its observed verdict is null).  It is 141 when the
reader of stdout closes the pipe early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .abelian import PPartition, hom_order, hom_type
from .catalog import build_group, catalog, load_group
from .errors import AutcritError
from .report import (
    group_summary,
    report_to_text,
    reports_to_json_lines,
    select_specs,
    selected_criteria,
    verify_group,
    verify_specs,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout's reader is gone: flush to devnull at exit, status as for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except AutcritError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


STRICT_HELP = "exit 1 when a row is left unconfirmed (observed null)"


def _passed(reports, strict: bool) -> bool:
    """No mismatch, and under ``strict`` no unconfirmed row either."""
    return all(r.all_match and not (strict and any(h.observed is None for h in r.heads))
               for r in reports)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autcrit",
        description="automorphism subgroup equality criteria for finite p-groups",
    )
    sub = parser.add_subparsers(required=True)

    p_list = sub.add_parser("list", help="list the built-in group catalog")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=cmd_list)

    p_an = sub.add_parser("analyze", help="print structural invariants of a group")
    p_an.add_argument("group")
    p_an.add_argument("--format", choices=("text", "json"), default="text")
    p_an.set_defaults(func=cmd_analyze)

    p_v = sub.add_parser("verify", help="check criteria against brute force")
    p_v.add_argument("group")
    p_v.add_argument("--criterion", action="append", default=None,
                     help="criterion id (repeatable), e.g. COR_2_6")
    p_v.add_argument("--format", choices=("text", "json"), default="text")
    p_v.add_argument("--force", action="store_true",
                     help="enumerate automorphisms above AUTCRIT_AUT_BOUND; the subgroup "
                          "enumeration bound (order 128) still holds for swept criteria")
    p_v.add_argument("--verbose", action="store_true")
    p_v.add_argument("--strict", action="store_true", help=STRICT_HELP)
    p_v.set_defaults(func=cmd_verify)

    p_va = sub.add_parser("verify-all", help="run the whole corpus")
    p_va.add_argument("--max-order", type=int, default=None)
    p_va.add_argument("--p", type=int, default=None)
    p_va.add_argument("--criterion", action="append", default=None)
    p_va.add_argument("--format", choices=("text", "json"), default="text")
    p_va.add_argument("--force", action="store_true")
    p_va.add_argument("--strict", action="store_true", help=STRICT_HELP)
    p_va.set_defaults(func=cmd_verify_all)

    p_hom = sub.add_parser("hom", help="order and type of Hom(A, B)")
    p_hom.add_argument("a", metavar="A")
    p_hom.add_argument("b", metavar="B")
    p_hom.set_defaults(func=cmd_hom)
    return parser


def cmd_list(args) -> int:
    rows = []
    for spec in catalog():
        g = build_group(spec)
        rows.append((spec.name, g.n, spec.prime, spec.recipe, spec.description))
    if args.format == "json":
        for name, order, prime, recipe, desc in rows:
            print(json.dumps({"name": name, "order": order, "prime": prime,
                              "recipe": recipe, "description": desc}))
    else:
        width = max(len(r[0]) for r in rows)
        for name, order, prime, recipe, _ in rows:
            print(f"{name:{width}s}  order {order:4d}  p={prime}  {recipe}")
    return 0


def cmd_analyze(args) -> int:
    name, g = load_group(args.group)
    pp = g.prime_power()
    summary = group_summary(g, pp[0] if pp else None)
    if args.format == "json":
        print(json.dumps({"group": name, **summary}))
    else:
        print(f"== {name} ==")
        for k, v in summary.items():
            print(f"  {k:18s} {v}")
        if summary.get("abelian") == "yes":
            print("  (abelian: criteria for non-abelian groups do not apply)")
    return 0


def cmd_verify(args) -> int:
    name, g = load_group(args.group)
    report = verify_group(
        name, g, args.criterion, force=args.force, explicit=bool(args.criterion)
    )
    if args.format == "json":
        sys.stdout.write(reports_to_json_lines([report]))
    else:
        print(report_to_text(report, verbose=args.verbose))
    return 0 if _passed([report], args.strict) else 1


def cmd_verify_all(args) -> int:
    selected_criteria(args.criterion)  # an unknown id fails here, also when no group is selected
    specs = select_specs(max_order=args.max_order, prime=args.p)
    reports = verify_specs(specs, args.criterion, force=args.force)
    ok = _passed(reports, args.strict)
    if args.format == "json":
        sys.stdout.write(reports_to_json_lines(reports))
    else:
        for rep in reports:
            print(report_to_text(rep))
        n = Counter()  # match -> rows
        for r in reports:
            for h, k in Counter(r.head_of).items():
                n[r.heads[h].match] += k
        print(f"== {len(reports)} groups, {sum(n.values())} rows, {n[None]} skipped,"
              f" {n[False]} mismatches ==")
    return 0 if ok else 1


def cmd_hom(args) -> int:
    a = PPartition.parse(args.a)
    b = PPartition.parse(args.b)
    print(f"order: {hom_order(a, b)}")
    print(f"type:  {hom_type(a, b)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
