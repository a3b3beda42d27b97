"""Command-line interface.

Subcommands
-----------
norm      per-member F-norm and p-norm table for a family
check     run the total-boundedness conditions and write a report
net       build a covering net (greedy or truncation-lift) for a family
examples  rebuild the worked example families and verify their verdicts
report    full diagnostic bundle (conditions + nets) as a single JSON file

Families are given either as generator descriptors (``u:k=1..64,p=1`` --
see :func:`asymlp.families.parse_family`) or as paths to JSON files
produced by :mod:`asymlp.io`.

Exit status: 0 on success, 2 when a checked condition or covering fails,
1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Sequence

from .criteria import ShiftLattice, full_report
from .families import FAMILY_BUILDERS, FamilySpec, parse_family
from .grid import GridError, NotInSpaceError, as_fraction
from .io import family_to_dict, load_family, net_to_dict, report_to_dict, save_json
from .nets import LevelConditionError, greedy_net, truncation_lift_net, verify_covering
from .norms import NormParams, alpha_norm, lp_norm


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _load_family_arg(text: str, p_override: float | None) -> FamilySpec:
    if os.path.exists(text):
        family = load_family(text)
    else:
        family = parse_family(text)
    if p_override is not None and p_override != family.p:
        family = FamilySpec(
            name=family.name,
            p=p_override,
            members=family.members,
            indices=family.indices,
            generator=None,
            description=family.description,
        )
    return family


def _shift_lattice(spec: str | None, family: FamilySpec) -> ShiftLattice:
    if spec is None or spec == "auto":
        return ShiftLattice.default_for(family)
    step_text, sep, count_text = spec.partition(":")
    count = int(count_text) if sep else 16
    return ShiftLattice(step=as_fraction(Fraction(step_text)), count=count)


def _fmt(x: float) -> str:
    if x != x:
        return "nan"
    if x == float("inf"):
        return "infinite"
    return format(x, ".12g")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_norm(args: argparse.Namespace) -> int:
    family = _load_family_arg(args.family, args.p)
    params = family.params
    print(f"family {family.name}  p={_fmt(params.p)}  members={len(family)}")
    print(f"{'index':>8}  {'F-norm':>18}  {'p-norm':>18}")
    for k, member in zip(family.indices, family.members):
        a = alpha_norm(member, params)
        b = lp_norm(member, params)
        print(f"{k:>8}  {_fmt(a):>18}  {_fmt(b):>18}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    family = _load_family_arg(args.family, args.p)
    eps_values = args.eps or [0.5]
    lattice = _shift_lattice(args.shifts, family)
    report = full_report(family, eps_values, lattice=lattice)
    print(report)
    if args.out:
        save_json(report_to_dict(report), args.out)
        print(f"wrote {args.out}")
    return 0 if report.candidate_totally_bounded else 2


def cmd_net(args: argparse.Namespace) -> int:
    family = _load_family_arg(args.family, args.p)
    eps = args.eps[0] if args.eps else 0.5
    if args.method == "greedy":
        net = greedy_net(family, eps)
    else:
        try:
            net = truncation_lift_net(family, eps)
        except LevelConditionError as exc:
            print(f"level condition fails: {exc}", file=sys.stderr)
            return 2
    check = verify_covering(family, net)
    print(net)
    print(
        f"verification: max distance {_fmt(check.max_distance)}"
        f"  slack {_fmt(check.slack)}  passed {check.passed}"
    )
    if args.out:
        save_json(net_to_dict(net, include_centers=args.include_centers), args.out)
        print(f"wrote {args.out}")
    return 0 if check.passed else 2


_EXAMPLE_ROWS: tuple[tuple[str, tuple[str, str, str]], ...] = (
    ("f:k=1..100,p=1", ("pass", "pass", "fail")),
    ("g:k=1..100,p=1", ("fail", "pass", "pass")),
    ("h:k=1..10,p=1", ("pass", "fail", "pass")),
    ("u:k=1..64,p=1", ("pass", "pass", "pass")),
    ("v:k=1..16,p=2", ("pass", "pass", "pass")),
)


def cmd_examples(args: argparse.Namespace) -> int:
    eps = args.eps[0] if args.eps else 0.5
    rows = []
    ok = True
    for descriptor, expected in _EXAMPLE_ROWS:
        family = parse_family(descriptor)
        report = full_report(family, [eps])
        verdicts = tuple(
            report.entry(cond, eps).verdict
            for cond in ("tail", "translation", "level")
        )
        lp_verdicts = tuple(
            report.entry(cond, eps).verdict for cond in ("lp-tail", "lp-translation")
        )
        match = verdicts == expected
        ok = ok and match
        rows.append((family.name, descriptor, verdicts, lp_verdicts, match))
    if args.table:
        mark = {"pass": "yes", "fail": "no", "rejected": "rejected"}
        print(
            "| family | members | tail | translation | level "
            "| p-norm tail | p-norm translation | as documented |"
        )
        print("|---|---|---|---|---|---|---|---|")
        for name, descriptor, verdicts, lp_verdicts, match in rows:
            cells = [mark[v] for v in verdicts] + [mark[v] for v in lp_verdicts]
            print(
                f"| {name} | {descriptor.split(':', 1)[1]} | "
                + " | ".join(cells)
                + f" | {'yes' if match else 'NO'} |"
            )
    else:
        for name, _descriptor, verdicts, lp_verdicts, match in rows:
            print(
                f"{name}: tail={verdicts[0]} translation={verdicts[1]} "
                f"level={verdicts[2]} lp-tail={lp_verdicts[0]} "
                f"lp-translation={lp_verdicts[1]} "
                f"{'(as documented)' if match else '(MISMATCH)'}"
            )
    return 0 if ok else 2


def cmd_report(args: argparse.Namespace) -> int:
    family = _load_family_arg(args.family, args.p)
    eps_values = args.eps or [0.5]
    lattice = _shift_lattice(args.shifts, family)
    report = full_report(family, eps_values, lattice=lattice)
    print(report)
    nets = {}
    for eps in eps_values:
        net = greedy_net(family, eps)
        check = verify_covering(family, net)
        print(
            f"greedy net at eps={_fmt(eps)}: {net.size} centers, "
            f"max distance {_fmt(check.max_distance)}, passed {check.passed}"
        )
        nets[_fmt(eps)] = net_to_dict(net)
    if args.out:
        bundle = {
            "kind": "diagnostic_bundle",
            "family": family_to_dict(family),
            "report": report_to_dict(report),
            "nets": nets,
        }
        save_json(bundle, args.out)
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="asymlp", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, family: bool = True) -> None:
        if family:
            p.add_argument(
                "family",
                help="generator descriptor (e.g. 'u:k=1..64,p=1'; builders: "
                + ", ".join(sorted(FAMILY_BUILDERS)) + ") or a JSON family file",
            )
        p.add_argument("--p", type=float, default=None, help="override the exponent p")
        p.add_argument(
            "--eps",
            type=float,
            action="append",
            help="tolerance (repeatable; default 0.5)",
        )
        p.add_argument("--out", help="write JSON output to this path")

    p_norm = sub.add_parser("norm", help="per-member F-norm and p-norm table")
    add_common(p_norm)
    p_norm.set_defaults(func=cmd_norm)

    p_check = sub.add_parser("check", help="run the total-boundedness conditions")
    add_common(p_check)
    p_check.add_argument(
        "--shifts",
        default="auto",
        help="shift lattice as STEP:COUNT (e.g. 1/16:16), or 'auto'",
    )
    p_check.set_defaults(func=cmd_check)

    p_net = sub.add_parser("net", help="build a covering net")
    add_common(p_net)
    p_net.add_argument(
        "--method",
        choices=("greedy", "truncation-lift"),
        default="greedy",
    )
    p_net.add_argument(
        "--include-centers",
        action="store_true",
        help="embed center functions in the JSON output",
    )
    p_net.set_defaults(func=cmd_net)

    p_ex = sub.add_parser("examples", help="verify the worked example families")
    p_ex.add_argument("--table", action="store_true", help="print a markdown table")
    p_ex.add_argument("--eps", type=float, action="append")
    p_ex.set_defaults(func=cmd_examples)

    p_rep = sub.add_parser("report", help="conditions plus nets in one JSON bundle")
    add_common(p_rep)
    p_rep.add_argument("--shifts", default="auto")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotInSpaceError, GridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
