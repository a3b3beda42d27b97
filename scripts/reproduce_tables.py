#!/usr/bin/env python3
"""Reproduce the worked-example tables live.

Builds the five documented families, evaluates the quantities that have
closed forms (translation defects, tail integrals, distances to the limit),
and prints them next to the expected values, followed by the full
condition-verdict matrix.  Everything is recomputed; nothing is hard-coded
except the expected column.

Usage:
    python3 scripts/reproduce_tables.py [--eps 0.5] [--out tables.json]
"""
import argparse
import json
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import asymlp as a
from asymlp import cli

SHIFTS = (F(1, 16), F(1, 8), F(1, 4), F(1, 2))


def closed_form_rows() -> list[dict]:
    rows = []

    def row(quantity, computed, expected, tol):
        rows.append({"quantity": quantity, "computed": computed,
                     "expected": expected, "tol": tol})

    for y in SHIFTS:
        got = a.translation_defect(a.family_g(12), y, a.ClampPower(1.0))
        row(f"moving-bump defect, y={y}", got, 2 * float(y), 1e-12)
    for R in (2, 5):
        got = a.integrate_transformed(
            a.family_g(R + 3), a.ClampPower(1.0), a.Outside(R))
        row(f"moving-bump tail beyond R={R}, k={R + 3}", got, 1.0, 0.0)
    for k in (3, 6, 10):
        y = F(1, 2 ** k)
        got = a.translation_defect(
            a.rademacher(k), y, a.ClampPower(1.0), window=a.Window(F(0), 1 - y))
        row(f"sign-flip defect, k={k}, y=2^-{k}", got, 1.0 - 2.0 ** -k, 1e-12)
    phi = a.default_phi()
    for k in (1, 4, 64):
        got = a.alpha_distance(a.family_u(k, 1.0), phi, 1.0)
        row(f"escaping-bump distance to limit, k={k}", got, 1.0 / k, 1e-12)
    for k in (1, 4, 64):
        got = a.v_limit_distance(k, 2.0) ** 2
        row(f"blow-up limit distance^p, k={k} (p=2)", got, 1.0 / k, 1e-9)
        got = a.lp_norm(a.family_v(k, 2.0), 2.0) ** 2
        # cell averages resolve the quadratic closed form to ~1e-7 relative
        row(f"blow-up p-norm^p, k={k} (p=2)", got, float(k), 1e-6 * k)
    return rows


def verdict_rows(eps: float) -> list[dict]:
    """The verdict matrix of the documented families of ``asymlp examples``."""
    rows = []
    for fam in (a.parse_family(d) for d, _ in cli._EXAMPLE_ROWS):
        rep = a.full_report(fam, [eps])
        row = {"family": fam.name, "K": len(fam), "p": fam.p}
        for cond in ("tail", "translation", "level", "lp-tail", "lp-translation"):
            entry = rep.entry(cond, eps)
            row[cond] = "pass" if entry.passed else (
                "rejected" if entry.verdict == "rejected" else "fail")
        row["totally bounded"] = "yes" if rep.candidate_totally_bounded else "no"
        rows.append(row)
    return rows


def print_table(rows: list[dict], title: str) -> None:
    print(f"\n## {title}\n")
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in cols}
    print("| " + " | ".join(c.ljust(widths[c]) for c in cols) + " |")
    print("|" + "|".join("-" * (widths[c] + 2) for c in cols) + "|")
    for r in rows:
        print("| " + " | ".join(_fmt(r[c]).ljust(widths[c]) for c in cols) + " |")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--out", help="also write every table as JSON")
    args = parser.parse_args(argv)

    closed = closed_form_rows()
    all_within = all(
        abs(r["computed"] - r["expected"]) <= r["tol"] for r in closed)
    worst = max(abs(r["computed"] - r["expected"]) /
                max(abs(r["expected"]), 1.0) for r in closed)
    print_table(closed, "Closed-form quantities, recomputed")
    print(f"\nworst relative deviation: {worst:.3e}"
          f" ({'all' if all_within else 'NOT all'} rows within tolerance)")

    verdicts = verdict_rows(args.eps)
    print_table(verdicts, f"Condition verdicts at eps={args.eps}")

    if args.out:
        payload = {"closed_form": closed, "verdicts": verdicts,
                   "worst_relative_deviation": worst}
        Path(args.out).write_text(json.dumps(payload, indent=2, default=str))
        print(f"\nwrote {args.out}")
    return 0 if all_within else 1


if __name__ == "__main__":
    raise SystemExit(main())
