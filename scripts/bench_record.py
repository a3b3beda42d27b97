#!/usr/bin/env python3
"""Record the benchmark and the output digests of one or more checkouts.

Runs ``perfbench/run.py --trace 0`` for every workload of
``BENCHMARK.json`` and seeds 1-10, for the ``run_seconds`` it sets, and
``scripts/output_digests.py`` once, in each checkout, and writes OUT as
JSON: per checkout, every run's end-to-end metrics, answer digest and
failure count, the median and quartiles of each metric, and the digest
lines.  With two checkouts the runs alternate (first, second, first, ...)
so a slow phase of a shared machine hits both alike, and OUT also counts
the seeds on which the second checkout is better:

    python3 scripts/bench_record.py BENCH.json \\
        --checkout parent=../parent --checkout change=.

A checkout is LABEL=DIR; without one, this repository is recorded as
"change".  Each run lasts about ``run_seconds`` plus ten seconds of
set-up, so two checkouts take about 40 minutes.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")  # all lower is better


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2 or not lines[-2].startswith("info "):
        return {"seed": seed, "correct": False, "error": proc.stderr.strip()[-2000:]}
    info, result = json.loads(lines[-2][len("info "):]), json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "digest": info["digest"],
        "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
    }


def _summary(runs: list[dict]) -> dict:
    out = {}
    for m in METRICS:
        values = [r["metrics"][m] for r in runs if "metrics" in r]
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4)
            out[m] = {"median": median, "q1": q1, "q3": q3}
    return out


def _commit(checkout: Path) -> str:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True
    )
    return proc.stdout.strip()


def _digests(checkout: Path) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "scripts/output_digests.py"],
        cwd=checkout, capture_output=True, text=True,
    )
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--checkout", action="append", metavar="LABEL=DIR", default=[])
    args = parser.parse_args(argv)

    checkouts = dict(c.split("=", 1) for c in args.checkout) or {"change": str(ROOT)}
    checkouts = {label: Path(d).resolve() for label, d in checkouts.items()}
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    seconds = BENCHMARK["run_seconds"]
    runs = {label: {w: [] for w in workloads} for label in checkouts}
    for w in workloads:
        for seed in SEEDS:
            for label, checkout in checkouts.items():
                runs[label][w].append(_run(checkout, w, seed, seconds))
                print(label, w, seed, runs[label][w][-1].get("metrics"), file=sys.stderr)

    record = {
        "seconds": seconds,
        "seeds": list(SEEDS),
        "checkouts": {
            label: {
                "commit": _commit(checkout),
                "output_digests": _digests(checkout),
                "workloads": {
                    w: {"summary": _summary(runs[label][w]), "runs": runs[label][w]}
                    for w in workloads
                },
            }
            for label, checkout in checkouts.items()
        },
    }
    if len(checkouts) == 2:
        first, second = checkouts
        record["second_better"] = {
            w: {
                m: sum(
                    a["metrics"][m] > b["metrics"][m]
                    for a, b in zip(runs[first][w], runs[second][w])
                    if "metrics" in a and "metrics" in b
                )
                for m in METRICS
            }
            for w in workloads
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
