#!/usr/bin/env python3
"""Record the benchmark and the output digests of one or more checkouts.

Runs ``perfbench/run.py --trace 0`` for every workload of
``BENCHMARK.json`` and seeds 1-10, for the ``run_seconds`` it sets, and
``scripts/output_digests.py`` once, in each checkout, and writes OUT as
JSON: per checkout, every run's end-to-end metrics, answer digest and
failure count, the median and quartiles of each metric, and the digest
lines.  Each run also records every operation's fastest wall time over
its passes, scaled to the reference machine as perfbench scales
``wall_s`` (from the ``passes`` and ``reference_loop_s`` of its ``info``
line), and the summary the median of each over the seeds, so a change
shows which operation moved.  With two checkouts the runs alternate, and each seed swaps which
checkout goes first (first, second; second, first; ...), so a slow phase
of a shared machine hits both alike.  OUT then also counts the seeds on
which the second checkout is better:

    python3 scripts/bench_record.py BENCH.json \\
        --checkout parent=../parent --checkout change=.

A checkout is LABEL=DIR; without one, this repository is recorded as
"change".  Each is labelled with ``git describe --always --dirty`` or,
where that prints nothing (a ``git archive`` copy), with "sha256:" and
the first 12 hex digits of a digest of its ``src/asymlp/*.py``.  Each run lasts about ``run_seconds`` plus ten seconds of
set-up, so two checkouts take about 40 minutes.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
PERFBENCH = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(PERFBENCH)
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
    passes = info["passes"]
    scale = PERFBENCH.REFERENCE_LOOP_S / info["reference_loop_s"]
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "digest": info["digest"],
        "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
        "ops": {op: min(p[op][0] for p in passes) * scale for op in passes[0]},
    }


def _summary(runs: list[dict]) -> dict:
    out = {}
    for m in METRICS:
        values = [r["metrics"][m] for r in runs if "metrics" in r]
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4)
            out[m] = {"median": median, "q1": q1, "q3": q3}
    ops = [r["ops"] for r in runs if "ops" in r]
    if ops:
        out["ops"] = {op: statistics.median(o[op] for o in ops) for op in ops[0]}
    return out


def _commit(checkout: Path) -> str:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True
    )
    if proc.stdout.strip():
        return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "asymlp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return "sha256:" + digest.hexdigest()[:12]


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
            order = list(checkouts.items())
            for label, checkout in order if seed % 2 else order[::-1]:
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
        record["second_better"] = {}
        for w in workloads:
            pairs = [(a, b) for a, b in zip(runs[first][w], runs[second][w]) if "metrics" in a and "metrics" in b]
            better = {m: sum(a["metrics"][m] > b["metrics"][m] for a, b in pairs) for m in METRICS}
            if pairs:
                better["ops"] = {op: sum(a["ops"][op] > b["ops"][op] for a, b in pairs) for op in pairs[0][0]["ops"]}
            record["second_better"][w] = better
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
