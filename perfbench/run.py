#!/usr/bin/env python3
"""asymlp benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verdict-dense --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics: wall and CPU time of one pass of
the workload (each operation's fastest time over the passes that fit in
--seconds, summed and scaled to the reference machine speed; see
README.md for why), the median set-up time of five fresh interpreters,
scaled the same way, and peak memory.  --trace 1 prints the per-layer
metrics of a traced run of five passes, next to five untraced passes for
the tracing overhead.  Every run checks its answers;
``failed`` counts operations that raised, exited unexpectedly, gave a
wrong answer or a digest that differs from the one recorded.

Every workload run is its own interpreter, started one at a time with
``ASYMLP_THREADS`` unset and one thread per numeric library.  The last
line of output is the JSON result; the line before it, starting with
``info``, has the answer digest, the failures and the machine facts.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verdict-dense", "cover-stream", "bounded-roundtrip")
SETUP_RUNS = 5  # fresh interpreters whose set-up times give the median
IMPORT_RUNS = 3
TRACE_PASSES = 5  # passes of the traced run, and of the untraced run it is compared with
REFERENCE_LOOP_S = 0.0046  # fastest worker.reference_loop on a quiet 2-vCPU Xeon
# wall time a pass may measure around its root spans but outside them: the
# tracer's bookkeeping (tens of microseconds per operation) and stalls of a
# shared machine between two clock readings
SPAN_SLACK_S, SPAN_SLACK_SHARE = 1e-4, 0.01
BUDGET_S = 170.0  # every child must end within this, so the run ends within 180 s

QUADRATURE = (
    "integrate_transformed",
    "difference_integral",
    "translation_defect",
    "translation_defect_bounds",
    "superlevel_measure",
)
BOUNDED = (
    "convergence_in_measure",
    "almost_equibounded_certificate",
    "almost_equicontinuity_certificate",
    "corollary_crosscheck",
    "symmetric_difference_decay",
)


class Children:
    """Starts the worker interpreters one at a time, inside the time budget."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k != "ASYMLP_THREADS"}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.count = 0

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{' '.join(argv[1:])} exited with status {proc.returncode}")
        return proc

    def worker(self, args, mode: str, seconds: float, passes: int = 0) -> dict:
        self.count += 1
        workdir = self.workdir / f"{mode}-{self.count}"
        argv = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
            "--workdir", str(workdir), "--passes", str(passes),
        ]
        self._run(argv + ["--t0", repr(time.monotonic())])
        result = json.loads((workdir / "result.json").read_text())
        result["workdir"] = workdir
        return result

    def import_times(self) -> dict:
        """Cumulative import times from ``python -X importtime -c 'import asymlp'``."""
        proc = self._run([sys.executable, "-X", "importtime", "-c", "import asymlp"])
        out = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                out[fields[2].strip()] = int(fields[1]) / 1e6
        return out


def pass_time(run: dict, column: int) -> float:
    """Seconds for one pass at the reference machine speed.

    Each operation's fastest time across the passes, summed, then scaled by
    REFERENCE_LOOP_S over the fastest reference loop of the same run: on a
    shared machine a whole run can fall into a phase where everything runs
    30% slower, and the loop, timed before every operation, slows with it.
    """
    passes = run["passes"]
    fastest = sum(min(p[op][column] for p in passes) for op in passes[0])
    return fastest * REFERENCE_LOOP_S / run["reference_loop_s"]


def end_to_end(args, children: Children) -> tuple[dict, list[dict]]:
    # set-up probes before and after the timed run, so that a slow phase of
    # the machine does not hold every sample
    before = [children.worker(args, "setup", 0) for _ in range(SETUP_RUNS // 2)]
    main = children.worker(args, "run", args.seconds)
    probes = before + [children.worker(args, "setup", 0) for _ in range(SETUP_RUNS - 1 - len(before))]
    setup = [r["setup_s"] for r in probes + [main]]
    metrics = {
        "wall_s": (pass_time(main, 0), "s"),
        "cpu_s": (pass_time(main, 1), "s"),
        "setup_s": (statistics.median(setup) * REFERENCE_LOOP_S / main["reference_loop_s"], "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    main["setup_samples"] = setup
    return metrics, [main]


def per_layer(args, children: Children) -> tuple[dict, list[dict]]:
    sys.path.insert(0, str(HERE))
    from instrument import reduce_spans

    plain = children.worker(args, "run", 0, TRACE_PASSES)
    traced = children.worker(args, "trace", 0, TRACE_PASSES)
    imports = [children.import_times() for _ in range(IMPORT_RUNS)]
    spans = reduce_spans(traced["workdir"] / "spans.npz")
    # every pass makes the same calls: report the calls and counts of one pass
    calls, counters = spans["pass_calls"][0], spans["pass_counters"][0]
    self_s = {k: v / TRACE_PASSES for k, v in spans["self_s"].items()}

    def expect(ok, message):
        traced["attempted"] += 1
        if not ok:
            traced["failures"].append(message)

    expect(traced["digest"] == plain["digest"], "tracing changed the answers: digests differ")
    expect(
        all(c == calls for c in spans["pass_calls"])
        and all(c == counters for c in spans["pass_counters"]),
        "calls or counts differ between traced passes",
    )
    # The spans must account for every quadrature call the sample wrappers
    # saw, so no call escapes the trace ...
    traced_quadrature = {
        fn: sum(c.get(f"quadrature.{fn}", 0) for c in spans["pass_calls"]) for fn in QUADRATURE
    }
    expect(
        traced_quadrature == traced["sampled_calls"],
        f"traced quadrature calls {traced_quadrature} differ from those made {traced['sampled_calls']}",
    )
    # ... and their roots, the benchmark's operations, must fill the wall time
    # the worker measured around them, apart from the tracer's own bookkeeping:
    # the self times then add up to the traced wall time.
    expect(spans["roots"] == ["bench"], f"spans outside the benchmark's operations: {spans['roots']}")
    for i, (root_s, times) in enumerate(zip(spans["root_s"], traced["passes"])):
        measured = sum(w for w, _ in times.values())
        expect(
            0.0 <= measured - root_s <= SPAN_SLACK_S * len(times) + SPAN_SLACK_SHARE * measured,
            f"pass {i}: spans cover {root_s!r} s of a measured {measured!r} s",
        )

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for fn in QUADRATURE:
        m[f"quadrature.{fn}.calls"] = (calls.get(f"quadrature.{fn}", 0), "count")
        m[f"quadrature.{fn}.self_s"] = (self_s.get(f"quadrature.{fn}", 0.0), "s")
    quad = [n for n in calls if n.startswith("quadrature.")]
    m["quadrature.us_per_call"] = (
        1e6 * ratio(sum(self_s[n] for n in quad), sum(calls[n] for n in quad)), "us"
    )
    m["quadrature.cells_in"] = (counters.get("quadrature.cells_in", 0), "count")
    for name in ("norms.alpha_distance", "norms.lp_distance", "criteria.check_tail",
                 "criteria.check_translation", "criteria.check_level", "criteria.check_kr_lp"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["criteria.evaluations"] = (counters.get("criteria.evaluations", 0), "count")
    m["criteria.defect_repeat_ratio"] = (
        ratio(counters.get("criteria.defect_calls", 0), counters.get("criteria.defect_triples", 0)),
        "ratio",
    )
    for name in ("nets.greedy_net", "nets.verify_covering", "nets.covering_profile",
                 "nets.truncation_lift_net"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["nets.distance_calls"] = (counters.get("nets.distance_calls", 0), "count")
    m["nets.hit_ratio"] = (
        ratio(counters.get("nets.hits", 0), counters.get("nets.first_fit_distances", 0)), "ratio"
    )
    m["nets.centers"] = (counters.get("nets.centers", 0), "count")
    for name in [f"bounded.{fn}" for fn in BOUNDED] + [
        "operators.truncate", "io.load_family", "io.save_json",
        "families.parse_family", "cli.main",
    ]:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["io.bytes_read"] = (counters.get("io.bytes_read", 0), "bytes")
    m["io.bytes_written"] = (counters.get("io.bytes_written", 0), "bytes")
    m["bench.self_s"] = (self_s.get("bench", 0.0), "s")
    m["import.asymlp_s"] = (statistics.median(t.get("asymlp", 0.0) for t in imports), "s")
    m["import.scipy_ndimage_s"] = (
        statistics.median(t.get("scipy.ndimage", 0.0) for t in imports), "s"
    )
    m["trace.overhead_ratio"] = (
        ratio(pass_time(traced, 0), pass_time(plain, 0)), "ratio"
    )
    return m, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    children = Children(workdir)
    try:
        metrics, runs = (per_layer if args.trace else end_to_end)(args, children)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": runs[0]["digest"],
        "fail_ratio": len(failures) / attempted,
        "recounted_calls": runs[0]["recounted"],
        "sampled_calls": runs[0]["sampled_calls"],
        "reference_loop_s": runs[0]["reference_loop_s"],
        "passes": runs[0]["passes"],
        "setup_samples": runs[0].get("setup_samples"),
        "machine": runs[0]["machine"],
        "failures": failures[:20],
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
