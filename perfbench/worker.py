"""One workload run in a fresh interpreter; started by ``run.py``, not by hand.

Modes:
  setup  build the inputs and report the set-up time only;
  run    set up, then repeat whole passes of the workload while the next
         pass is expected to fit in --seconds (at least one), check every
         answer and recount a sample of quadrature calls exactly;
  trace  the same with every layer function wrapped in spans, spans
         written to the work directory at exit.

--passes, when given, runs exactly that many passes instead.  Expected
verdicts and recorded digests come from ``expected.json`` beside this file.

Set-up time runs from --t0, a ``time.monotonic`` reading the parent took
just before starting this interpreter, to the first timed call.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE_SIZE = 8  # recounted calls per public integral


def reference_loop() -> float:
    """Time a fixed loop of interpreter and small-array work, independent of asymlp.

    Its fastest time in a run tells how fast the machine ran then; see
    ``run.py`` for how the operation times are scaled by it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    x = np.arange(300.0)
    for _ in range(40):
        np.unique(np.concatenate((x, x[::3] + 0.5)))
    return time.perf_counter() - t0


def digest(answers: dict) -> str:
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(ops, tracer, checks) -> tuple[dict, dict, float]:
    """Run each operation once, the reference loop before each.

    Returns the [wall, CPU] seconds and the result of each operation, and
    the fastest reference loop.
    """
    times, results, loop = {}, {}, float("inf")
    for op in ops:
        loop = min(loop, reference_loop())
        checks.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = tracer.call("bench", op.run) if tracer else op.run()
        except Exception:  # a failed operation is counted, and the run goes on
            checks.failures.append(f"{op.name}: {traceback.format_exc(limit=-3)}")
            continue
        finally:
            times[op.name] = [time.perf_counter() - w0, time.process_time() - c0]
        results[op.name] = op.collect(raw)
    return times, results, loop


def machine() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--passes", type=int, default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import asymlp

    if not Path(asymlp.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"asymlp imported from {asymlp.__file__}, not from this checkout")
    import exact
    import instrument
    from workloads import WORKLOADS, Checks

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.workdir)
    result = {"setup_s": time.monotonic() - args.t0, "machine": machine()}
    if args.mode == "setup":
        (args.workdir / "result.json").write_text(json.dumps(result))
        return 0

    expect = json.loads((HERE / "expected.json").read_text())
    sample = instrument.CallSample(args.seed, SAMPLE_SIZE, exact.eligible)
    instrument.install_sample(sample)
    tracer = None
    if args.mode == "trace":
        tracer = instrument.Tracer()
        tracer.install(instrument.layer_functions())

    checks = Checks()
    passes, digests, loop = [], [], float("inf")
    while True:
        gc.collect()
        times, results, fastest_loop = run_pass(workload.ops(), tracer, checks)
        if tracer is not None:
            tracer.end_pass()
        passes.append(times)
        loop = min(loop, fastest_loop)
        digests.append(digest(workload.check(results, expect, checks)))
        walls = [sum(w for w, _ in p.values()) for p in passes]
        if args.passes:
            if len(passes) == args.passes:
                break
        elif sum(walls) + statistics.median(walls) > args.seconds:
            break

    # after the timed phase: exact recount of the sampled quadrature calls,
    # which must reach every integral the workload is made to exercise
    sampled_calls = sample.seen()
    for name in workload.sampled:
        kept = len(sample.kept[name])
        checks.expect(
            kept == SAMPLE_SIZE,
            f"recount: {kept} of {SAMPLE_SIZE} {name} calls sampled ({sampled_calls[name]} made)",
        )
    for name, call_args, call_kwargs, value in sample.calls():
        problem = exact.recount(name, call_args, call_kwargs, value)
        checks.expect(problem is None, f"recount {problem}")
    checks.expect(len(set(digests)) == 1, f"answers differ between passes: {digests}")
    recorded = expect["digests"].get(args.workload, {}).get(str(args.seed))
    if recorded is not None:
        checks.expect(digests[0] == recorded, f"digest {digests[0]} differs from recorded {recorded}")

    if tracer is not None:
        tracer.dump(args.workdir / "spans.npz")
    result.update(
        passes=passes,
        reference_loop_s=loop,
        digest=digests[0],
        sampled_calls=sampled_calls,
        recounted={name: len(kept) for name, kept in sample.kept.items()},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=checks.attempted,
        failures=checks.failures,
    )
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
