"""Self-test of the benchmark harness (under a minute on 2 vCPUs).

    python3 -m pytest perfbench/tests -q

A wrong expected verdict or digest, or an integral a workload must reach
but does not, must count as a failure; the per-layer counts must repeat
exactly for a seed; the exact recount must catch a known wrong integral;
and without the package the benchmark must fail without printing a
result.  Tests that change the benchmark change a copy of it in a
temporary directory.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
COUNT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("info ")
    return json.loads(lines[-2][5:]), json.loads(lines[-1])


def copy_bench(tmp_path: Path, with_package: bool = True) -> Path:
    """A copy of the benchmark in ``tmp_path``, beside a link to the package source."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_package:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def edit_expected(root: Path, edit) -> Path:
    path = root / "perfbench" / "expected.json"
    expect = json.loads(path.read_text())
    edit(expect)
    path.write_text(json.dumps(expect))
    return root


def test_wrong_expected_verdict_fails(tmp_path):
    def edit(expect):
        expect["verdicts"]["h:k=1..10,p=1"] = ["pass", "pass", "pass"]

    copy = edit_expected(copy_bench(tmp_path), edit)
    info, res = result(run("verdict-dense", 1, 0, cwd=copy))
    assert not res["correct"] and res["failed"] == 1 and info["fail_ratio"] > 0
    assert "report h:k=1..10,p=1: verdicts" in info["failures"][0]


def test_wrong_digest_fails(tmp_path):
    def edit(expect):
        expect["digests"]["bounded-roundtrip"]["1"] = "0" * 64

    copy = edit_expected(copy_bench(tmp_path), edit)
    info, res = result(run("bounded-roundtrip", 1, 0, cwd=copy))
    assert not res["correct"] and res["failed"] == 1 and info["fail_ratio"] > 0
    assert "differs from recorded" in info["failures"][0]


def test_unreached_integral_fails(tmp_path):
    """A workload that stops reaching an integral it must reach fails its recount."""
    copy = copy_bench(tmp_path)
    path = copy / "perfbench" / "workloads.py"
    text = path.read_text()
    old = 'sampled = ("difference_integral",)'
    assert text.count(old) == 1
    path.write_text(text.replace(old, 'sampled = ("difference_integral", "superlevel_measure")'))
    info, res = result(run("cover-stream", 1, 0, cwd=copy))
    assert not res["correct"] and res["failed"] == 1
    assert info["failures"][0].startswith("recount: 0 of 8 superlevel_measure calls sampled")
    assert info["recounted_calls"]["difference_integral"] == 8


def test_traced_counts_repeat_and_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    first, second = (result(run("bounded-roundtrip", 2, 1))[1] for _ in range(2))
    for res in (first, second):
        assert res["correct"], res
        assert {m["name"]: m["unit"] for m in declared} == {
            k: v["unit"] for k, v in res["metrics"].items()
        }
    counts = {k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert {"quadrature.cells_in", "nets.distance_calls", "criteria.evaluations", "nets.centers"} <= counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["quadrature.translation_defect.calls"]["value"] > 0


def test_recount_catches_the_lattice_wrap():
    """The int64 wrap in the exact sweep returns 0.0 for a true 2**-51."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import asymlp as a
        import exact
    finally:
        del sys.path[:2]
    f = a.constant(1.0, (0, 4096), 1)
    y, transform = Fraction(1, 2**52), a.ClampPower(1.0)
    assert exact.defect(f, y, transform)[0] == Fraction(2, 2**52)
    value = a.translation_defect(f, y, transform)
    if value == 2.0**-51:
        pytest.skip("the exact sweep no longer wraps")
    problem = exact.recount("translation_defect", (f, y, transform), {}, value)
    assert problem is not None and "exact value" in problem


def test_fails_without_the_package(tmp_path):
    proc = run("bounded-roundtrip", 1, 0, cwd=copy_bench(tmp_path, with_package=False))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
