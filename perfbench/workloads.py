"""The three benchmark workloads: seeded inputs, timed operations, answer checks.

Each workload builds its inputs from the seed in ``setup`` (writing any
family files the CLI reads), lists its timed operations in ``ops``, and in
``check`` turns the results of one pass into answer checks plus the
answer fields that make up its digest.  Every call into the package goes
through the ``asymlp`` namespace or ``asymlp.cli.main`` at call time, so
the instrumentation in ``instrument.py`` sees it.  ``sampled`` names the
public integrals a workload must reach: the exact recount fails a run in
which any of them is sampled fewer than ``worker.SAMPLE_SIZE`` times.

verdict-dense
    ``report`` on the five documented families and one seeded dense family
    with a power-law tail.  Time goes to quadrature sweeps over many
    distinct cell values, tailed translation-defect bounds and criteria
    re-verification; few distances are computed.
cover-stream
    Streamed covering profiles N(eps, K) over escaping bumps, moving bumps
    and seeded bumps on coprime rational spacings, then ``net`` on the
    moving bumps.  Time goes to thousands of tiny distance calls per pass
    (1-3 value groups each) and the first-fit loop.
bounded-roundtrip
    ``check`` with a shift step off the cell lattice, a truncation-lift
    ``net`` with centers, reading the outputs back, and the bounded-domain
    certificates.  The only workload that reads its own outputs back and
    that runs ``bounded`` and ``operators.truncate``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import asymlp as a
import asymlp.cli
from instrument import SAMPLED

ALPHA_CONDITIONS = ("tail", "translation", "level")


@dataclass
class Op:
    """One timed operation; ``collect`` runs untimed on its raw result."""

    name: str
    run: Callable[[], object]
    collect: Callable[[object], object] = lambda raw: raw


class Checks:
    """Counts answer checks and keeps the message of each one that fails."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass
class CliRun:
    rc: int
    stdout: str
    out_text: str | None


def cli_op(name: str, argv: list[str], out: Path | None = None) -> Op:
    def run():
        if out is not None:
            out.unlink(missing_ok=True)  # never read a previous pass's output
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = asymlp.cli.main(argv)
        return rc, buf.getvalue()

    def collect(raw):
        rc, stdout = raw
        text = out.read_text() if out is not None and out.exists() else None
        return CliRun(rc, stdout, text)

    return Op(name, run, collect)


# -- answer fields (digest input: no scan, extras, details or timings) -------


def outcome_answer(entry: dict) -> list:
    return [
        entry["condition"], entry["eps"], entry["verdict"], entry["witness"],
        entry["offender_index"], entry["offending_value"], entry["offending_shift"],
    ]


def report_answer(report: dict) -> dict:
    return {
        "candidate_totally_bounded": report["candidate_totally_bounded"],
        "entries": [outcome_answer(e) for e in report["entries"]],
    }


def net_answer(net: dict) -> dict:
    out = {k: net[k] for k in ("eps", "method", "center_indices", "assignment", "distances")}
    if "centers" in net:
        out["centers"] = [c["values"] for c in net["centers"]]
    return out


def alpha_verdicts(report: dict, eps: float = 0.5) -> list[str]:
    by_condition = {e["condition"]: e["verdict"] for e in report["entries"] if e["eps"] == eps}
    return [by_condition.get(c) for c in ALPHA_CONDITIONS]


def check_report(checks: Checks, label: str, run: CliRun) -> dict | None:
    """Exit status and JSON of a ``report``/``check`` run; returns the report."""
    if run.out_text is None:
        checks.expect(False, f"{label}: no JSON output (exit {run.rc})")
        return None
    doc = json.loads(run.out_text)
    checks.expect(
        json.dumps(doc, indent=2) + "\n" == run.out_text,
        f"{label}: output JSON does not re-serialize byte for byte",
    )
    report = doc["report"] if doc["kind"] == "diagnostic_bundle" else doc
    verdicts = alpha_verdicts(report)
    checks.expect(
        report["candidate_totally_bounded"] == all(v == "pass" for v in verdicts),
        f"{label}: candidate_totally_bounded disagrees with verdicts {verdicts}",
    )
    return doc


def check_net_run(checks: Checks, label: str, run: CliRun, nets: int) -> None:
    """Each net the CLI built printed a passing covering verification."""
    checks.expect(
        run.stdout.count("passed True") == nets and "passed False" not in run.stdout,
        f"{label}: expected {nets} passing covering verification(s)",
    )


# -- verdict-dense -----------------------------------------------------------

DOCUMENTED = ("f:k=1..20,p=1", "g:k=1..20,p=1", "h:k=1..10,p=1", "u:k=1..16,p=1", "v:k=1..6,p=2,res=16")
DENSE = "dense-tail"


def dense_tailed_family(rng: np.random.Generator, members: int = 2, cells: int = 96):
    """Smooth waves with distinct per-cell values on [-1/2, 1/2] and a shared tail.

    The waves are shallow and the tail is fixed, so every scanned shift
    passes and each condition takes the same number of scan steps for every
    seed: the work per seed is alike.  Members share the tail so their
    distances are defined.
    """
    h = Fraction(1, cells)
    x = -0.5 + float(h) * (np.arange(cells) + 0.5)
    box = (Fraction(-1, 2), Fraction(1, 2))
    tail = a.TailSpec.power_law(0.1, 2.0, box[1])
    out = []
    for _ in range(members):
        wave = rng.uniform(-0.3, 0.3) + rng.uniform(0.05, 0.2) * np.sin(
            2 * math.pi * x + rng.uniform(0, 2 * math.pi)
        )
        out.append(a.grid_function(box, h, wave + rng.uniform(-1e-3, 1e-3, cells), tail))
    return a.FamilySpec(DENSE, 1.0, out, range(1, members + 1), description="seeded dense waves")


class VerdictDense:
    sampled = SAMPLED

    def setup(self, seed: int, workdir: Path) -> None:
        family = dense_tailed_family(np.random.default_rng(seed))
        self.family_file = workdir / "dense.json"
        self.family_dict = a.family_to_dict(family)
        a.save_json(self.family_dict, self.family_file)
        self.targets = {d: d for d in DOCUMENTED} | {DENSE: str(self.family_file)}
        self.outs = {label: workdir / f"report-{i}.json" for i, label in enumerate(self.targets)}

    def ops(self) -> list[Op]:
        return [
            cli_op(f"report {label}", ["report", target, "--out", str(self.outs[label])], self.outs[label])
            for label, target in self.targets.items()
        ]

    def check(self, results: dict, expect: dict, checks: Checks) -> dict:
        answers = {}
        for label in self.targets:
            run = results.get(f"report {label}")
            if run is None:
                continue
            checks.expect(run.rc == 0, f"report {label}: exit status {run.rc}")
            bundle = check_report(checks, f"report {label}", run)
            if bundle is None:
                continue
            verdicts = alpha_verdicts(bundle["report"])
            checks.expect(
                verdicts == expect["verdicts"][label],
                f"report {label}: verdicts {verdicts}, expected {expect['verdicts'][label]}",
            )
            check_net_run(checks, f"report {label}", run, len(bundle["nets"]))
            if label == DENSE:
                checks.expect(
                    bundle["family"] == self.family_dict,
                    "report dense-tail: family in the bundle differs from the input file",
                )
            answers[label] = {
                "report": report_answer(bundle["report"]),
                "nets": {k: net_answer(n) for k, n in bundle["nets"].items()},
            }
        return answers


# -- cover-stream -------------------------------------------------------------

HORIZONS = (4, 8, 16, 32, 48)
COVER_EPS = (0.5, 0.25)
MOVING_NET = "g:k=1..48,p=1"


def coprime_bump(seed: int, k: int):
    """Member k of the coprime bumps, drawn from (seed, k) on every call.

    Spacings cycle through 1/3, 1/4, 1/5, 1/7, 1/11, 1/13.  Each bump has
    one or two plateaus, so a distance call sees 1-3 value groups, and
    neighbouring bumps sit on coprime lattices, so every merge runs on a
    product-scale lattice.  A fresh object per call, as for the ``u`` and
    ``g`` generators, so that no per-member cache carries over between
    passes.
    """
    rng = np.random.default_rng([seed, k])
    heights = (0.25, 0.5, 0.75, 1.0, 1.5)
    q = (3, 4, 5, 7, 11, 13)[(k - 1) % 6]
    start = Fraction(int(rng.integers(0, 4 * q)), q)
    n = int(rng.integers(1, q + 1))
    split = int(rng.integers(0, n + 1))
    values = np.where(np.arange(n) < split, rng.choice(heights), rng.choice(heights))
    return a.grid_function((start, start + Fraction(n, q)), Fraction(1, q), values)


def coprime_bumps(seed: int):
    """Generator-backed family of the coprime bumps for one seed."""
    return a.FamilySpec(
        "coprime-bumps", 1.0, [coprime_bump(seed, k) for k in range(1, 5)], range(1, 5),
        generator=lambda k: coprime_bump(seed, k), description="seeded bumps on coprime spacings",
    )


def escaping_bump_profile(eps: float) -> list[int]:
    """N(eps, K) for u_family at p = 1, from its closed-form distances.

    Members j != k carry disjoint bumps of clamped mass 1/j and 1/k on top
    of the same phi, so d(u_j, u_k) = 1/j + 1/k exactly.
    """
    centers: list[int] = []
    sizes = []
    for k in range(1, max(HORIZONS) + 1):
        if not any(Fraction(1, j) + Fraction(1, k) < Fraction(eps) for j in centers):
            centers.append(k)
        if k in HORIZONS:
            sizes.append(len(centers))
    return sizes


class CoverStream:
    sampled = ("difference_integral",)

    def setup(self, seed: int, workdir: Path) -> None:
        self.families = {
            "escaping-bump": a.u_family(4, 1.0),
            "moving-bump": a.g_family(4, 1.0),
            "coprime-bumps": coprime_bumps(seed),
        }
        self.net_out = workdir / "net.json"

    def ops(self) -> list[Op]:
        ops = [
            Op(f"profile {label} {eps}", lambda f=family, e=eps: a.covering_profile(f, e, HORIZONS))
            for label, family in self.families.items()
            for eps in COVER_EPS
        ]
        ops.append(cli_op(f"net {MOVING_NET}", ["net", MOVING_NET, "--out", str(self.net_out)], self.net_out))
        return ops

    def check(self, results: dict, expect: dict, checks: Checks) -> dict:
        answers = {}
        for label in self.families:
            for eps in COVER_EPS:
                sizes = results.get(f"profile {label} {eps}")
                if sizes is None:
                    continue
                name = f"profile {label} eps={eps}"
                checks.expect(
                    all(1 <= n <= K for n, K in zip(sizes, HORIZONS))
                    and sizes == sorted(sizes) and len(sizes) == len(HORIZONS),
                    f"{name}: sizes {sizes} are not a nondecreasing profile bounded by K",
                )
                if label == "moving-bump":
                    checks.expect(sizes == list(HORIZONS), f"{name}: N = {sizes}, expected N = K")
                if label == "escaping-bump":
                    want = escaping_bump_profile(eps)
                    checks.expect(sizes == want, f"{name}: N = {sizes}, closed form gives {want}")
                answers[f"{label} {eps}"] = sizes
            coarse, fine = (results.get(f"profile {label} {e}") for e in COVER_EPS)
            if coarse is not None and fine is not None:
                checks.expect(
                    all(c <= f for c, f in zip(coarse, fine)),
                    f"profile {label}: N at eps={COVER_EPS[1]} below N at eps={COVER_EPS[0]}",
                )
        run = results.get(f"net {MOVING_NET}")
        if run is not None:
            checks.expect(run.rc == 0, f"net {MOVING_NET}: exit status {run.rc}")
            check_net_run(checks, f"net {MOVING_NET}", run, 1)
            if run.out_text is None:
                checks.expect(False, f"net {MOVING_NET}: no JSON output")
            else:
                net = json.loads(run.out_text)
                K = max(HORIZONS)
                checks.expect(
                    net["center_indices"] == list(range(1, K + 1))
                    and net["assignment"] == list(range(K))
                    and net["distances"] == [0.0] * K,
                    f"net {MOVING_NET}: moving bumps must each be their own center",
                )
                answers["net"] = net_answer(net)
        return answers


# -- bounded-roundtrip --------------------------------------------------------

CELLS = 48
SHIFTS = f"1/{CELLS + 1}:16"  # off the 1/CELLS cell lattice
DELTAS = (Fraction(1, 32), Fraction(1, 16), Fraction(1, 8))
CERT_EPS = 0.25
CROSS_EPS = (0.5, 0.25)
MEASURE_EPS, MEASURE_TOL = 0.1, 0.05


def smooth_spiky_family(rng: np.random.Generator, members: int = 4):
    """Slow waves below 1 on [0, 1], each with one tall spike cell."""
    x = (np.arange(CELLS) + 0.5) / CELLS
    out = []
    for _ in range(members):
        v = rng.uniform(-0.2, 0.2) + sum(
            rng.uniform(-0.3, 0.3) / j * np.sin(2 * math.pi * j * x + rng.uniform(0, 2 * math.pi))
            for j in (1, 2, 3)
        )
        v[rng.integers(0, CELLS)] = rng.uniform(2.0, 4.0)
        out.append(a.grid_function((0, 1), Fraction(1, CELLS), v))
    return a.FamilySpec("smooth-spiky", 1.0, out, range(1, members + 1), description="seeded waves with spikes")


def converging_sequence(rng: np.random.Generator, members: int = 32):
    """A limit on the 1/96 lattice and a sequence on the 1/160 lattice.

    Member k differs from the limit by noise of size 1/k plus a bump of
    height 1 on a set of measure about 1/k, so it converges in measure.
    """
    limit_x = (np.arange(96) + 0.5) / 96
    limit = a.grid_function((0, 1), Fraction(1, 96), np.cos(2 * math.pi * limit_x) + rng.uniform(-0.1, 0.1, 96))
    x = (np.arange(160) + 0.5) / 160
    cells = np.minimum((x * 96).astype(int), 95)
    seq = []
    for k in range(1, members + 1):
        v = limit.values[cells] + rng.uniform(-1.0, 1.0, 160) / k
        v[: max(1, 160 // k)] += 1.0
        seq.append(a.grid_function((0, 1), Fraction(1, 160), v))
    return a.FamilySpec("converging", 1.0, seq, range(1, members + 1)), limit


class BoundedRoundtrip:
    sampled = tuple(name for name in SAMPLED if name != "translation_defect_bounds")

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        family = smooth_spiky_family(rng)
        sequence, limit = converging_sequence(rng)
        self.values = [m.values for m in family.members]
        self.files = {
            "family": workdir / "family.json",
            "sequence": workdir / "sequence.json",
            "limit": workdir / "limit.json",
        }
        self.written = {
            "family": a.family_to_dict(family),
            "sequence": a.family_to_dict(sequence),
            "limit": a.function_to_dict(limit),
        }
        for key, doc in self.written.items():
            a.save_json(doc, self.files[key])
        self.check_out = workdir / "check.json"
        self.net_out = workdir / "net.json"

    def _read(self):
        self.loaded = {
            "check": a.load_json(self.check_out),
            "net": a.load_json(self.net_out),
            "family": a.load_family(self.files["family"]),
            "sequence": a.load_family(self.files["sequence"]),
            "limit": a.load_function(self.files["limit"]),
        }
        return self.loaded

    def ops(self) -> list[Op]:
        family = str(self.files["family"])
        return [
            cli_op("check", ["check", family, "--shifts", SHIFTS, "--out", str(self.check_out)], self.check_out),
            cli_op(
                "net",
                ["net", family, "--method", "truncation-lift", "--include-centers", "--out", str(self.net_out)],
                self.net_out,
            ),
            Op("read outputs", self._read),
            Op("equibounded", lambda: a.almost_equibounded_certificate(self.loaded["family"], CERT_EPS)),
            Op(
                "equicontinuity",
                lambda: [a.almost_equicontinuity_certificate(self.loaded["family"], CERT_EPS, d) for d in DELTAS],
            ),
            Op("crosscheck", lambda: a.corollary_crosscheck(self.loaded["family"], CROSS_EPS, DELTAS)),
            Op(
                "convergence",
                lambda: a.convergence_in_measure(
                    self.loaded["sequence"].members, self.loaded["limit"], MEASURE_EPS, MEASURE_TOL
                ),
            ),
        ]

    def check(self, results: dict, expect: dict, checks: Checks) -> dict:
        answers = {}
        run = results.get("check")
        if run is not None:
            doc = check_report(checks, "check", run)
            if doc is not None:
                want = 0 if doc["candidate_totally_bounded"] else 2
                checks.expect(run.rc == want, f"check: exit status {run.rc}, report implies {want}")
                answers["check"] = report_answer(doc)
        loaded = results.get("read outputs")
        run = results.get("net")
        if run is not None:
            checks.expect(run.rc == 0, f"net: exit status {run.rc}")
            check_net_run(checks, "net", run, 1)
        if loaded is not None:
            self._check_roundtrip(checks, loaded, answers)
        cert = results.get("equibounded")
        if cert is not None:
            checks.expect(
                cert.passed and all(mu < CERT_EPS for mu in cert.exceptional.measures),
                f"equibounded: certificate must pass with exceptional sets below {CERT_EPS}",
            )
            measures = list(cert.exceptional.measures) if cert.passed else None
            answers["equibounded"] = [cert.passed, cert.M, measures]
        certs = results.get("equicontinuity")
        if certs is not None:
            answers["equicontinuity"] = []
            for c in certs:
                measures = list(c.exceptional.measures) if c.passed else None
                checks.expect(
                    (c.passed and all(mu < CERT_EPS for mu in measures))
                    or (not c.passed and c.offender_index is not None),
                    f"equicontinuity delta={c.delta}: inconsistent certificate",
                )
                answers["equicontinuity"].append(
                    [c.delta, c.passed, measures, c.offender_index, c.offender_pair, c.offender_values]
                )
        cross = results.get("crosscheck")
        if cross is not None:
            checks.expect(
                len(cross.rows) == len(CROSS_EPS) * len(DELTAS)
                and all(r.implication_a_observed for r in cross.rows),
                "crosscheck: implication (a) not observed on every row",
            )
            answers["crosscheck"] = [list(vars(r).values()) for r in cross.rows]
        conv = results.get("convergence")
        if conv is not None:
            checks.expect(
                conv.converged == (conv.distances[-1] < MEASURE_TOL) and min(conv.distances) >= 0.0,
                "convergence: verdict disagrees with the measure sequence",
            )
            answers["convergence"] = [list(conv.distances), conv.converged, conv.monotone_fraction]
        return answers

    def _check_roundtrip(self, checks: Checks, loaded: dict, answers: dict) -> None:
        """Inputs read back bit for bit; net centers are the truncated members."""
        for key in ("family", "sequence"):
            checks.expect(
                a.family_to_dict(loaded[key]) == self.written[key],
                f"{key}: family JSON does not round-trip",
            )
        checks.expect(
            a.function_to_dict(loaded["limit"]) == self.written["limit"],
            "limit: function JSON does not round-trip",
        )
        checks.expect(
            all(m.values.tobytes() == v.tobytes() for m, v in zip(loaded["family"].members, self.values)),
            "family: values read back are not bit-identical to those written",
        )
        net = loaded["net"]
        M = net["extras"]["M"]
        centers = [a.function_from_dict(c).values for c in net["centers"]]
        checks.expect(
            len(centers) == len(net["center_indices"])
            and all(
                c.tobytes() == np.clip(self.values[i - 1], -M, M).tobytes()
                for c, i in zip(centers, net["center_indices"])
            )
            and all(d < net["eps"] for d in net["distances"]),
            "net: centers are not the members truncated at M, or a distance exceeds eps",
        )
        answers["net"] = net_answer(net)


WORKLOADS = {
    "verdict-dense": VerdictDense,
    "cover-stream": CoverStream,
    "bounded-roundtrip": BoundedRoundtrip,
}
