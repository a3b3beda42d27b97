"""Bounded-domain certificates: equiboundedness, equicontinuity, crosschecks.

On a bounded interval E the level condition is equivalent to "almost
equibounded": one cut M works for every member off an exceptional set
S_f = {|f| > M} of measure below eps.  "Almost equicontinuous" is the
(eps, delta) analogue for point pairs; here it is certified by an
oscillation superlevel set: B_f collects the cells whose local
oscillation within delta reaches eps, and the certificate passes when
every |B_f| is below eps.  Off B_f no two points within delta differ by
eps or more, since each cell's oscillation bounds its differences with
every cell in reach.  The construction is sound (never passes a bad
family) but may fail families that admit a cleverer exceptional set;
reports say so explicitly.

Everything in this module fixes p = 1 where p matters and requires
bounded supports (zero tails).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .criteria import ConditionOutcome, ShiftLattice, check_level, check_translation
from .families import FamilySpec
from .grid import (
    FractionLike,
    GridError,
    GridFunction,
    MeasurableSet,
    as_fraction,
)
from .norms import ConvergenceReport, _horizon_report
from .nets import greedy_net
from .quadrature import Threshold, _quiet, difference_integral, superlevel_set

__all__ = [
    "ExceptionalSet",
    "BoundednessCertificate",
    "EquicontinuityCertificate",
    "CorollaryRow",
    "CorollaryReport",
    "convergence_in_measure",
    "almost_equibounded_certificate",
    "almost_equicontinuity_certificate",
    "corollary_crosscheck",
    "symmetric_difference_decay",
]


def _require_bounded(members: Iterable[GridFunction], what: str) -> None:
    for m in members:
        if not m.tail.is_zero:
            raise GridError(f"{what} needs bounded supports; a member has a live tail")
        if m.dim != 1:
            raise GridError(f"{what} is one-dimensional here")


@dataclass(frozen=True, eq=False)
class ExceptionalSet:
    """Per-member exceptional sets, each strictly below the shared budget."""

    eps: float
    indices: tuple[int, ...]
    sets: tuple[MeasurableSet, ...]
    measures: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.sets) or len(self.sets) != len(self.measures):
            raise GridError("indices, sets and measures disagree in length")
        for i, mu in zip(self.indices, self.measures):
            if not mu < self.eps:
                raise GridError(
                    f"exceptional set of member {i} has measure {mu:.6g} >= "
                    f"budget {self.eps:.6g}"
                )


@dataclass(frozen=True, eq=False)
class BoundednessCertificate:
    """Cut M plus per-member superlevel sets S_f = {|f| > M}."""

    eps: float
    passed: bool
    M: float | None
    exceptional: ExceptionalSet | None
    outcome: ConditionOutcome

    def __str__(self) -> str:
        if self.passed:
            worst = max(self.exceptional.measures) if self.exceptional.measures else 0.0
            return (
                f"almost equibounded at eps={self.eps:g}: M={self.M:.6g}, "
                f"worst |S_f|={worst:.6g}"
            )
        return f"almost equiboundedness FAILS at eps={self.eps:g}: {self.outcome}"


def almost_equibounded_certificate(
    family: FamilySpec, eps: float
) -> BoundednessCertificate:
    """Certify |f| <= M off S_f = {|f| > M} with |S_f| < eps, all members."""
    _require_bounded(family.members, "almost equiboundedness")
    outcome = check_level(family, eps)
    if not outcome.passed:
        return BoundednessCertificate(eps, False, None, None, outcome)
    M = outcome.witness
    sets = tuple(superlevel_set(m, M) for m in family.members)
    exceptional = ExceptionalSet(eps, family.indices, sets, tuple(s.measure() for s in sets))
    return BoundednessCertificate(eps, True, M, exceptional, outcome)


@dataclass(frozen=True, eq=False)
class EquicontinuityCertificate:
    """(eps, delta) continuity off per-member oscillation sets B_f.

    A failure names the first member whose |B_f| reaches eps, in
    offender_index and detail.  offender_pair and offender_values are
    never set: no pair of cells off B_f can differ by eps (see
    ``almost_equicontinuity_certificate``).  They stay None so the
    certificate's fields, which benchmark answer digests read, keep
    their shape.
    """

    eps: float
    delta: float
    passed: bool
    exceptional: ExceptionalSet | None = None
    offender_index: int | None = None
    offender_pair: tuple[float, float] | None = None
    offender_values: tuple[float, float] | None = None
    detail: str = ""

    def __str__(self) -> str:
        if self.passed:
            worst = max(self.exceptional.measures) if self.exceptional.measures else 0.0
            return (
                f"almost equicontinuous at (eps={self.eps:g}, delta={self.delta:g}): "
                f"worst |B_f|={worst:.6g}"
            )
        return (
            f"almost equicontinuity FAILS at (eps={self.eps:g}, "
            f"delta={self.delta:g}): {self.detail}"
        )


def _sliding_extreme(v: np.ndarray, W: int, op: np.ufunc) -> np.ndarray:
    """op (np.maximum or np.minimum) over v[i-W : i+W+1], edge values repeated.

    The same values as scipy.ndimage's max/min filters of size 2W+1 with
    mode="nearest".  O(n) for any W (van Herk / Gil-Werman): in blocks of
    the window length, every window is one block suffix plus the next
    block's prefix.
    """
    n = len(v)
    W = min(W, n - 1)  # a wider window sees the whole array either way
    k = 2 * W + 1
    blocks = -(-(n + 2 * W) // k)
    x = np.pad(v, (W, blocks * k - n - W), mode="edge").reshape(blocks, k)
    prefix = op.accumulate(x, axis=1).ravel()
    suffix = op.accumulate(x[:, ::-1], axis=1)[:, ::-1].ravel()
    return op(suffix[:n], prefix[k - 1 : k - 1 + n])


def _pair_window(delta: Fraction, h: Fraction) -> int:
    """Largest cell offset d such that some pair in cells (i, i+d) is < delta apart.

    Cells at offset d have gap (d-1)*h between their closures, so pairs
    below delta exist iff (d-1)*h < delta.
    """
    q = delta / h
    return int(q) if q.denominator == 1 else int(q) + 1


def almost_equicontinuity_certificate(
    family: FamilySpec, eps: float, delta: FractionLike
) -> EquicontinuityCertificate:
    """Oscillation-superlevel certificate: pass iff every |B_f| < eps.

    For each member, B_f collects the cells whose value differs by >= eps
    from some cell within distance delta.  A cell i off B_f has
    oscillation osc_i = max(hi_i - v_i, v_i - lo_i) < eps over its window,
    and every cell j in reach has lo_i <= v_j <= hi_i; float subtraction
    is monotone, so the computed |v_i - v_j| <= osc_i < eps too.  Hence
    |f(x1) - f(x2)| < eps for every pair below delta with one point off
    B_f, and the measures alone decide.  Sound but possibly conservative:
    a family admitting smaller exceptional sets than this construction
    may still fail.
    """
    if eps <= 0:
        raise GridError("eps must be positive")
    _require_bounded(family.members, "almost equicontinuity")
    d = as_fraction(delta)
    if d <= 0:
        raise GridError("delta must be positive")
    sets, measures = [], []
    for idx, m in zip(family.indices, family.members):
        h = m.spacing[0]
        if d < h:
            raise GridError(
                f"delta {float(d):.6g} is below the spacing {float(h):.6g} "
                f"of member {idx}"
            )
        W = _pair_window(d, h)
        v = m.values
        hi = _sliding_extreme(v, W, np.maximum)
        lo = _sliding_extreme(v, W, np.minimum)
        safe = 2.0 * m.grid_sup < math.inf
        osc = np.maximum(_quiet(safe, np.subtract, hi, v), _quiet(safe, np.subtract, v, lo))
        mask = osc >= eps
        B = MeasurableSet(m.box, m.spacing, mask)
        mu = B.measure()
        if not mu < eps:
            return EquicontinuityCertificate(
                eps, float(d), False,
                offender_index=idx,
                detail=f"|B_f| = {mu:.6g} >= {eps:.6g} for member {idx}",
            )
        sets.append(B)
        measures.append(mu)
    exceptional = ExceptionalSet(eps, family.indices, tuple(sets), tuple(measures))
    return EquicontinuityCertificate(eps, float(d), True, exceptional=exceptional)


def convergence_in_measure(
    seq: Iterable[GridFunction] | Sequence[GridFunction],
    limit: GridFunction,
    eps: float,
    tol: float,
    K: int | None = None,
    indices: Sequence[int] | None = None,
) -> ConvergenceReport:
    """Measure sequence m_k = |{|f_k - limit| > eps}| with verdict m_K < tol.

    Requires bounded supports; the "distances" field of the report holds
    the measures.  Finite-horizon diagnostic only, like alpha_converges.
    """
    if eps <= 0 or tol <= 0:
        raise GridError("eps and tol must be positive")
    return _horizon_report(
        seq, K, indices, 1.0, tol,
        lambda m: (difference_integral(m, limit, Threshold(eps)), ""),
        vet=lambda members: _require_bounded(members + [limit], "convergence in measure"),
    )


@dataclass(frozen=True, eq=False)
class CorollaryRow:
    """One (eps, delta) row of corollary_crosscheck.

    implication_b_observed equals cert_at_suite_passed by construction: a
    finite family always has a net at eps, so (b) is observed exactly when
    the certificate at (eps, delta) passes.  The field stays so the table's
    (b) column and the set of row fields (which digests of rows hash) keep
    their shape.
    """

    eps: float
    delta: float
    eps_tilde: float
    cert_passed: bool
    translation_passed: bool
    implication_a_observed: bool
    net_size: int
    cert_at_suite_passed: bool
    implication_b_observed: bool
    sym_diff_first_shift: float


@dataclass(frozen=True, eq=False)
class CorollaryReport:
    family: str
    E_measure: float
    rows: tuple[CorollaryRow, ...]

    def __str__(self) -> str:
        lines = [
            f"corollary crosscheck for {self.family!r} (|E| = {self.E_measure:g})",
            "  eps     delta   cert  translation  (a)    net  cert@suite  (b)",
        ]
        for r in self.rows:
            lines.append(
                f"  {r.eps:<7g} {r.delta:<7g} {str(r.cert_passed):<5} "
                f"{str(r.translation_passed):<12} {str(r.implication_a_observed):<6} "
                f"{r.net_size:<4d} {str(r.cert_at_suite_passed):<11} "
                f"{r.implication_b_observed}"
            )
        return "\n".join(lines)


def corollary_crosscheck(
    family: FamilySpec,
    eps_list: Sequence[float],
    delta_grid: Sequence[FractionLike],
    lattice: ShiftLattice | None = None,
) -> CorollaryReport:
    """Observe the two bounded-domain implications on this family.

    (a) an equicontinuity certificate at the scaled budget
        eps_tilde = eps / (3 + |E|) should force the translation condition
        at eps for shifts below min(delta, eps_tilde);
    (b) a covering net at eps exists (finite families always have one), so
        by the converse direction the certificate at (eps, delta) should
        pass — the oscillation construction may be too conservative for
        (b), which is why it is observed, not asserted.

    Fixed p = 1; requires bounded supports.
    """
    if family.p != 1.0:
        raise GridError("the bounded-domain crosscheck fixes p = 1")
    _require_bounded(family.members, "the bounded-domain crosscheck")
    lo = min(m.box[0][0] for m in family.members)
    hi = max(m.box[0][1] for m in family.members)
    E_measure = float(hi - lo)
    if lattice is None:
        lattice = ShiftLattice.default_for(family)

    sym = symmetric_difference_decay(family.members[0], [lattice.step])[0][1]
    rows = []
    for eps in eps_list:
        net_size = greedy_net(family, eps).size
        for delta in delta_grid:
            d = as_fraction(delta)
            eps_tilde = eps / (3.0 + E_measure)
            # passing at eps_tilde implies passing at eps, so a delta this
            # call rejects raises the same GridError at eps too
            cert_passed = almost_equicontinuity_certificate(family, eps_tilde, d).passed
            cap = min(float(d), eps_tilde)
            count = max(1, math.ceil(cap / float(lattice.step)) - 1)
            capped = ShiftLattice(lattice.step, min(lattice.count, count))
            trans = check_translation(family, eps, capped)
            cert_suite = almost_equicontinuity_certificate(family, eps, d)
            rows.append(
                CorollaryRow(
                    eps=float(eps),
                    delta=float(d),
                    eps_tilde=eps_tilde,
                    cert_passed=cert_passed,
                    translation_passed=trans.passed,
                    implication_a_observed=(not cert_passed) or trans.passed,
                    net_size=net_size,
                    cert_at_suite_passed=cert_suite.passed,
                    implication_b_observed=cert_suite.passed,
                    sym_diff_first_shift=sym,
                )
            )
    return CorollaryReport(family=family.name, E_measure=E_measure, rows=tuple(rows))


def symmetric_difference_decay(
    domain: GridFunction | MeasurableSet, shifts: Sequence[FractionLike]
) -> list[tuple[float, float]]:
    """|E symmetric-difference (E - y)| per shift, exactly, for the box E."""
    if isinstance(domain, GridFunction):
        E = MeasurableSet(
            domain.box, domain.spacing, np.ones(domain.counts, dtype=bool)
        )
    else:
        E = domain
    out = []
    for y in shifts:
        dy = as_fraction(y)
        moved = E.translate(dy)
        out.append((float(dy), E.symmetric_difference(moved).measure()))
    return out
