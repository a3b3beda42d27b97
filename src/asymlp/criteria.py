"""Finite-certificate checkers for the total-boundedness conditions.

Three conditions characterise totally bounded families in the clamped
metric: (i) small tails beyond some radius R, (ii) small translation
defects for shifts below some r, (iii) small superlevel measure above
some cut M.  The classical unclamped analogues of (i) and (ii) are
checked too, as a contrast diagnostic.

Everything here is a finite certificate; reports carry the family horizon
K and all scan bounds so a "pass" can be read at face value.  Tail radii
and level cuts come from one doubling-plus-bisection search (_search_up,
also used for the truncation lift's cut): its witness is a candidate whose
own all-member evaluation passed, and a pass detail reports that
evaluation.  Each candidate is one family pass of a quadrature kernel
(_outside_kernel or _level_kernel), or, for a family the kernels' batch
gate refuses, one per-member integrate_transformed or superlevel_measure
call per member.

Translation is scanned over a declared finite shift lattice, never over
all real shifts, in doubling blocks of magnitudes; each block is one call
of ``_family_profile`` for the whole family, one vectorized pass per
group of members of similar run counts.  A block that kernel refuses
takes the per-shift ``_defect`` of every member, in shift order, so a
shift that raises GridError is never reached once an earlier one
violates.  The tail and level kernels of a report share one build of
the family's runs (``FamilySpec``).

One helper, ``_worst``, picks the deciding worst member of every search
candidate and scanned shift, the lift's raised cut included, and
recounts it with the per-member public function (the per-shift sweep for
translation) whenever a kernel gave its value; any difference raises
GridError.  A value that already came from the per-member call is not
computed twice, and the scan's ``rechecks`` counts only the recounts
that ran.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .families import FamilySpec
from .grid import GridError, GridFunction
from .norms import lp_norm
from .quadrature import (
    AbsPower,
    ClampPower,
    Outside,
    Transform,
    _defect,
    _family_profile,
    _level_kernel,
    _outside_kernel,
    _tail_from,
    integrate_transformed,
    superlevel_measure,
)

__all__ = [
    "ShiftLattice",
    "ConditionOutcome",
    "ConditionReport",
    "check_tail",
    "check_translation",
    "check_level",
    "check_kr_lp",
    "full_report",
]

_BISECT_STEPS = 8
ALPHA_CONDITIONS = ("tail", "translation", "level")
LP_CONDITIONS = ("lp-tail", "lp-translation")


@dataclass(frozen=True)
class ShiftLattice:
    """Finite symmetric set of shifts: +step*j and -step*j for j = 1..count."""

    step: Fraction
    count: int = 16

    def __post_init__(self):
        if self.step <= 0:
            raise GridError("shift lattice step must be positive")
        if self.count < 1:
            raise GridError("shift lattice needs at least one shift")
        object.__setattr__(self, "step", Fraction(self.step))
        object.__setattr__(self, "count", int(self.count))

    @classmethod
    def default_for(cls, family: FamilySpec) -> "ShiftLattice":
        return cls(step=family.min_spacing(), count=16)

    def magnitudes(self) -> list[Fraction]:
        return [self.step * j for j in range(1, self.count + 1)]

    def shifts(self) -> list[Fraction]:
        out: list[Fraction] = []
        for m in self.magnitudes():
            out.extend((m, -m))
        return out

    def describe(self) -> dict:
        return {"step": str(self.step), "count": self.count, "signed": True}


@dataclass(frozen=True)
class ConditionOutcome:
    """Verdict for one condition at one eps, with witness or offender."""

    condition: str
    eps: float
    verdict: str  # "pass" | "fail" | "rejected"
    witness: float | None = None
    offender_index: int | None = None
    offending_value: float | None = None
    offending_shift: float | None = None
    detail: str = ""
    scan: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def __str__(self) -> str:
        head = f"{self.condition:<14} eps={self.eps:<6g} {self.verdict}"
        if self.verdict == "pass" and self.witness is not None:
            return f"{head} (witness {self.witness:.6g})"
        if self.verdict == "fail" and self.offender_index is not None:
            shift = (
                f" at shift {self.offending_shift:.6g}"
                if self.offending_shift is not None
                else ""
            )
            return (
                f"{head} (member {self.offender_index}: "
                f"{self.offending_value:.6g}{shift})"
            )
        return f"{head} ({self.detail})" if self.detail else head


@dataclass(frozen=True)
class ConditionReport:
    """All requested conditions for one family at each requested eps."""

    family: str
    p: float
    K: int
    entries: tuple[ConditionOutcome, ...]

    def entry(self, condition: str, eps: float) -> ConditionOutcome:
        for e in self.entries:
            if e.condition == condition and e.eps == eps:
                return e
        raise KeyError(f"no entry for {condition} at eps={eps}")

    @property
    def candidate_totally_bounded(self) -> bool:
        """True when conditions (i)-(iii) pass for every requested eps."""
        alpha = [e for e in self.entries if e.condition in ALPHA_CONDITIONS]
        return bool(alpha) and all(e.passed for e in alpha)

    def __str__(self) -> str:
        lines = [f"family {self.family!r} (K={self.K}, p={self.p:g})"]
        lines += [f"  {e}" for e in self.entries]
        lines.append(
            "  candidate totally bounded: "
            + ("yes" if self.candidate_totally_bounded else "no")
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# witness search plumbing
# ---------------------------------------------------------------------------

def _worst(family: FamilySpec, cand, single: Callable, values: list[float] | None = None):
    """The largest member value at cand and the position of its first occurrence.

    values, when given, come from a batched kernel: the worst of them is
    then recounted with single(member, cand), the per-member public
    function, and any difference raises GridError.  The two share neither
    merge nor grouping (``_group_fsums`` or one ``reduceat`` against
    ``_group_exact``), so a fault in either one at the deciding member
    shows as a mismatch; the members below the worst are not recounted,
    so a fault that makes another member read low goes unseen.
    values is None when the kernel's batch gate refused the family or
    block: every member then makes the per-member call and nothing is
    recounted, since a second call would only repeat the first.
    """
    recount = values is not None
    if values is None:
        values = [single(m, cand) for m in family.members]
    worst, pos = -math.inf, 0
    for i, v in enumerate(values):
        if v > worst:
            worst, pos = v, i
    if recount:
        again = single(family.members[pos], cand)
        if again != worst:
            raise GridError(
                f"candidate {float(cand):.6g}: member {family.indices[pos]} recounts "
                f"to {again!r}, the kernel gave {worst!r}"
            )
    return worst, pos


def _search_up(
    family: FamilySpec,
    kernel: Callable[[float], list[float]] | None,
    single: Callable[[GridFunction, float], float],
    threshold: float,
    first: float,
    bound: float,
    floor: float | None = None,
):
    """Doubling candidates first, 2*first, ... <= bound; bisect after a pass.

    kernel(cand) gives every member's value at cand in one family pass;
    a kernel of None, for a family the batch gate of ``_family_runs``
    refused, takes single per member with no recount, as the translation
    scan does for a block ``_family_profile`` refuses.  The bisection
    runs from the last failing candidate, or from floor when the first
    candidate already passes (no bisection when floor is None), up to the
    passing one.  Returns (witness or None, worst value at the witness,
    last_fail, evals) where last_fail is (candidate, worst value, worst
    position).  The witness always passed its own all-member evaluation,
    and every candidate's worst member is recounted as ``_worst`` says.
    """

    def worst_at(cand: float) -> tuple[float, int]:
        return _worst(family, cand, single, None if kernel is None else kernel(cand))

    evals = 0
    cand = first
    last_fail = None
    while cand <= bound * (1.0 + 1e-12):
        worst, pos = worst_at(cand)
        evals += 1
        if worst < threshold:
            lo = last_fail[0] if last_fail is not None else floor
            hi = cand
            if lo is not None:
                for _ in range(_BISECT_STEPS):
                    mid = 0.5 * (lo + hi)
                    w, p = worst_at(mid)
                    evals += 1
                    if w < threshold:
                        hi, worst, pos = mid, w, p
                    else:
                        lo = mid
            return hi, worst, last_fail, evals
        last_fail = (cand, worst, pos)
        cand *= 2.0
    return None, None, last_fail, evals


def _search_condition(
    family: FamilySpec,
    condition: str,
    eps: float,
    kernel: Callable[[float], list[float]] | None,
    single: Callable[[GridFunction, float], float],
    threshold: float,
    first: float,
    bound: float,
    words: tuple[str, str, str, str],
) -> ConditionOutcome:
    """Pass/fail outcome of one witness search.

    words names, for the details: the searched quantity, its symbol, the
    measured value and the pass label, e.g. ("cut", "M", "measure",
    "worst superlevel measure").
    """
    witness, worst, last_fail, evals = _search_up(
        family, kernel, single, threshold, first, bound
    )
    scan = {
        "kind": "doubling+bisect",
        "from": first,
        "to": bound,
        "evaluations": evals,
        "threshold": threshold,
    }
    noun, symbol, quantity, label = words
    if witness is None:
        cand, worst, pos = last_fail if last_fail else (bound, math.inf, 0)
        return ConditionOutcome(
            condition, eps, "fail",
            offender_index=family.indices[pos], offending_value=worst,
            detail=f"no {noun} up to {bound:.6g} works; {quantity} at {symbol}={cand:.6g}",
            scan=scan,
        )
    return ConditionOutcome(
        condition, eps, "pass", witness=witness,
        detail=f"{label} {worst:.6g} < {threshold:.6g}",
        scan=scan,
    )


def _tail_horizon(family: FamilySpec, threshold: float, transform: Transform) -> float:
    """Radius beyond which every live tail alone stays under the threshold."""
    live = [m.tail for m in family.members if not m.tail.is_zero]
    if not live:
        return 0.0
    X = 1.0
    for _ in range(60):
        if max(_tail_from(t, transform, X) for t in live) < threshold:
            return X
        X *= 2.0
    raise GridError("tail horizon search did not terminate; tails too heavy")


def _tail_condition(
    family: FamilySpec, eps: float, transform: Transform, condition: str
) -> ConditionOutcome:
    if eps <= 0:
        raise GridError("eps must be positive")
    threshold = eps**family.p
    first = float(family.min_spacing())
    bound = float(family.max_box_radius()) + _tail_horizon(family, threshold, transform)

    def single(m: GridFunction, R: float) -> float:
        return integrate_transformed(m, transform, Outside(R))

    return _search_condition(
        family, condition, eps,
        _outside_kernel(family.members, transform, family._kernel_runs), single,
        threshold, first, bound,
        ("radius", "R", "value", "worst member integral"),
    )


def check_tail(family: FamilySpec, eps: float) -> ConditionOutcome:
    """Condition (i): clamp integral beyond radius R below eps**p, all members."""
    return _tail_condition(family, eps, ClampPower(family.p), "tail")


def check_level(family: FamilySpec, eps: float) -> ConditionOutcome:
    """Condition (iii): measure of {|f| > M} below eps for some scanned M."""
    if eps <= 0:
        raise GridError("eps must be positive")
    return _search_condition(
        family, "level", eps,
        _level_kernel(family.members, family._kernel_runs), superlevel_measure,
        eps, 1.0, family.sup_abs() + 1.0,
        ("cut", "M", "measure", "worst superlevel measure"),
    )


def _shift_blocks(lattice: ShiftLattice) -> list[list[Fraction]]:
    """Signed shifts +m, -m in blocks of 1, 3, 4, 8, 16, ...

    A family that fails at its first shift pays for that one shift, not
    for the whole lattice; 16 magnitudes still take five blocks.
    """
    shifts = lattice.shifts()
    blocks, lo, hi = [], 0, 1
    while lo < len(shifts):
        blocks.append(shifts[lo:hi])
        lo, hi = hi, max(4, 2 * hi)
    return blocks


def _translation_condition(
    family: FamilySpec,
    eps: float,
    lattice: ShiftLattice,
    transform: Transform,
    condition: str,
) -> ConditionOutcome:
    if eps <= 0:
        raise GridError("eps must be positive")
    threshold = eps**family.p
    certified = any(not m.tail.is_zero for m in family.members)
    scan = {
        "kind": "lattice-prefix",
        "lattice": lattice.describe(),
        "threshold": threshold,
        "certified_upper_bounds": certified,
    }

    def single(m: GridFunction, y: Fraction) -> float:
        return _defect(m, y, transform)

    scanned = rechecks = 0
    violation = None  # (magnitude, signed shift, worst, idx)
    for block in _shift_blocks(lattice):
        rows = _family_profile(family.members, block, transform)
        for j, y in enumerate(block):
            # the worst member at every shift the kernel answered, the
            # offender included, is recounted on the per-shift sweep
            values = None if rows is None else [row[j] for row in rows]
            worst, pos = _worst(family, y, single, values)
            scanned += 1
            rechecks += rows is not None
            if not worst < threshold:
                violation = (abs(y), y, worst, family.indices[pos])
                break
        if violation is not None:
            break
    scan["evaluations"], scan["rechecks"] = scanned, rechecks

    if violation is not None and violation[0] == lattice.step:
        mag, y, worst, idx = violation
        return ConditionOutcome(
            condition, eps, "fail",
            offender_index=idx, offending_value=worst,
            offending_shift=float(y),
            detail="smallest scanned shift already violates"
            + (" (certified upper bound)" if certified else ""),
            scan=scan,
        )
    if violation is not None:
        mag, y, worst, idx = violation
        return ConditionOutcome(
            condition, eps, "pass", witness=float(mag),
            detail=(
                f"all scanned |y| < {float(mag):.6g} satisfy the bound; "
                f"first violation at y={float(y):.6g} (member {idx}, {worst:.6g})"
            ),
            scan=scan,
        )
    r = lattice.magnitudes()[-1] + lattice.step
    return ConditionOutcome(
        condition, eps, "pass", witness=float(r),
        detail="every scanned shift satisfies the bound",
        scan=scan,
    )


def check_translation(
    family: FamilySpec, eps: float, lattice: ShiftLattice | None = None
) -> ConditionOutcome:
    """Condition (ii): clamp defect below eps**p for all scanned shifts |y| < r.

    Zero-tail members are integrated exactly for every rational shift;
    live-tail members contribute a certified upper bound (exact grid part
    plus onset-strip and tail-difference bounds).
    """
    if lattice is None:
        lattice = ShiftLattice.default_for(family)
    return _translation_condition(
        family, eps, lattice, ClampPower(family.p), "translation"
    )


def check_kr_lp(
    family: FamilySpec, eps: float, lattice: ShiftLattice | None = None
) -> tuple[ConditionOutcome, ConditionOutcome]:
    """Classical unclamped analogues (lp-tail, lp-translation).

    Families containing a member with infinite p-norm are out of scope for
    the classical conditions and yield "rejected" entries naming it.
    """
    if lattice is None:
        lattice = ShiftLattice.default_for(family)
    p = family.p
    infinite = [
        idx
        for idx, m in zip(family.indices, family.members)
        if lp_norm(m, p) == math.inf
    ]
    if infinite:
        detail = f"members with infinite p-norm: {infinite}"
        scan = {"kind": "rejected"}
        return (
            ConditionOutcome("lp-tail", eps, "rejected", detail=detail, scan=scan),
            ConditionOutcome("lp-translation", eps, "rejected", detail=detail, scan=scan),
        )
    tail = _tail_condition(family, eps, AbsPower(p), "lp-tail")
    trans = _translation_condition(family, eps, lattice, AbsPower(p), "lp-translation")
    return tail, trans


def full_report(
    family: FamilySpec,
    eps_list: list[float] | tuple[float, ...],
    lattice: ShiftLattice | None = None,
    include_lp: bool = True,
) -> ConditionReport:
    """All condition checks for each eps, aggregated deterministically."""
    if not eps_list:
        raise GridError("at least one eps required")
    if lattice is None:
        lattice = ShiftLattice.default_for(family)
    entries: list[ConditionOutcome] = []
    for eps in eps_list:
        entries.append(check_tail(family, eps))
        entries.append(check_translation(family, eps, lattice))
        entries.append(check_level(family, eps))
        if include_lp:
            entries.extend(check_kr_lp(family, eps, lattice))
    return ConditionReport(
        family=family.name,
        p=family.p,
        K=max(family.indices),
        entries=tuple(entries),
    )
