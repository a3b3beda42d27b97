"""Covering nets in the clamped metric: greedy construction and certification.

A net is a finite set of member-centred balls of radius eps covering the
family.  greedy_net picks the lowest-index uncovered member as the next
center, so outputs are deterministic.  truncation_lift_net follows the
constructive route through a level cut: members are truncated at a cut M
whose superlevel measure is below (eta/2)**p, an unclamped (eta/2)-net is
built on the truncated family, and the triangle inequality lifts it to an
eta-net for the originals in the clamped metric — re-verified directly.
The cut comes from the witness search of criteria (doubling from 2, then
bisection down towards 1), one family pass of the level kernel per
candidate; when it lies below the largest power-law tail sup it is raised
to that sup, since truncate refuses to cut into a tail.  Every cut tried,
the raised one included, goes through criteria's ``_worst``, which
recounts the worst member with superlevel_measure when the kernel gave
its value.

Every first-fit loop (greedy_net, covering_profile and the lift) runs
through one core that skips a candidate center when an exact lower bound
on the distance already rules out a hit.  With I(m) the integral of T(m)
(T = ClampPower(p) for the clamped metric, AbsPower(p) for the lift's
p-metric), cached once per member, and N(m) = I(m)**(1/p):

* a pair is eligible only when both members are 1-d, have equal tails
  and finite I; every other pair gets the full distance call, so its
  errors (distinct tails, 2-d grids, divergent integrals) are unchanged;
* with zero tails and disjoint boxes (touching counts as disjoint) the
  supports do not overlap, so d**p = I(m) + I(c) and lb = that**(1/p);
  otherwise the triangle inequality gives lb = |N(m) - N(c)|;
* the pair is skipped only when lb - eps > 1e-12 * (N(m) + N(c) + eps),
  a margin that scales with the norms because the subtraction in the
  triangle bound loses absolute precision in proportion to them.

Hits, and so every recorded distance, still come from the full call:
centers, assignments, distances and profiles are those of the plain
first-fit loop, bit for bit.  One behaviour differs: a skipped pair never
builds a common lattice, so a pair whose lattice would reach 2**62 (where
the distance call raises GridError) gets a certified miss when its bound
rules it out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .criteria import _search_up, _worst
from .families import FamilySpec
from .grid import GridError, GridFunction
from .norms import alpha_distance, lp_distance
from .operators import truncate
from .quadrature import (
    AbsPower,
    ClampPower,
    Transform,
    _level_kernel,
    integrate_transformed,
    superlevel_measure,
)

__all__ = [
    "EpsNet",
    "CoveringCheck",
    "LevelConditionError",
    "pairwise_distances",
    "greedy_net",
    "verify_covering",
    "covering_profile",
    "truncation_lift_net",
]


class LevelConditionError(GridError):
    """The level condition fails at the requested budget; carries the offender."""

    def __init__(self, message: str, offender_index: int, offending_value: float):
        super().__init__(message)
        self.offender_index = offender_index
        self.offending_value = offending_value


@dataclass(frozen=True, eq=False)
class EpsNet:
    """Covering certificate: centers, assignment, and the realised radii.

    centers[j] is a grid function (a family member for the greedy method,
    a truncated member for the lift); center_indices[j] is the family
    index it came from.  assignment[i] is the center position covering
    member i, distances[i] the recomputed clamped distance.  extras holds
    the first-fit counts distances_computed and distances_pruned; the lift
    adds its level cut M, the budget, the worst superlevel measure at M and
    the number of cut-search evaluations (level_evaluations).
    """

    eps: float
    p: float
    method: str
    center_indices: tuple[int, ...]
    centers: tuple[GridFunction, ...]
    assignment: tuple[int, ...]
    distances: tuple[float, ...]
    max_assigned_distance: float
    extras: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.centers)

    def __str__(self) -> str:
        return (
            f"{self.method} net: {self.size} centers at eps={self.eps:g} "
            f"(max assigned distance {self.max_assigned_distance:.6g})"
        )


@dataclass(frozen=True)
class CoveringCheck:
    passed: bool
    max_distance: float
    slack: float
    failures: tuple[tuple[int, float], ...]

    def __str__(self) -> str:
        if self.passed:
            return f"covering verified (slack {self.slack:.6g})"
        worst = ", ".join(f"member {i}: {d:.6g}" for i, d in self.failures[:3])
        return f"covering FAILED ({worst})"


def pairwise_distances(family: FamilySpec) -> np.ndarray:
    """Symmetric matrix of clamped distances between members."""
    n = len(family.members)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = alpha_distance(family.members[i], family.members[j], family.p)
            out[i, j] = out[j, i] = d
    return out


def _disjoint(x: tuple, y: tuple) -> bool:
    """Whether two intervals (lo, hi, float lo, float hi) meet in at most a point.

    Rounding to float is monotone, so the floats decide every comparison
    they do not tie; ties fall back to the exact Fractions.
    """
    a, b, fa, fb = x
    s, t, fs, ft = y
    return fb < fs or (fb == fs and b <= s) or ft < fa or (ft == fa and t <= a)


class _FirstFit:
    """Streaming first-fit cover against centers in creation order.

    place(m) compares m with each center in turn and stops at the first
    distance below eps; a center whose exact lower bound (see the module
    docstring) already exceeds eps is skipped without a distance call.
    """

    def __init__(
        self,
        eps: float,
        p: float,
        transform: Transform,
        metric: Callable[[GridFunction, GridFunction], float],
    ):
        self.eps = eps
        self.p = p
        self.transform = transform
        self.metric = metric
        self.centers: list[GridFunction] = []
        self._keys: list[tuple | None] = []
        self.computed = 0
        self.pruned = 0

    def _key(self, m: GridFunction) -> tuple | None:
        """(I(m), N(m), tail, box interval), or None when m is never skipped."""
        if m.dim != 1:
            return None
        (lo, hi), = m.box
        try:
            total = integrate_transformed(m, self.transform)
            box = (lo, hi, float(lo), float(hi))
        except GridError:
            return None  # the full call decides, as it would without bounds
        if not math.isfinite(total):
            return None
        return total, total ** (1.0 / self.p), m.tail, box

    def _far(self, mk: tuple | None, ck: tuple | None) -> bool:
        if mk is None or ck is None:
            return False
        im, nm, tail, box_m = mk
        ic, nc, tail_c, box_c = ck
        if tail is not tail_c and tail != tail_c:
            return False
        if tail.is_zero and _disjoint(box_m, box_c):
            lb = (im + ic) ** (1.0 / self.p)
        else:
            lb = abs(nm - nc)
        return lb - self.eps > 1e-12 * (nm + nc + self.eps)

    def place(self, m: GridFunction) -> tuple[int, float]:
        """Position of the center covering m and their distance (0.0 for a new center)."""
        mk = self._key(m)
        for j, (c, ck) in enumerate(zip(self.centers, self._keys)):
            if self._far(mk, ck):
                self.pruned += 1
                continue
            self.computed += 1
            d = self.metric(m, c)
            if d < self.eps:
                return j, d
        self.centers.append(m)
        self._keys.append(mk)
        return len(self.centers) - 1, 0.0

    def counts(self) -> dict:
        return {"distances_computed": self.computed, "distances_pruned": self.pruned}


def _greedy(members: Iterable[GridFunction], fit: _FirstFit):
    """Greedy cover of a finite family: center positions, assignment, distances."""
    center_pos: list[int] = []
    assignment: list[int] = []
    distances: list[float] = []
    for pos, m in enumerate(members):
        j, d = fit.place(m)
        if j == len(center_pos):
            center_pos.append(pos)
        assignment.append(j)
        distances.append(d)
    return center_pos, assignment, distances


def _clamped_fit(family: FamilySpec, eps: float) -> _FirstFit:
    p = family.p
    return _FirstFit(eps, p, ClampPower(p), lambda a, b: alpha_distance(a, b, p))


def greedy_net(family: FamilySpec, eps: float) -> EpsNet:
    """Deterministic lowest-index-first greedy eps-net under the clamped metric."""
    if eps <= 0:
        raise GridError("eps must be positive")
    fit = _clamped_fit(family, eps)
    center_pos, assignment, distances = _greedy(family.members, fit)
    return EpsNet(
        eps=float(eps),
        p=family.p,
        method="greedy",
        center_indices=tuple(family.indices[pos] for pos in center_pos),
        centers=tuple(fit.centers),
        assignment=tuple(assignment),
        distances=tuple(distances),
        max_assigned_distance=max(distances),
        extras=fit.counts(),
    )


def verify_covering(family: FamilySpec, net: EpsNet) -> CoveringCheck:
    """Recompute every assigned clamped distance from scratch; strict radii."""
    n = len(family.members)
    if len(net.assignment) != n:
        raise GridError(
            f"net assigns {len(net.assignment)} members, family has {n}"
        )
    if any(not (0 <= j < net.size) for j in net.assignment):
        raise GridError("net assignment refers to a missing center")
    failures = []
    worst = 0.0
    for i, m in enumerate(family.members):
        d = alpha_distance(m, net.centers[net.assignment[i]], family.p)
        worst = max(worst, d)
        if not d < net.eps:
            failures.append((family.indices[i], d))
    return CoveringCheck(
        passed=not failures,
        max_distance=worst,
        slack=net.eps - worst,
        failures=tuple(failures),
    )


def covering_profile(
    family: FamilySpec, eps: float, K_list: Iterable[int]
) -> list[int]:
    """Greedy net sizes N(eps, K) over the first K members, streamed.

    Generator-backed families are streamed one member at a time, so the
    profile can run far beyond the materialised prefix while only the
    current centers stay in memory.
    """
    Ks = sorted(set(int(K) for K in K_list))
    if not Ks or Ks[0] < 1:
        raise GridError("profile horizons must be positive")
    fit = _clamped_fit(family, eps)
    sizes: dict[int, int] = {}
    targets = iter(Ks)
    target = next(targets)
    k = 0
    while True:
        k += 1
        if family.generator is not None:
            m = family.generator(k)
        else:
            if k > len(family.members):
                raise GridError(
                    f"profile horizon {target} exceeds the materialised family"
                )
            m = family.members[k - 1]
        fit.place(m)
        if k == target:
            sizes[target] = len(fit.centers)
            nxt = next(targets, None)
            if nxt is None:
                break
            target = nxt
    return [sizes[K] for K in Ks]


def _find_level_cut(family: FamilySpec, budget: float) -> tuple[float, float, int]:
    """Level cut M > 1 with every superlevel measure below the budget.

    Returns (M, worst superlevel measure at M, evaluations).  A cut below
    the largest tail sup is raised to it: truncate keeps a power-law tail
    only under a cut that dominates it, and a higher cut only shrinks the
    superlevel sets.
    """
    level = _level_kernel(family.members, family._kernel_runs)
    M, worst, last_fail, evals = _search_up(
        family, level, superlevel_measure, budget, 2.0, max(family.sup_abs() + 1.0, 2.0),
        floor=1.0,
    )
    if M is None:
        _, worst, pos = last_fail
        idx = family.indices[pos]
        raise LevelConditionError(
            f"family violates the level condition at budget {budget:.6g}: "
            f"member {idx} has superlevel measure {worst:.6g} at the largest "
            f"scanned cut",
            offender_index=idx,
            offending_value=worst,
        )
    tail_sup = max(m.tail.sup() for m in family.members)
    if M < tail_sup:
        M = tail_sup
        worst, _ = _worst(family, M, superlevel_measure, None if level is None else level(M))
        evals += 1
    return M, worst, evals


def truncation_lift_net(family: FamilySpec, eta: float) -> EpsNet:
    """Constructive eta-net via truncation at a level cut.

    (1) find M > 1 with |{|f| > M}| < (eta/2)**p for every member, and
        at least every member's tail sup;
    (2) truncate every member at M — the clamped distance to the original
        is then below eta/2, since the difference lives on the superlevel set;
    (3) build a greedy (eta/2)-net on the truncated family in the
        unclamped p-metric, which dominates the clamped one;
    (4) the truncated centers form an eta-net for the originals, re-verified
        here in the clamped metric member by member.
    """
    if eta <= 0:
        raise GridError("eta must be positive")
    p = family.p
    budget = (eta / 2.0) ** p
    M, worst_level, level_evals = _find_level_cut(family, budget)
    truncated = [truncate(m, M) for m in family.members]
    fit = _FirstFit(eta / 2.0, p, AbsPower(p), lambda a, b: lp_distance(a, b, p))
    center_pos, assignment, _ = _greedy(truncated, fit)
    centers = fit.centers

    distances = [
        alpha_distance(m, centers[assignment[i]], p)
        for i, m in enumerate(family.members)
    ]
    worst = max(distances)
    if not worst < eta:
        raise GridError(
            f"lifted net failed re-verification: distance {worst:.6g} >= {eta:.6g}"
        )
    return EpsNet(
        eps=float(eta),
        p=p,
        method="truncation-lift",
        center_indices=tuple(family.indices[pos] for pos in center_pos),
        centers=tuple(centers),
        assignment=tuple(assignment),
        distances=tuple(distances),
        max_assigned_distance=worst,
        extras={
            "M": M,
            "level_budget": budget,
            "worst_level_measure": worst_level,
            "level_evaluations": level_evals,
            **fit.counts(),
        },
    )
