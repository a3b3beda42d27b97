"""Exact integration of transformed grid functions.

Every integral here is a finite sum T(value) * measure over maximal
constancy intervals, plus closed-form contributions from power-law tails.
Interval measures are accumulated as exact integers on a common rational
lattice and converted to float once per distinct transformed value, so
results carry a single rounding per value group.

That conversion is one IEEE division when the lattice scale and every
grouped integer sum are below 2**53: both are then exact doubles and the
quotient is correctly rounded, the same float ``Fraction`` gives.  Larger
inputs take the ``Fraction`` route.  Lattice edges are checked in Python
integers before any int64 arithmetic; geometry whose edges reach 2**62
raises GridError instead of wrapping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .grid import (
    FractionLike,
    GridError,
    GridFunction,
    IncompatibleGridsError,
    MeasurableSet,
    TailSpec,
    as_fraction,
)

__all__ = [
    "AbsPower",
    "ClampPower",
    "Threshold",
    "Outside",
    "Window",
    "integrate_transformed",
    "difference_integral",
    "translation_defect",
    "translation_defect_bounds",
    "superlevel_measure",
    "superlevel_set",
]

_INT_GUARD = 2**62
_EXACT_INT = 2**53  # integers below this are exact doubles


# ---------------------------------------------------------------------------
# transform and region catalogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsPower:
    """t -> |t|**p."""
    p: float


@dataclass(frozen=True)
class ClampPower:
    """t -> min(|t|, 1)**p."""
    p: float


@dataclass(frozen=True)
class Threshold:
    """t -> 1 if |t| > level else 0 (strict)."""
    level: float


Transform = Union[AbsPower, ClampPower, Threshold]


@dataclass(frozen=True)
class Outside:
    """The region |x| > radius (sup-norm in two dimensions)."""
    radius: float


@dataclass(frozen=True)
class Window:
    """The axis-aligned region lo <= x < hi; None means unbounded on that side."""
    lo: FractionLike | None
    hi: FractionLike | None


Region = Union[None, Outside, Window]


def _apply(transform: Transform, v: np.ndarray) -> np.ndarray:
    a = np.abs(v)
    if isinstance(transform, AbsPower):
        return a if transform.p == 1.0 else a**transform.p
    if isinstance(transform, ClampPower):
        c = np.minimum(a, 1.0)
        return c if transform.p == 1.0 else c**transform.p
    if isinstance(transform, Threshold):
        return (a > transform.level).astype(np.float64)
    raise GridError(f"unknown transform {transform!r}")


def _cap(transform: Transform, sup_abs: float) -> float:
    """Pointwise upper bound of the transformed value given |f| <= sup_abs."""
    if isinstance(transform, AbsPower):
        return sup_abs**transform.p
    if isinstance(transform, ClampPower):
        return min(sup_abs, 1.0) ** transform.p
    return 1.0


# ---------------------------------------------------------------------------
# rational lattice plumbing (one dimension)
# ---------------------------------------------------------------------------

def _scale_for(*fracs: Fraction) -> int:
    return math.lcm(*(fr.denominator for fr in fracs))


def _check_guard(n: int) -> int:
    if abs(n) >= _INT_GUARD:
        raise GridError("rational geometry too fine for the integer lattice")
    return n


def _lattice(x: Fraction, scale: int) -> int:
    """x * scale as a guarded integer; x must lie on the lattice 1/scale."""
    q, r = divmod(scale, x.denominator)
    if r:
        raise GridError("coordinate is off the common lattice")
    return _check_guard(x.numerator * q)


class _PW:
    """Run-compressed piecewise-constant data on an integer lattice.

    Represents the grid part only: value 0 outside [edges[0], edges[-1]].
    """

    __slots__ = ("edges", "values")

    def __init__(self, edges: np.ndarray, values: np.ndarray):
        self.edges = edges
        self.values = values

    def lookup(self, left_edges: np.ndarray) -> np.ndarray:
        # one value per searchsorted slot: 0 before the first edge and from
        # the last one on
        padded = np.concatenate(([0.0], self.values, [0.0]))
        return padded[self.edges.searchsorted(left_edges, side="right")]


def _pw_of(f: GridFunction, scale: int, shift: Fraction = Fraction(0)) -> _PW:
    (a, _), = f.box
    e0 = _lattice(a + shift if shift else a, scale)
    step = _lattice(f.spacing[0], scale)
    bounds, run_values = f.runs
    # edges run monotonically from e0 to the last one: with both ends
    # guarded, the int64 arithmetic below cannot wrap
    _check_guard(e0 + step * int(bounds[-1]))
    return _PW(e0 + step * bounds, run_values)


def _merge(p: _PW, q: _PW):
    """Common partition; returns (left_edges, lengths, v_p, v_q)."""
    edges = np.unique(np.concatenate((p.edges, q.edges)))
    left = edges[:-1]
    lengths = edges[1:] - left
    return left, lengths, p.lookup(left), q.lookup(left)


def _group_exact(tvals: np.ndarray, int_lengths: np.ndarray, scale: int) -> float:
    """Sum T * measure with integer measures grouped per distinct T."""
    keep = (tvals != 0.0) & (int_lengths > 0)
    if not keep.any():
        return 0.0
    tv = tvals[keep]
    ln = int_lengths[keep]
    order = np.argsort(tv, kind="stable")
    tv = tv[order]
    ln = ln[order]
    cuts = np.concatenate(([0], np.flatnonzero(tv[1:] != tv[:-1]) + 1))
    return _fsum_groups(tv[cuts], np.add.reduceat(ln, cuts), 1, scale)


def _fsum_groups(values: np.ndarray, counts: np.ndarray, num: int, den: int) -> float:
    """fsum of values[i] * (counts[i] * num / den), one rounding per group.

    counts are non-negative integers and num, den positive.  Below 2**53
    the product and the denominator are exact doubles, so a single float
    division gives the correctly rounded quotient; otherwise Fraction does.
    """
    if den < _EXACT_INT and int(counts.max()) * num < _EXACT_INT:
        return math.fsum((counts * num / den * values).tolist())
    return math.fsum(
        float(Fraction(int(c) * num, den)) * float(v) for v, c in zip(values, counts)
    )


def _reduce_region(
    tvals: np.ndarray,
    left: np.ndarray,
    lengths: np.ndarray,
    scale: int,
    region: Region,
) -> float:
    """Reduce a transformed partition to a number under an optional region."""
    if region is None:
        return _group_exact(tvals, lengths, scale)

    if isinstance(region, Window):
        lo = None if region.lo is None else _lattice(as_fraction(region.lo), scale)
        hi = None if region.hi is None else _lattice(as_fraction(region.hi), scale)
        l = left.copy()
        r = left + lengths
        if lo is not None:
            l = np.maximum(l, lo)
        if hi is not None:
            r = np.minimum(r, hi)
        clipped = np.maximum(r - l, 0)
        return _group_exact(tvals, clipped, scale)

    if isinstance(region, Outside):
        R = float(region.radius)
        fl = left.astype(np.float64) / scale
        fr = (left + lengths).astype(np.float64) / scale
        inside = np.clip(np.minimum(fr, R) - np.maximum(fl, -R), 0.0, None)
        full = lengths.astype(np.float64) / scale
        fully_out = inside == 0.0
        exact = _group_exact(np.where(fully_out, tvals, 0.0), lengths, scale)
        partial = ~fully_out & (inside < full)
        correction = math.fsum(
            (full[i] - float(inside[i])) * float(tvals[i])
            for i in np.flatnonzero(partial)
            if tvals[i] != 0.0
        )
        return exact + correction

    raise GridError(f"unknown region {region!r}")


# ---------------------------------------------------------------------------
# tail contributions
# ---------------------------------------------------------------------------

def _tail_from(tail: TailSpec, transform: Transform, start: float | None) -> float:
    if tail.is_zero:
        return 0.0
    if isinstance(transform, AbsPower):
        return tail.abs_power_integral(transform.p, start)
    if isinstance(transform, ClampPower):
        return tail.clamp_power_integral(transform.p, start)
    if isinstance(transform, Threshold):
        if transform.level < 0.0:
            return math.inf
        if transform.level == 0.0:
            return math.inf if tail.coefficient > 0.0 else 0.0
        return tail.superlevel_length(transform.level, start)
    raise GridError(f"unknown transform {transform!r}")


def _abs_power_between(c: float, alpha: float, p: float, lo: float, hi: float) -> float:
    if hi <= lo or c == 0.0:
        return 0.0
    ap = alpha * p
    if ap == 1.0:
        return c**p * math.log(hi / lo)
    return c**p * (hi ** (1.0 - ap) - lo ** (1.0 - ap)) / (1.0 - ap)


def _tail_between(tail: TailSpec, transform: Transform, lo: float, hi: float) -> float:
    """Tail contribution over the window (lo, hi)."""
    if tail.is_zero:
        return 0.0
    lo = max(lo, float(tail.onset))
    if hi <= lo:
        return 0.0
    c, a = tail.coefficient, tail.exponent
    if isinstance(transform, AbsPower):
        return _abs_power_between(c, a, transform.p, lo, hi)
    if isinstance(transform, ClampPower):
        sat = c ** (1.0 / a)
        flat = max(0.0, min(hi, sat) - lo)
        lo2 = max(lo, sat)
        return flat + _abs_power_between(c, a, transform.p, lo2, max(hi, lo2))
    if isinstance(transform, Threshold):
        if transform.level < 0.0:
            return math.inf
        if transform.level == 0.0:
            return (hi - lo) if c > 0.0 else 0.0
        cut = (c / transform.level) ** (1.0 / a)
        return max(0.0, min(hi, cut) - lo)
    raise GridError(f"unknown transform {transform!r}")


def _tail_part(tail: TailSpec, transform: Transform, region: Region) -> float:
    if tail.is_zero:
        return 0.0
    if region is None:
        return _tail_from(tail, transform, None)
    if isinstance(region, Outside):
        return _tail_from(tail, transform, max(float(tail.onset), region.radius))
    if isinstance(region, Window):
        if region.hi is None:
            start = None if region.lo is None else float(as_fraction(region.lo))
            return _tail_from(tail, transform, start)
        lo = -math.inf if region.lo is None else float(as_fraction(region.lo))
        return _tail_between(tail, transform, lo, float(as_fraction(region.hi)))
    raise GridError(f"unknown region {region!r}")


# ---------------------------------------------------------------------------
# public integrals
# ---------------------------------------------------------------------------

def _degenerate_threshold(transform: Transform, region: Region) -> float | None:
    """Threshold below zero holds everywhere; the sweep must not be trusted."""
    if not (isinstance(transform, Threshold) and transform.level < 0.0):
        return None
    if isinstance(region, Window) and region.lo is not None and region.hi is not None:
        return float(as_fraction(region.hi) - as_fraction(region.lo))
    return math.inf


def _grid_integral_1d(f: GridFunction, transform: Transform, region: Region) -> float:
    extra = []
    if isinstance(region, Window):
        for b in (region.lo, region.hi):
            if b is not None:
                extra.append(as_fraction(b))
    scale = _scale_for(f.box[0][0], f.spacing[0], *extra)
    pw = _pw_of(f, scale)
    left = pw.edges[:-1]
    lengths = pw.edges[1:] - left
    tvals = _apply(transform, pw.values)
    return _reduce_region(tvals, left, lengths, scale, region)


def _cell_masses(tvals: np.ndarray, vol: Fraction) -> float:
    """Sum of tvals over cells of volume vol, grouped per distinct value."""
    flat = tvals.ravel()
    nz = flat != 0.0
    if not nz.any():
        return 0.0
    u, w = np.unique(flat[nz], return_counts=True)
    return _fsum_groups(u, w, vol.numerator, vol.denominator)


def _grid_integral_2d(f: GridFunction, transform: Transform, region: Region) -> float:
    vol = f.cell_volume
    tvals = _apply(transform, f.values)
    if region is None:
        return _cell_masses(tvals, vol)

    (a1, _), (a2, _) = f.box
    h1, h2 = f.spacing
    n1, n2 = f.counts
    l1 = float(a1) + float(h1) * np.arange(n1)
    r1 = l1 + float(h1)
    l2 = float(a2) + float(h2) * np.arange(n2)
    r2 = l2 + float(h2)

    if isinstance(region, Outside):
        R = float(region.radius)
        ox = np.clip(np.minimum(r1, R) - np.maximum(l1, -R), 0.0, None)
        oy = np.clip(np.minimum(r2, R) - np.maximum(l2, -R), 0.0, None)
        inside = np.outer(ox, oy)
        area = float(h1) * float(h2)
        weight = area - inside
    elif isinstance(region, Window):
        raise GridError("axis windows are one-dimensional; restrict first")
    else:
        raise GridError(f"unknown region {region!r}")

    full = weight >= area  # cells entirely in the region: exact mass
    exact = _cell_masses(np.where(full, tvals, 0.0), vol)
    partial = (~full) & (weight > 0.0) & (tvals != 0.0)
    return exact + float(np.sum(tvals[partial] * weight[partial]))


def integrate_transformed(f: GridFunction, transform: Transform, region: Region = None) -> float:
    """integral of T(f(x)) over the region; math.inf when the tail diverges.

    T comes from the finite catalog (AbsPower, ClampPower, Threshold) so
    both the cell part (exact masses) and the power-law tail (closed form)
    are evaluated without discretisation error.
    """
    degenerate = _degenerate_threshold(transform, region)
    if degenerate is not None:
        return degenerate
    tail = _tail_part(f.tail, transform, region)
    if tail == math.inf:
        return math.inf
    if f.dim == 1:
        return _grid_integral_1d(f, transform, region) + tail
    return _grid_integral_2d(f, transform, region) + tail


def _difference_tail(f: GridFunction, g: GridFunction) -> TailSpec:
    tf, tg = f.tail, g.tail
    if tf == tg:
        return TailSpec.zero()
    if tf.is_zero or tg.is_zero:
        live_f, dead_f = (f, g) if tg.is_zero else (g, f)
        if dead_f.box[0][1] > live_f.box[0][1]:
            raise IncompatibleGridsError(
                "zero-tail operand extends past the power-law onset"
            )
        return live_f.tail
    raise IncompatibleGridsError(
        f"difference of distinct power-law tails {tf} and {tg} is not representable"
    )


def difference_integral(
    f: GridFunction, g: GridFunction, transform: Transform, region: Region = None
) -> float:
    """integral of T(f - g) without materialising a common refinement."""
    if f.dim != g.dim:
        raise IncompatibleGridsError("dimension mismatch")
    if f.dim == 2:
        from .grid import subtract

        return integrate_transformed(subtract(f, g), transform, region)
    degenerate = _degenerate_threshold(transform, region)
    if degenerate is not None:
        return degenerate
    tail = _difference_tail(f, g)
    tail_term = _tail_part(tail, transform, region)
    if tail_term == math.inf:
        return math.inf
    extra = []
    if isinstance(region, Window):
        extra += [as_fraction(b) for b in (region.lo, region.hi) if b is not None]
    scale = _scale_for(
        f.box[0][0], f.spacing[0], g.box[0][0], g.spacing[0], *extra
    )
    left, lengths, vf, vg = _merge(_pw_of(f, scale), _pw_of(g, scale))
    tvals = _apply(transform, vf - vg)
    return _reduce_region(tvals, left, lengths, scale, region) + tail_term


def translation_defect(
    f: GridFunction,
    y: FractionLike,
    transform: Transform,
    window: Window | None = None,
) -> float:
    """integral of T(f(x+y) - f(x)) for a zero-tail f; exact for rational y."""
    if f.dim != 1:
        raise GridError("translation defects are one-dimensional here")
    if not f.tail.is_zero:
        raise GridError("exact defects need a zero tail; see translation_defect_bounds")
    degenerate = _degenerate_threshold(transform, window)
    if degenerate is not None:
        return degenerate
    dy = as_fraction(y)
    extra = [dy]
    if window is not None:
        extra += [as_fraction(b) for b in (window.lo, window.hi) if b is not None]
    scale = _scale_for(f.box[0][0], f.spacing[0], *extra)
    base = _pw_of(f, scale)
    shifted = _pw_of(f, scale, shift=-dy)
    left, lengths, vs, vb = _merge(shifted, base)
    tvals = _apply(transform, vs - vb)
    return _reduce_region(tvals, left, lengths, scale, window)


def translation_defect_bounds(
    f: GridFunction, y: FractionLike, transform: Transform
) -> tuple[float, float]:
    """Certified lower and upper bounds for the translation defect integral.

    Zero tails give a single exact value.  For a power-law tail the grid
    region is exact; the onset strip is bounded by its width times the
    pointwise cap, and the tail-tail region by the mean value theorem:
    |f(x+y) - f(x)| <= c * alpha * |y| * u**-(alpha+1) with u >= onset.
    """
    dy = as_fraction(y)
    if f.tail.is_zero:
        d = translation_defect(f, dy, transform)
        return d, d
    L = f.box[0][1]
    exact_hi = min(L, L - dy)  # both x and x+y on the grid side below this
    view = GridFunction(f.box, f.spacing, f.values)  # tail dropped: exact below window
    exact = translation_defect(view, dy, transform, window=Window(None, exact_hi))

    # On the strip of width |y| at the onset, both arguments lie within
    # |y| of the onset, so |f(x+y) - f(x)| is at most twice the local sup.
    h = f.spacing[0]
    n_strip = min(len(f.values), int(abs(dy) / h) + 1)
    local = float(np.max(np.abs(f.values[-n_strip:]))) if n_strip else 0.0
    strip_sup = 2.0 * max(local, f.tail.sup())
    strip = abs(float(dy)) * _cap(transform, strip_sup)

    c, a = f.tail.coefficient, f.tail.exponent
    amp = c * a * abs(float(dy))
    onset = float(f.tail.onset)
    if isinstance(transform, AbsPower):
        from .grid import power_tail_integral

        tail_term = power_tail_integral(amp, a + 1.0, onset, transform.p)
    elif isinstance(transform, ClampPower):
        from .grid import clamped_power_tail_integral

        tail_term = clamped_power_tail_integral(amp, a + 1.0, onset, transform.p)
    else:
        level = transform.level
        if level <= 0.0:
            tail_term = math.inf
        else:
            tail_term = max(0.0, (amp / level) ** (1.0 / (a + 1.0)) - onset)
    return exact, exact + strip + tail_term


def superlevel_measure(f: GridFunction, level: float) -> float:
    """Measure of {x : |f(x)| > level}, strict inequality."""
    return integrate_transformed(f, Threshold(float(level)))


def superlevel_set(f: GridFunction, level: float) -> MeasurableSet:
    """The set {|f| > level} as grid cells; needs the tail to stay below level."""
    level = float(level)
    if _tail_from(f.tail, Threshold(level), None) > 0.0:
        raise GridError("superlevel set leaks into the tail; use superlevel_measure")
    return MeasurableSet(f.box, f.spacing, np.abs(f.values) > level)
