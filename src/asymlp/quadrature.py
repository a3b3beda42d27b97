"""Exact integration of transformed grid functions.

Every integral here is a finite sum T(value) * measure over maximal
constancy intervals, plus closed-form contributions from power-law tails.
Interval measures are accumulated as exact integers on a common rational
lattice and converted to float once per distinct transformed value, so
results carry a single rounding per value group.

In one dimension one sweep, ``_sweep``, gives the grid part of the
integral of T(f(x + y) - g(x)); ``integrate_transformed``,
``difference_integral``, ``translation_defect`` and the exact part of
``translation_defect_bounds`` call it.  The tail of f - g follows
``grid._combine_tails``.  Two dimensions go through ``grid.subtract``.
``translation_profile`` gives the defects of one member at a block of
shifts in one vectorized pass, with its own merge and grouping; it
returns the per-shift functions' floats, and those functions, which
never call it, are its reference.

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
    _combine_tails,
    as_fraction,
    clamped_power_tail_integral,
    power_tail_integral,
    subtract,
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
    "translation_profile",
    "superlevel_measure",
    "superlevel_set",
]

_INT_GUARD = 2**62
_EXACT_INT = 2**53  # integers below this are exact doubles
# elements of one block of translation_profile's 2-d arrays (shifts times
# merged edges); larger blocks are split, so memory stays bounded
_PROFILE_BUDGET = 2**16


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
    edges = np.concatenate((p.edges, q.edges))
    edges.sort()
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
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
    return math.fsum(_group_terms(tv[cuts], np.add.reduceat(ln, cuts), 1, scale))


def _group_terms(values: np.ndarray, counts: np.ndarray, num: int, den: int) -> list[float]:
    """values[i] times the correctly rounded counts[i] * num / den.

    One term per group, so an fsum of the terms rounds each group once.
    counts are non-negative integers and num, den positive.  Below 2**53
    the product and the denominator are exact doubles, so a single float
    division gives the correctly rounded quotient; otherwise Fraction does.
    Either way each term is the same float.
    """
    if den < _EXACT_INT and int(counts.max()) * num < _EXACT_INT:
        return (counts * num / den * values).tolist()
    return [float(Fraction(int(c) * num, den)) * float(v) for v, c in zip(values, counts)]


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


def _sweep(f: GridFunction, transform: Transform, region: Region, g=None, shift=0):
    """Grid part of the integral of T(f(x + shift) - g(x)) over a 1-d region.

    Tails are ignored and a g of None reads as zero.  Operands, shift and
    window bounds share one integer lattice, the lcm of their denominators.
    """
    fracs = [f.box[0][0], f.spacing[0], shift]
    if g is not None:
        fracs += [g.box[0][0], g.spacing[0]]
    if isinstance(region, Window):
        fracs += [as_fraction(b) for b in (region.lo, region.hi) if b is not None]
    scale = _scale_for(*fracs)
    pw = _pw_of(f, scale, shift=-shift)
    if g is None:
        left, lengths, values = pw.edges[:-1], pw.edges[1:] - pw.edges[:-1], pw.values
    else:
        left, lengths, vf, vg = _merge(pw, _pw_of(g, scale))
        values = vf - vg
    return _reduce_region(_apply(transform, values), left, lengths, scale, region)


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


def _cell_masses(tvals: np.ndarray, vol: Fraction) -> float:
    """Sum of tvals over cells of volume vol, grouped per distinct value."""
    flat = tvals.ravel()
    nz = flat != 0.0
    if not nz.any():
        return 0.0
    u, w = np.unique(flat[nz], return_counts=True)
    return math.fsum(_group_terms(u, w, vol.numerator, vol.denominator))


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
        return _sweep(f, transform, region) + tail
    return _grid_integral_2d(f, transform, region) + tail


def difference_integral(
    f: GridFunction, g: GridFunction, transform: Transform, region: Region = None
) -> float:
    """integral of T(f - g) without materialising a common refinement."""
    if f.dim != g.dim:
        raise IncompatibleGridsError("dimension mismatch")
    if f.dim == 2:
        return integrate_transformed(subtract(f, g), transform, region)
    degenerate = _degenerate_threshold(transform, region)
    if degenerate is not None:
        return degenerate
    # T acts on |f - g|, so the live-tail operand may go first
    tail = _combine_tails(*((g, f) if f.tail.is_zero else (f, g)), "sub")
    tail_term = _tail_part(tail, transform, region)
    if tail_term == math.inf:
        return math.inf
    return _sweep(f, transform, region, g) + tail_term


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
    return _sweep(f, transform, window, g=f, shift=as_fraction(y))


def _onset_and_tail(f: GridFunction, dy: Fraction, transform: Transform) -> tuple[float, float]:
    """The two bound terms of a live-tail defect beyond the exact grid part.

    On the strip of width |y| at the onset, both arguments lie within |y|
    of the onset, so |f(x+y) - f(x)| is at most twice the local sup.  In
    the tail-tail region the mean value theorem gives
    |f(x+y) - f(x)| <= c * alpha * |y| * u**-(alpha+1) with u >= onset.
    """
    h = f.spacing[0]
    n_strip = min(len(f.values), int(abs(dy) / h) + 1)
    local = float(np.max(np.abs(f.values[-n_strip:]))) if n_strip else 0.0
    strip_sup = 2.0 * max(local, f.tail.sup())
    strip = abs(float(dy)) * _cap(transform, strip_sup)

    c, a = f.tail.coefficient, f.tail.exponent
    amp = c * a * abs(float(dy))
    onset = float(f.tail.onset)
    if isinstance(transform, AbsPower):
        tail_term = power_tail_integral(amp, a + 1.0, onset, transform.p)
    elif isinstance(transform, ClampPower):
        tail_term = clamped_power_tail_integral(amp, a + 1.0, onset, transform.p)
    else:
        level = transform.level
        if level <= 0.0:
            tail_term = math.inf
        else:
            tail_term = max(0.0, (amp / level) ** (1.0 / (a + 1.0)) - onset)
    return strip, tail_term


def translation_defect_bounds(
    f: GridFunction, y: FractionLike, transform: Transform
) -> tuple[float, float]:
    """Certified lower and upper bounds for the translation defect integral.

    Zero tails give a single exact value.  For a power-law tail the grid
    region is exact; the onset strip and the tail-tail region add the
    bounds of ``_onset_and_tail``.
    """
    dy = as_fraction(y)
    if f.tail.is_zero:
        d = translation_defect(f, dy, transform)
        return d, d
    L = f.box[0][1]
    # below min(L, L - y) both x and x + y lie on the grid side: the sweep,
    # which reads no tail, is exact there
    below = Window(None, min(L, L - dy))
    exact = _degenerate_threshold(transform, below)
    if exact is None:
        exact = _sweep(f, transform, below, g=f, shift=dy)
    strip, tail_term = _onset_and_tail(f, dy, transform)
    return exact, exact + strip + tail_term


def translation_profile(f: GridFunction, shifts, transform: Transform) -> list[float]:
    """The translation defect of f at every shift, in one vectorized pass.

    Entry i equals ``translation_defect(f, shifts[i], transform)`` for a
    zero tail and ``translation_defect_bounds(f, shifts[i], transform)[1]``
    for a live one, bit for bit.  Those two stay on ``_sweep`` alone: they
    are the independent reference this kernel is checked against.
    """
    if f.dim != 1:
        raise GridError("translation defects are one-dimensional here")
    shifts = [as_fraction(y) for y in shifts]
    live = not f.tail.is_zero
    (a, L), = f.box
    # neither window, None or (-inf, min(L, L - y)), has a lower bound, so
    # the degenerate value is the same at every shift
    degenerate = _degenerate_threshold(transform, Window(None, L) if live else None)
    if degenerate is not None:
        grid = [degenerate] * len(shifts)
    else:
        # the sweep's lattice for each shift; shifts sharing it go together
        base = _scale_for(a, f.spacing[0])
        by_scale: dict[int, list[int]] = {}
        for i, y in enumerate(shifts):
            by_scale.setdefault(math.lcm(base, y.denominator), []).append(i)
        grid = [0.0] * len(shifts)
        for scale, rows in by_scale.items():
            ints = [shifts[i].numerator * (scale // shifts[i].denominator) for i in rows]
            for i, v in zip(rows, _profile_grid(f, ints, transform, scale, live)):
                grid[i] = v
    if not live:
        return grid
    out = []
    for exact, y in zip(grid, shifts):
        strip, tail_term = _onset_and_tail(f, y, transform)
        out.append(exact + strip + tail_term)
    return out


def _profile_grid(
    f: GridFunction, shifts: list[int], transform: Transform, scale: int, live: bool
) -> list[float]:
    """Grid parts of the defects at integer shifts s on the lattice 1/scale.

    Row r sorts f's run edges E together with E - s_r; no edge is
    deduplicated.  Before a piece of positive length every copy of its
    left edge is already placed, so of the k + 1 merged edges up to piece
    k, E.searchsorted(left, side="right") are edges of f and the rest are
    shifted ones: the lookups of f(x) and f(x + y).  Zero-length pieces
    drop out as in ``_group_exact``; a live tail clips row r at
    min(L, L - y_r).
    """
    (a, L), = f.box
    # the sweep's guards, in Python integers before any int64 arithmetic:
    # both ends of the box, unshifted and shifted
    e0, step, end = (_lattice(x, scale) for x in (a, f.spacing[0], L))
    for s in shifts:
        _check_guard(e0 - s)
        _check_guard(end - s)
    bounds, run_values = f.runs
    edges = e0 + step * bounds
    n = len(edges)
    padded = np.concatenate(([0.0], run_values, [0.0]))
    # y * scale itself may pass 2**62; it still fits an int64
    s_all = np.array(shifts, dtype=np.int64)
    per = max(1, _PROFILE_BUDGET // (2 * n))
    out: list[float] = []
    for lo in range(0, len(s_all), per):
        s = s_all[lo:lo + per, None]
        shifted = edges - s
        merged = np.sort(
            np.concatenate((np.broadcast_to(edges, shifted.shape), shifted), axis=1), axis=1
        )
        left, right = merged[:, :-1], merged[:, 1:]
        in_f = edges.searchsorted(left, side="right")
        if live:
            right = np.minimum(right, np.minimum(end, end - s))
        tvals = _apply(transform, padded[np.arange(1, 2 * n) - in_f] - padded[in_f])
        out += _group_rows(tvals, right - left, scale)
    return out


def _group_rows(tvals: np.ndarray, lengths: np.ndarray, scale: int) -> list[float]:
    """``_group_exact`` of every row of (tvals, lengths) at once.

    Each group's integer sum is the sweep's, each is rounded once, and
    ``math.fsum`` rounds correctly in any order: every row is the float
    the sweep gives.
    """
    lengths = np.where((tvals != 0.0) & (lengths > 0), lengths, 0)
    order = tvals.argsort(axis=1)
    tv = np.take_along_axis(tvals, order, axis=1)
    new = np.ones(tv.shape, dtype=bool)
    new[:, 1:] = tv[:, 1:] != tv[:, :-1]
    cuts = np.flatnonzero(new)
    sums = np.add.reduceat(np.take_along_axis(lengths, order, axis=1).ravel(), cuts)
    # a group of zero-length pieces is no group of the sweep
    kept = sums > 0
    cuts, sums = cuts[kept], sums[kept]
    terms = _group_terms(tv.ravel()[cuts], sums, 1, scale) if len(cuts) else []
    ends = np.searchsorted(cuts // tv.shape[1], np.arange(len(tv) + 1)).tolist()
    return [math.fsum(terms[i:j]) for i, j in zip(ends[:-1], ends[1:])]


def superlevel_measure(f: GridFunction, level: float) -> float:
    """Measure of {x : |f(x)| > level}, strict inequality."""
    return integrate_transformed(f, Threshold(float(level)))


def superlevel_set(f: GridFunction, level: float) -> MeasurableSet:
    """The set {|f| > level} as grid cells; needs the tail to stay below level."""
    level = float(level)
    if _tail_from(f.tail, Threshold(level), None) > 0.0:
        raise GridError("superlevel set leaks into the tail; use superlevel_measure")
    return MeasurableSet(f.box, f.spacing, np.abs(f.values) > level)
