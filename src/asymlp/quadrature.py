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
``grid._combine_tails``.  Two dimensions group their cells with the same
``_group_exact``, and their differences go through ``grid.subtract``.
One reduction, ``_outside``, serves ``Outside`` regions in both
dimensions: it clips cells against the radius in floats, groups the cells
with no overlap exactly and adds the partly-inside remainders with one
``math.fsum``.

``_family_profile`` gives the defects of every member of a family at a
block of shifts, with its own merge: one row per (member, shift), all
rows of a member on one lattice, in one vectorized pass per group of
members whose run-edge counts round up to the same power of two
(padding at most doubles a row).  ``translation_profile`` is its
one-member call.  It returns the per-shift functions' floats, and those
functions, which never call it, are its reference.  The witness
searches' kernels, ``_outside_kernel`` and ``_level_kernel``, work the
same way across a family: built once from every member's runs, each
answers one radius or cut for all members in a few numpy operations,
with the floats of ``integrate_transformed`` and ``superlevel_measure``,
which stay their reference.  One batched grouped sum, ``_group_fsums``,
serves the profile's rows and the ``Outside`` kernel; ``_group_exact``
stays the per-call one, and every grouped ``math.fsum`` goes through
``_fsum``, which gives inf when a term is inf and raises GridError where
finite terms add past the float range.

The three kernels share one batch contract.  ``_family_runs`` gates the
tail and level kernels and ``_profile_rows`` the translation profile:
each admits a family, or a block of shifts, only when every member is
1-d with its lattice scale, edges and spans below 2**53, and otherwise
returns None, so that the per-member or per-shift calls answer.  A
``FamilySpec`` builds the runs once for all its searches.

That conversion is one IEEE division when the lattice scale and every
grouped integer sum are below 2**53: both are then exact doubles and the
quotient is correctly rounded, the same float ``Fraction`` gives.  The
per-call sweeps take the ``Fraction`` route for larger inputs; the
kernels never see them.  Lattice edges are checked in Python integers
before any int64 arithmetic; geometry whose edges reach 2**62 raises
GridError instead of wrapping.
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
    _pow,
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
# elements of one pass of _profile_grid's 2-d arrays (rows times merged
# edges, padding included); larger passes are split, so memory stays bounded
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
        return _pow(sup_abs, transform.p)
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


def _group_exact(tvals: np.ndarray, counts: np.ndarray, scale: int, num: int = 1) -> float:
    """Sum T * counts * num / scale with the integer counts grouped per distinct T."""
    keep = (tvals != 0.0) & (counts > 0)
    if not keep.any():
        return 0.0
    tv = tvals[keep]
    ln = counts[keep]
    order = np.argsort(tv, kind="stable")
    tv = tv[order]
    ln = ln[order]
    cuts = _block_starts(tv)
    return _fsum(_group_terms(tv[cuts], np.add.reduceat(ln, cuts), num, scale))


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


def _block_starts(*keys: np.ndarray) -> np.ndarray:
    """Start of every block of consecutive entries that agree on each key."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def _fsum(terms) -> float:
    """``math.fsum`` of the terms, all >= 0: inf when one of them is inf,
    GridError where finite terms add past the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        if math.inf in terms:
            return math.inf
        raise GridError("a grouped sum overflows a float") from None


def _fsum_by(owners: np.ndarray, terms: list[float], n: int) -> list[float]:
    """``_fsum`` of the terms of each owner 0..n-1; owners ascend."""
    keys = np.arange(n)
    lo = np.searchsorted(owners, keys, side="left").tolist()
    hi = np.searchsorted(owners, keys, side="right").tolist()
    return [_fsum(terms[i:j]) for i, j in zip(lo, hi)]


def _group_fsums(owner, tv, lengths, cuts, scale, n: int) -> list[float]:
    """``_group_exact`` of the entries of each owner 0..n-1, all at once.

    Entries are sorted by (owner, T), and cuts starts each group, so that
    group i holds lengths[cuts[i]:cuts[i + 1]]; owner[i] and tv[i] are its
    owner and T.  A group adds T times its integer length over scale,
    rounded once as in ``_group_terms``; a group with no length or with
    T = 0 adds no term, not even 0 * inf.  scale is one float per group,
    the lattice of its entries.  The callers' batch gates keep every scale
    and group sum below 2**53, so the quotient is the single division of
    ``_group_terms``.  ``math.fsum`` rounds correctly in any order, so
    each owner's float is the per-owner ``_group_exact``, bit for bit.
    """
    sums = np.add.reduceat(lengths, cuts)
    kept = (sums > 0) & (tv != 0.0)
    return _fsum_by(owner[kept], (sums[kept] / scale[kept] * tv[kept]).tolist(), n)


def _overlap(fl: np.ndarray, fr: np.ndarray, R: float) -> np.ndarray:
    """Float length of each interval [fl, fr] inside [-R, R]."""
    return np.clip(np.minimum(fr, R) - np.maximum(fl, -R), 0.0, None)


def _outside_masks(inside: np.ndarray, full) -> tuple[np.ndarray, np.ndarray]:
    """Cells with no overlap with the ball, and cells partly inside it.

    inside is each cell's float overlap from ``_overlap`` (a product of
    them in two dimensions) and full its float measure.  A cell whose
    overlap reaches full is wholly inside and adds nothing.
    """
    out = inside == 0.0
    return out, ~out & (inside < full)


def _outside(
    tvals: np.ndarray,
    counts: np.ndarray,
    num: int,
    den: int,
    inside: np.ndarray,
    full: float | np.ndarray,
) -> float:
    """Sum of T over the part of each cell outside a radius.

    A cell of measure counts * num / den has the float overlap inside with
    the radius' ball and the float measure full.  Cells with no overlap add
    their exact grouped mass; partly-inside cells add (full - inside) * T,
    summed once with ``math.fsum``.
    """
    out, partial = _outside_masks(inside, full)
    exact = _group_exact(np.where(out, tvals, 0.0), counts, den, num)
    return exact + _fsum((full - inside)[partial] * tvals[partial])


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
        l = left if lo is None else np.maximum(left, lo)
        r = left + lengths if hi is None else np.minimum(left + lengths, hi)
        return _group_exact(tvals, np.maximum(r - l, 0), scale)

    if isinstance(region, Outside):
        R = float(region.radius)
        fl = left.astype(np.float64) / scale
        fr = (left + lengths).astype(np.float64) / scale
        full = lengths.astype(np.float64) / scale
        return _outside(tvals, lengths, 1, scale, _overlap(fl, fr, R), full)

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
    if isinstance(transform, AbsPower):
        return tail.abs_power_integral(transform.p, start)
    if isinstance(transform, ClampPower):
        return tail.clamp_power_integral(transform.p, start)
    if isinstance(transform, Threshold):
        return tail.superlevel_length(transform.level, start)
    raise GridError(f"unknown transform {transform!r}")


def _abs_power_between(c: float, alpha: float, p: float, lo: float, hi: float) -> float:
    if hi <= lo or c == 0.0:
        return 0.0
    ap = alpha * p
    if ap == 1.0:
        return _pow(c, p) * math.log(hi / lo)
    return _pow(c, p) * (_pow(hi, 1.0 - ap) - _pow(lo, 1.0 - ap)) / (1.0 - ap)


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
        sat = _pow(c, 1.0 / a)
        flat = max(0.0, min(hi, sat) - lo)
        lo2 = max(lo, sat)
        return flat + _abs_power_between(c, a, transform.p, lo2, max(hi, lo2))
    if isinstance(transform, Threshold):
        if transform.level == 0.0:
            return hi - lo
        cut = _pow(c / transform.level, 1.0 / a)
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


def _grid_integral_2d(f: GridFunction, transform: Transform, region: Region) -> float:
    num, den = f.cell_volume.numerator, f.cell_volume.denominator
    tvals = _apply(transform, f.values).ravel()
    ones = np.ones(tvals.size, dtype=np.int64)
    if region is None:
        return _group_exact(tvals, ones, den, num)
    if isinstance(region, Window):
        raise GridError("axis windows are one-dimensional; restrict first")
    if not isinstance(region, Outside):
        raise GridError(f"unknown region {region!r}")

    R = float(region.radius)
    overlaps = []
    for (a, _), h, n in zip(f.box, f.spacing, f.counts):
        left = float(a) + float(h) * np.arange(n)
        overlaps.append(_overlap(left, left + float(h), R))
    area = float(f.spacing[0]) * float(f.spacing[1])
    return _outside(tvals, ones, num, den, np.outer(*overlaps).ravel(), area)


def _with_tail(f: GridFunction, transform: Transform, region: Region, grid) -> float:
    """grid() plus the tail part: the integral of T(f) over the region.

    A Threshold below zero gives its degenerate measure and a divergent
    tail gives math.inf, in both cases without calling grid.
    """
    degenerate = _degenerate_threshold(transform, region)
    if degenerate is not None:
        return degenerate
    tail = _tail_part(f.tail, transform, region)
    if tail == math.inf:
        return math.inf
    return grid() + tail


def integrate_transformed(f: GridFunction, transform: Transform, region: Region = None) -> float:
    """integral of T(f(x)) over the region; math.inf when the tail diverges.

    T comes from the finite catalog (AbsPower, ClampPower, Threshold) so
    both the cell part (exact masses) and the power-law tail (closed form)
    are evaluated without discretisation error.
    """
    grid = _sweep if f.dim == 1 else _grid_integral_2d
    return _with_tail(f, transform, region, lambda: grid(f, transform, region))


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


def _defect(f: GridFunction, y: Fraction, transform: Transform) -> float:
    """The per-shift reference of the translation scan: the exact defect
    for a zero tail, the certified upper bound for a live one."""
    if f.tail.is_zero:
        return translation_defect(f, y, transform)
    return translation_defect_bounds(f, y, transform)[1]


def translation_profile(f: GridFunction, shifts, transform: Transform) -> list[float]:
    """The translation defect of f at every shift, in one vectorized pass.

    Entry i equals ``_defect(f, shifts[i], transform)``, bit for bit:
    ``translation_defect`` for a zero tail and
    ``translation_defect_bounds(...)[1]`` for a live one.  Those two stay
    on ``_sweep`` alone: they are the independent reference this kernel is
    checked against, and they answer the shifts ``_family_profile``
    refuses.
    """
    shifts = list(shifts)
    rows = _family_profile([f], shifts, transform)
    return [_defect(f, y, transform) for y in shifts] if rows is None else rows[0]


def _family_profile(members, shifts, transform: Transform) -> list[list[float]] | None:
    """``translation_profile`` of every member at the same shifts, batched.

    Row (i, j) is member i at shifts[j].  Rows are grouped by their
    member's run-edge count rounded up to a power of two, so padding at
    most doubles the elements of a pass; each group runs ``_profile_grid``
    once per ``_PROFILE_BUDGET`` elements.  A live tail's onset-strip and
    tail-tail terms read only |y|, so each member computes them once per
    magnitude.  None when a member is 2-d, when the batch gate of
    ``_profile_rows`` refuses the block, or when a sum or term overflows
    a float: the per-shift calls then answer, and raise their GridError
    in shift order.
    """
    if any(m.dim != 1 for m in members):
        return None
    try:
        shifts = [as_fraction(y) for y in shifts]
        # neither window, None or (-inf, min(L, L - y)), has a lower bound,
        # so the degenerate value is the same at every member and shift
        degenerate = _degenerate_threshold(transform, None)
        if degenerate is not None:
            grid = [[degenerate] * len(shifts) for _ in members]
        else:
            grid = _profile_rows(members, shifts, transform)
            if grid is None:
                return None
        for m, row in zip(members, grid):
            if not m.tail.is_zero:
                bound: dict[Fraction, tuple[float, float]] = {}
                for j, y in enumerate(shifts):
                    mag = abs(y)
                    if mag not in bound:
                        bound[mag] = _onset_and_tail(m, mag, transform)
                    strip, tail_term = bound[mag]
                    row[j] = row[j] + strip + tail_term
    except GridError:
        # a grouped sum or a closed-form term overflows a float
        return None
    return grid


def _profile_rows(members, shifts: list[Fraction], transform: Transform) -> list[list[float]] | None:
    """Grid parts of the defect of every member at every shift, or None.

    All rows of a member share one lattice 1/S, S the lcm of its box
    start, spacing and every shift denominator: an integer multiple of
    each per-shift sweep's lattice.  This is the batch gate: it gives
    None unless, for every member, S and every edge, shifted or not, and
    the merged span of each row are below 2**53.  Every group sum and S
    are then exact doubles, the same multiple of the sweep's, so one
    float division gives the sweep's correctly rounded quotient, and no
    int64 key wraps.  The gate compares Python integers and never raises.
    """
    grid = [[0.0] * len(shifts) for _ in members]
    # run-edge width -> (its members with their lattices, its rows); a row
    # names its member by its place in the pass
    passes: dict[int, tuple[list[tuple], list[tuple]]] = {}
    # the shifts on the lattice 1/D of their denominators
    D = _scale_for(*shifts)
    at_D = [y.numerator * (D // y.denominator) for y in shifts]
    up, down = max([0, *at_D]), min([0, *at_D])
    for i, m in enumerate(members):
        (a, L), = m.box
        h = m.spacing[0]
        S = math.lcm(a.denominator, h.denominator, D)
        k = S // D
        e0, step, end = (x.numerator * (S // x.denominator) for x in (a, h, L))
        # the highest and lowest edges, shifted or not, and the widest span
        far = max(end - k * down, k * up - e0, end - e0 + k * max(up, -down))
        if S >= _EXACT_INT or far >= _EXACT_INT:
            return None
        used, rows = passes.setdefault((len(m.runs[0]) - 1).bit_length(), ([], []))
        used.append((i, e0, step, S))
        live = not m.tail.is_zero
        for j, t in enumerate(at_D):
            s = t * k
            rows.append((i, j, len(used) - 1, s, min(end, end - s) if live else _EXACT_INT))
    for used, rows in passes.values():
        n = max(len(members[i].runs[0]) for i, *_ in used)
        # each member's run edges padded by repeating the last one, so the
        # padding pieces have zero length; its values with a 0 on each side
        edges = np.empty((len(used), n), dtype=np.int64)
        values = np.zeros((len(used), n + 1))
        for r, (i, e0, step, _) in enumerate(used):
            b, v = members[i].runs
            edges[r, :len(b)] = e0 + step * b
            edges[r, len(b):] = edges[r, len(b) - 1]
            values[r, 1:len(b)] = v
        scales = np.array([S for *_, S in used], dtype=np.float64)
        per = max(1, _PROFILE_BUDGET // (2 * n))
        for lo in range(0, len(rows), per):
            i, j, r, s, clip = zip(*rows[lo:lo + per])
            r = list(r)
            s, clip = (np.array(c, dtype=np.int64) for c in (s, clip))
            for i_, j_, v in zip(i, j, _profile_grid(edges[r], values[r], s, clip, scales[r], transform)):
                grid[i_][j_] = v
    return grid


def _profile_grid(
    edges: np.ndarray,
    values: np.ndarray,
    shifts: np.ndarray,
    clip: np.ndarray,
    scale: np.ndarray,
    transform: Transform,
) -> list[float]:
    """Grid parts of the defects of rows of (member, integer shift s).

    Row r holds its member's run edges E on its lattice, padded by
    repeating the last edge, the run values with a 0 on each side, its
    shift s, its clip (min(L, L - y) for a live tail, else past every
    edge) and its lattice scale as a float.  It sorts E together with
    E - s, no edge deduplicated, each tagged in its lowest bit (1 for E).
    Before a piece of positive length every edge up to its left end is
    already placed, so the tags up to piece k count the edges of f at or
    left of it and the rest are shifted ones: the lookups of f(x) and
    f(x + y).  Zero-length pieces drop out as in ``_group_exact``.
    """
    # the gate of _profile_rows keeps every edge below 2**53, so a doubled
    # one fits an int64
    keys = np.concatenate((edges << 1 | 1, (edges - shifts[:, None]) << 1), axis=1)
    keys.sort(axis=1)
    in_f = np.cumsum(keys[:, :-1] & 1, axis=1)
    rows, pieces = in_f.shape
    # clipping every edge keeps the rows sorted and gives the pieces past
    # the clip zero length
    merged = np.minimum(keys >> 1, clip[:, None])
    lengths = (merged[:, 1:] - merged[:, :-1]).ravel()
    # flat positions of each row's values and pieces
    at = np.arange(0, values.size, values.shape[1])[:, None]
    flat = values.ravel()
    tvals = _apply(transform, flat[at + (np.arange(1, pieces + 1) - in_f)] - flat[at + in_f])
    order = (tvals.argsort(axis=1) + np.arange(0, rows * pieces, pieces)[:, None]).ravel()
    tv, lengths = tvals.ravel()[order], lengths[order]
    cuts = _block_starts(np.repeat(np.arange(rows), pieces), tv)
    row = cuts // pieces
    return _group_fsums(row, tv[cuts], lengths, cuts, scale[row], rows)


def superlevel_measure(f: GridFunction, level: float) -> float:
    """Measure of {x : |f(x)| > level}, strict inequality."""
    return integrate_transformed(f, Threshold(float(level)))


def superlevel_set(f: GridFunction, level: float) -> MeasurableSet:
    """The set {|f| > level} as grid cells; needs the tail to stay below level."""
    level = float(level)
    if _tail_from(f.tail, Threshold(level), None) > 0.0:
        raise GridError("superlevel set leaks into the tail; use superlevel_measure")
    return MeasurableSet(f.box, f.spacing, np.abs(f.values) > level)


# ---------------------------------------------------------------------------
# family kernels of the witness searches
# ---------------------------------------------------------------------------

def _family_runs(members):
    """Every member's runs on its sweep lattice, in member order, or None.

    Returns the arrays (pos, left, lengths, values, scale): run i belongs
    to the member at position pos[i] and has the left lattice edge
    left[i], the length lengths[i] and the value values[i] on the lattice
    1/scale[i].  This is the batch gate of the kernels: it gives None,
    and the per-member calls answer, unless every member is 1-d with a
    lattice scale and a total length below 2**53, where every grouped
    integer sum and scale is an exact double.  A lattice past 2**62
    raises GridError here, as ``_pw_of`` does.
    """
    parts = []
    for i, m in enumerate(members):
        if m.dim != 1:
            return None
        scale = _scale_for(m.box[0][0], m.spacing[0])
        edges = _pw_of(m, scale).edges
        if scale >= _EXACT_INT or edges[-1] - edges[0] >= _EXACT_INT:
            return None
        n = len(edges) - 1
        parts.append((np.full(n, i), edges[:-1], np.diff(edges), m.runs[1], np.full(n, float(scale))))
    runs = tuple(map(np.concatenate, zip(*parts)))
    for x in runs:  # a family keeps them for every search (FamilySpec)
        x.setflags(write=False)
    return runs


def _outside_kernel(members, transform: Transform, runs):
    """R -> every member's ``integrate_transformed(m, transform, Outside(R))``.

    runs is ``_family_runs(members)``; None when it refuses the family.
    Built once, with one group per member and transformed value; a call
    answers one radius for the whole family.  Runs are clipped and split
    by the ``_overlap`` and ``_outside_masks`` of the per-member
    reduction; the runs with no overlap go through ``_group_fsums``, the
    partly-inside runs add the float terms of ``_outside``, and each
    member's two sums are ``math.fsum``-ed as there: every value is the
    per-member float, bit for bit.
    """
    if runs is None:
        return None
    pos, left, lengths, values, scale = runs
    tv = _apply(transform, values)
    order = np.lexsort((tv, pos))
    pos, tv, left, lengths, scale = (x[order] for x in (pos, tv, left, lengths, scale))
    fl = left / scale
    fr = (left + lengths) / scale
    full = lengths / scale
    cuts = _block_starts(pos, tv)
    owner, group_tv, group_scale = pos[cuts], tv[cuts], scale[cuts]
    n = len(members)

    def at(R: float) -> list[float]:
        inside = _overlap(fl, fr, R)
        out, partial = _outside_masks(inside, full)
        exact = _group_fsums(owner, group_tv, np.where(out, lengths, 0), cuts, group_scale, n)
        partial = np.flatnonzero(partial)
        rest = _fsum_by(pos[partial], ((full - inside)[partial] * tv[partial]).tolist(), n)
        region = Outside(R)
        return [
            _with_tail(m, transform, region, lambda g=e + r: g)
            for m, e, r in zip(members, exact, rest)
        ]

    return at


def _level_kernel(members, runs):
    """M -> every member's ``superlevel_measure(m, M)``, one pass per cut.

    runs is ``_family_runs(members)``; None when it refuses the family.  A
    member's grid part is the integer length of its runs with |v| > M,
    strictly, divided once by its scale: the sweep's single group.
    """
    if runs is None:
        return None
    pos, _, lengths, values, scale = runs
    mag = np.abs(values)
    starts = _block_starts(pos)
    scale = scale[starts]

    def at(M: float) -> list[float]:
        t = Threshold(float(M))
        sums = np.add.reduceat(np.where(mag > t.level, lengths, 0), starts)
        return [
            _with_tail(m, t, None, lambda g=g: g) for m, g in zip(members, (sums / scale).tolist())
        ]

    return at
