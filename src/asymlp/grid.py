"""Piecewise-constant functions on uniform rational grids.

A GridFunction is constant on each cell of a uniform grid over a box and,
in one dimension, may continue past the right box edge with an analytic
power-law tail c * x**(-alpha).  Box endpoints and spacings are stored as
exact fractions so that cell edges, refinements and set measures never
accumulate floating point error; only cell values are floats.

One check that each box side is a whole number of cells serves every
geometry.  One embedding, ``_embed``, puts cells on a finer or larger
lattice for ``add``/``subtract``, MeasurableSet algebra (on boolean masks),
``refine`` and ``pad_to_box``, and checks the one cell budget, MAX_CELLS,
before it allocates.  The tail rule of a sum or difference,
``_combine_tails``, also serves the quadrature module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

import numpy as np

__all__ = [
    "GridError",
    "IncompatibleGridsError",
    "NotInSpaceError",
    "FractionLike",
    "as_fraction",
    "fraction_gcd",
    "TailSpec",
    "ZERO_TAIL",
    "GridFunction",
    "grid_function",
    "constant",
    "sample",
    "indicator",
    "add",
    "subtract",
    "MeasurableSet",
    "power_tail_integral",
    "clamped_power_tail_integral",
]

FractionLike = Union[Fraction, int, float, str]

# Refuse to materialise a lattice of more than this many cells.
MAX_CELLS = 50_000_000


class GridError(ValueError):
    """Invalid grid data or an operation outside a type's contract."""


class IncompatibleGridsError(GridError):
    """Two functions whose grids or tails cannot be combined exactly."""


class NotInSpaceError(GridError):
    """The clamped p-th power of the function is not integrable."""


def as_fraction(x: FractionLike) -> Fraction:
    """Exact conversion.  Floats convert via their binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise GridError(f"non-finite coordinate {x!r}")
        return Fraction(x)
    raise GridError(f"cannot interpret {x!r} as an exact coordinate")


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Largest fraction dividing both a and b (gcd on the rational lattice)."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


# ---------------------------------------------------------------------------
# analytic tail integrals
# ---------------------------------------------------------------------------

def _pow(x: float, y: float) -> float:
    """x ** y for the closed-form tail and bound terms; GridError on overflow."""
    try:
        return x**y
    except OverflowError:
        raise GridError(f"closed-form term {x!r} ** {y!r} overflows a float") from None


def power_tail_integral(coef: float, beta: float, start: float, p: float) -> float:
    """integral_start^inf (coef * x**-beta)**p dx, or inf when divergent.

    Requires start > 0.  Used for the un-clamped p-norm of a tail.
    """
    if coef == 0.0:
        return 0.0
    if beta * p <= 1.0:
        return math.inf
    try:
        head = coef**p * start ** (1.0 - beta * p)
    except OverflowError:
        # a power can overflow on its own while the integral is small: take
        # the tail's value at start to the p-th power instead
        head = _pow(coef * _pow(start, -beta), p) * start
    return head / (beta * p - 1.0)


def clamped_power_tail_integral(coef: float, beta: float, start: float, p: float) -> float:
    """integral_start^inf min(coef * x**-beta, 1)**p dx, or inf when divergent."""
    if coef == 0.0:
        return 0.0
    saturation = _pow(coef, 1.0 / beta)  # coef * x**-beta >= 1 iff x <= saturation
    if start >= saturation:
        return power_tail_integral(coef, beta, start, p)
    if beta * p <= 1.0:
        return math.inf
    return (saturation - start) + saturation / (beta * p - 1.0)


@dataclass(frozen=True)
class TailSpec:
    """Behaviour of a one-dimensional function beyond its box.

    kind "zero": the function vanishes outside the box.
    kind "power_law": f(x) = coefficient * x**(-exponent) for x > onset,
    and f(x) = 0 for x left of the box.  The onset must coincide with the
    right box edge so the function is defined exactly once everywhere.
    """

    kind: str
    coefficient: float = 0.0
    exponent: float = 1.0
    onset: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in ("zero", "power_law"):
            raise GridError(f"unknown tail kind {self.kind!r}")
        if self.kind == "power_law":
            if not (self.coefficient >= 0.0 and math.isfinite(self.coefficient)):
                raise GridError("power-law coefficient must be finite and >= 0")
            if not (self.exponent > 0.0 and math.isfinite(self.exponent)):
                raise GridError("power-law exponent must be > 0")
            if self.onset <= 0:
                raise GridError("power-law onset radius must be > 0")

    @classmethod
    def zero(cls) -> "TailSpec":
        return cls("zero")

    @classmethod
    def power_law(cls, coefficient: float, exponent: float, onset: FractionLike) -> "TailSpec":
        return cls("power_law", float(coefficient), float(exponent), as_fraction(onset))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or self.coefficient == 0.0

    def sup(self) -> float:
        """Largest tail value (attained at the onset radius)."""
        if self.is_zero:
            return 0.0
        return self.coefficient * _pow(float(self.onset), -self.exponent)

    def value_at(self, x: float) -> float:
        if self.is_zero or x <= float(self.onset):
            return 0.0
        return self.coefficient * _pow(x, -self.exponent)

    def _start(self, start: float | None) -> float:
        base = float(self.onset) if self.kind == "power_law" else 0.0
        return base if start is None else max(base, float(start))

    def abs_power_integral(self, p: float, start: float | None = None) -> float:
        if self.is_zero:
            return 0.0
        return power_tail_integral(self.coefficient, self.exponent, self._start(start), p)

    def clamp_power_integral(self, p: float, start: float | None = None) -> float:
        if self.is_zero:
            return 0.0
        return clamped_power_tail_integral(self.coefficient, self.exponent, self._start(start), p)

    def superlevel_length(self, level: float, start: float | None = None) -> float:
        """Length of {x > start : tail(x) > level} (strict inequality)."""
        if self.is_zero or level <= 0.0:
            return math.inf if (not self.is_zero and level <= 0.0) else 0.0
        cut = _pow(self.coefficient / level, 1.0 / self.exponent)
        return max(0.0, cut - self._start(start))


ZERO_TAIL = TailSpec("zero")


# ---------------------------------------------------------------------------
# GridFunction
# ---------------------------------------------------------------------------

def _normalize_box(box) -> tuple[tuple[Fraction, Fraction], ...]:
    # Accept (a, b) for 1-d or ((a1,b1),(a2,b2),...) generally.
    if len(box) == 2 and not isinstance(box[0], (tuple, list)):
        box = (box,)
    out = []
    for a, b in box:
        fa, fb = as_fraction(a), as_fraction(b)
        if not fb > fa:
            raise GridError(f"degenerate box interval [{fa}, {fb}]")
        out.append((fa, fb))
    return tuple(out)


def _normalize_spacing(spacing, dim: int) -> tuple[Fraction, ...]:
    if isinstance(spacing, (tuple, list)):
        hs = tuple(as_fraction(h) for h in spacing)
    else:
        hs = (as_fraction(spacing),) * dim
    if len(hs) != dim:
        raise GridError("spacing arity does not match box dimension")
    for h in hs:
        if h <= 0:
            raise GridError("spacing must be positive")
    return hs


def _cell_counts(box, spacing) -> tuple[int, ...]:
    """Cells per axis; each box side must be a whole number of cells."""
    counts = []
    for (a, b), h in zip(box, spacing):
        n = (b - a) / h
        if n.denominator != 1:
            raise GridError(f"box length {b - a} is not a multiple of spacing {h}")
        counts.append(int(n))
    return tuple(counts)


def _embed(values: np.ndarray, box, spacing, target_box, target_spacing) -> np.ndarray:
    """Cells on (box, spacing) written into zeros on the target grid, any dtype.

    The target spacing must divide the spacing, box must sit inside target_box
    on the target lattice, and the target must fit MAX_CELLS before allocation.
    """
    if len(target_box) != len(box):
        raise IncompatibleGridsError("dimension mismatch")
    counts, slices, factors = [], [], []
    for (a, b), h, (ta, tb), th in zip(box, spacing, target_box, target_spacing):
        ratio = h / th
        if ratio.denominator != 1:
            raise IncompatibleGridsError(f"{th} does not divide spacing {h}")
        if ta > a or tb < b:
            raise GridError("target box must contain the current box")
        lo, n = (a - ta) / th, (tb - ta) / th
        if lo.denominator != 1 or n.denominator != 1:
            raise IncompatibleGridsError("target box is off the cell lattice")
        counts.append(int(n))
        factors.append(int(ratio))
        slices.append(slice(int(lo), int(lo + (b - a) / th)))
    cells = math.prod(counts)
    if cells > MAX_CELLS:
        raise GridError(f"{cells} cells exceed the cell budget of {MAX_CELLS}")
    for axis, r in enumerate(factors):
        if r != 1:
            values = np.repeat(values, r, axis=axis)
    out = np.zeros(counts, dtype=values.dtype)
    out[tuple(slices)] = values
    return out


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function that is constant on each cell of a uniform grid.

    values has one entry per cell, shape (n_1, ..., n_d) with
    n_j = (b_j - a_j) / h_j, row-major over the axes.
    """

    box: tuple[tuple[Fraction, Fraction], ...]
    spacing: tuple[Fraction, ...]
    values: np.ndarray
    tail: TailSpec = ZERO_TAIL

    def __post_init__(self):
        box = _normalize_box(self.box)
        object.__setattr__(self, "box", box)
        spacing = _normalize_spacing(self.spacing, len(box))
        object.__setattr__(self, "spacing", spacing)

        counts = _cell_counts(box, spacing)
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape == (int(np.prod(counts)),) and len(counts) > 1:
            values = values.reshape(counts)
        if values.shape != counts:
            raise GridError(f"values shape {values.shape} does not match cell counts {counts}")
        if not np.all(np.isfinite(values)):
            raise GridError("all cell values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

        if self.tail.kind == "power_law":
            if len(box) != 1:
                raise GridError("power-law tails are one-dimensional only")
            a, b = box[0]
            L = self.tail.onset
            if b != L:
                raise GridError("power-law onset must equal the right box edge")
            if a > -L:
                raise GridError("box must contain [-onset, onset]")

    # -- geometry ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def counts(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def cell_volume(self) -> Fraction:
        v = Fraction(1)
        for h in self.spacing:
            v *= h
        return v

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Maximal constant runs of a one-dimensional function, as (bounds, values).

        Run i covers cells bounds[i] to bounds[i+1] - 1 and holds values[i];
        bounds starts at 0 and ends at the cell count.  Computed once per
        instance: the values are read-only, so the runs never go stale.
        """
        if self.dim != 1:
            raise GridError("runs are one-dimensional")
        v = self.values
        starts = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1))
        bounds = np.concatenate((starts, [v.shape[0]])).astype(np.int64)
        run_values = v[starts]
        bounds.setflags(write=False)
        run_values.setflags(write=False)
        return bounds, run_values

    def edges(self, axis: int = 0) -> list[Fraction]:
        a, _ = self.box[axis]
        h = self.spacing[axis]
        return [a + i * h for i in range(self.counts[axis] + 1)]

    def box_radius(self) -> Fraction:
        return max(max(abs(a), abs(b)) for a, b in self.box)

    @cached_property
    def grid_sup(self) -> float:
        """Largest |value| over the cells, 0.0 with none; computed once.

        It bounds every difference of two cell values, so callers can tell
        cheaply whether a subtraction may overflow.
        """
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def sup_abs(self) -> float:
        return max(self.grid_sup, self.tail.sup())

    def in_lambda_p(self, p: float) -> bool:
        """True when min(|f|, 1)**p has a finite integral."""
        return self.tail.clamp_power_integral(p) < math.inf

    # -- value access ----------------------------------------------------

    def value_at(self, x: Sequence[float] | float) -> float:
        """Value at a point; cells are closed-left open-right."""
        pt = (float(x),) if np.isscalar(x) else tuple(float(c) for c in x)
        idx = []
        for (a, b), h, n, c in zip(self.box, self.spacing, self.counts, pt):
            if c < float(a) or c >= float(b):
                if self.dim == 1 and self.tail.kind == "power_law":
                    return self.tail.value_at(c)
                return 0.0
            idx.append(min(int((c - float(a)) / float(h)), n - 1))
        return float(self.values[tuple(idx)])

    # -- structural transforms --------------------------------------------

    def with_values(self, values: np.ndarray, tail: TailSpec | None = None) -> "GridFunction":
        return GridFunction(self.box, self.spacing, values, self.tail if tail is None else tail)

    def refine(self, new_spacing) -> "GridFunction":
        """Exact refinement onto a spacing that divides the current one."""
        hs = _normalize_spacing(new_spacing, self.dim)
        values = _embed(self.values, self.box, self.spacing, self.box, hs)
        return GridFunction(self.box, hs, values, self.tail)

    def pad_to_box(self, box) -> "GridFunction":
        """Extend with zero cells to a larger box on the same lattice."""
        new_box = _normalize_box(box)
        values = _embed(self.values, self.box, self.spacing, new_box, self.spacing)
        return GridFunction(new_box, self.spacing, values, self.tail)


def grid_function(box, spacing, values, tail: TailSpec = ZERO_TAIL) -> GridFunction:
    return GridFunction(_normalize_box(box), spacing, values, tail)


def constant(c: float, box, spacing) -> GridFunction:
    nb = _normalize_box(box)
    hs = _normalize_spacing(spacing, len(nb))
    return GridFunction(nb, hs, np.full(_cell_counts(nb, hs), float(c)))


def sample(fn: Callable, box, spacing, tail: TailSpec = ZERO_TAIL) -> GridFunction:
    """Sample a callable at cell midpoints."""
    nb = _normalize_box(box)
    hs = _normalize_spacing(spacing, len(nb))
    mids = [
        np.array([float(a + h * i + h / 2) for i in range(n)])
        for (a, _), h, n in zip(nb, hs, _cell_counts(nb, hs))
    ]
    if len(nb) == 1:
        values = np.array([fn(x) for x in mids[0]])
    else:
        values = np.array([[fn(x, y) for y in mids[1]] for x in mids[0]])
    return GridFunction(nb, hs, values, tail)


# ---------------------------------------------------------------------------
# exact combination of two functions
# ---------------------------------------------------------------------------

def _combined_geometry(f, g):
    """Union box and common spacing on which both cell lattices embed
    (of two GridFunctions or two MeasurableSets)."""
    if f.dim != g.dim:
        raise IncompatibleGridsError("dimension mismatch")
    box = []
    spacing = []
    for axis in range(f.dim):
        (af, bf), (ag, bg) = f.box[axis], g.box[axis]
        hf, hg = f.spacing[axis], g.spacing[axis]
        h = fraction_gcd(fraction_gcd(hf, hg), af - ag)
        box.append((min(af, ag), max(bf, bg)))
        spacing.append(h)
    return tuple(box), tuple(spacing)


def _tails_error(tf, tg, op):
    return IncompatibleGridsError(
        f"cannot {op} power-law tails {tf} and {tg} exactly; "
        "they must be identical (sub) or one side zero"
    )


def _combine_tails(f: GridFunction, g: GridFunction, op: str) -> TailSpec:
    tf, tg = f.tail, g.tail
    if tf.is_zero and tg.is_zero:
        return ZERO_TAIL
    if op == "sub" and tf == tg:
        return ZERO_TAIL
    if tg.is_zero:          # live tail on the left operand survives either op
        live, dead = f, g
    elif tf.is_zero and op == "add":
        live, dead = g, f
    else:
        # sub with a live right tail would need a negative-coefficient tail
        raise _tails_error(tf, tg, op)
    if dead.box[0][1] > live.box[0][1]:
        raise IncompatibleGridsError("zero-tail operand extends past the power-law onset")
    return live.tail


def _binary(f: GridFunction, g: GridFunction, op: str) -> GridFunction:
    tail = _combine_tails(f, g, op)
    box, spacing = _combined_geometry(f, g)
    va, vb = (_embed(u.values, u.box, u.spacing, box, spacing) for u in (f, g))
    return GridFunction(box, spacing, va + vb if op == "add" else va - vb, tail)


def add(f: GridFunction, g: GridFunction) -> GridFunction:
    """Pointwise sum on the coarsest exact common refinement."""
    return _binary(f, g, "add")


def subtract(f: GridFunction, g: GridFunction) -> GridFunction:
    """Pointwise difference; identical power-law tails cancel exactly."""
    return _binary(f, g, "sub")


# ---------------------------------------------------------------------------
# grid-aligned measurable sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasurableSet:
    """Finite union of grid cells, plus an optional unbounded right tail."""

    box: tuple[tuple[Fraction, Fraction], ...]
    spacing: tuple[Fraction, ...]
    mask: np.ndarray
    tail_start: Fraction | None = None

    def __post_init__(self):
        box = _normalize_box(self.box)
        object.__setattr__(self, "box", box)
        spacing = _normalize_spacing(self.spacing, len(box))
        object.__setattr__(self, "spacing", spacing)
        counts = _cell_counts(box, spacing)
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != counts:
            raise GridError(f"mask shape {mask.shape} does not match cell counts {counts}")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        if self.tail_start is not None:
            if len(box) != 1:
                raise GridError("tail intervals are one-dimensional only")
            object.__setattr__(self, "tail_start", as_fraction(self.tail_start))

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def is_bounded(self) -> bool:
        return self.tail_start is None

    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def measure_fraction(self) -> Fraction:
        if not self.is_bounded:
            raise GridError("unbounded set has no finite measure")
        v = Fraction(1)
        for h in self.spacing:
            v *= h
        return self.cell_count() * v

    def measure(self) -> float:
        if not self.is_bounded:
            return math.inf
        return float(self.measure_fraction())

    @classmethod
    def from_intervals(cls, intervals, spacing) -> "MeasurableSet":
        """1-d set from [lo, hi) intervals whose endpoints sit on the lattice."""
        h = as_fraction(spacing)
        ivs = [(as_fraction(lo), as_fraction(hi)) for lo, hi in intervals]
        if not ivs:
            return cls(((Fraction(0), h),), (h,), np.zeros(1, dtype=bool))
        a = min(lo for lo, _ in ivs)
        b = max(hi for _, hi in ivs)
        for lo, hi in ivs:
            for e in (lo - a, hi - a):
                if (e / h).denominator != 1:
                    raise GridError(f"interval endpoint {e + a} off the {h} lattice")
        mask = np.zeros(_cell_counts(((a, b),), (h,)), dtype=bool)
        for lo, hi in ivs:
            mask[int((lo - a) / h) : int((hi - a) / h)] = True
        return cls(((a, b),), (h,), mask)

    def _aligned(self, other: "MeasurableSet"):
        if not (self.is_bounded and other.is_bounded):
            raise GridError("set algebra requires bounded sets")
        box, spacing = _combined_geometry(self, other)
        a, b = (_embed(s.mask, s.box, s.spacing, box, spacing) for s in (self, other))
        return box, spacing, a, b

    def union(self, other: "MeasurableSet") -> "MeasurableSet":
        box, spacing, a, b = self._aligned(other)
        return MeasurableSet(box, spacing, a | b)

    def intersection(self, other: "MeasurableSet") -> "MeasurableSet":
        box, spacing, a, b = self._aligned(other)
        return MeasurableSet(box, spacing, a & b)

    def difference(self, other: "MeasurableSet") -> "MeasurableSet":
        box, spacing, a, b = self._aligned(other)
        return MeasurableSet(box, spacing, a & ~b)

    def symmetric_difference(self, other: "MeasurableSet") -> "MeasurableSet":
        box, spacing, a, b = self._aligned(other)
        return MeasurableSet(box, spacing, a ^ b)

    def translate(self, y: FractionLike) -> "MeasurableSet":
        """Shift a bounded 1-d set left by y (the set of x with x + y inside)."""
        if self.dim != 1:
            raise GridError("translate is one-dimensional here")
        dy = as_fraction(y)
        (a, b), = self.box
        return MeasurableSet(((a - dy, b - dy),), self.spacing, self.mask)


def indicator(s: MeasurableSet) -> GridFunction:
    """Indicator function of a bounded grid-aligned set."""
    if not s.is_bounded:
        raise GridError("indicator of an unbounded set is outside the space")
    return GridFunction(s.box, s.spacing, s.mask.astype(np.float64))
