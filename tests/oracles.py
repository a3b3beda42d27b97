"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: pure-Python
loops over cells with math.fsum, arbitrary-precision quadrature for tails,
and exhaustive subset search for covers.  Nothing in this module shares
quadrature code with the package; it touches GridFunction only as a plain
data container (box, spacing, values, tail).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 30


def _cell_volume(f) -> float:
    vol = Fraction(1)
    for h in f.spacing:
        vol *= h
    return float(vol)


def tail_integral(tail, p: float, clamp: bool) -> float:
    """Arbitrary-precision tail integral of (min(|t(x)|,1))**p or |t(x)|**p."""
    if tail.is_zero:
        return 0.0
    c = abs(tail.coefficient)
    alpha = tail.exponent
    L = float(tail.onset)
    if c == 0.0:
        return 0.0

    def integrand(x):
        v = c * mpmath.mpf(x) ** (-alpha)
        if clamp and v > 1:
            v = mpmath.mpf(1)
        return v**p

    points = [L]
    if clamp and alpha > 0:
        saturation = c ** (1.0 / alpha)  # where c*x**-alpha crosses 1
        if saturation > L:
            points.append(saturation)
    points.append(mpmath.inf)
    return float(mpmath.quad(integrand, points))


def brute_clamp_power(f, p: float) -> float:
    """Per-cell fsum of min(|v|,1)**p * cell volume, plus the tail."""
    vol = _cell_volume(f)
    terms = [min(abs(v), 1.0) ** p * vol for v in f.values.ravel().tolist()]
    return math.fsum(terms) + tail_integral(f.tail, p, clamp=True)


def brute_abs_power(f, p: float) -> float:
    vol = _cell_volume(f)
    terms = [abs(v) ** p * vol for v in f.values.ravel().tolist()]
    return math.fsum(terms) + tail_integral(f.tail, p, clamp=False)


def brute_alpha_norm(f, p: float) -> float:
    return brute_clamp_power(f, p) ** (1.0 / p)


def brute_lp_norm(f, p: float) -> float:
    return brute_abs_power(f, p) ** (1.0 / p)


def brute_distance_1d(f, g, p: float, clamp: bool) -> float:
    """Clamped/unclamped distance integral by looping over a common lattice.

    Both functions must be one-dimensional with tails that cancel exactly
    (both zero, or identical).  The common lattice is the gcd of the two
    spacings over the union box; values are read back at cell midpoints.
    """
    if not (f.tail == g.tail or (f.tail.is_zero and g.tail.is_zero)):
        raise ValueError("oracle needs cancelling tails")
    hf, hg = f.spacing[0], g.spacing[0]
    h = Fraction(math.gcd(hf.numerator, hg.numerator),
                 math.lcm(hf.denominator, hg.denominator))
    lo = min(f.box[0][0], g.box[0][0])
    hi = max(f.box[0][1], g.box[0][1])
    # align the lattice so both boxes sit on it
    offset = f.box[0][0] % h
    lo = (lo - offset) // h * h + offset
    n = int(math.ceil((hi - lo) / h))
    terms = []
    for i in range(n):
        mid = float(lo + h * i + h / 2)
        d = abs(f.value_at(mid) - g.value_at(mid))
        if clamp:
            d = min(d, 1.0)
        terms.append(d**p * float(h))
    return math.fsum(terms)


def minimal_cover_size(dist_matrix, eps: float) -> int:
    """Exhaustive smallest member-centred cover with strict radius eps."""
    n = len(dist_matrix)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if all(any(dist_matrix[i][c] < eps for c in subset) for i in range(n)):
                return size
    return n


def first_fit(members, eps: float, metric):
    """Plain first-fit cover: each member against every center, in order, until a hit.

    Returns (center positions, assignment, distances), the distance of a
    center to itself recorded as 0.0.
    """
    centers, assignment, distances = [], [], []
    for i, m in enumerate(members):
        for j, c in enumerate(centers):
            d = metric(m, members[c])
            if d < eps:
                assignment.append(j)
                distances.append(d)
                break
        else:
            centers.append(i)
            assignment.append(len(centers) - 1)
            distances.append(0.0)
    return centers, assignment, distances


def exact_sweep_1d(f, g, T, lo=None, hi=None, shift=Fraction(0)) -> Fraction:
    """Exact integral of T(f(x + shift) - g(x)) over lo <= x < hi.

    f and g are one-dimensional with zero tails; g may be None (read as 0).
    Every coordinate stays a Fraction: the breakpoints are all cell edges of
    both operands and the window bounds, and each piece between neighbouring
    breakpoints is read at its midpoint.  The difference is taken as a float
    subtraction, the value f - g is defined to be, and T maps that float to
    an exact Fraction.  lo/hi of None mean unbounded.
    """

    def cells(fn, offset):
        (a, _), = fn.box
        h = fn.spacing[0]
        vals = fn.values.tolist()
        return a - offset, h, vals

    operands = [cells(f, shift)] + ([] if g is None else [cells(g, Fraction(0))])
    points = set()
    for a, h, vals in operands:
        points.update(a + i * h for i in range(len(vals) + 1))
    if lo is not None:
        points.add(Fraction(lo))
    if hi is not None:
        points.add(Fraction(hi))
    points = sorted(points)

    def value(operand, x):
        a, h, vals = operand
        i = math.floor((x - a) / h)
        return vals[i] if 0 <= i < len(vals) else 0.0

    total = Fraction(0)
    for x0, x1 in zip(points, points[1:]):
        if (lo is not None and x0 < lo) or (hi is not None and x1 > hi):
            continue
        mid = (x0 + x1) / 2
        d = value(operands[0], mid) - (value(operands[1], mid) if g is not None else 0.0)
        total += (x1 - x0) * T(d)
    return total
