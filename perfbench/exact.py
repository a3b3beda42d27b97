"""Exact rational recount of sampled quadrature calls.

The benchmark samples calls to the public integrals while a workload runs
(see ``instrument.CallSample``) and recomputes each sampled call here from the
raw cell data: cell edges become Python integers on a common lattice, so
nothing can wrap, and every transformed value is summed as a ``Fraction``.
The package promises its integrals are exact up to one rounding per value
group; a recount that differs by more than ``REL_TOL`` of the integrand's
total mass is a wrong answer.

Cell differences are taken as float subtractions, the value the package
defines ``f - g`` to be, so a threshold that falls within one rounding of a
difference cannot flip between the two computations.  Only calls whose
result has no power-law tail contribution are recounted; for tailed
translation defects the exact grid part (the lower bound) is recounted and
the upper bound is checked to lie above it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from asymlp.quadrature import AbsPower, ClampPower, Outside, Threshold, Window

REL_TOL = Fraction(1, 2**40)


def _scale(*fracs: Fraction) -> int:
    s = 1
    for fr in fracs:
        s = math.lcm(s, Fraction(fr).denominator)
    return s


def _steps(f, scale: int, shift: Fraction = Fraction(0)):
    """Integer cell edges and float values of the grid part of a 1-d function."""
    (a, _), = f.box
    e0 = int((a + shift) * scale)  # scale clears every denominator involved
    step = int(f.spacing[0] * scale)
    n = f.values.shape[0]
    return [e0 + step * i for i in range(n + 1)], f.values.tolist()


def _value_at(edges, values, x: int) -> float:
    if x < edges[0] or x >= edges[-1]:
        return 0.0
    return values[bisect_right(edges, x) - 1]


def _transform(transform, d: float) -> Fraction:
    a = abs(d)
    if isinstance(transform, Threshold):
        return Fraction(1 if a > transform.level else 0)
    if isinstance(transform, ClampPower):
        a = min(a, 1.0)
    elif not isinstance(transform, AbsPower):
        raise TypeError(f"unknown transform {transform!r}")
    p = transform.p
    if p == int(p):
        return Fraction(a) ** int(p)
    return Fraction(a**p)  # irrational power: one rounding per value, as documented


def _region_length(l: int, r: int, scale: int, region):
    """Length, in lattice units, of the part of [l, r) inside the region."""
    if region is None:
        return r - l
    if isinstance(region, Window):
        lo = l if region.lo is None else max(l, int(Fraction(region.lo) * scale))
        hi = r if region.hi is None else min(r, int(Fraction(region.hi) * scale))
        return max(0, hi - lo)
    if isinstance(region, Outside):
        R = Fraction(region.radius) * scale
        return r - l - max(Fraction(0), min(r, R) - max(l, -R))
    raise TypeError(f"unknown region {region!r}")


def _difference(p_steps, q_steps, scale: int, transform, region) -> tuple[Fraction, Fraction]:
    """(integral over the region, integral without region) of T(p - q)."""
    (ep, vp), (eq, vq) = p_steps, q_steps
    edges = sorted(set(ep) | set(eq))
    groups: dict[Fraction, list] = {}  # T value -> [length in region, length]
    for l, r in zip(edges, edges[1:]):
        d = _value_at(ep, vp, l) - _value_at(eq, vq, l)
        t = _transform(transform, d)
        if t:
            g = groups.setdefault(t, [0, 0])
            g[0] += _region_length(l, r, scale, region)
            g[1] += r - l
    total = sum((t * g[0] for t, g in groups.items()), Fraction(0))
    mass = sum((t * g[1] for t, g in groups.items()), Fraction(0))
    return total / scale, mass / scale


def _region_fracs(region) -> list[Fraction]:
    if isinstance(region, Window):
        return [Fraction(b) for b in (region.lo, region.hi) if b is not None]
    return []


def integral(f, transform, region=None):
    scale = _scale(f.box[0][0], f.spacing[0], *_region_fracs(region))
    zero = ([0], [])
    return _difference(_steps(f, scale), zero, scale, transform, region)


def difference(f, g, transform, region=None):
    scale = _scale(f.box[0][0], f.spacing[0], g.box[0][0], g.spacing[0], *_region_fracs(region))
    return _difference(_steps(f, scale), _steps(g, scale), scale, transform, region)


def defect(f, y, transform, window=None):
    dy = Fraction(y)
    scale = _scale(f.box[0][0], f.spacing[0], dy, *_region_fracs(window))
    shifted = _steps(f, scale, shift=-dy)
    return _difference(shifted, _steps(f, scale), scale, transform, window)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def eligible(name: str, args: tuple, kwargs: dict) -> bool:
    """Whether a recorded call has a result this module can recount exactly."""
    f = args[0] if args else kwargs.get("f")
    if f is None or f.dim != 1:
        return False
    if name in ("translation_defect", "translation_defect_bounds"):
        return True
    if name == "difference_integral":
        g = _arg(args, kwargs, 1, "g")
        return g.dim == 1 and (f.tail == g.tail or (f.tail.is_zero and g.tail.is_zero))
    if name == "superlevel_measure":
        return f.tail.is_zero and float(_arg(args, kwargs, 1, "level")) >= 0.0
    if name == "integrate_transformed":
        t = _arg(args, kwargs, 1, "transform")
        return f.tail.is_zero and not (isinstance(t, Threshold) and t.level < 0.0)
    return False


def _close(result: float, exact: Fraction, mass: Fraction) -> bool:
    if not math.isfinite(result):
        return False
    return abs(Fraction(result) - exact) <= REL_TOL * mass


def recount(name: str, args: tuple, kwargs: dict, result) -> str | None:
    """Recompute one recorded call; None when it agrees, else a description."""
    f = args[0] if args else kwargs["f"]
    if name == "integrate_transformed":
        exact, mass = integral(f, _arg(args, kwargs, 1, "transform"), _arg(args, kwargs, 2, "region"))
    elif name == "superlevel_measure":
        exact, mass = integral(f, Threshold(float(_arg(args, kwargs, 1, "level"))))
    elif name == "difference_integral":
        exact, mass = difference(
            f, _arg(args, kwargs, 1, "g"), _arg(args, kwargs, 2, "transform"),
            _arg(args, kwargs, 3, "region"),
        )
    elif name == "translation_defect":
        exact, mass = defect(
            f, _arg(args, kwargs, 1, "y"), _arg(args, kwargs, 2, "transform"),
            _arg(args, kwargs, 3, "window"),
        )
    elif name == "translation_defect_bounds":
        y, transform = _arg(args, kwargs, 1, "y"), _arg(args, kwargs, 2, "transform")
        lower, upper = result
        if f.tail.is_zero:
            exact, mass = defect(f, y, transform)
            if upper != lower:
                return f"{name}: zero-tail bounds differ ({lower!r}, {upper!r})"
        else:
            L = f.box[0][1]
            exact, mass = defect(f, y, transform, Window(None, min(L, L - Fraction(y))))
            if not upper >= lower:
                return f"{name}: upper bound {upper!r} below lower bound {lower!r}"
        result = lower
    else:
        raise ValueError(f"no recount for {name}")
    if _close(result, exact, mass):
        return None
    return f"{name}: returned {result!r}, exact value {float(exact)!r}"
