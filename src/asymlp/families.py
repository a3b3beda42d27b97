"""Example function families and the FamilySpec container.

The five generator families exercise every behaviour the checkers care
about: growing plateaus (f), escaping bumps (g), oscillating signs (h),
a convergent far-out-bump perturbation (u), and a power-law scale family
(v).  Two auxiliary families (lipschitz, spike) cover the bounded-domain
certificates.  All constructions are exactly grid-aligned so downstream
integrals are exact.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .grid import (
    GridError,
    GridFunction,
    NotInSpaceError,
    TailSpec,
    add,
    constant,
    sample,
)
from .norms import NormParams

__all__ = [
    "FamilySpec",
    "default_phi",
    "family_f",
    "family_g",
    "rademacher",
    "family_u",
    "family_v",
    "v_limit_distance",
    "f_family",
    "g_family",
    "h_family",
    "u_family",
    "v_family",
    "lipschitz_family",
    "spike_family",
    "FAMILY_BUILDERS",
    "parse_family",
]


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """A finite ordered family of grid functions, optionally generator-backed.

    ``generator`` maps an index k to the member, so profile sweeps can
    stream members far beyond the materialised prefix without holding
    them all in memory.
    """

    name: str
    p: float
    members: tuple[GridFunction, ...]
    indices: tuple[int, ...]
    generator: Callable[[int], GridFunction] | None = None
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "p", NormParams(self.p).p)
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise GridError("nonempty family required")
        indices = tuple(int(i) for i in self.indices)
        if len(indices) != len(members):
            raise GridError("indices and members disagree in length")
        object.__setattr__(self, "indices", indices)
        for i, m in zip(indices, members):
            if not m.in_lambda_p(self.p):
                raise NotInSpaceError(
                    f"member {i} of family {self.name!r} has a divergent clamp integral"
                )

    @property
    def params(self) -> NormParams:
        return NormParams(self.p)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def min_spacing(self) -> Fraction:
        return min(min(m.spacing) for m in self.members)

    def sup_abs(self) -> float:
        return max(m.sup_abs() for m in self.members)

    def max_box_radius(self) -> Fraction:
        return max(m.box_radius() for m in self.members)

    def subfamily(self, K: int) -> "FamilySpec":
        keep = [j for j, i in enumerate(self.indices) if i <= K]
        if not keep:
            raise GridError(f"no members with index <= {K}")
        return FamilySpec(
            name=self.name,
            p=self.p,
            members=tuple(self.members[j] for j in keep),
            indices=tuple(self.indices[j] for j in keep),
            generator=self.generator,
            description=self.description,
        )

    def __str__(self) -> str:
        return (
            f"family {self.name!r}: {len(self.members)} members "
            f"(indices {self.indices[0]}..{self.indices[-1]}), p={self.p:g}"
        )


# ---------------------------------------------------------------------------
# individual members
# ---------------------------------------------------------------------------

_SIXTEENTH = Fraction(1, 16)


def default_phi() -> GridFunction:
    """The fixed nonnegative step bump 2 * indicator([0, 1/2])."""
    return constant(2.0, (0, Fraction(1, 2)), Fraction(1, 2))


def family_f(k: int, p: float = 1.0, spacing: Fraction = _SIXTEENTH) -> GridFunction:
    """k**(1/p) on [0, 1]: a plateau growing in height, fixed support."""
    if k < 1:
        raise GridError("index k must be >= 1")
    return constant(float(k) ** (1.0 / float(p)), (0, 1), spacing)


def family_g(k: int, spacing: Fraction = _SIXTEENTH) -> GridFunction:
    """Unit indicator of [k, k+1]: fixed shape escaping to infinity."""
    if k < 1:
        raise GridError("index k must be >= 1")
    return constant(1.0, (k, k + 1), spacing)


def rademacher(k: int, K_grid: int | None = None) -> GridFunction:
    """Sign blocks on [0, 1]: +1/-1 alternating on plateaus of width 2**-k.

    The grid spacing is 2**-K_grid with K_grid >= k + 1 so that plateaus
    are whole numbers of cells and half-plateau shifts stay on the lattice.
    """
    if k < 1:
        raise GridError("index k must be >= 1")
    if K_grid is None:
        K_grid = k + 1
    if K_grid < k + 1:
        raise GridError(f"grid exponent {K_grid} must be at least k+1 = {k + 1}")
    n = 2**K_grid
    block = np.arange(n) >> (K_grid - k)
    values = 1.0 - 2.0 * (block & 1)
    return GridFunction(((Fraction(0), Fraction(1)),), (Fraction(1, n),), values)


def family_u(k: int, p: float = 1.0, phi: GridFunction | None = None) -> GridFunction:
    """phi plus the far-out unit-mass bump k**(1/p) * indicator([k, k+1/k])."""
    if k < 1:
        raise GridError("index k must be >= 1")
    if phi is None:
        phi = default_phi()
    bump = constant(float(k) ** (1.0 / float(p)), (k, k + Fraction(1, k)), Fraction(1, k))
    return add(phi, bump)


def family_v(k: int, p: float = 2.0, resolution: int = 256) -> GridFunction:
    """x**-1 on [1/k, infinity): cell averages on [1/k, 1), analytic tail beyond.

    Cell values are exact averages (log differences over the spacing), so
    the grid part approximates unclamped p-integrals to O(h^2) while every
    clamped quantity that only needs values >= 1 stays exact.  Requires
    p > 1 for membership (the tail clamp integral diverges at p = 1).
    """
    if k < 1:
        raise GridError("index k must be >= 1")
    if not float(p) > 1.0:
        raise GridError("the x**-1 family needs p > 1; at p = 1 it leaves the space")
    rk = resolution * k
    h = Fraction(1, rk)
    box = (Fraction(-1), Fraction(1))
    n = int((box[1] - box[0]) / h)
    values = np.zeros(n)
    start = int((Fraction(1, k) - box[0]) / h)
    # left edge i is -1 + i/rk = (i - rk)/rk; numerator and denominator are
    # exact doubles below 2**53, so the division rounds the Fraction correctly
    lefts = (np.arange(start, n) - rk) / rk
    rights = lefts + float(h)
    values[start:] = (np.log(rights) - np.log(lefts)) / float(h)
    return GridFunction((box,), (h,), values, TailSpec.power_law(1.0, 1.0, 1))


def v_limit_distance(k: int, p: float) -> float:
    """Clamped distance from the k-th x**-1 member to the full x**-1 limit.

    The two functions agree beyond 1/k (same cells, same tail); on
    (0, 1/k) the difference is x**-1 >= k >= 1, so the clamp integrand is
    identically 1 and the p-th power of the distance is exactly 1/k.
    """
    if k < 1:
        raise GridError("index k must be >= 1")
    p = NormParams(p).p
    return float(Fraction(1, k)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------

def _krange(k: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(k, tuple):
        a, b = int(k[0]), int(k[1])
    else:
        a, b = 1, int(k)
    if a < 1 or b < a:
        raise GridError(f"bad index range {a}..{b}")
    return a, b


def _build(name, p, gen, krange, description) -> FamilySpec:
    a, b = _krange(krange)
    idx = tuple(range(a, b + 1))
    return FamilySpec(
        name=name,
        p=p,
        members=tuple(gen(k) for k in idx),
        indices=idx,
        generator=gen,
        description=description,
    )


def f_family(K: int | tuple[int, int], p: float = 1.0) -> FamilySpec:
    return _build(
        "f", p, lambda k: family_f(k, p), K, "growing plateaus k**(1/p) on [0,1]"
    )


def g_family(K: int | tuple[int, int], p: float = 1.0) -> FamilySpec:
    return _build("g", p, family_g, K, "unit indicators escaping to infinity")


def h_family(
    K: int | tuple[int, int], p: float = 1.0, K_grid: int | None = None
) -> FamilySpec:
    a, b = _krange(K)
    kg = b + 1 if K_grid is None else int(K_grid)
    return _build(
        "h",
        p,
        lambda k: rademacher(k, kg),
        (a, b),
        f"sign blocks on [0,1], common spacing 2**-{kg}",
    )


def u_family(
    K: int | tuple[int, int], p: float = 1.0, phi: GridFunction | None = None
) -> FamilySpec:
    base = default_phi() if phi is None else phi
    return _build(
        "u",
        p,
        lambda k: family_u(k, p, base),
        K,
        "fixed bump plus escaping unit-mass spikes",
    )


def v_family(
    K: int | tuple[int, int], p: float = 2.0, resolution: int = 256
) -> FamilySpec:
    return _build(
        "v",
        p,
        lambda k: family_v(k, p, resolution),
        K,
        "x**-1 cut at 1/k with analytic tail",
    )


def lipschitz_family(
    n: int = 4, p: float = 1.0, spacing: Fraction = Fraction(1, 64)
) -> FamilySpec:
    """sin(x + a) sampled at midpoints on [0, 1], phases a = (k-1)/4."""
    if n < 1:
        raise GridError("need at least one member")

    def gen(k: int) -> GridFunction:
        a = (k - 1) / 4.0
        return sample(lambda x: math.sin(x + a), (0, 1), spacing)

    return _build("lipschitz", p, gen, n, "1-Lipschitz sine samples on [0,1]")


def spike_family(K: int | tuple[int, int], p: float = 1.0) -> FamilySpec:
    """k**(1/p) on [0, 1/k**2]: tall spikes of shrinking measure inside [0,1]."""

    def gen(k: int) -> GridFunction:
        h = Fraction(1, k * k)
        values = np.zeros(k * k)
        values[0] = float(k) ** (1.0 / float(p))
        return GridFunction(((Fraction(0), Fraction(1)),), (h,), values)

    return _build("spike", p, gen, K, "tall spikes of measure 1/k**2 in [0,1]")


FAMILY_BUILDERS: dict[str, Callable] = {
    "f": f_family,
    "g": g_family,
    "h": h_family,
    "u": u_family,
    "v": v_family,
    "lipschitz": lipschitz_family,
    "spike": spike_family,
}


def parse_family(text: str) -> FamilySpec:
    """Build a family from a descriptor like ``u:k=1..64,p=1``.

    Keys: k=A..B (or k=N for 1..N), p=REAL, kgrid=N (h family),
    res=N (v family), n=N (lipschitz).
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in FAMILY_BUILDERS:
        known = ", ".join(sorted(FAMILY_BUILDERS))
        raise GridError(f"unknown family {name!r}; known: {known}")
    kwargs: dict = {}
    if rest.strip():
        for part in rest.split(","):
            key, _, val = part.partition("=")
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise GridError(f"malformed family parameter {part!r}")
            try:
                if key == "k":
                    m = re.fullmatch(r"(\d+)\.\.(\d+)", val)
                    kwargs["K"] = (int(m.group(1)), int(m.group(2))) if m else int(val)
                elif key == "p":
                    kwargs["p"] = float(val)
                elif key == "kgrid":
                    kwargs["K_grid"] = int(val)
                elif key == "res":
                    kwargs["resolution"] = int(val)
                elif key == "n":
                    kwargs["n"] = int(val)
                else:
                    raise GridError(f"unknown family parameter {key!r}")
            except GridError:
                raise
            except ValueError as exc:
                raise GridError(f"malformed family parameter {part!r}: {exc}") from None
    try:
        return FAMILY_BUILDERS[name](**kwargs)
    except TypeError as exc:
        raise GridError(f"bad parameters for family {name!r}: {exc}") from None
