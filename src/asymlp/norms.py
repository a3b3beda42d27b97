"""Clamped and classical L^p norms, distances, and convergence diagnostics.

The clamped norm ``alpha_norm(f) = (integral of min(|f|,1)^p)**(1/p)`` is an
F-norm: it satisfies the triangle inequality and is monotone under scalar
shrinking, but is not homogeneous.  It is finite exactly when the declared
tail keeps the clamp integral finite, which construction already validated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .grid import GridFunction, GridError, NotInSpaceError
from .quadrature import AbsPower, ClampPower, difference_integral, integrate_transformed

__all__ = [
    "NormParams",
    "ConvergenceReport",
    "lp_norm",
    "alpha_norm",
    "lp_distance",
    "alpha_distance",
    "alpha_converges",
]


@dataclass(frozen=True)
class NormParams:
    """Exponent bundle for the norms; p >= 1 throughout."""

    p: float = 1.0

    def __post_init__(self):
        p = float(self.p)
        if not math.isfinite(p) or p < 1.0:
            raise GridError(f"p must satisfy 1 <= p < infinity, got {self.p}")
        object.__setattr__(self, "p", p)


def _p_of(params: NormParams | float | int) -> float:
    if isinstance(params, NormParams):
        return params.p
    return NormParams(float(params)).p


def lp_norm(f: GridFunction, params: NormParams | float) -> float:
    """(integral of |f|^p)**(1/p); math.inf when the tail diverges."""
    p = _p_of(params)
    total = integrate_transformed(f, AbsPower(p))
    return math.inf if total == math.inf else total ** (1.0 / p)


def alpha_norm(f: GridFunction, params: NormParams | float) -> float:
    """(integral of min(|f|,1)^p)**(1/p); finite for every valid member."""
    p = _p_of(params)
    total = integrate_transformed(f, ClampPower(p))
    if total == math.inf:
        raise NotInSpaceError(
            "clamp integral diverges: the declared tail is outside the space"
        )
    return total ** (1.0 / p)


def lp_distance(f: GridFunction, g: GridFunction, params: NormParams | float) -> float:
    p = _p_of(params)
    total = difference_integral(f, g, AbsPower(p))
    return math.inf if total == math.inf else total ** (1.0 / p)


def alpha_distance(f: GridFunction, g: GridFunction, params: NormParams | float) -> float:
    """The metric d(f, g) = alpha_norm(f - g), computed without materialising f - g."""
    p = _p_of(params)
    total = difference_integral(f, g, ClampPower(p))
    if total == math.inf:
        raise NotInSpaceError("difference leaves the space: clamp integral diverges")
    return total ** (1.0 / p)


@dataclass(frozen=True)
class ConvergenceReport:
    """Finite-horizon decay diagnostic: distances to the limit, never a limit claim."""

    p: float
    tol: float
    indices: tuple[int, ...]
    distances: tuple[float, ...]
    errors: tuple[str, ...]
    converged: bool
    monotone_fraction: float

    def __str__(self) -> str:
        verdict = "converged" if self.converged else "not converged"
        last = self.distances[-1] if self.distances else math.nan
        return (
            f"{verdict} at K={self.indices[-1] if self.indices else 0}: "
            f"last distance {last:.6g} vs tol {self.tol:g} "
            f"(nonincreasing steps: {self.monotone_fraction:.0%})"
        )


def _horizon_report(seq, K, indices, p, tol, distance, vet=None) -> ConvergenceReport:
    """ConvergenceReport of d_k = distance(f_k) over the first K members of seq.

    distance returns (d_k, error message); an error is recorded as nan and
    blocks a "converged" verdict.  vet(members) runs before the index check.
    """
    members = list(getattr(seq, "members", seq))
    if K is not None:
        members = members[:K]
    if not members:
        raise GridError("nonempty sequence required")
    if vet is not None:
        vet(members)
    idx = tuple(indices) if indices is not None else tuple(range(1, len(members) + 1))
    if len(idx) != len(members):
        raise GridError("indices and members disagree in length")

    distances, errors = zip(*map(distance, members))
    valid = [d for d in distances if not math.isnan(d)]
    steps = list(zip(valid, valid[1:]))
    monotone = (
        sum(1 for a, b in steps if b <= a + 1e-15) / len(steps) if steps else 1.0
    )
    return ConvergenceReport(
        p=p,
        tol=float(tol),
        indices=idx,
        distances=distances,
        errors=errors,
        converged=not any(errors) and bool(valid) and distances[-1] < tol,
        monotone_fraction=monotone,
    )


def alpha_converges(
    seq: Iterable[GridFunction] | Sequence[GridFunction],
    limit: GridFunction,
    params: NormParams | float,
    tol: float,
    K: int | None = None,
    indices: Sequence[int] | None = None,
) -> ConvergenceReport:
    """Distance-to-limit sequence d_k = alpha_distance(f_k, limit) with verdict d_K < tol.

    Incompatible members are recorded per index (distance nan) instead of
    aborting the sweep; any recorded error blocks a "converged" verdict.
    """
    p = _p_of(params)
    if tol <= 0.0:
        raise GridError("tol must be positive")

    def distance(m):
        try:
            return alpha_distance(m, limit, p), ""
        except GridError as exc:
            return math.nan, str(exc)

    return _horizon_report(seq, K, indices, p, tol, distance)
