"""Structured-text (JSON) formats for functions, families, reports, nets.

Box coordinates and spacings serialize as exact fraction strings; cell
values serialize as floats whose repr round-trips bit-exactly.  Value
arrays may be run-length encoded ([count, value] pairs) when that is
shorter.  All writers emit keys in a fixed order so identical inputs
produce byte-identical files.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .criteria import ConditionOutcome, ConditionReport
from .families import FamilySpec
from .grid import GridError, GridFunction, TailSpec
from .nets import EpsNet

__all__ = [
    "function_to_dict",
    "function_from_dict",
    "family_to_dict",
    "family_from_dict",
    "report_to_dict",
    "net_to_dict",
    "save_json",
    "load_json",
    "load_function",
    "load_family",
]


def _frac_str(x: Fraction) -> str:
    return str(x)


def _parse_frac(s) -> Fraction:
    return Fraction(str(s))


def _encode_values(values: np.ndarray) -> dict:
    flat = values.ravel()
    # Runs of equal bit patterns, so 0.0 and -0.0 stay apart.
    bits = flat.view(np.uint64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * len(starts) < flat.size:
        counts = np.diff(np.append(starts, flat.size))
        return {
            "encoding": "rle",
            "data": [[c, v] for c, v in zip(counts.tolist(), flat[starts].tolist())],
        }
    return {"encoding": "plain", "data": flat.tolist()}


def _decode_values(spec: dict, counts: tuple[int, ...]) -> np.ndarray:
    enc = spec.get("encoding", "plain")
    data = spec["data"]
    if enc == "plain":
        flat = np.array([float(v) for v in data], dtype=np.float64)
    elif enc == "rle":
        flat = np.concatenate(
            [np.full(int(c), float(v)) for c, v in data]
        ) if data else np.zeros(0)
    else:
        raise GridError(f"unknown value encoding {enc!r}")
    if flat.size != int(np.prod(counts)):
        raise GridError(
            f"value payload has {flat.size} cells, geometry implies {np.prod(counts)}"
        )
    return flat.reshape(counts)


def _tail_to_dict(tail: TailSpec) -> dict:
    if tail.kind == "zero":
        return {"kind": "zero"}
    return {
        "kind": "power_law",
        "coefficient": float(tail.coefficient),
        "exponent": float(tail.exponent),
        "onset": _frac_str(tail.onset),
    }


def _tail_from_dict(d: dict) -> TailSpec:
    if d["kind"] == "zero":
        return TailSpec.zero()
    return TailSpec.power_law(d["coefficient"], d["exponent"], _parse_frac(d["onset"]))


def function_to_dict(f: GridFunction) -> dict:
    return {
        "kind": "grid_function",
        "dim": f.dim,
        "box": [[_frac_str(a), _frac_str(b)] for a, b in f.box],
        "spacing": [_frac_str(h) for h in f.spacing],
        "values": _encode_values(f.values),
        "tail": _tail_to_dict(f.tail),
    }


def function_from_dict(d: dict) -> GridFunction:
    if d.get("kind") != "grid_function":
        raise GridError("not a grid_function payload")
    box = tuple((_parse_frac(a), _parse_frac(b)) for a, b in d["box"])
    spacing = tuple(_parse_frac(h) for h in d["spacing"])
    counts = tuple(int((b - a) / h) for (a, b), h in zip(box, spacing))
    values = _decode_values(d["values"], counts)
    return GridFunction(box, spacing, values, _tail_from_dict(d["tail"]))


def family_to_dict(family: FamilySpec) -> dict:
    return {
        "kind": "family",
        "name": family.name,
        "p": float(family.p),
        "description": family.description,
        "indices": list(family.indices),
        "members": [function_to_dict(m) for m in family.members],
    }


def family_from_dict(d: dict) -> FamilySpec:
    if d.get("kind") != "family":
        raise GridError("not a family payload")
    return FamilySpec(
        name=d["name"],
        p=d["p"],
        members=tuple(function_from_dict(m) for m in d["members"]),
        indices=tuple(d["indices"]),
        description=d.get("description", ""),
    )


def _outcome_to_dict(e: ConditionOutcome) -> dict:
    return {
        "condition": e.condition,
        "eps": e.eps,
        "verdict": e.verdict,
        "witness": e.witness,
        "offender_index": e.offender_index,
        "offending_value": e.offending_value,
        "offending_shift": e.offending_shift,
        "detail": e.detail,
        "scan": e.scan,
    }


def report_to_dict(report: ConditionReport) -> dict:
    return {
        "kind": "condition_report",
        "family": report.family,
        "p": report.p,
        "K": report.K,
        "candidate_totally_bounded": report.candidate_totally_bounded,
        "entries": [_outcome_to_dict(e) for e in report.entries],
    }


def net_to_dict(net: EpsNet, include_centers: bool = False) -> dict:
    out = {
        "kind": "eps_net",
        "eps": net.eps,
        "p": net.p,
        "method": net.method,
        "size": net.size,
        "center_indices": list(net.center_indices),
        "assignment": list(net.assignment),
        "distances": list(net.distances),
        "max_assigned_distance": net.max_assigned_distance,
        "extras": net.extras,
    }
    if include_centers or net.method != "greedy":
        out["centers"] = [function_to_dict(c) for c in net.centers]
    return out


def save_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def load_function(path: str | Path) -> GridFunction:
    return function_from_dict(load_json(path))


def load_family(path: str | Path) -> FamilySpec:
    return family_from_dict(load_json(path))
