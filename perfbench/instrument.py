"""Instrumentation of the asymlp package from outside: spans, counters, a call sample.

Each instrumented function is replaced by a wrapper wherever a caller
looks it up: in its defining module, in every asymlp module that imported
it by name, and in the ``asymlp`` namespace.  Nothing inside ``src/`` is
edited.

* ``CallSample`` keeps a seeded uniform sample (reservoir algorithm L) of
  calls to the public integrals, for the exact recount in ``exact.py``.
  It is installed in every run; its wrapper costs one increment and one
  comparison per call.
* ``Tracer`` records one span per call of every public layer function made
  inside one of the benchmark's operations -- name, start, end and parent
  span -- in memory, plus the counters the per-layer metrics need, and
  where each pass ends.  ``Tracer.dump`` writes them out once, at exit;
  ``reduce_spans`` reduces them to calls per pass and self times.
"""
from __future__ import annotations

import functools
import math
import os
import random
import sys
import time
import types
from array import array
from collections import Counter
from fractions import Fraction

import numpy as np

LAYERS = ("quadrature", "norms", "criteria", "nets", "bounded", "operators", "families", "io", "cli")
SAMPLED = (
    "integrate_transformed",
    "difference_integral",
    "translation_defect",
    "translation_defect_bounds",
    "superlevel_measure",
)
FIRST_FIT = ("nets.greedy_net", "nets.covering_profile")


def layer_functions() -> dict[str, types.FunctionType]:
    """Public functions of every layer module, keyed ``module.function``."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"asymlp.{layer}"]
        names = getattr(module, "__all__", ("main",))
        for name in names:
            obj = getattr(module, name)
            if isinstance(obj, types.FunctionType):
                out[f"{layer}.{name}"] = obj
    return out


def patch(original, replacement) -> None:
    """Rebind every asymlp module attribute that refers to ``original``."""
    for modname, module in list(sys.modules.items()):
        if modname == "asymlp" or modname.startswith("asymlp."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class CallSample:
    """Per-function uniform sample of eligible calls, deterministic per seed."""

    def __init__(self, seed: int, size: int, eligible):
        self._rng = random.Random(seed)
        self._size = size
        self._eligible = eligible
        self.kept: dict[str, list] = {}
        self._w: dict[str, float] = {}
        self._tickets: dict[str, list] = {}

    def ticket(self, name: str) -> list:
        """Mutable [calls seen, index of the next call to offer] for ``name``."""
        self.kept[name] = []
        self._w[name] = math.exp(math.log(self._rng.random()) / self._size)
        self._tickets[name] = [0, 1]
        return self._tickets[name]

    def seen(self) -> dict[str, int]:
        """Calls made so far to each sampled function."""
        return {name: ticket[0] for name, ticket in self._tickets.items()}

    def offer(self, name: str, ticket: list, args, kwargs, result) -> None:
        if not self._eligible(name, args, kwargs):
            return  # the next call is offered instead
        kept = self.kept[name]
        if len(kept) < self._size:
            kept.append((name, args, kwargs, result))
            ticket[1] = ticket[0] + 1 if len(kept) < self._size else self._skip(name, ticket[0])
            return
        kept[self._rng.randrange(self._size)] = (name, args, kwargs, result)
        self._w[name] *= math.exp(math.log(self._rng.random()) / self._size)
        ticket[1] = self._skip(name, ticket[0])

    def _skip(self, name: str, seen: int) -> int:
        w = self._w[name]
        return seen + int(math.log(self._rng.random()) / math.log1p(-w)) + 1

    def calls(self) -> list:
        return [c for name in sorted(self.kept) for c in self.kept[name]]


def install_sample(sample: CallSample) -> None:
    """Wrap the public integrals so that ``sample`` sees every call."""
    quadrature = sys.modules["asymlp.quadrature"]
    for name in SAMPLED:
        fn = getattr(quadrature, name)
        ticket = sample.ticket(name)

        def wrapper(*args, _fn=fn, _name=name, _ticket=ticket, **kwargs):
            result = _fn(*args, **kwargs)
            _ticket[0] += 1
            if _ticket[0] >= _ticket[1]:
                sample.offer(_name, _ticket, args, kwargs, result)
            return result

        patch(fn, functools.wraps(fn)(wrapper))


class Tracer:
    """In-memory span recorder with the per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._defects: dict[tuple, object] = {}
        self.pass_ends = array("q")
        self.pass_counters: list[dict] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _parent_name(self) -> str:
        top = self._stack[-1]
        return self.names[self.name_id[top]] if top >= 0 else ""

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        if name.startswith("quadrature."):
            hook = self._after_quadrature
        stack = self._stack

        def wrapper(*args, **kwargs):
            if len(stack) == 1:  # outside the benchmark's operations: an answer check
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(name, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, functions: dict) -> None:
        for name, fn in functions.items():
            patch(fn, self.wrap(name, fn))

    def end_pass(self) -> None:
        """Mark the end of a pass: keep its counters and start the next from zero."""
        counters = dict(self.counters)
        counters["criteria.defect_triples"] = len(self._defects)
        self.pass_counters.append(counters)
        self.pass_ends.append(len(self.start))
        self.counters = Counter()
        self._defects = {}

    # -- counters, evaluated after the call returns --------------------------

    def _after_quadrature(self, name, args, kwargs, result):
        if self._parent_name().startswith("quadrature."):
            return  # count what enters the layer, not its internal calls
        c = self.counters
        c["quadrature.cells_in"] += sum(a.values.size for a in args if hasattr(a, "spacing"))
        if name in ("quadrature.translation_defect", "quadrature.translation_defect_bounds"):
            f, y, transform = args[0], Fraction(args[1]), args[2]
            c["criteria.defect_calls"] += 1
            self._defects.setdefault((id(f), y, transform), f)  # value keeps the id alive

    def _after_distance(self, name, args, kwargs, result):
        parent = self._parent_name()
        if parent.startswith("nets."):
            self.counters["nets.distance_calls"] += 1
            if parent in FIRST_FIT or (
                parent == "nets.truncation_lift_net" and name == "norms.lp_distance"
            ):
                self.counters["nets.first_fit_distances"] += 1

    _after_norms_alpha_distance = _after_distance
    _after_norms_lp_distance = _after_distance

    def _after_net(self, name, args, kwargs, net):
        self.counters["nets.centers"] += net.size
        self.counters["nets.hits"] += len(net.assignment) - net.size

    _after_nets_greedy_net = _after_net
    _after_nets_truncation_lift_net = _after_net

    def _after_nets_covering_profile(self, name, args, kwargs, sizes):
        # each member beyond the centers was covered by exactly one first-fit hit
        self.counters["nets.centers"] += sizes[-1]
        horizons = args[2] if len(args) > 2 else kwargs["K_list"]
        self.counters["nets.hits"] += max(horizons) - sizes[-1]

    def _after_check(self, name, args, kwargs, result):
        outcomes = result if isinstance(result, tuple) else (result,)
        self.counters["criteria.evaluations"] += sum(o.scan.get("evaluations", 0) for o in outcomes)

    _after_criteria_check_tail = _after_check
    _after_criteria_check_translation = _after_check
    _after_criteria_check_level = _after_check
    _after_criteria_check_kr_lp = _after_check

    def _after_io_load_json(self, name, args, kwargs, result):
        self.counters["io.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _after_io_save_json(self, name, args, kwargs, result):
        self.counters["io.bytes_written"] += os.path.getsize(
            args[1] if len(args) > 1 else kwargs["path"]
        )

    # -- output ---------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, the pass ends and the counters of every pass in one file."""
        names = sorted({k for c in self.pass_counters for k in c})
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            pass_ends=np.frombuffer(self.pass_ends, dtype=np.int64),
            counter_names=np.array(names, dtype=str),
            counter_values=np.array(
                [[c.get(k, 0) for k in names] for c in self.pass_counters], dtype=np.int64
            ).reshape(len(self.pass_counters), len(names)),
        )


def reduce_spans(path) -> dict:
    """Calls and counters per pass, self time per span name, root time per pass.

    A span's self time is its duration minus the durations of its direct
    children.  Root spans are the benchmark's own operations (``bench``), so
    the self times of a pass add up to its root durations.
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name_id, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        pass_ends = z["pass_ends"]
        counter_names = [str(k) for k in z["counter_names"]]
        counter_values = z["counter_values"]
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    self_s = np.bincount(name_id, weights=self_time, minlength=len(names))
    pass_calls, root_s = [], []
    for lo, hi in zip(np.concatenate(([0], pass_ends[:-1])), pass_ends):
        calls = np.bincount(name_id[lo:hi], minlength=len(names))
        pass_calls.append({n: int(calls[i]) for i, n in enumerate(names) if calls[i]})
        root_s.append(float(dur[lo:hi][~nested[lo:hi]].sum()))
    return {
        "pass_calls": pass_calls,
        "pass_counters": [
            {k: int(v) for k, v in zip(counter_names, row)} for row in counter_values
        ],
        "self_s": {n: float(self_s[i]) for i, n in enumerate(names)},
        "root_s": root_s,
        "roots": sorted({names[i] for i in np.unique(name_id[~nested])}),
    }
