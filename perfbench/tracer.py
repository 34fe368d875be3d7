"""Span tracer that wraps the public functions of every stochint module.

The library itself is never edited: :func:`install` replaces each public
function named in a module's ``__all__`` by a wrapper, in every stochint
module namespace that refers to it.  Modules import each other's functions
by name (``from .coeffs import coeff_tensor``), so the wrapper has to be
installed under each of those names for calls between layers to be seen.

Each wrapper records one span per call.  Spans nest on a stack; when a span
closes, its duration is charged to its own name and its duration minus its
children's is charged to its layer as self time.  Spans are aggregated as
they close, so a run with hundreds of thousands of calls stays small.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: The layers are the stochint modules, innermost first.
LAYERS = ("basis", "coeffs", "errors", "qselect", "tables", "expansion", "oracle", "cli")


class Tracer:
    """Aggregated spans: inclusive time and calls per function, self time per layer."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    def wrap(self, layer, name, fn, label=None, after=None):
        """Return ``fn`` wrapped in a span named ``layer.name``.

        ``label(args)`` refines the span name (one name per validation
        case); ``after(result)`` updates work counters from the result.
        """
        stack = self._stack
        clock = time.perf_counter
        base = f"{layer}.{name}"

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = f"{base}[{label(args)}]" if label else base
                self.total[key] += duration
                self.calls[key] += 1
                self.self_time[layer] += duration - frame[0]
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "calls": dict(self.calls),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }


def span_cost(calls: int = 20_000, repeats: int = 7) -> float:
    """Seconds one nested span adds to a call, measured in this process.

    Times a wrapped no-op against the bare no-op, ``calls`` calls each, and
    returns the median difference per call over ``repeats`` rounds.  The
    spans are charged to a throw-away tracer.
    """
    tracer = Tracer()
    tracer._stack.append([0.0])  # the spans being measured are children, as most are

    def noop():
        return None

    wrapped = tracer.wrap("calibration", "noop", noop)
    rounds = range(calls)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in rounds:
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in rounds:
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    costs.sort()
    return costs[len(costs) // 2]


def snapshot_diff(later: dict, earlier: dict) -> dict:
    """Spans recorded between two snapshots."""
    return {
        part: {k: v - earlier[part].get(k, 0) for k, v in later[part].items()}
        for part in later
    }


def install(tracer: Tracer) -> dict:
    """Wrap every public stochint function; return the originals by span name."""
    import stochint

    modules = {layer: importlib.import_module(f"stochint.{layer}") for layer in LAYERS}
    counters = tracer.counters

    def count_entries(tensor):
        counters["coeffs.tensor_entries"] += tensor.values.size

    def count_bytes(payload):
        counters["coeffs.payload_bytes"] += len(payload.encode())

    special = {
        ("coeffs", "coeff_tensor"): {"after": count_entries},
        ("coeffs", "tensor_to_json"): {"after": count_bytes},
        ("coeffs", "tensor_to_csv"): {"after": count_bytes},
        ("oracle", "validate_expansion"): {"label": lambda args: args[0]},
    }
    replacements = {}
    originals = {}
    for layer, module in modules.items():
        for name in module.__all__:
            fn = getattr(module, name)
            if isinstance(fn, type) or not callable(fn):
                continue
            if getattr(fn, "__module__", None) != module.__name__:
                continue
            originals[f"{layer}.{name}"] = fn
            replacements[id(fn)] = (fn, tracer.wrap(layer, name, fn, **special.get((layer, name), {})))
    for module in (stochint, *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return originals
