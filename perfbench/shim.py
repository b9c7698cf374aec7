"""Run one balsum CLI request in-process, traced by module, or under tracemalloc.

    python perfbench/shim.py spans|alloc OUT.json -- <balsum arguments>

With PYTHONPATH pointing at src/, this behaves like `python -m balsum` (same
output, exit code and tracebacks) and writes a JSON record to OUT.json when
the request ends.

Mode "spans" wraps the public functions of the library modules where their
callers look them up (every module global that refers to them, and the
entries of cli._GENERATORS), so nothing under src/ changes.  Each call is a
span [layer, function, start, end, parent, attributes]; cli.main is the root
span.  Spans are kept in memory and written out once, at the end.
LaurentPoly and QuadElem multiplications and QuadElem inversions are counted
but not timed, because a timer per operation costs more than the operation.

Mode "alloc" runs the request under tracemalloc alone and records its peak,
so that the memory tracer does not inflate the span times.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import tracemalloc
from time import perf_counter
from typing import Any, Callable

# Library layers whose public functions become spans; cli is the root span.
LAYERS = ("sequences", "linearize", "summation", "laurent")


def _sequence_attrs(args: tuple, result: Any) -> list[int]:
    """[largest index asked for, bits returned]."""
    index = args[0] if args and isinstance(args[0], int) else 0
    if isinstance(result, int):
        return [index, result.bit_length()]
    if isinstance(result, list):
        return [index, sum(v.bit_length() for v in result)]
    return [index, 0]


def _linearize_attrs(args: tuple, result: Any) -> list[int]:
    """[number of terms in the returned form]."""
    return [len(getattr(result, "terms", ()))]


_ATTRS = {"sequences": _sequence_attrs, "linearize": _linearize_attrs}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"quad_muls": 0, "quad_inverses": 0, "poly_muls": 0, "max_support": 0}
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack, attrs = self.spans, self._stack, _ATTRS.get(layer)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    def count_arithmetic(self, arith: Any, laurent: Any) -> None:
        counts = self.counts
        quad_mul, quad_inverse = arith.QuadElem.__mul__, arith.QuadElem.inverse
        poly_mul = laurent.LaurentPoly.__mul__

        def counted_quad_mul(self: Any, other: Any) -> Any:
            counts["quad_muls"] += 1
            return quad_mul(self, other)

        def counted_inverse(self: Any) -> Any:
            counts["quad_inverses"] += 1
            return quad_inverse(self)

        def counted_poly_mul(self: Any, other: Any) -> Any:
            counts["poly_muls"] += 1
            product = poly_mul(self, other)
            if product is not NotImplemented:
                counts["max_support"] = max(counts["max_support"], len(product.support))
            return product

        arith.QuadElem.__mul__ = arith.QuadElem.__rmul__ = counted_quad_mul
        arith.QuadElem.inverse = counted_inverse
        laurent.LaurentPoly.__mul__ = counted_poly_mul


def _public_functions(module: Any) -> dict[int, tuple[str, Callable]]:
    """Functions (lru_cache wrappers included) defined in ``module``."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(inspect.unwrap(obj)):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            found[id(obj)] = (name, obj)
    return found


def instrument(tracer: Tracer) -> list[Callable]:
    """Swap every reference to a layer function for its traced wrapper.

    Returns the original sequence functions, which own any caches.
    """
    modules = {name: importlib.import_module(f"balsum.{name}") for name in (*LAYERS, "arith", "cli")}
    namespaces = [importlib.import_module("balsum"), *modules.values()]
    originals = {layer: _public_functions(modules[layer]) for layer in LAYERS}
    replacement = {
        key: tracer.wrap(layer, name, fn)
        for layer in LAYERS
        for key, (name, fn) in originals[layer].items()
    }
    for namespace in namespaces:
        for name, obj in list(vars(namespace).items()):
            if id(obj) in replacement:
                setattr(namespace, name, replacement[id(obj)])
    generators = modules["cli"]._GENERATORS
    for key, fn in generators.items():
        generators[key] = replacement.get(id(fn), fn)
    tracer.count_arithmetic(modules["arith"], modules["laurent"])
    return [fn for _, fn in originals["sequences"].values()]


def _cache_stats(functions: list[Callable]) -> dict[str, int] | None:
    infos = [fn.cache_info() for fn in functions if hasattr(fn, "cache_info")]
    if not infos:
        return None
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


def main() -> int:
    mode, out_path, separator, *argv = sys.argv[1:]
    if mode not in ("spans", "alloc") or separator != "--":
        raise SystemExit("usage: shim.py spans|alloc OUT.json -- <balsum arguments>")
    from balsum import cli

    record: dict[str, Any] = {}
    try:
        if mode == "spans":
            tracer = Tracer()
            sequence_functions = instrument(tracer)
            record = {"spans": tracer.spans, "counts": tracer.counts}
            try:
                return tracer.wrap("cli", "main", cli.main)(argv)
            finally:
                record["cache"] = _cache_stats(sequence_functions)
        tracemalloc.start()
        try:
            return cli.main(argv)
        finally:
            record["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    finally:
        with open(out_path, "w") as out:
            json.dump(record, out)


if __name__ == "__main__":
    sys.exit(main())
