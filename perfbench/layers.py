"""Per-layer metrics from the spans and counts that shim.py records.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans (calls within one request are sequential, so
children never overlap).  Sums are reported per request; maxima and ratios
over the whole run.
"""

from __future__ import annotations

from collections import defaultdict

# (name, unit, better); the order is the print order.
PER_LAYER = (
    ("sequences.calls", "count/req", "lower"),
    ("sequences.self_s", "s/req", "lower"),
    ("sequences.max_index", "count", "lower"),
    ("sequences.out_bits", "bit/req", "lower"),
    ("sequences.cache_hit_ratio", "ratio", "higher"),
    ("summation.calls", "count/req", "lower"),
    ("summation.self_s", "s/req", "lower"),
    ("summation.closed_s", "s/req", "lower"),
    ("summation.oracle_s", "s/req", "lower"),
    ("linearize.calls", "count/req", "lower"),
    ("linearize.self_s", "s/req", "lower"),
    ("linearize.terms", "count/req", "lower"),
    ("laurent.calls", "count/req", "lower"),
    ("laurent.self_s", "s/req", "lower"),
    ("laurent.poly_muls", "count/req", "lower"),
    ("laurent.max_support", "count", "lower"),
    ("arith.quad_muls", "count/req", "lower"),
    ("arith.quad_inverses", "count/req", "lower"),
    ("cli.self_s", "s/req", "lower"),
    ("cli.out_bytes", "B/req", "lower"),
    ("cli.peak_alloc_mb", "MB", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)

# Inclusive time of these functions is reported on its own.
_INCLUSIVE = {"power_sum": "summation.closed_s", "brute_force_power_sum": "summation.oracle_s"}


def summarise(requests: list[dict], overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics over the traced requests of one run.

    Each request is the record shim.py wrote in spans mode, plus "out_bytes"
    and "peak_alloc_bytes" from its other passes.
    """
    total: dict[str, float] = defaultdict(float)
    peak = {"sequences.max_index": 0, "laurent.max_support": 0, "cli.peak_alloc_mb": 0.0}
    hits = lookups = 0
    for request in requests:
        spans = request.get("spans", [])
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (layer, name, start, end, parent, attrs) in enumerate(spans):
            total[f"{layer}.calls"] += 1
            total[f"{layer}.self_s"] += end - start - child_time[i]
            if name in _INCLUSIVE:
                total[_INCLUSIVE[name]] += end - start
            if layer == "sequences":
                peak["sequences.max_index"] = max(peak["sequences.max_index"], attrs[0])
                total["sequences.out_bits"] += attrs[1]
            elif layer == "linearize" and (parent < 0 or spans[parent][0] != "linearize"):
                total["linearize.terms"] += attrs[0]
        counts = request.get("counts", {})
        total["laurent.poly_muls"] += counts.get("poly_muls", 0)
        total["arith.quad_muls"] += counts.get("quad_muls", 0)
        total["arith.quad_inverses"] += counts.get("quad_inverses", 0)
        total["cli.out_bytes"] += request["out_bytes"]
        peak["laurent.max_support"] = max(peak["laurent.max_support"], counts.get("max_support", 0))
        peak["cli.peak_alloc_mb"] = max(peak["cli.peak_alloc_mb"], request["peak_alloc_bytes"] / 2**20)
        cache = request.get("cache")
        if cache:
            hits += cache["hits"]
            lookups += cache["hits"] + cache["misses"]
    per_request = max(len(requests), 1)
    metrics = {name: total[name] / per_request for name, _, _ in PER_LAYER}
    metrics.update(peak)
    # 0 when the sequence functions expose no cache: no lookup can hit.
    metrics["sequences.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["trace.overhead_ms"] = overhead_ms
    return metrics
