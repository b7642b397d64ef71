"""Per-layer metrics from a traced round, and the end-to-end metric each one
should move.  Layers are the modules of `quasitrivial`.

`us_per_obj` and `us_per_call` divide a name's self time (its spans minus
their child spans) by the objects it produced or the calls made to it;
`self_s` is that self time summed over one round.  Every workload reports
every metric; a layer that does no work on a workload reports 0.
"""

from __future__ import annotations

MODULES = ("orders", "enumeration", "structure", "magmas", "formats", "render",
           "counting", "oracle", "verify", "cli")
COUNTING_METHODS = ("closed", "recurrence", "gf", "egf", "appendix")
VERIFY_CHECKS = (
    "method-agreement", "published-values", "enumeration-agreement", "oracle-counts",
    "implication-searches", "monotonizable-counts", "factorization-roundtrip",
    "peakedness-pattern-theorem", "monotone-equivalence", "connectivity-tests",
    "theorem-counts",
)

_EMIT = "enumerate.emitted_per_s"
_TAIL = "crosscheck.op_s_tail"

# (metric, unit, better, end-to-end metric it should move)
PER_LAYER = [
    ("enumeration.rank_vectors.us_per_obj", "us", "lower", _EMIT),
    ("enumeration.kimura_decompositions.us_per_obj", "us", "lower", _EMIT),
    ("enumeration.generate.built", "count", "lower", "enumerate.ops_per_s (filtered jobs)"),
    ("enumeration.generate.kept", "count", "higher", "enumerate.ops_per_s (filtered jobs)"),
    ("enumeration.generate.keep_ratio", "ratio", "higher", "enumerate.ops_per_s (filtered jobs)"),
    ("enumeration.shard.built_ratio", "ratio", "lower", "enumerate.op_s_p50 (sharded jobs)"),
    ("orders.WeakOrder.us_per_obj", "us", "lower", _EMIT + " (weak-order jobs)"),
    ("orders.is_weakly_single_peaked.us_per_call", "us", "lower", _EMIT + " (weak-order jobs)"),
    ("structure.build.us_per_obj", "us", "lower", _EMIT),
    ("structure.KimuraDecomposition.us_per_obj", "us", "lower", _EMIT),
    ("structure.decompose.us_per_call", "us", "lower", "classify.ops_per_s, classify.op_s_p50"),
    ("structure.classify.us_per_call", "us", "lower", "classify.ops_per_s, classify.op_s_p50"),
    ("structure.monotonizing_orders.orders_tried", "count", "lower", "classify.op_s_tail"),
    ("structure.monotonizing_orders.orders_kept", "count", "higher", "classify.op_s_tail"),
    ("magmas.FiniteBinOp.us_per_obj", "us", "lower", _EMIT),
    ("magmas.is_order_preserving.calls", "count", "lower",
     "classify.op_s_tail, enumerate.ops_per_s (monotone filter)"),
    ("magmas.is_order_preserving.us_per_call", "us", "lower",
     "classify.op_s_tail, enumerate.ops_per_s (monotone filter)"),
    ("magmas.is_associative.us_per_call", "us", "lower", "classify.op_s_p50, enumerate.ops_per_s"),
    ("magmas.neutral_elements.us_per_call", "us", "lower", "classify.op_s_p50, enumerate.ops_per_s"),
    ("magmas.annihilator_elements.us_per_call", "us", "lower", "classify.op_s_p50, enumerate.ops_per_s"),
    ("magmas.is_commutative.us_per_call", "us", "lower", "classify.op_s_p50, enumerate.ops_per_s"),
    ("formats.emit_cayley_line.us_per_obj", "us", "lower", _EMIT),
    ("formats.emit_weak_order.us_per_obj", "us", "lower", _EMIT),
    ("formats.load_table.us_per_call", "us", "lower", "classify.op_s_p50"),
    ("formats.emit_classification.us_per_call", "us", "lower", "classify.op_s_p50"),
    ("render.render_contour.us_per_call", "us", "lower", "classify.op_s_p50"),
    *[(f"counting.{m}.self_s", "s", "lower", "crosscheck.op_s_p50") for m in COUNTING_METHODS],
    ("oracle.brute_count_quasitrivial_associative.self_s", "s", "lower", _TAIL),
    ("oracle.masks_per_s", "1/s", "higher", _TAIL),
    ("oracle.check_neutral_monotone_implies_quasitrivial.self_s", "s", "lower", _TAIL),
    ("oracle.check_commutative_monotone_implies_associative.self_s", "s", "lower", _TAIL),
    ("oracle.brute_count_monotonizable.self_s", "s", "lower", _TAIL),
    *[(f"verify.{c}.self_s", "s", "lower", _TAIL) for c in VERIFY_CHECKS],
    *[(f"{m}.self_s", "s", "lower", "every workload the module runs in") for m in MODULES],
    ("trace.overhead_frac", "ratio", "lower", "none: the cost of tracing itself"),
]


def _totals(reductions) -> dict:
    totals: dict[str, dict] = {}
    for red in reductions:
        if red is None:
            continue
        for name, agg in red["names"].items():
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "yields": 0})
            t["calls"] += agg["calls"]
            t["self_s"] += agg["self_s"]
            t["yields"] += agg["yields"]
    return totals


def _calls(red, name: str) -> int:
    return red["names"].get(name, {}).get("calls", 0) if red else 0


def compute(ops, reductions, overhead_frac: float) -> dict:
    """Per-layer metrics for one traced round; `ops[i]` ran as `reductions[i]`."""
    totals = _totals(reductions)

    def per(name: str, denominator: str) -> float:
        t = totals.get(name)
        if not t or not t[denominator]:
            return 0.0
        return t["self_s"] / t[denominator] * 1e6

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    out = {
        "enumeration.rank_vectors.us_per_obj": per("enumeration.rank_vectors", "yields"),
        "enumeration.kimura_decompositions.us_per_obj": per("enumeration.kimura_decompositions", "yields"),
        "orders.WeakOrder.us_per_obj": per("orders.WeakOrder", "calls"),
        "orders.is_weakly_single_peaked.us_per_call": per("orders.is_weakly_single_peaked", "calls"),
        "structure.build.us_per_obj": per("structure.build", "calls"),
        "structure.KimuraDecomposition.us_per_obj": per("structure.KimuraDecomposition", "calls"),
        "structure.decompose.us_per_call": per("structure.decompose", "calls"),
        "structure.classify.us_per_call": per("structure.classify", "calls"),
        "structure.monotonizing_orders.orders_tried": sum(r["orders_tried"] for r in reductions if r),
        "structure.monotonizing_orders.orders_kept":
            totals.get("structure.monotonizing_orders", {}).get("yields", 0),
        "magmas.FiniteBinOp.us_per_obj": per("magmas.FiniteBinOp", "calls"),
        "magmas.is_order_preserving.calls": totals.get("magmas.is_order_preserving", {}).get("calls", 0),
        "magmas.is_order_preserving.us_per_call": per("magmas.is_order_preserving", "calls"),
        "formats.emit_cayley_line.us_per_obj": per("formats.emit_cayley_line", "calls"),
        "formats.emit_weak_order.us_per_obj": per("formats.emit_weak_order", "calls"),
        "formats.load_table.us_per_call": per("formats.load_table", "calls"),
        "formats.emit_classification.us_per_call": per("formats.emit_classification", "calls"),
        "render.render_contour.us_per_call": per("render.render_contour", "calls"),
        "trace.overhead_frac": overhead_frac,
    }
    for name in ("is_associative", "neutral_elements", "annihilator_elements", "is_commutative"):
        out[f"magmas.{name}.us_per_call"] = per(f"magmas.{name}", "calls")
    for method in COUNTING_METHODS:
        out[f"counting.{method}.self_s"] = self_s(f"counting.{method}")
    for name in ("brute_count_quasitrivial_associative", "check_neutral_monotone_implies_quasitrivial",
                 "check_commutative_monotone_implies_associative", "brute_count_monotonizable"):
        out[f"oracle.{name}.self_s"] = self_s(f"oracle.{name}")
    masks = sum(r["masks"] for r in reductions if r)
    brute = self_s("oracle.brute_count_quasitrivial_associative")
    out["oracle.masks_per_s"] = masks / brute if brute else 0.0
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.self_s"] = self_s(f"verify.{check}")
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            t["self_s"] for name, t in totals.items() if name == module or name.startswith(module + ".")
        )

    # filtered qt-semigroups jobs: tables built against tables kept
    built = kept = 0
    serial_built: dict[int, int] = {}
    shard_ratios = []
    for op, red in zip(ops, reductions):
        meta = op.meta
        if meta.get("family") != "qt-semigroups" or red is None:
            continue
        if meta["filter"]:
            built += _calls(red, "structure.build")
            kept += red["names"].get("enumeration.generate", {}).get("yields", 0)
        elif meta["shard"] is None:
            serial_built[meta["n"]] = _calls(red, "structure.build")
    for op, red in zip(ops, reductions):
        meta = op.meta
        if meta.get("family") == "qt-semigroups" and meta["shard"] and serial_built.get(meta["n"]):
            shard_ratios.append(_calls(red, "structure.build") / serial_built[meta["n"]])
    out["enumeration.generate.built"] = built
    out["enumeration.generate.kept"] = kept
    out["enumeration.generate.keep_ratio"] = kept / built if built else 0.0
    out["enumeration.shard.built_ratio"] = sum(shard_ratios) / len(shard_ratios) if shard_ratios else 0.0
    return {name: out[name] for name, *_ in PER_LAYER}
