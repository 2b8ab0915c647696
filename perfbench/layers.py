"""The metric tables and the per-layer numbers computed from spans.

``END_TO_END`` and ``PER_LAYER`` are the names and units ``BENCHMARK.json``
declares; the smoke tests check the two agree.  Stage times are seconds per
annotated table (per ``/annotate`` request on ``serve-mixed``), so a commit
that annotates more tables in the fixed run time is not charged for it.
"""

from __future__ import annotations

from perfbench.common import ratio
from perfbench.tracing import ATTRS, Summary

END_TO_END = {
    "tables_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_fraction": "ratio",
    "entity_accuracy": "ratio",
    "type_f1": "ratio",
    "relation_f1": "ratio",
    "search_map": "ratio",
}

PER_LAYER = {
    "candidates.erc_s": "s",
    "candidates.tc_s": "s",
    "candidates.bcc_s": "s",
    "candidates.erc_cells": "count",
    "candidates.entities_per_cell": "count",
    "features.f1_s": "s",
    "features.f2_s": "s",
    "features.f3_s": "s",
    "features.f4_s": "s",
    "features.f5_s": "s",
    "features.f3_calls": "count",
    "core.build_problem_s": "s",
    "core.candidate_fraction": "ratio",
    "graph.compile_s": "s",
    "bp.run_s": "s",
    "annotation.decode_s": "s",
    "bp.iterations": "count",
    "bp.converged_ratio": "ratio",
    "graph.factors": "count",
    "pipeline.cell_cache_hit_ratio": "ratio",
    "pipeline.block_cache_hit_ratio": "ratio",
    "pipeline.compiled_cache_hit_ratio": "ratio",
    "api.encode_s": "s",
    "api.decode_ms": "ms",
    "http.overhead_ms": "ms",
    "dispatch.admission_wait_ms": "ms",
    "dispatch.queue_ms": "ms",
    "pipe.overhead_ms": "ms",
    "worker.handle_ms.annotate": "ms",
    "worker.handle_ms.search": "ms",
    "worker.handle_ms.join": "ms",
    "coalesce.wait_ms": "ms",
    "coalesce.batch_size": "count",
    "search.annotated_ms": "ms",
    "search.join_ms": "ms",
    "setup.spawn_s": "s",
    "setup.first_annotate_s": "s",
    "setup.bundle_load_s": "s",
    "dispatch.shed": "count",
    "worker.restarts": "count",
    "generator.lag_ms": "ms",
    "generator.backlog_growth": "count",
    "trace.accounted_fraction": "ratio",
    "trace.unaccounted_s": "s",
    "trace.overhead_fraction": "ratio",
}


def core_layers(summary: Summary, tables: int) -> dict[str, float]:
    """Candidate, feature, graph, BP, decode and encode stages per table."""

    def per_table(seconds: float) -> float:
        return ratio(seconds, tables)

    erc = [span[ATTRS] for span in summary.named("candidates.erc") if span[ATTRS]]
    cells = sum(attrs["cells"] for attrs in erc)
    entities = sum(attrs["entities"] for attrs in erc)
    values = {
        "candidates.erc_s": per_table(summary.self_time["candidates.erc"]),
        "candidates.tc_s": per_table(summary.self_time["candidates.tc"]),
        "candidates.bcc_s": per_table(summary.self_time["candidates.bcc"]),
        "candidates.erc_cells": per_table(cells),
        "candidates.entities_per_cell": ratio(entities, cells),
        "features.f3_calls": per_table(summary.count["features.f3"]),
        "core.build_problem_s": per_table(summary.total["core.build_problem"]),
        "core.candidate_fraction": ratio(
            summary.total["core.build_problem"], summary.total["core.annotate"]
        ),
        "graph.compile_s": per_table(summary.self_time["graph.compile"]),
        "bp.run_s": per_table(summary.self_time["bp.run"]),
        "annotation.decode_s": per_table(summary.self_time["annotation.collective"]),
        "api.encode_s": per_table(
            summary.total["api.to_json"] + summary.total["api.encode_json"]
        ),
        "api.decode_ms": summary.mean_ms("api.from_json"),
        "search.annotated_ms": summary.mean_ms("search.annotated"),
        "search.join_ms": summary.mean_ms("search.join"),
    }
    for index in range(1, 6):
        values[f"features.f{index}_s"] = per_table(summary.self_time[f"features.f{index}"])
    return values


def diagnostics_layers(diagnostics: list[dict]) -> dict[str, float]:
    """BP iterations, convergence and factor counts from response diagnostics."""
    n = len(diagnostics)
    return {
        "bp.iterations": ratio(sum(d.get("iterations") or 0 for d in diagnostics), n),
        "bp.converged_ratio": ratio(sum(1 for d in diagnostics if d.get("converged")), n),
        "graph.factors": ratio(sum(d.get("n_factors") or 0 for d in diagnostics), n),
    }


def cache_layers(caches: dict[str, dict[str, int]]) -> dict[str, float]:
    """Hit ratios from ``{cache name: {"hits": .., "misses": ..}}``."""
    values = {}
    for metric, cache in (
        ("pipeline.cell_cache_hit_ratio", "candidate_cache"),
        ("pipeline.block_cache_hit_ratio", "block_cache"),
        ("pipeline.compiled_cache_hit_ratio", "compiled_graph_cache"),
    ):
        counters = caches.get(cache, {})
        hits = counters.get("hits", 0)
        values[metric] = ratio(hits, hits + counters.get("misses", 0))
    return values


#: the spans (see ``tracing.install_core``/``install_serve``) a workload's
#: traced run must record.  A boundary that records no call fails the run,
#: so a path that moves to other classes reads as untraced, not as free.
CORE_SPANS = (
    "candidates.erc",
    "candidates.tc",
    "candidates.bcc",
    *(f"features.f{index}" for index in range(1, 6)),
    "core.annotate",
    "core.build_problem",
    "annotation.collective",
    "graph.compile",
    "bp.run",
    "api.to_json",
    "api.encode_json",
    "api.from_json",
    "search.annotated",
    "search.join",
)
SERVE_SPANS = (
    "dispatch.call",
    "dispatch.admission",
    "pipe.call",
    "worker.handle",
    "setup.spawn",
    "setup.bundle_load",
)
CROSSED = {
    "corpus-cold": CORE_SPANS,
    # every cell is in the candidate cache after the first pass
    "corpus-warm": tuple(name for name in CORE_SPANS if name != "candidates.erc"),
    "serve-mixed": CORE_SPANS + SERVE_SPANS,
}


def check_crossed(workload: str, summary: Summary, outcome) -> None:
    """Fail ``outcome`` once per span the workload must cross but did not."""
    for name in CROSSED[workload]:
        if not summary.count[name]:
            outcome.fail(f"traced run recorded no {name} span: that layer went untraced")


def complete(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, zero for the layers this workload never
    crosses (the serving layers on the corpus workloads; see CROSSED)."""
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
