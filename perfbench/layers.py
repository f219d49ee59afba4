"""Where each spdt layer is timed, and the per-layer metrics read from the spans.

Layers are spdt's modules: synth, trace, network, epidemic, _kernel,
metrics, sweep and cli. Metric names use ``kernel.`` for ``_kernel``
because a benchmark metric name has to start with a letter or digit.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import SimpleNamespace

import spdt.cli
import spdt.epidemic
import spdt.metrics
import spdt.network
import spdt.sweep
import spdt.trace


def _parsed(args, kwargs, parsed):
    return {"rows": len(parsed.updates), "skipped": parsed.skipped}


def _visits(args, kwargs, visits):
    return {"visits": len(visits)}


def _links(args, kwargs, net):
    return {"links": net.n_links}


def _pair_links(args, kwargs, pair):
    return {"links": pair[0].n_links + pair[1].n_links}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _kernel_links(args, kwargs, doses):
    return {"links": len(doses)}


def _scanned(args, kwargs, runs_stats):
    # every simulated day gathers over all of that day's links, in every run
    net, cfg = args[0], args[1]
    per_run = int(net.day_link_counts()[:cfg.horizon_days].sum())
    return {"runs": cfg.runs, "links_scanned": per_run * cfg.runs}


def _edges(args, kwargs, graph):
    return {"edges": graph.n_edges}


def _daily_graphs(args, kwargs, rows):
    return {"graphs": len(rows)}


def _plan_outputs(args, kwargs, manifest):
    out_dir = Path(args[2])
    return {
        "cells": len(manifest["cells"]),
        "cells_failed": sum(c["status"] != "ok" for c in manifest["cells"]),
        "output_bytes": sum(os.path.getsize(out_dir / rel)
                            for rel in manifest["outputs"]),
    }


# Calls the benchmark makes itself: short name -> (span, function, counts).
HARNESS_CALLS = {
    "parse_trace": ("trace.parse_trace", spdt.trace.parse_trace, _parsed),
    "segment_all": ("trace.segment_all", spdt.trace.segment_all, _visits),
    "extract_spdt_links": ("network.extract_spdt_links",
                           spdt.network.extract_spdt_links, _links),
    "project_spst": ("network.project_spst", spdt.network.project_spst, _links),
    "densify": ("network.densify", spdt.network.densify, _links),
    "make_ldt_lst": ("network.make_ldt_lst", spdt.network.make_ldt_lst,
                     _pair_links),
    "save_network": ("network.save_network", spdt.network.save_network,
                     _file_bytes),
    "load_network": ("network.load_network", spdt.network.load_network, _links),
    "static_graph": ("metrics.static_graph", spdt.metrics.static_graph, _edges),
    "degree_distribution": ("metrics.degree_distribution",
                            spdt.metrics.degree_distribution, None),
    "clustering_distribution": ("metrics.clustering_distribution",
                                spdt.metrics.clustering_distribution, None),
    "daily_network_metrics": ("metrics.daily_network_metrics",
                              spdt.metrics.daily_network_metrics, _daily_graphs),
    "cli_main": ("cli.main", spdt.cli.main, None),
}

# Calls made inside the library, patched where the calling module looks
# them up: (module, attribute, span, counts).
LIBRARY_PATCHES = (
    (spdt.cli, "run_plan", "sweep.run_plan", _plan_outputs),
    (spdt.sweep, "build_variants", "sweep.build_variants", None),
    (spdt.sweep, "simulate_cell", "sweep.simulate_cell", None),
    (spdt.sweep, "parse_trace", "trace.parse_trace", _parsed),
    (spdt.sweep, "segment_all", "trace.segment_all", _visits),
    (spdt.sweep, "extract_spdt_links", "network.extract_spdt_links", _links),
    (spdt.sweep, "project_spst", "network.project_spst", _links),
    (spdt.sweep, "densify", "network.densify", _links),
    (spdt.sweep, "make_ldt_lst", "network.make_ldt_lst", _pair_links),
    (spdt.sweep, "run_simulation", "epidemic.run_simulation", _scanned),
    (spdt.epidemic, "batch_link_exposure", "kernel.epidemic", _kernel_links),
    (spdt.metrics, "batch_link_exposure", "kernel.metrics", _kernel_links),
)


def calls(tracer=None) -> SimpleNamespace:
    """The functions a workload calls, wrapped in spans when ``tracer`` is set."""
    if tracer is None:
        return SimpleNamespace(**{k: fn for k, (_, fn, _) in HARNESS_CALLS.items()})
    return SimpleNamespace(**{k: tracer.wrap(span, fn, counts)
                              for k, (span, fn, counts) in HARNESS_CALLS.items()})


def patch_library(tracer) -> None:
    for module, attr, span, counts in LIBRARY_PATCHES:
        tracer.patch(module, attr, span, counts)


# Every per-layer metric with its unit, in report order. run.py fills in the
# ones not read from spans: synth.*, kernel.micro_*, bench.trace_overhead_s,
# bench.raw_wall_s, bench.reference_s and bench.error_rate.
UNITS = {
    "synth.generate_s": "s",
    "synth.updates": "count",
    "trace.parse_s": "s",
    "trace.rows": "count",
    "trace.skipped": "count",
    "trace.segment_s": "s",
    "trace.visits": "count",
    "network.extract_s": "s",
    "network.sdt_links": "count",
    "network.extract_links_per_s": "links/s",
    "network.variants_s": "s",
    "network.variant_links": "count",
    "network.save_s": "s",
    "network.load_s": "s",
    "network.file_mb": "MB",
    "network.load_links_per_s": "links/s",
    "epidemic.simulate_s": "s",
    "epidemic.self_s": "s",
    "epidemic.runs": "count",
    "epidemic.links_scanned": "count",
    "epidemic.link_evals": "count",
    "epidemic.eval_ratio": "ratio",
    **{f"kernel.{caller}.{name}": unit
       for caller in ("epidemic", "metrics")
       for name, unit in (("calls", "count"), ("links", "count"),
                          ("busy_s", "s"), ("links_per_s", "links/s"),
                          ("links_per_call", "links/call"))},
    "kernel.micro_links_per_s": "links/s",
    "kernel.micro_max_rel_dev": "ratio",
    "metrics.static_graph_s": "s",
    "metrics.clustering_s": "s",
    "metrics.daily_s": "s",
    "metrics.edges": "count",
    "metrics.graphs": "count",
    "sweep.build_variants_s": "s",
    "sweep.simulate_cell_s": "s",
    "sweep.other_s": "s",
    "sweep.cells": "count",
    "sweep.cells_failed": "count",
    "sweep.output_mb": "MB",
    "cli.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.unspanned_s": "s",
    "bench.raw_wall_s": "s",
    "bench.reference_s": "s",
    "bench.error_rate": "ratio",
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_spans(s: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from ``tracing.summarise``.

    A layer that the workload never runs reads 0.
    """
    def get(span: str, key: str = "total_s") -> float:
        return s.get(span, {}).get(key, 0)

    variants = ("network.project_spst", "network.densify", "network.make_ldt_lst")
    out = {
        "trace.parse_s": get("trace.parse_trace"),
        "trace.rows": get("trace.parse_trace", "rows"),
        "trace.skipped": get("trace.parse_trace", "skipped"),
        "trace.segment_s": get("trace.segment_all"),
        "trace.visits": get("trace.segment_all", "visits"),
        "network.extract_s": get("network.extract_spdt_links"),
        "network.sdt_links": get("network.extract_spdt_links", "links"),
        "network.variants_s": sum(get(v) for v in variants),
        "network.variant_links": sum(get(v, "links") for v in variants),
        "network.save_s": get("network.save_network"),
        "network.load_s": get("network.load_network"),
        "network.file_mb": get("network.save_network", "bytes") / 1e6,
        "epidemic.simulate_s": get("epidemic.run_simulation"),
        "epidemic.self_s": get("epidemic.run_simulation", "self_s"),
        "epidemic.runs": get("epidemic.run_simulation", "runs"),
        "epidemic.links_scanned": get("epidemic.run_simulation", "links_scanned"),
        "epidemic.link_evals": get("kernel.epidemic", "links"),
        "metrics.static_graph_s": get("metrics.static_graph"),
        "metrics.clustering_s": get("metrics.clustering_distribution"),
        "metrics.daily_s": get("metrics.daily_network_metrics"),
        "metrics.edges": get("metrics.static_graph", "edges"),
        "metrics.graphs": (get("metrics.static_graph", "calls")
                           + get("metrics.daily_network_metrics", "graphs")),
        "sweep.build_variants_s": get("sweep.build_variants"),
        "sweep.simulate_cell_s": get("sweep.simulate_cell"),
        "sweep.other_s": get("sweep.run_plan", "self_s"),
        "sweep.cells": get("sweep.run_plan", "cells"),
        "sweep.cells_failed": get("sweep.run_plan", "cells_failed"),
        "sweep.output_mb": get("sweep.run_plan", "output_bytes") / 1e6,
        "cli.self_s": get("cli.main", "self_s"),
        "bench.unspanned_s": get("bench.pass", "self_s"),
        "bench.traced_wall_s": get("bench.pass"),
    }
    out["network.extract_links_per_s"] = _per(out["network.sdt_links"],
                                              out["network.extract_s"])
    out["network.load_links_per_s"] = _per(get("network.load_network", "links"),
                                           out["network.load_s"])
    out["epidemic.eval_ratio"] = _per(out["epidemic.link_evals"],
                                      out["epidemic.links_scanned"])
    for caller in ("epidemic", "metrics"):
        span = f"kernel.{caller}"
        calls_, links, busy = get(span, "calls"), get(span, "links"), get(span)
        out.update({
            f"kernel.{caller}.calls": calls_,
            f"kernel.{caller}.links": links,
            f"kernel.{caller}.busy_s": busy,
            f"kernel.{caller}.links_per_s": _per(links, busy),
            f"kernel.{caller}.links_per_call": _per(links, calls_),
        })
    return out
