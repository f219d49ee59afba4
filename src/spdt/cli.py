"""Command-line interface: pipeline stages and experiment sweeps.

Subcommands cover the full pipeline: synth -> build -> variant derivation ->
simulate -> metrics, plus grid sweeps and run comparison. Long-running
options accept a `key = value` config file with command-line flags taking
precedence. The SPDT_WORKERS environment variable caps run-level
parallelism.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import __version__
from .epidemic import SimulationConfig, resolve_workers, run_simulation, write_daily_csv
from .exposure import check_positive
from .metrics import (
    DEFAULT_EDGE_THRESHOLD,
    check_r_t,
    check_variant,
    clustering_distribution,
    daily_network_metrics,
    degree_distribution,
    outbreak_size,
    static_graph,
    write_daily_metrics_csv,
    write_histogram_csv,
    write_summary_csv,
)
from .network import (
    DEFAULT_DENSIFY_SEED,
    DEFAULT_INDIRECT_WINDOW_MIN,
    BuilderConfig,
    densify,
    extract_spdt_links,
    load_network,
    make_ldt_lst,
    project_spst,
    save_network,
)
from .sweep import (
    ExperimentPlan,
    parse_keys,
    parse_tau_spec,
    read_config_file,
    reconstruct_compare,
    run_plan,
)
from .synth import SynthConfig, generate_trace
from .trace import parse_trace, segment_all, write_trace_csv


# config key -> (dataclass field, flag name, parser); flag values are parsed
# by the same parser as config-file values
_SYNTH_OPTIONS = {
    "n_users": ("n_users", "users", int),
    "n_locations": ("n_locations", "locations", int),
    "days": ("days", "days", int),
    "active_day_probability": ("active_day_probability", "active-day-prob", float),
    "zipf_exponent": ("zipf_exponent", "zipf", float),
    "rng_seed": ("rng_seed", "seed", int),
}
_SIM_OPTIONS = {
    "r_t": ("r_t", "r-t", float),
    "sigma": ("sigma", "sigma", float),
    "runs": ("runs", "runs", int),
    "seeds": ("seeds", "seeds", int),
    "rng_seed": ("rng_seed", "seed", int),
    "tau": ("tau_range", "tau", parse_tau_spec),
    "horizon_days": ("horizon_days", "horizon", int),
}


def _add_options(parser, options) -> None:
    """--config and one flag per table row, stored under its config key."""
    parser.add_argument("--config")
    for key, (_, flag, _) in options.items():
        parser.add_argument(f"--{flag}", dest=key)


def _config_kwargs(args, options) -> dict:
    """Dataclass fields set by the --config file or by flags, flags winning.

    Fields that neither sets keep the dataclass default.
    """
    given = read_config_file(args.config) if args.config else {}
    given.update((key, flag) for key in options
                 if (flag := getattr(args, key)) is not None)
    return parse_keys(given, options)


def _cmd_synth(args) -> int:
    cfg = SynthConfig(**_config_kwargs(args, _SYNTH_OPTIONS))
    if args.area:
        try:
            area = tuple(float(v) for v in args.area.split(","))
        except ValueError as exc:
            raise ValueError(f"--area: {exc}") from None
        cfg = replace(cfg, area_m=area)
    updates = generate_trace(cfg)
    write_trace_csv(updates, args.out)
    print(f"wrote {len(updates)} updates for {cfg.n_users} users to {args.out}")
    return 0


def _cmd_build(args) -> int:
    cfg = BuilderConfig(
        radius_m=args.radius,
        indirect_window_min=args.delta,
        visit_gap_min=args.gap,
        horizon_days=args.horizon,
    )
    parsed = parse_trace(args.trace)
    visits = segment_all(parsed, cfg.radius_m, cfg.visit_gap_min)
    net = extract_spdt_links(visits, parsed, cfg)
    save_network(net, args.out)
    reasons = ", ".join(f"{count} {reason}"
                        for reason, count in sorted(parsed.skip_reasons.items()))
    print(f"built {net!r} from {len(parsed.updates)} updates "
          f"({parsed.skipped} rows skipped{': ' + reasons if reasons else ''}); "
          f"wrote {args.out}")
    return 0


def _cmd_project_spst(args) -> int:
    net = project_spst(load_network(args.net))
    save_network(net, args.out)
    print(f"projected {net!r}; wrote {args.out}")
    return 0


def _cmd_densify(args) -> int:
    net = densify(load_network(args.net), rng_seed=args.seed)
    save_network(net, args.out)
    print(f"densified {net!r}; wrote {args.out}")
    return 0


def _cmd_make_ldt_lst(args) -> int:
    check_positive("--delta", args.delta)  # before the load
    ldt, lst = make_ldt_lst(load_network(args.net), indirect_window_min=args.delta)
    save_network(ldt, args.out_ldt)
    save_network(lst, args.out_lst)
    print(f"wrote LDT {ldt!r} to {args.out_ldt} and LST {lst!r} to {args.out_lst}")
    return 0


def _cmd_simulate(args) -> int:
    given = _config_kwargs(args, _SIM_OPTIONS)  # bad values fail before the load
    workers = resolve_workers()
    net = load_network(args.net)
    cfg = SimulationConfig(**{"horizon_days": net.horizon, **given})
    counts = run_simulation(net, cfg, workers)
    write_daily_csv(counts, args.out_daily)
    write_summary_csv(counts, args.out_summary)
    total = int(outbreak_size(counts).sum())
    print(f"simulated {cfg.runs} runs x {cfg.horizon_days} days on {net!r}; "
          f"{total} infections caused; wrote {args.out_daily}, {args.out_summary}")
    return 0


def _cmd_metrics(args) -> int:
    try:  # bad values fail before the load
        r_t_values = [float(v) for v in args.r_t.split(",")]
        for r_t in r_t_values:
            check_r_t(r_t)
    except ValueError as exc:
        raise ValueError(f"--r-t: {exc}") from None
    check_positive("--threshold", args.threshold)
    try:
        check_variant(args.variant)
    except ValueError as exc:
        raise ValueError(f"--variant: {exc}") from None
    net = load_network(args.net)
    universe = None
    if args.universe_net:
        universe = load_network(args.universe_net).users
    prefix = args.out_prefix  # a string: "m/" names files in m/
    Path(f"{prefix}degree_hist.csv").parent.mkdir(parents=True, exist_ok=True)

    graph = static_graph(net, r_t=r_t_values[0], threshold=args.threshold,
                         universe=universe)
    write_histogram_csv(degree_distribution(graph),
                        f"{prefix}degree_hist.csv")
    coeffs, mean_clust = clustering_distribution(graph)
    write_histogram_csv(Counter(round(value, 2) for value in coeffs.values()),
                        f"{prefix}clustering_hist.csv")
    print(f"static graph at r_t={r_t_values[0]:g}: {graph.n_nodes} nodes, "
          f"{graph.n_edges} edges, mean clustering {mean_clust:.4f}")

    if args.daily:
        rows = daily_network_metrics(net, r_t_values, threshold=args.threshold,
                                     universe=universe)
        write_daily_metrics_csv(rows, args.variant, f"{prefix}daily_metrics.csv")
        print(f"wrote per-day metrics for r_t in {r_t_values} "
              f"to {prefix}daily_metrics.csv")
    return 0


def _cmd_sweep(args) -> int:
    base = ExperimentPlan.full() if args.full else ExperimentPlan.desk()
    plan = (ExperimentPlan.from_mapping(read_config_file(args.config), base)
            if args.config else base)
    manifest = run_plan(plan, args.trace, args.out_dir)
    failed = [c for c in manifest["cells"] if c["status"] != "ok"]
    print(f"swept {len(manifest['cells'])} cells "
          f"({len(failed)} failed); outputs in {args.out_dir}")
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    rows = reconstruct_compare(args.a, args.b, args.out)
    print(f"compared {args.a} vs {args.b}: {len(rows)} rows; wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdt",
        description="Diffusion over contact networks with direct and "
                    "delayed-indirect transmission links.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trace CSV")
    p.add_argument("--out", required=True)
    _add_options(p, _SYNTH_OPTIONS)
    p.add_argument("--area", help="width,height in metres")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build", help="extract the sparse network from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, default=BuilderConfig.horizon_days)
    p.add_argument("--radius", type=float, default=BuilderConfig.radius_m)
    p.add_argument("--delta", type=float, default=BuilderConfig.indirect_window_min,
                   help="indirect window after host departure (minutes)")
    p.add_argument("--gap", type=float, default=BuilderConfig.visit_gap_min)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("project-spst", help="drop indirect parts of a network")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project_spst)

    p = sub.add_parser("densify", help="repeat links onto each host's missing days")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_DENSIFY_SEED)
    p.set_defaults(func=_cmd_densify)

    p = sub.add_parser("make-ldt-lst", help="density-controlled variant pair")
    p.add_argument("--net", required=True)
    p.add_argument("--out-ldt", required=True)
    p.add_argument("--out-lst", required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_INDIRECT_WINDOW_MIN)
    p.set_defaults(func=_cmd_make_ldt_lst)

    p = sub.add_parser("simulate", help="run the stochastic SIR process",
                       description="--tau is the infectious period in days: "
                                   "'3-5' draws it uniformly, '4' pins it.")
    p.add_argument("--net", required=True)
    p.add_argument("--out-daily", required=True)
    p.add_argument("--out-summary", required=True)
    _add_options(p, _SIM_OPTIONS)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("metrics", help="network structure metrics and histograms")
    p.add_argument("--net", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--variant", default="SDT")
    p.add_argument("--r-t", default=str(SimulationConfig.r_t), dest="r_t",
                   help="comma-separated removal times")
    p.add_argument("--daily", action="store_true")
    p.add_argument("--threshold", type=float, default=DEFAULT_EDGE_THRESHOLD)
    p.add_argument("--universe-net",
                   help="network whose user set becomes the node universe")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("sweep", help="run an experiment grid from a plan")
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--full", action="store_true",
                   help="whole-grid profile instead of the desk-scale default")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="difference table between two sweep runs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"spdt: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
