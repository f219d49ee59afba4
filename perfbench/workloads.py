"""The benchmark's workloads: their inputs, one timed pass, and output checks.

Each workload makes its inputs from the seed alone: the benchmark seed is the
synth seed of a desk-profile trace (``spdt.synth.desk_profile``) cut to the
workload's user count and 14 days. It hands spdt only those inputs and runs
the program with its own defaults: one worker and whichever kernel backend
import selected.

Why these three:

- ``build`` runs the ``spdt build`` path plus the variant builders and
  network save/load. ``trace`` and ``network`` do almost all the work; it
  is the only workload that writes networks as well as reading them.
  ``epidemic``, ``_kernel`` and ``metrics`` never run, so a change there
  must leave it unchanged.
- ``sweep`` is the headline command, ``spdt sweep``, run in-process through
  ``spdt.cli.main``: SDT, SST, DDT and DST at r_t 10 and 60. Simulation
  and the dose kernel take most of a pass and building the variants most of
  the rest. Sparse (SDT/SST) and densified (DDT/DST) networks load the
  simulator differently: DDT has links on every day.
- ``structure`` is the ``spdt metrics --daily`` path on SDT and SST over the
  SDT universe at r_t 10, 35 and 60. ``metrics`` does almost all the work and
  the kernel runs as a few large fixed-rate batches instead of many small
  random-rate ones. Extraction happens in set-up; network I/O and
  simulation do not run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pickle
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from spdt.network import BuilderConfig, extract_spdt_links, project_spst
from spdt.synth import desk_profile, generate_trace
from spdt.trace import parse_trace, segment_all, write_trace_csv

HORIZON_DAYS = 14
R_T_VALUES = (10.0, 35.0, 60.0)

# Input sizes. "full" is what the benchmark measures: on a 2-core 2.1 GHz
# Xeon a build or sweep pass takes one to two seconds, so a 30 s run holds
# a score of passes. Structure is larger, 3-4 s a pass, because clustering
# cost grows with the squared degree of the few busiest hubs, which varies
# from seed to seed less, relative to its size, in a larger population.
# "toy" is for the smoke test.
SCALES = {
    "full": {"build_users": 320, "sweep_users": 260, "sweep_runs": 40,
             "sweep_seeds": 25, "structure_users": 600},
    "toy": {"build_users": 60, "sweep_users": 60, "sweep_runs": 3,
            "sweep_seeds": 5, "structure_users": 60},
}


def _write_trace(users: int, seed: int, dest: Path) -> dict:
    """Generate the seed's desk-profile trace and write it to dest/trace.csv."""
    t0 = perf_counter()
    updates = generate_trace(replace(desk_profile(seed), n_users=users,
                                     days=HORIZON_DAYS))
    synth_s = perf_counter() - t0
    write_trace_csv(updates, dest / "trace.csv")
    return {"synth_s": synth_s, "updates": len(updates)}


def _hash_network(h, net) -> None:
    h.update("\n".join(net.users).encode())
    for field in ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n"):
        h.update(getattr(net, field).tobytes())


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Build:
    name = "build"

    def __init__(self, scale: dict):
        self.users = scale["build_users"]

    def make_inputs(self, seed: int, dest: Path) -> dict:
        return _write_trace(self.users, seed, dest)

    def load(self, src: Path, seed: int) -> dict:
        return {"trace": src / "trace.csv", "seed": seed}

    def run_pass(self, inputs: dict, api, out: Path) -> dict:
        cfg = BuilderConfig(horizon_days=HORIZON_DAYS)
        parsed = api.parse_trace(inputs["trace"])
        visits = api.segment_all(parsed, cfg.radius_m, cfg.visit_gap_min)
        sdt = api.extract_spdt_links(visits, parsed, cfg)
        sst = api.project_spst(sdt)
        ddt = api.densify(sdt, rng_seed=inputs["seed"])
        ldt, lst = api.make_ldt_lst(ddt, cfg.indirect_window_min)
        path = out / "sdt.spdt"
        api.save_network(sdt, path)
        loaded = api.load_network(path)
        return {"variants": (sdt, sst, ddt, ldt, lst), "loaded": loaded,
                "path": path}

    def check(self, result: dict) -> tuple[dict[str, bool], str]:
        """load_network(save_network(SDT)) == SDT; the digest covers the saved
        SDT file and the arrays of every variant."""
        sdt = result["variants"][0]
        h = hashlib.sha256(result["path"].read_bytes())
        for net in result["variants"][1:]:
            _hash_network(h, net)
        return {"SDT save/load round trip": result["loaded"] == sdt}, h.hexdigest()


class Sweep:
    name = "sweep"

    def __init__(self, scale: dict):
        self.users = scale["sweep_users"]
        self.runs = scale["sweep_runs"]
        self.seeds = scale["sweep_seeds"]

    def make_inputs(self, seed: int, dest: Path) -> dict:
        info = _write_trace(self.users, seed, dest)
        (dest / "plan.cfg").write_text(
            "variants = SDT,SST,DDT,DST\n"
            "r_t = 10,60\n"
            "sigma = 0.33\n"
            "tau = 3-5\n"
            f"runs = {self.runs}\n"
            f"seeds = {self.seeds}\n"
            f"horizon_days = {HORIZON_DAYS}\n"
            f"rng_seed = {seed}\n"
            f"densify_seed = {seed}\n",
            encoding="utf-8",
        )
        return info

    def load(self, src: Path, seed: int) -> dict:
        return {"trace": src / "trace.csv", "config": src / "plan.cfg"}

    def run_pass(self, inputs: dict, api, out: Path) -> dict:
        out_dir = out / "sweep"
        # the CLI's one-line report would interleave with the benchmark's
        with contextlib.redirect_stdout(io.StringIO()):
            rc = api.cli_main(["sweep", "--trace", str(inputs["trace"]),
                               "--config", str(inputs["config"]),
                               "--out-dir", str(out_dir)])
        return {"rc": rc, "out": out_dir}

    def check(self, result: dict) -> tuple[dict[str, bool], str]:
        """Every cell ok and every output matching its manifest digest; the
        digest covers the manifest's output digests."""
        out = result["out"]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        checks = {"sweep exit code 0": result["rc"] == 0}
        for cell in manifest["cells"]:
            name = f"cell {cell['variant']} r_t={cell['r_t']:g} status ok"
            checks[name] = cell["status"] == "ok"
        checks["manifest output digests"] = all(
            _sha256_file(out / rel) == sha for rel, sha in manifest["outputs"].items()
        )
        digest = hashlib.sha256(
            json.dumps(manifest["outputs"], sort_keys=True).encode()
        ).hexdigest()
        return checks, digest


class Structure:
    name = "structure"

    def __init__(self, scale: dict):
        self.users = scale["structure_users"]

    def make_inputs(self, seed: int, dest: Path) -> dict:
        info = _write_trace(self.users, seed, dest)
        cfg = BuilderConfig(horizon_days=HORIZON_DAYS)
        parsed = parse_trace(dest / "trace.csv")
        visits = segment_all(parsed, cfg.radius_m, cfg.visit_gap_min)
        sdt = extract_spdt_links(visits, parsed, cfg)
        # pickled, not saved with spdt.network, so that network I/O stays
        # out of the timed passes
        with open(dest / "networks.pkl", "wb") as fh:
            pickle.dump({"SDT": sdt, "SST": project_spst(sdt)}, fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        return info

    def load(self, src: Path, seed: int) -> dict:
        with open(src / "networks.pkl", "rb") as fh:
            return pickle.load(fh)

    def run_pass(self, nets: dict, api, out: Path) -> dict:
        universe = nets["SDT"].users
        static, daily = [], {}
        for variant in ("SDT", "SST"):
            net = nets[variant]
            for r_t in R_T_VALUES:
                graph = api.static_graph(net, r_t=r_t, universe=universe)
                hist = api.degree_distribution(graph)
                _, mean_clustering = api.clustering_distribution(graph)
                static.append((variant, r_t, graph.n_nodes, graph.n_edges, hist,
                               mean_clustering))
            daily[variant] = api.daily_network_metrics(net, R_T_VALUES,
                                                       universe=universe)
        return {"static": static, "daily": daily}

    def check(self, result: dict) -> tuple[dict[str, bool], str]:
        """Each degree histogram sums to the node count; the digest covers
        the static-graph figures and every daily metric row."""
        checks = {}
        lines = []
        for variant, r_t, n_nodes, n_edges, hist, mean_clustering in result["static"]:
            checks[f"{variant} r_t={r_t:g} degree histogram sums to nodes"] = (
                sum(hist.values()) == n_nodes)
            lines.append(f"{variant},{r_t!r},{n_nodes},{n_edges},"
                         f"{sorted(hist.items())},{mean_clustering!r}")
        for variant, rows in result["daily"].items():
            lines.extend(f"{variant},{r.day},{r.r_t!r},{r.mean_degree!r},"
                         f"{r.mean_clustering!r}" for r in rows)
        return checks, hashlib.sha256("\n".join(lines).encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (Build, Sweep, Structure)}
