"""Golden digests of the simulation outputs the CLI writes.

A dense synthetic trace is built into SDT and SST with `spdt build` and
`spdt project-spst`. `spdt simulate` runs on SDT in both tau modes, the
second with a horizon past the network's last day, and the SHA-256 of its
daily and summary CSVs is pinned. A 2x2-cell mini-sweep (SDT/SST x r_t
10/60) pins every output its manifest lists. Its run count is above the
number of runs the simulator steps together on this SDT, so a block
boundary is crossed. The trace and every run come from numpy Generator
streams, which may change between numpy releases, so digests are keyed by
the numpy version they were recorded with; other versions skip, and the
skip reason (``pytest -rs``) carries the digests to record from a trusted
commit.
"""

import hashlib
import json

import numpy as np
import pytest

from spdt import epidemic
from spdt.cli import main
from spdt.network import load_network

GOLDEN = {
    "2.4.6": {
        "simulate": {
            "uniform_daily.csv":
                "88b0771bed195fd2d19c9e35497c37ead7620a5e19d75bd0724fe6cb4454ca2d",
            "uniform_summary.csv":
                "66db8780c132f5192b9afa819d44acbc467b2a9b4af8d51afc012f9cb41ea28c",
            "mean3_daily.csv":
                "9ecd26c9d392d95ea6a606da665d2af22eec30a3b845c1a7db64eecb98631ce0",
            "mean3_summary.csv":
                "7970988767600fcab2144999931cf8b50b3fec86803761a205bb49f430a1b86a",
        },
        "sweep": {
            "amplification.csv":
                "16c688d343b368b24ccd0e10e7cc29e18b896b33ae27036f74a0d95ee34dd12b",
            "cells/SDT_rt10_sig0.33_tau3-5_daily.csv":
                "ee2987cdddb9b9e4426571501ebea2a13de1310a257f3a6413ea1e7944afa838",
            "cells/SDT_rt60_sig0.33_tau3-5_daily.csv":
                "647e2cb8b7d2576595db3fed17f3fe220f28e9fafbeab566faed50371785e369",
            "cells/SST_rt10_sig0.33_tau3-5_daily.csv":
                "d5fded43902596baf4e8355ef200e248323e17b9f3f64b7d58926be1beb58232",
            "cells/SST_rt60_sig0.33_tau3-5_daily.csv":
                "cdee2ade1420b84cfd1f0252781426bb10ffcf3cb2c3aae72f3b048653c0c0d6",
            "prevalence.csv":
                "6b6e2e320c03f8f312ce2894b20397e0ba8e015ea0c839cf812f74dd7947514e",
            "summary.csv":
                "b3b32e933c75dba05e9a2ff5a1b0a9db9b8b04e1270f84e699984bf09604af33",
        },
    },
}

SWEEP_PLAN = """\
variants = SDT,SST
r_t = 10,60
sigma = 0.33
tau = 3-5
runs = 120
seeds = 10
horizon_days = 4
rng_seed = 7
"""


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def trace_and_net(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_sim")
    trace = d / "trace.csv"
    sdt = d / "sdt.spdt"
    steps = (
        ["synth", "--out", str(trace), "--users", "300", "--days", "4",
         "--locations", "5", "--active-day-prob", "0.6", "--area", "500,500",
         "--seed", "21"],
        ["build", "--trace", str(trace), "--out", str(sdt), "--horizon", "4"],
    )
    for argv in steps:
        assert main(argv) == 0
    return d, trace, sdt


@pytest.fixture(scope="module")
def simulate_digests(trace_and_net):
    d, _, sdt = trace_and_net
    runs = (
        ("uniform", ["--runs", "40", "--seeds", "8", "--r-t", "35",
                     "--seed", "3", "--tau", "3-5"]),
        ("mean3", ["--runs", "25", "--seeds", "12", "--r-t", "60",
                   "--seed", "4", "--tau", "3-5", "--tau-mode", "mean3",
                   "--horizon", "6"]),
    )
    digests = {}
    for label, extra in runs:
        daily, summary = d / f"{label}_daily.csv", d / f"{label}_summary.csv"
        assert main(["simulate", "--net", str(sdt), "--out-daily", str(daily),
                     "--out-summary", str(summary), *extra]) == 0
        digests[daily.name] = _sha256(daily)
        digests[summary.name] = _sha256(summary)
    return digests


@pytest.fixture(scope="module")
def sweep_digests(trace_and_net):
    d, trace, _ = trace_and_net
    config = d / "plan.cfg"
    config.write_text(SWEEP_PLAN)
    out = d / "sweep"
    assert main(["sweep", "--trace", str(trace), "--out-dir", str(out),
                 "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(cell["status"] == "ok" for cell in manifest["cells"])
    listed = manifest["outputs"]
    assert {rel: _sha256(out / rel) for rel in listed} == listed
    return listed


def _golden(kind, got):
    golden = GOLDEN.get(np.__version__)
    if golden is None:
        pytest.skip(f"no {kind} digests recorded for numpy {np.__version__}; "
                    f"this run gave {got!r}")
    return golden[kind]


def test_simulate_csvs_match_golden_digests(simulate_digests):
    assert simulate_digests == _golden("simulate", simulate_digests)


def test_mini_sweep_crosses_a_block_boundary(trace_and_net):
    runs = int(SWEEP_PLAN.split("runs = ")[1].split()[0])
    sdt = load_network(trace_and_net[2])
    assert epidemic._block_runs(sdt) < runs


def test_mini_sweep_outputs_match_golden_digests(sweep_digests):
    assert len(sweep_digests) == 7  # four cells plus three reports
    assert sweep_digests == _golden("sweep", sweep_digests)
