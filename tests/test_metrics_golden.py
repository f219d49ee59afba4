"""Golden digests of `spdt metrics --daily` outputs.

A small synthetic trace is built into SDT and SST networks through the CLI,
and `spdt metrics --daily` runs on each over the SDT universe. The SHA-256 of
every CSV it writes is pinned. The trace comes from numpy Generator streams,
which may change between numpy releases, so digests are keyed by the numpy
version they were recorded with; other versions skip, and the skip reason
(``pytest -rs``) carries the digests to record from a trusted commit.
"""

import hashlib

import numpy as np
import pytest

from spdt.cli import main

OUTPUTS = ("degree_hist.csv", "clustering_hist.csv", "daily_metrics.csv")

GOLDEN = {
    "2.4.6": {
        "sdt_degree_hist.csv":
            "3ae002c9dd4c7dc66df69f60802959a7145c45038eed3e2505a2991809733549",
        "sdt_clustering_hist.csv":
            "9950b66d59647d5ac690427e57154b387d24cde13e63607f5a77ebdbc42afa27",
        "sdt_daily_metrics.csv":
            "d4f2489e5d225ddca69ca2f31345499acbe100cc72cf27035c107ff58bdb1ab9",
        "sst_degree_hist.csv":
            "7ae5d34fef66e7ad68592d84d0e49d644c797fcf235daa10ed85e04a2443a577",
        "sst_clustering_hist.csv":
            "74522050882980ae29f20e90455b26d70fdfe252efc87cc34ef1e62965696fbd",
        "sst_daily_metrics.csv":
            "d3c5b4d951a26bd660d43ef75118f7616d12f2cee79828d1bd8915f0093fb2fd",
    },
}


@pytest.fixture(scope="module")
def metrics_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    trace, sdt, sst = d / "trace.csv", d / "sdt.spdt", d / "sst.spdt"
    steps = (
        ["synth", "--out", str(trace), "--users", "240", "--days", "4",
         "--locations", "14", "--active-day-prob", "0.45", "--area", "900,900",
         "--seed", "21"],
        ["build", "--trace", str(trace), "--out", str(sdt), "--horizon", "4"],
        ["project-spst", "--net", str(sdt), "--out", str(sst)],
        ["metrics", "--net", str(sdt), "--out-prefix", str(d / "sdt_"),
         "--variant", "SDT", "--r-t", "10,35,60", "--daily"],
        ["metrics", "--net", str(sst), "--out-prefix", str(d / "sst_"),
         "--variant", "SST", "--r-t", "10,35,60", "--daily",
         "--universe-net", str(sdt)],
    )
    for argv in steps:
        assert main(argv) == 0
    return {
        f"{variant}_{name}": hashlib.sha256(
            (d / f"{variant}_{name}").read_bytes()).hexdigest()
        for variant in ("sdt", "sst") for name in OUTPUTS
    }


def test_metrics_outputs_match_golden_digests(metrics_outputs):
    golden = GOLDEN.get(np.__version__)
    if golden is None:
        pytest.skip(f"no metrics digests recorded for numpy {np.__version__}; "
                    f"this run gave {metrics_outputs!r}")
    assert metrics_outputs == golden
