"""Golden digests of the network files the CLI writes.

A small synthetic trace is built into SDT with `spdt build`; SST, DDT, DST,
LDT and LST are derived from it with the variant subcommands. The SHA-256 of
every `.spdt` file is pinned. The trace comes from numpy Generator streams,
which may change between numpy releases, so digests are keyed by the numpy
version they were recorded with; other versions skip, and the skip reason
(``pytest -rs``) carries the digests to record from a trusted commit.
"""

import hashlib

import numpy as np
import pytest

from spdt.cli import main

GOLDEN = {
    "2.4.6": {
        "sdt.spdt":
            "93fdb5b3c288718154e902d9579706f41fc1c4ace78d4f4314cb4d157d95148a",
        "sst.spdt":
            "70c54d026f294f14c9ba2bdd272bd66d8667cb4970368a54b7cc8fc07270821a",
        "ddt.spdt":
            "83915d3e9817c8cd9c86eff3e14db29e2cb60c30422c9dc689cd4e12ef1d495f",
        "dst.spdt":
            "7c59453c5053dc8b259179c81f6b039702e71aee04a42e67e112b8820f647f8e",
        "ldt.spdt":
            "c26408b016cab9f06012b61431221a8e6e352fe90079329d02b8da83b60628cd",
        "lst.spdt":
            "7bf8f6617ff31717f30b99fa3f0698d69d04884c112e898a01166c647ca12e5b",
    },
}


@pytest.fixture(scope="module")
def network_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_nets")
    trace = d / "trace.csv"
    net = {name: d / f"{name}.spdt"
           for name in ("sdt", "sst", "ddt", "dst", "ldt", "lst")}
    steps = (
        ["synth", "--out", str(trace), "--users", "240", "--days", "4",
         "--locations", "14", "--active-day-prob", "0.45", "--area", "900,900",
         "--seed", "21"],
        ["build", "--trace", str(trace), "--out", str(net["sdt"]), "--horizon", "4"],
        ["project-spst", "--net", str(net["sdt"]), "--out", str(net["sst"])],
        ["densify", "--net", str(net["sdt"]), "--out", str(net["ddt"]), "--seed", "5"],
        ["project-spst", "--net", str(net["ddt"]), "--out", str(net["dst"])],
        ["make-ldt-lst", "--net", str(net["ddt"]), "--out-ldt", str(net["ldt"]),
         "--out-lst", str(net["lst"])],
    )
    for argv in steps:
        assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in net.values()}


def test_network_files_match_golden_digests(network_files):
    golden = GOLDEN.get(np.__version__)
    if golden is None:
        pytest.skip(f"no network digests recorded for numpy {np.__version__}; "
                    f"this run gave {network_files!r}")
    assert network_files == golden
