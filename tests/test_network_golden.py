"""Golden digests of the trace and network files the CLI writes.

A small synthetic trace is built into SDT with `spdt build`; SST, DDT, DST,
LDT and LST are derived from it with the variant subcommands. The SHA-256 of
every `.spdt` file is pinned, and so is that of the trace CSV. The same trace
with its metres mapped to degrees by a fixed formula is built from its
lat/lon form; the network file and the projected coordinates are pinned. The
trace comes from numpy Generator streams,
which may change between numpy releases, so digests are keyed by the numpy
version they were recorded with; other versions skip, and the skip reason
(``pytest -rs``) carries the digests to record from a trusted commit.
"""

import hashlib

import numpy as np
import pytest

from spdt.cli import main
from spdt.trace import parse_trace

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


TRACE_GOLDEN = {
    "2.4.6": {
        "trace.csv":
            "ba7d5748c8d7e1352498d88b6650b8d9ea5c25ec638d2ff08d0a9385485dd39c",
        "latlon.spdt":
            "93fdb5b3c288718154e902d9579706f41fc1c4ace78d4f4314cb4d157d95148a",
        "latlon projected t, x, y":
            "09679b95270034885938584b909c15d829ccdfd7b349a852b3937616642b7291",
    },
}

SYNTH_ARGS = ["--users", "240", "--days", "4", "--locations", "14",
              "--active-day-prob", "0.45", "--area", "900,900", "--seed", "21"]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def network_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_nets")
    trace = d / "trace.csv"
    net = {name: d / f"{name}.spdt"
           for name in ("sdt", "sst", "ddt", "dst", "ldt", "lst")}
    steps = (
        ["synth", "--out", str(trace), *SYNTH_ARGS],
        ["build", "--trace", str(trace), "--out", str(net["sdt"]), "--horizon", "4"],
        ["project-spst", "--net", str(net["sdt"]), "--out", str(net["sst"])],
        ["densify", "--net", str(net["sdt"]), "--out", str(net["ddt"]), "--seed", "5"],
        ["project-spst", "--net", str(net["ddt"]), "--out", str(net["dst"])],
        ["make-ldt-lst", "--net", str(net["ddt"]), "--out-ldt", str(net["ldt"]),
         "--out-lst", str(net["lst"])],
    )
    for argv in steps:
        assert main(argv) == 0
    return {p.name: _sha256(p) for p in net.values()}


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_trace")
    trace, latlon, net = d / "trace.csv", d / "latlon.csv", d / "latlon.spdt"
    assert main(["synth", "--out", str(trace), *SYNTH_ARGS]) == 0
    # metres to degrees about (48.1 N, 11.5 E), about a metre per 1e-5 deg
    rows = trace.read_text().splitlines()[1:]
    with open(latlon, "w") as fh:
        fh.write("user_id,t_min,lat,lon\n")
        for row in rows:
            user, t, x, y = row.split(",")
            fh.write(f"{user},{t},{48.1 + float(y) / 111_195.0!r},"
                     f"{11.5 + float(x) / 74_400.0!r}\n")
    assert main(["build", "--trace", str(latlon), "--out", str(net),
                 "--horizon", "4"]) == 0
    updates = parse_trace(latlon).updates
    projected = b"".join(col.tobytes() for col in (updates.t, updates.x, updates.y))
    return {"trace.csv": _sha256(trace), "latlon.spdt": _sha256(net),
            "latlon projected t, x, y": hashlib.sha256(projected).hexdigest()}


def test_network_files_match_golden_digests(network_files):
    golden = GOLDEN.get(np.__version__)
    if golden is None:
        pytest.skip(f"no network digests recorded for numpy {np.__version__}; "
                    f"this run gave {network_files!r}")
    assert network_files == golden


def test_trace_files_match_golden_digests(trace_files):
    golden = TRACE_GOLDEN.get(np.__version__)
    if golden is None:
        pytest.skip(f"no trace digests recorded for numpy {np.__version__}; "
                    f"this run gave {trace_files!r}")
    assert trace_files == golden
