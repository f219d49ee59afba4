"""spdt pipeline benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {build,sweep,structure} --seed N \\
        --seconds S --trace {0,1}

A helper process (make_inputs.py) writes the inputs, then this process
repeats passes of the workload for ``--seconds`` seconds and checks every
pass's outputs. Between passes the helper repeats the set-up, so set-up is
timed throughout the run too, and runs the reference loop (reference.py)
after every pass and set-up repetition.

The host's speed drifts by up to 2x over tens of seconds, so each time is
also reported scaled to the reference machine: multiplied by
``REFERENCE_S`` over the mean of the reference loop's times just before and
just after it. ``--trace 0`` reports the end-to-end metrics: ``wall_s``, the
median scaled pass time, ``setup_s``, the median scaled set-up time, and
``peak_rss_mb``, this process's peak resident set, which set-up never
touches. The unscaled medians are printed and kept in the run record.
``--trace 1`` alternates untraced passes with passes whose spdt calls are
wrapped in spans (tracing.py, layers.py), and reports the per-layer metrics
of the median traced pass, the tracing overhead, the unscaled pass and
reference-loop times, and the kernel micro-benchmark. The tracing overhead
is the difference of the scaled medians; span times are unscaled. It writes every span
of the run to ``.perfbench/spans-<workload>-seed<seed>.json`` when it ends.

Every pass is checked (workloads.py); failed checks over attempted ones is
the error rate. The output digest must repeat across passes and, when
golden.json holds one for this workload, scale, seed, numpy version and
kernel backend, match it; otherwise the digest is reported UNVERIFIED.
The last line of standard output is the result as JSON. The exit code is 1
when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import srcpath  # noqa: F401  (puts the checkout's spdt and benchmarks/ on sys.path)

import numpy as np  # noqa: E402

import spdt  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from bench_exposure import random_links, scalar_loop  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from spdt._kernel import available_backends, batch_link_exposure  # noqa: E402
from spdt.epidemic import resolve_workers  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
MIN_SETUPS = 3
SETUP_SHARE = 0.2  # of the run's time, once MIN_SETUPS are done
REQUEST_TIMEOUT_S = 120
MIN_PASSES = 3
MICRO_LINKS = 100_000
MICRO_REPEATS = 5


class Checks:
    """Attempted and failed output checks over all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def record_pass(self, checks: dict[str, bool], digest: str) -> None:
        for name, ok in checks.items():
            self.add(name, ok)
        if self.digest is None:
            self.digest = digest
        else:
            self.add("output digest repeats across passes", digest == self.digest)

    def against_golden(self, expected: str | None) -> str:
        if expected is None:
            return "UNVERIFIED"
        self.add("output digest matches golden.json", self.digest == expected)
        return "verified" if self.digest == expected else "MISMATCH"


def golden_key(workload: str, scale: str) -> str:
    return f"{workload}/{scale}/numpy-{np.__version__}/{spdt.KERNEL_BACKEND}"


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (srcpath.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=srcpath.ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Helper:
    """The make_inputs.py process of one run: set-up and reference loop."""

    def __init__(self, workload: str, seed: int, scale: str, dest: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--scale", scale, "--out", str(dest)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def request(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], REQUEST_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise SystemExit(f"perfbench: helper gave no answer to {name!r}")
        return json.loads(line)

    def close(self) -> None:
        """Let the helper exit; kill it if it does not."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Timings:
    """Times measured in a run, each also scaled to the reference machine.

    After every timed item the helper runs the reference loop once, so each
    item lies between two runs of it; their mean gauges the speed the item
    ran at. The helper's first run of the loop is a warm-up and not kept.
    """

    def __init__(self, helper: Helper):
        self.helper = helper
        helper.request("reference")
        self.reference = [helper.request("reference")["reference_s"]]
        self.raw: dict[str, list[float]] = {"setup": [], "pass": [], "traced": []}
        self.scaled: dict[str, list[float]] = {"setup": [], "pass": [], "traced": []}

    def add(self, kind: str, seconds: float) -> None:
        self.reference.append(self.helper.request("reference")["reference_s"])
        speed = (self.reference[-2] + self.reference[-1]) / 2
        self.raw[kind].append(seconds)
        self.scaled[kind].append(seconds * REFERENCE_S / speed)


def setup_once(helper: Helper, timings: Timings) -> dict:
    reply = helper.request("setup")
    timings.add("setup", reply["setup_s"])
    return reply


def one_pass(workload, inputs, work: Path, checks: Checks,
             tracer: tracing.Tracer | None = None) -> tuple[float, int | None]:
    """Run and check one pass; returns its wall time and root span index."""
    out = work / "pass"
    out.mkdir()
    api = layers.calls(tracer)
    gc.collect()  # so that no pass pays for collecting an earlier one's garbage
    root = None
    if tracer is None:
        t0 = perf_counter()
        result = workload.run_pass(inputs, api, out)
        wall = perf_counter() - t0
    else:
        layers.patch_library(tracer)
        try:
            t0 = perf_counter()
            with tracer.root("bench.pass") as root:
                result = workload.run_pass(inputs, api, out)
            wall = perf_counter() - t0
        finally:
            tracer.restore()
    checks.record_pass(*workload.check(result))
    del result
    shutil.rmtree(out)
    return wall, root


def kernel_micro(seed: int) -> dict[str, float]:
    """Links/s of the selected kernel on a random batch, and the worst
    relative deviation of every importable backend from the per-link loop."""
    g, V, p = 18.24, 2512.0, 0.0075
    arrays = random_links(MICRO_LINKS, seed)
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = perf_counter()
        batch_link_exposure(*arrays, g, V, p)
        times.append(perf_counter() - t0)
    reference = scalar_loop(*arrays, g, V, p)
    denom = np.maximum(np.abs(reference), 1e-300)
    worst = max(
        float(np.max(np.abs(batch_link_exposure(*arrays, g, V, p, impl=mod)
                            - reference) / denom))
        for mod in available_backends().values()
    )
    return {"kernel.micro_links_per_s": MICRO_LINKS / min(times),
            "kernel.micro_max_rel_dev": worst}


def measure(workload, inputs, work: Path, seconds: float, checks: Checks,
            helper: Helper, timings: Timings, synth_s: list[float],
            tracer: tracing.Tracer | None = None) -> list[tuple[float, int]]:
    """Repeat passes for ``seconds``, with set-up repetitions between them
    until they make MIN_SETUPS and then while they take under SETUP_SHARE
    of the time. With a tracer every untraced pass is followed by a traced
    one, so drift hits both alike; returns the traced passes' (wall, root)."""
    traced = []
    start = perf_counter()
    deadline = start + seconds
    while len(timings.raw["pass"]) < MIN_PASSES or perf_counter() < deadline:
        if (len(timings.raw["setup"]) < MIN_SETUPS
                or sum(timings.raw["setup"]) < SETUP_SHARE * (perf_counter() - start)):
            synth_s.append(setup_once(helper, timings)["synth_s"])
        timings.add("pass", one_pass(workload, inputs, work, checks)[0])
        if tracer is not None:
            wall, root = one_pass(workload, inputs, work, checks, tracer)
            timings.add("traced", wall)
            traced.append((wall, root))
    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'toy' is for the smoke test")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digest in golden.json when "
                             "none is recorded for it")
    args = parser.parse_args(argv)

    imported = Path(spdt.__file__).resolve()
    if not imported.is_relative_to(srcpath.SRC):
        raise SystemExit(f"perfbench: spdt imported from {imported}, "
                         f"not from {srcpath.SRC}")

    workload = WORKLOADS[args.workload](SCALES[args.scale])
    scratch = srcpath.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    checks = Checks()
    tracer = tracing.Tracer() if args.trace else None
    try:
        with Helper(args.workload, args.seed, args.scale, work / "inputs") as helper:
            timings = Timings(helper)
            setup = setup_once(helper, timings)
            synth_s = [setup["synth_s"]]
            inputs = workload.load(work / "inputs", args.seed)
            traced = measure(workload, inputs, work, args.seconds, checks,
                             helper, timings, synth_s, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work)
    plain = timings.raw["pass"]

    key = golden_key(args.workload, args.scale)
    golden = load_golden()
    status = checks.against_golden(golden.get(key, {}).get(str(args.seed)))
    if args.record_golden and status == "UNVERIFIED" and not checks.failures:
        golden.setdefault(key, {})[str(args.seed)] = checks.digest
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        status = "recorded"
    error_rate = len(checks.failures) / checks.attempted

    if args.trace:
        by_wall = sorted(traced)
        _, root = by_wall[(len(by_wall) - 1) // 2]
        values = layers.from_spans(tracing.summarise(tracer.spans, root))
        scaled = timings.scaled
        values["bench.trace_overhead_s"] = (statistics.median(scaled["traced"])
                                            - statistics.median(scaled["pass"]))
        values["bench.raw_wall_s"] = statistics.median(plain)
        values["bench.reference_s"] = statistics.median(timings.reference)
        values["bench.error_rate"] = error_rate
        values["synth.generate_s"] = statistics.median(synth_s)
        values["synth.updates"] = setup["updates"]
        values.update(kernel_micro(args.seed))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.UNITS.items()}
        spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]),
                              encoding="utf-8")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(timings.scaled["pass"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(timings.scaled["setup"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "reference_s": REFERENCE_S, "reference_loop_s": timings.reference,
        **{f"{kind}_s": timings.raw[kind] for kind in timings.raw},
        **{f"{kind}_scaled_s": timings.scaled[kind] for kind in timings.scaled},
        "kernel_backend": spdt.KERNEL_BACKEND, "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "workers": resolve_workers(),
        "git_commit": git_commit(), "digest": checks.digest,
        "digest_status": status, "golden_key": key,
    }
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}: {len(plain)} untraced passes"
          + (f", {len(traced)} traced" if args.trace else "")
          + f", {len(timings.raw['setup'])} set-ups; seconds q1/median/q3, "
          f"unscaled -> scaled (reference loop median "
          f"{statistics.median(timings.reference):.4g} s, scaled to {REFERENCE_S} s):")
    for kind in ("pass", "setup"):
        print(f"  {kind:<6} " + " -> ".join(
            "/".join(f"{q:.4g}" for q in statistics.quantiles(
                times[kind], n=4, method="inclusive"))
            for times in (timings.raw, timings.scaled)))
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<34} {error_rate:>16.6g} ratio "
          f"({len(checks.failures)} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(f"  digest {checks.digest} {status} ({key}, seed {args.seed})")
    if status == "UNVERIFIED":
        print(f"perfbench: output digest UNVERIFIED: golden.json has none for "
              f"{key} seed {args.seed}", file=sys.stderr)
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
