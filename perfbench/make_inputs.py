"""Helper process: writes one workload's inputs and runs the reference loop.

run.py starts this once per run and keeps it for the whole run, so that
set-up never counts in the peak memory of the timed passes and the
reference loop (reference.py) runs next to them without touching the
measured process. It reads one request a line from standard input and
answers each with one JSON line on standard output:

    setup      write the inputs to --out again (the same files every time)
               -> {"setup_s": ..., "synth_s": ..., "updates": ...}
    reference  run the reference loop -> {"reference_s": ...}

It exits when its standard input closes. Only one of the two processes works
at a time: run.py waits for each answer.

    python3 perfbench/make_inputs.py --workload build --seed 1 --scale full \\
        --out DIR
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import srcpath  # noqa: F401  (puts the checkout's spdt first on sys.path)
from reference import reference_loop  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=sorted(SCALES))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](SCALES[args.scale])
    args.out.mkdir(parents=True, exist_ok=True)
    for line in sys.stdin:
        request = line.strip()
        if request == "setup":
            t0 = perf_counter()
            info = workload.make_inputs(args.seed, args.out)
            reply = {"setup_s": perf_counter() - t0, **info}
        elif request == "reference":
            reply = {"reference_s": reference_loop()}
        else:
            raise SystemExit(f"make_inputs: unknown request {request!r}")
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
