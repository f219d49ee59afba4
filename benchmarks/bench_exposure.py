"""Benchmark the dose kernel.

Times every importable backend (and a naive per-link Python loop for
scale) on random link batches:

    python benchmarks/bench_exposure.py [--sizes 1000,100000,1000000]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from spdt._kernel import available_backends, batch_link_exposure  # noqa: E402


def random_links(n, seed=0):
    rng = np.random.default_rng(seed)
    t_s = rng.uniform(0, 5000, n)
    t_l = t_s + rng.uniform(0, 600, n)
    t_s_n = t_s + rng.uniform(-100, 500, n)
    t_l_n = t_s_n + rng.uniform(0, 400, n)
    bad = t_l_n <= t_s
    t_l_n[bad] = t_s[bad] + 1.0
    r = rng.uniform(1 / 300, 1 / 7.5, n)
    return t_s, t_l, t_s_n, t_l_n, r


def scalar_loop(t_s, t_l, t_s_n, t_l_n, r, g, V, p):
    """Readable per-link reference, for scale only."""
    out = np.empty(t_s.size)
    for i in range(t_s.size):
        ri = r[i]
        a = max(t_s[i], t_s_n[i])
        b = t_l_n[i]
        scale = g * p / (ri * V)
        dose = 0.0
        hi = min(b, t_l[i])
        if hi > a:
            dose += scale * ((hi - a)
                             + (math.exp(-ri * (hi - t_s[i]))
                                - math.exp(-ri * (a - t_s[i]))) / ri)
        a2 = max(a, t_l[i])
        if b > a2:
            dose += (scale / ri
                     * (1.0 - math.exp(-ri * (t_l[i] - t_s[i])))
                     * (math.exp(-ri * (a2 - t_l[i]))
                        - math.exp(-ri * (b - t_l[i]))))
        out[i] = dose
    return out


def timeit(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="1000,100000,1000000")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    backends = available_backends()
    print(f"backends available: {', '.join(backends)}")
    print(f"{'links':>10} " + " ".join(f"{name:>14}" for name in backends)
          + f" {'python loop':>14}")

    g, V, p = 18.24, 2512.0, 0.0075
    for n in sizes:
        arrays = random_links(n)
        row = [f"{n:>10}"]
        results = {}
        for name, mod in backends.items():
            dt = timeit(lambda: batch_link_exposure(*arrays, g, V, p, impl=mod))
            results[name] = batch_link_exposure(*arrays, g, V, p, impl=mod)
            row.append(f"{n / dt / 1e6:>10.1f} M/s")
        if n <= 200_000:
            dt = timeit(lambda: scalar_loop(*arrays, g, V, p), repeats=2)
            row.append(f"{n / dt / 1e6:>10.2f} M/s")
        else:
            row.append(f"{'(skipped)':>14}")
        print(" ".join(row))
        names = list(results)
        for a, b in zip(names, names[1:]):
            denom = np.maximum(np.abs(results[a]), 1e-300)
            worst = float(np.max(np.abs(results[a] - results[b]) / denom))
            print(f"{'':>10}  max rel deviation {a} vs {b}: {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
