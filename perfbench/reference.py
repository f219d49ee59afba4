"""A fixed reference loop that gauges how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and the speed
those cores give a single thread drifts by up to 2x over tens of seconds.
The drift is the host's, not the program's: the process's CPU time rises
with its wall time and no other process in the box is busy. So every timed
pass and set-up repetition is bracketed by this loop, and run.py reports
its time scaled to a machine on which the loop takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean(loop time before, loop time after)

The drift is not the same for every kind of work, so the loop does each kind
spdt does: Python objects (tuples, dicts, sorting, string formatting), set
intersections over adjacency sets (as in the graph metrics) and NumPy
(random draws, sort, searchsorted, bincount, transcendental functions). It
never calls spdt, so a change to spdt cannot move it, and it needs under
2 MB.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds of the loop that scaled times refer to. Any fixed value serves; this
# is near what the loop takes on a 2-core 2.1 GHz Xeon VM, so scaled and
# unscaled times there are of one size.
REFERENCE_S = 0.12

_ROUNDS = 3
_ARRAY = 60_000
_ITEMS = 12_000
_NODES = 300
_DEGREE = 40


def _round(rng: np.random.Generator) -> float:
    arr = rng.random(_ARRAY)
    order = np.argsort(arr, kind="stable")
    edges = np.searchsorted(arr[order], np.linspace(0.0, 1.0, 64))
    counts = np.bincount((arr * 97).astype(np.int64), minlength=97)
    dose = float(np.exp(-arr).sum() + np.log1p(arr).sum() + edges.sum() + counts.max())
    table: dict[tuple[int, int], float] = {}
    for i, x in enumerate(arr[:_ITEMS].tolist()):
        key = (i % 211, i // 211)
        table[key] = table.get(key, 0.0) + x * 0.5
    rows = sorted(table.items(), key=lambda kv: kv[1])
    text = "\n".join(f"u{a:04d},{b},{v!r}" for (a, b), v in rows[::8])
    nbrs = [set(row) for row in
            rng.integers(0, _NODES, (_NODES, _DEGREE)).tolist()]
    closed = sum(len(nbrs[u] & mine) for mine in nbrs for u in mine)
    return dose + len(text) + closed


def reference_loop() -> float:
    """Seconds one run of the reference loop takes now."""
    rng = np.random.default_rng(20190606)
    t0 = perf_counter()
    checksum = 0.0
    for _ in range(_ROUNDS):
        checksum += _round(rng)
    elapsed = perf_counter() - t0
    if not checksum > 0:  # keeps the result used, so no step can be skipped
        raise RuntimeError("reference loop produced no work")
    return elapsed
