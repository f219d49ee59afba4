"""The dose kernel.

The hot inner loop of every simulation is the per-link inhaled-dose
evaluation, implemented over ndarrays in ``_exposure_np``: ``link_geometry``
turns a link's four times into the five lengths its dose depends on, and
``link_doses`` evaluates each dose term only on the links that have it, from
per-length factor tables when one float rate meets whole-minute geometry
(``FactorTables``). The simulator calls ``link_doses`` on its kept geometry
with one rate per link; ``batch_link_exposure`` does both steps, in int64
for integer times. ``KERNEL_BACKEND`` names the implementation in use and
``available_backends()`` lists the importable ones, so that benchmarks can
report and check each of them. Within one numpy version, results are
bit-stable.
"""

from __future__ import annotations

import numpy as np

from . import _exposure_np
from ._exposure_np import _rates, link_doses, link_geometry

KERNEL_BACKEND: str = _exposure_np.NAME


def available_backends() -> dict[str, object]:
    """Importable backends by name."""
    return {_exposure_np.NAME: _exposure_np}


def batch_link_exposure(t_s, t_l, t_s_n, t_l_n, r, g, V, p, impl=None):
    """Inhaled dose per link (PFU) from its four times; equal-length arrays
    in, float64 array out.

    The removal rate ``r`` is an equal-length array or one number for every
    link. A number is used as a float: it is not gathered per link, and the
    doses equal, bit for bit, those of that rate repeated in an array.
    ``impl`` overrides the backend (used by the benchmarks); callers
    normally leave it unset. The backend runs ``_BLOCK`` links at a time.
    Integer times give each block's geometry in int64 (``_minute_geometry``),
    exact whatever the times, and a float rate then shares one set of the
    backend's ``FactorTables`` across the blocks; other times are converted
    to float64 a block at a time.
    """
    *times, r = (np.asarray(x) for x in (t_s, t_l, t_s_n, t_l_n, r))
    if r.ndim == 0:
        r = float(r)
    elif r.shape != times[0].shape:
        raise ValueError("the rate must be a number or an array as long as the times")
    if times[0].ndim != 1 or any(arr.shape != times[0].shape for arr in times[1:]):
        raise ValueError("link arrays must be one-dimensional and equal length")
    backend = impl if impl is not None else _exposure_np
    g, V, p = float(g), float(V), float(p)
    minutes = all(x.dtype.kind in "iu" for x in times)
    tables = (backend.FactorTables(r, g, V, p)
              if minutes and isinstance(r, float) else None)
    out = np.empty(times[0].shape[0])
    for a in range(0, out.size, backend._BLOCK):
        b = a + backend._BLOCK
        if minutes:
            geometry = _minute_geometry(backend, [x[a:b] for x in times], a)
        else:
            geometry = backend.link_geometry(
                *(np.asarray(x[a:b], dtype=np.float64) for x in times))
        out[a:b] = backend.link_doses(*geometry, _rates(r, slice(a, b)), g, V, p,
                                      tables)
    return out


def _minute_geometry(backend, times, first):
    """int64 geometry of one block of integer times, from link ``first`` on.

    Every length is a difference of two of a link's times, exact in int64
    while the link's times span under 2**63 minutes; a wider link raises.
    A block whose times span 2**63 minutes or more, or reach 2**63, is
    checked link by link in Python ints, each link shifted by its earliest
    time.
    """
    lo, hi = min(int(x.min()) for x in times), max(int(x.max()) for x in times)
    if hi - lo >= 1 << 63 or hi >= 1 << 63:
        times = [x.astype(object) for x in times]
        start = np.minimum(np.minimum(times[0], times[1]),
                           np.minimum(times[2], times[3]))
        times = [x - start for x in times]
        wide = np.flatnonzero(np.maximum(np.maximum(times[0], times[1]),
                                         np.maximum(times[2], times[3])) >= 1 << 63)
        if wide.size:
            raise ValueError(f"link {first + int(wide[0])}: its times span 2**63 "
                             "minutes or more, past the int64 range")
    return backend.link_geometry(*(x.astype(np.int64, copy=False) for x in times))
