"""The dose kernel.

The hot inner loop of every simulation is the per-link inhaled-dose
evaluation, implemented over ndarrays in ``_exposure_np``: ``link_geometry``
turns a link's four times into the five lengths its dose depends on, and
``link_doses`` evaluates each dose term only on the links that have it. The
simulator calls ``link_doses`` on its kept geometry; ``batch_link_exposure``
does both steps. ``KERNEL_BACKEND`` names the implementation in use and
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
    normally leave it unset. The backend runs ``_BLOCK`` links at a time,
    each block converted to float64 on its own, so integer times (exact in
    float64) need no full-length float copy.
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
    out = np.empty(times[0].shape[0])
    for a in range(0, out.size, backend._BLOCK):
        b = a + backend._BLOCK
        block = (np.asarray(x[a:b], dtype=np.float64) for x in times)
        out[a:b] = backend.link_doses(*backend.link_geometry(*block),
                                      _rates(r, slice(a, b)), g, V, p)
    return out
