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
from ._exposure_np import link_doses, link_geometry

KERNEL_BACKEND: str = _exposure_np.NAME


def available_backends() -> dict[str, object]:
    """Importable backends by name."""
    return {_exposure_np.NAME: _exposure_np}


def batch_link_exposure(t_s, t_l, t_s_n, t_l_n, r, g, V, p, impl=None):
    """Inhaled dose per link (PFU) from its four times; equal-length arrays
    in, float64 array out.

    ``impl`` overrides the backend (used by the benchmarks); callers
    normally leave it unset.
    """
    arrs = [np.asarray(x) for x in (t_s, t_l, t_s_n, t_l_n, r)]
    if arrs[0].ndim != 1:
        raise ValueError("link arrays must be one-dimensional and equal length")
    n = arrs[0].shape[0]
    for arr in arrs[1:]:
        if arr.shape != (n,):
            raise ValueError("link arrays must be one-dimensional and equal length")
    backend = impl if impl is not None else _exposure_np
    return backend.batch_link_exposure(*arrs, float(g), float(V), float(p))
