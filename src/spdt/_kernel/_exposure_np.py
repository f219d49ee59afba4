"""Vectorised ndarray implementation of the dose kernel."""

import numpy as np

NAME = "numpy"

# Below this, (w - 1 + e^-w)/w is evaluated by series to keep relative accuracy.
_PSI_SERIES_CUTOFF = 1e-2

# Links per pass: a larger batch is evaluated this many links at a time, so
# that the kernel's full-length temporaries stay in cache. The kernel is
# elementwise, so doses do not depend on the block size.
_BLOCK = 1 << 13


def _phi(w):
    # (1 - e^-w)/w with phi(0) = 1; expm1 keeps small-w values exact
    return np.divide(-np.expm1(-w), w, out=np.ones_like(w), where=w > 0.0)


def _psi(w):
    # (w - 1 + e^-w)/w = 1 - phi(w); direct subtraction loses all digits as
    # w -> 0, hence the series branch
    out = w * (0.5 - w * (1.0 / 6.0 - w * (1.0 / 24.0 - w / 120.0)))
    big = w >= _PSI_SERIES_CUTOFF
    ratio = np.divide(np.expm1(-w), w, out=np.zeros_like(w), where=big)
    return np.add(1.0, ratio, out=out, where=big)


def link_geometry(t_s, t_l, t_s_n, t_l_n):
    """Direct length, lead, indirect length, stay and decay gap per link.

    The neighbour is present over [a, t_l_n] with a = max(t_s, t_s_n): a
    direct segment [a, min(t_l_n, t_l)] while the host is still present and
    an indirect segment [max(a, t_l), t_l_n] after it left. Either may be
    empty. Every value is a difference of two times, so integer times give
    exact integer lengths.
    """
    a = np.maximum(t_s, t_s_n)
    a2 = np.maximum(a, t_l)
    return (np.maximum(np.minimum(t_l_n, t_l) - a, 0), np.maximum(a - t_s, 0),
            np.maximum(t_l_n - a2, 0), np.maximum(t_l - t_s, 0), a2 - t_l)


def link_doses(d_len, lead, i_len, stay, gap, r, g, V, p):
    """Inhaled dose (PFU) per link from its geometry and removal rate.

    Block by block into a zeroed output: the direct term only where
    ``d_len > 0`` and the indirect term only where ``i_len > 0``. A link
    without a segment has an exact +0.0 term, so skipping it changes no bit
    of the sum. Integer geometry is converted to float64 exactly.
    """
    n = d_len.shape[0]
    out = np.zeros(n)
    for a in range(0, n, _BLOCK):
        b = a + _BLOCK
        _class_doses(out[a:b], d_len[a:b], lead[a:b], i_len[a:b], stay[a:b],
                     gap[a:b], r[a:b], g, V, p)
    return out


def _class_doses(out, d_len, lead, i_len, stay, gap, r, g, V, p):
    # concentration rising toward g/(rV) while the host is present
    k = np.flatnonzero(d_len > 0)
    if k.size:
        rk, length = r[k], d_len[k].astype(np.float64, copy=False)
        w = rk * length
        u = rk * lead[k]
        out[k] = (g * p) / (rk * V) * length * (_psi(w) + _phi(w) * (-np.expm1(-u)))
    # exponential decay after the host left
    k = np.flatnonzero(i_len > 0)
    if k.size:
        rk = r[k]
        length, s = (x[k].astype(np.float64, copy=False) for x in (i_len, stay))
        out[k] += ((g * p) / (rk * V) * rk * s * _phi(rk * s) * np.exp(-rk * gap[k])
                   * length * _phi(rk * length))


def batch_link_exposure(t_s, t_l, t_s_n, t_l_n, r, g, V, p):
    """Inhaled dose (PFU) per link; all time/rate arguments are equal-length arrays.

    Each block is converted to float64 on its own, so integer times (exact in
    float64) need no full-length float copy.
    """
    n = t_s.shape[0]
    out = np.empty(n)
    for a in range(0, n, _BLOCK):
        b = a + _BLOCK
        times = (np.asarray(x[a:b], dtype=np.float64) for x in (t_s, t_l, t_s_n, t_l_n))
        out[a:b] = link_doses(*link_geometry(*times), r[a:b], g, V, p)
    return out
