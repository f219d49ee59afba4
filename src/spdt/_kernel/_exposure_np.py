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


def batch_link_exposure(t_s, t_l, t_s_n, t_l_n, r, g, V, p):
    """Inhaled dose (PFU) per link; all time/rate arguments are equal-length arrays.

    Each block is converted to float64 on its own, so integer times (exact in
    float64) need no full-length float copy.
    """
    n = t_s.shape[0]
    out = np.empty(n)
    for a in range(0, n, _BLOCK):
        b = a + _BLOCK
        out[a:b] = _doses(*(np.asarray(x[a:b], dtype=np.float64)
                            for x in (t_s, t_l, t_s_n, t_l_n, r)), g, V, p)
    return out


def _doses(t_s, t_l, t_s_n, t_l_n, r, g, V, p):
    """Dose per link of one block.

    The neighbour inhales over [max(t_s, t_s_n), t_l_n], split into a segment
    while the host is still present (concentration rising toward g/(rV)) and a
    segment after departure (exponential decay). Either segment may be empty.
    """
    a = np.maximum(t_s, t_s_n)
    b = t_l_n
    scale = (g * p) / (r * V)

    # segment while host present: [a, min(b, t_l)]
    d_len = np.maximum(np.minimum(b, t_l) - a, 0.0)
    w = r * d_len
    u = r * np.maximum(a - t_s, 0.0)
    direct = scale * d_len * (_psi(w) + _phi(w) * (-np.expm1(-u)))

    # segment after host departure: [max(a, t_l), b]
    a2 = np.maximum(a, t_l)
    i_len = np.maximum(b - a2, 0.0)
    stay = np.maximum(t_l - t_s, 0.0)
    ws = r * stay
    wi = r * i_len
    indirect = (
        scale * r * stay * _phi(ws) * np.exp(-r * (a2 - t_l)) * i_len * _phi(wi)
    )

    return direct + indirect
