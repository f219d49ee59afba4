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
    # (1 - e^-w)/w with phi(0) = 1; expm1 keeps small-w values exact, and
    # expm1(-w)/(-w) rounds as -expm1(-w)/w does. One reduction rules out
    # w <= 0 and NaN, which skips the mask: the same bits where w > 0
    m = np.negative(w)
    phi = np.expm1(m)
    if w.min() > 0.0:
        return np.divide(phi, m, out=phi)
    pos = w > 0.0
    np.divide(phi, m, out=phi, where=pos)
    phi[~pos] = 1.0
    return phi


def _psi(w, phi=None):
    # (w - 1 + e^-w)/w = 1 - phi(w), from the caller's phi(w) if given; the
    # subtraction loses all digits as w -> 0, hence the series branch
    psi = np.subtract(1.0, _phi(w) if phi is None else phi)
    small = np.flatnonzero(~(w >= _PSI_SERIES_CUTOFF))
    if small.size:
        x = w[small]
        psi[small] = x * (0.5 - x * (1.0 / 6.0 - x * (1.0 / 24.0 - x / 120.0)))
    return psi


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
    of the sum. Integer geometry is converted to float64 exactly. ``r`` is
    one rate per link or a float shared by all; a shared rate gives the
    same bits as that rate repeated.
    """
    n = d_len.shape[0]
    out = np.zeros(n)
    for a in range(0, n, _BLOCK):
        b = a + _BLOCK
        _class_doses(out[a:b], d_len[a:b], lead[a:b], i_len[a:b], stay[a:b],
                     gap[a:b], _rates(r, slice(a, b)), g, V, p)
    return out


def _rates(r, rows):
    # a float shared by all links is used as it is: it is not gathered, and
    # g p / (r V) is one scalar, rounded as each link's copy would be
    return r if np.ndim(r) == 0 else r[rows]


def _class_doses(out, d_len, lead, i_len, stay, gap, r, g, V, p):
    # concentration rising toward g/(rV) while the host is present
    k = np.flatnonzero(d_len > 0)
    if k.size:
        rk, length = _rates(r, k), d_len[k].astype(np.float64, copy=False)
        w = rk * length
        phi = _phi(w)
        term = _psi(w, phi)
        term += np.multiply(phi, -np.expm1(-(rk * lead[k])), out=phi)
        out[k] = (g * p) / (rk * V) * length * term
    # exponential decay after the host left
    k = np.flatnonzero(i_len > 0)
    if k.size:
        rk = _rates(r, k)
        length, s = (x[k].astype(np.float64, copy=False) for x in (i_len, stay))
        dose = (g * p) / (rk * V) * rk * s
        dose *= _phi(np.multiply(rk, s, out=s))
        dose *= np.exp(-rk * gap[k])
        dose *= length
        dose *= _phi(np.multiply(rk, length, out=length))
        out[k] += dose

