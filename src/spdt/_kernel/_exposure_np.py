"""Vectorised ndarray implementation of the dose kernel.

At one float rate r, each factor of a dose depends on one of the five
lengths alone: phi(r len), psi(r d_len), the lead factor
-expm1(-r lead), the stay factor (g p / (r V) r stay) phi(r stay) and the
decay exp(-r gap). For signed integer geometry, ``link_doses`` therefore
tabulates each factor over 0, 1, 2, ... minutes with the elementwise
operations that ``_class_doses`` applies per link (``FactorTables``), and then
evaluates each link by table lookups followed by the same multiplies and
adds in the same order: the same bits. A block with a length of
``_TABLE_MAX`` minutes or more, or a negative one, is evaluated per link.
"""

import numpy as np

NAME = "numpy"

# Below this, (w - 1 + e^-w)/w is evaluated by series to keep relative accuracy.
_PSI_SERIES_CUTOFF = 1e-2

# Links per pass: a larger batch is evaluated this many links at a time, so
# that the kernel's full-length temporaries stay in cache. The kernel is
# elementwise, so doses do not depend on the block size.
_BLOCK = 1 << 13

# FactorTables entries, minutes 0 to _TABLE_MAX - 1: at most 192 KB for the
# six tables. Fitting tables this long costs about one block's per-link
# evaluation, which the call's other blocks then save. Tables start at
# _TABLE_MIN entries, which cost about what fewer do.
_TABLE_MIN, _TABLE_MAX = 1 << 9, 1 << 12


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
    d_len, i_len, stay = np.minimum(t_l_n, t_l) - a, t_l_n - a2, t_l - t_s
    for x in (d_len, i_len, stay):
        np.maximum(x, 0, out=x)
    a2 -= t_l
    return d_len, a - t_s, i_len, stay, a2


def link_doses(d_len, lead, i_len, stay, gap, r, g, V, p, tables=None):
    """Inhaled dose (PFU) per link from its geometry and removal rate.

    Block by block into a zeroed output: the direct term only where
    ``d_len > 0`` and the indirect term only where ``i_len > 0``. A link
    without a segment has an exact +0.0 term, so skipping it changes no bit
    of the sum. Integer geometry is converted to float64 exactly. ``r`` is
    one rate per link or a float shared by all; a shared rate gives the
    same bits as that rate repeated. A float rate on signed integer
    geometry is evaluated from ``FactorTables``: those given as ``tables``,
    built for the same r, g, V and p, or new ones that end with the call.
    """
    geometry = (d_len, lead, i_len, stay, gap)
    if (tables is None and isinstance(r, float)
            and all(x.dtype.kind == "i" for x in geometry)):
        tables = FactorTables(r, g, V, p)
    n = d_len.shape[0]
    out = np.zeros(n)
    for a in range(0, n, _BLOCK):
        b = a + _BLOCK
        block = [x[a:b] for x in geometry]
        if tables is None or not tables.doses(out[a:b], *block):
            _class_doses(out[a:b], *block, _rates(r, slice(a, b)), g, V, p)
    return out


class FactorTables:
    """The dose factors at one float rate, by whole-minute length.

    Entry n of each table is the factor for a length of n minutes, computed
    from w = r * n by ``_class_doses``' own operations, so a lookup has the
    bits of the per-link value. Tables grow, to a power of two from
    ``_TABLE_MIN``, as longer links come, and never past ``_TABLE_MAX``
    entries.
    """

    def __init__(self, r, g, V, p):
        self._args = r, g, V, p
        self._size = 0

    def _fit(self, size):
        r, g, V, p = self._args
        n = np.arange(size, dtype=np.float64)
        w = r * n
        self.phi = _phi(w)
        self.psi = _psi(w, self.phi)
        self.scaled = (g * p) / (r * V) * n
        self.lead = -np.expm1(-(r * n))
        self.stay = (g * p) / (r * V) * r * n
        self.stay *= self.phi
        self.decay = np.exp(-r * n)
        # with every entry finite and none negative, a term of length 0 is
        # an exact +0.0, so a whole block may be evaluated: it adds no bit
        self._dense = all(np.isfinite(t).all() and not np.signbit(t).any() for t in (
            self.phi, self.psi, self.scaled, self.lead, self.stay, self.decay))
        self._size = size

    def _rows(self, length):
        # the block's links with a term of this length: all of them when
        # most have it and the tables allow, else their positions
        has = length > 0
        count = np.count_nonzero(has)
        if count > has.size // 2 and self._dense:
            return slice(None)
        return np.flatnonzero(has) if count else None

    def doses(self, out, d_len, lead, i_len, stay, gap):
        """Add one block's doses into its zeroed ``out``, as ``_class_doses``
        does; False, with ``out`` untouched, when a length is out of range."""
        # viewed unsigned, a negative length reads as one past the range
        longest = max(int(x.view(f"u{x.itemsize}").max())
                      for x in (d_len, lead, i_len, stay, gap))
        if longest >= _TABLE_MAX:
            return False
        if longest >= self._size:
            self._fit(max(1 << longest.bit_length(), _TABLE_MIN))
        k = self._rows(d_len)
        if k is not None:
            length = d_len[k]
            term = self.psi[length]
            term += np.multiply(self.phi[length], self.lead[lead[k]])
            out[k] = self.scaled[length] * term
        k = self._rows(i_len)
        if k is not None:
            length = i_len[k]
            dose = self.stay[stay[k]]
            dose *= self.decay[gap[k]]
            dose *= length
            dose *= self.phi[length]
            out[k] += dose
        return True


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

