"""Reference dose of a block of links, from its four times.

This is the kernel's earlier single-pass form: both terms on every link,
each evaluated from the times with no split into geometry. The class
kernel must equal it bit for bit.
"""

import numpy as np

from spdt._kernel._exposure_np import _phi, _psi


def reference_doses(t_s, t_l, t_s_n, t_l_n, r, g, V, p):
    """Dose per link of float64 arrays.

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
