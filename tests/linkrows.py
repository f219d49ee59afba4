"""Networks from plain link tuples and back, and a graph's edge set.

A link is the 7-tuple ``(host, nbr, t_s, t_l, t_s_n, t_l_n, day)``: string
user ids, then integer minutes and the day of the host visit.
"""

import numpy as np

from spdt.network import DynamicContactNetwork


def from_tuples(links, horizon):
    """The network of the link tuples, through the package's array constructor."""
    links = list(links)
    users = sorted({user for link in links for user in link[:2]})
    code = {user: i for i, user in enumerate(users)}
    columns = np.array([(day, code[host], code[nbr], *times)
                        for host, nbr, *times, day in links],
                       dtype=np.int64).reshape(-1, 7).T.copy()
    return DynamicContactNetwork._from_arrays(users, horizon, *columns)


def to_tuples(net):
    """The network's links as tuples, in its canonical order."""
    users = net.users
    return [(users[host], users[nbr], t_s, t_l, t_s_n, t_l_n, day)
            for day, host, nbr, t_s, t_l, t_s_n, t_l_n in zip(*(
                getattr(net, f).tolist() for f in
                ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n")))]


def edge_set(graph):
    """A graph's edges as node-id pairs ``(u, v)`` with ``u < v``."""
    lo, hi = np.divmod(graph._codes, graph.n_nodes)
    return {(graph.nodes[a], graph.nodes[b]) for a, b in zip(lo.tolist(), hi.tolist())}
