"""The dose kernel: backend report, block evaluation, scalar agreement."""

import numpy as np
import pytest

from spdt._kernel import (
    KERNEL_BACKEND,
    _exposure_np,
    available_backends,
    batch_link_exposure,
)
from spdt.exposure import LinkInterval, default_env, link_exposure


def random_links(n, seed=0):
    rng = np.random.default_rng(seed)
    t_s = rng.uniform(0, 5000, n)
    t_l = t_s + rng.uniform(0, 600, n)
    t_s_n = t_s + rng.uniform(-100, 500, n)
    t_l_n = t_s_n + rng.uniform(0, 400, n)
    ok = t_l_n > t_s
    r = rng.uniform(1 / 300, 1 / 7.5, n)
    return t_s[ok], t_l[ok], t_s_n[ok], t_l_n[ok], r[ok]


def test_backend_reported():
    assert KERNEL_BACKEND == "numpy"
    assert list(available_backends()) == ["numpy"]


def _masked_phi(w):
    out = np.ones_like(w)
    nz = w > 0.0
    out[nz] = -np.expm1(-w[nz]) / w[nz]
    return out


def _masked_psi(w):
    out = np.empty_like(w)
    small = w < _exposure_np._PSI_SERIES_CUTOFF
    ws = w[small]
    out[small] = ws * (0.5 - ws * (1.0 / 6.0 - ws * (1.0 / 24.0 - ws / 120.0)))
    wb = w[~small]
    out[~small] = 1.0 + np.expm1(-wb) / wb
    return out


def test_branch_free_helpers_match_masked_reference():
    # phi and psi evaluate both branches with `where=` instead of gathering
    # and scattering each branch; every element must come out bit for bit
    w = np.concatenate([[0.0, 1e-300, 1e-12, 0.00999, 0.01, 0.01000001, 1.0,
                         50.0, 700.0, 1e4],
                        np.random.default_rng(5).exponential(0.05, 5000)])
    assert np.array_equal(_exposure_np._phi(w).view(np.int64),
                          _masked_phi(w).view(np.int64))
    assert np.array_equal(_exposure_np._psi(w).view(np.int64),
                          _masked_psi(w).view(np.int64))


def test_blocks_do_not_change_doses(monkeypatch):
    t_s, t_l, t_s_n, t_l_n, r = random_links(3000, seed=4)
    t_l[:50] = t_s[:50]  # zero stay: the indirect segment's phi(0) branch
    args = (t_s, t_l, t_s_n, t_l_n, r, 18.24, 2512.0, 0.0075)
    whole = batch_link_exposure(*args)
    monkeypatch.setattr(_exposure_np, "_BLOCK", 7)
    blocked = batch_link_exposure(*args)
    assert np.array_equal(whole.view(np.int64), blocked.view(np.int64))
    assert np.array_equal(
        whole[1000:1007].view(np.int64),
        batch_link_exposure(*(a[1000:1007] for a in args[:5]),
                            *args[5:]).view(np.int64))


def test_batch_matches_scalar_link_exposure():
    t_s, t_l, t_s_n, t_l_n, r = random_links(500, seed=2)
    batch = batch_link_exposure(t_s, t_l, t_s_n, t_l_n, r, 18.24, 2512.0, 0.0075)
    for i in range(0, t_s.size, 37):
        env = default_env(r=r[i])
        link = LinkInterval(t_s[i], t_l[i], t_s_n[i], t_l_n[i])
        assert batch[i] == pytest.approx(link_exposure(env, link), rel=1e-12)


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        batch_link_exposure(np.zeros(3), np.ones(3), np.zeros(3), np.ones(2),
                            np.full(3, 0.1), 1.0, 1.0, 1.0)
