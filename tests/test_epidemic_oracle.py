"""Differential oracle for the lockstep simulator.

The reference below is the per-run simulator: one run at a time, one day at
a time, every day gathering over all of that day's links, with all three
random substreams derived eagerly. The lockstep path must give an equal
counts array for any network, seed count, tau mode, run count and worker
count, and `step_day` must match the reference step.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spdt.epidemic as epi
from spdt.epidemic import (
    INFECTED,
    RECOVERED,
    SUSCEPTIBLE,
    PopulationState,
    SimulationConfig,
    run_simulation,
    seeded_state,
    step_day,
)
from spdt.exposure import (
    DEFAULT_GENERATION_RATE,
    DEFAULT_PROXIMITY_VOLUME,
    DEFAULT_PULMONARY_RATE,
)
from spdt.network import BuilderConfig, DynamicContactNetwork, extract_spdt_links
from spdt.synth import SynthConfig, desk_profile, generate_trace
from spdt.trace import ParsedTrace, segment_all


# ---------------------------------------------------------------------------
# reference: the per-run simulator


def _eager_streams(rng_seed, run, day):
    def gen(stream):
        return np.random.default_rng(
            np.random.SeedSequence((rng_seed, run, stream, day)))

    return (gen(epi._STREAM_TAU), gen(epi._STREAM_REMOVAL),
            gen(epi._STREAM_INFECTION))


def _reference_step(net, state, day, cfg, tau_rng, removal_rng, infection_rng):
    status, day_infected, tau = state.status, state.day_infected, state.tau
    infected = status == INFECTED
    due = infected & (day - day_infected >= tau)
    n_recovered = int(np.count_nonzero(due))
    if n_recovered:
        status[due] = RECOVERED

    n_new = 0
    if day < net.horizon:
        sl = net.day_slice(day)
        host, nbr = net.host[sl], net.nbr[sl]
        t_s, t_l = net.t_s[sl].astype(np.float64), net.t_l[sl].astype(np.float64)
        t_s_n = net.t_s_n[sl].astype(np.float64)
        t_l_n = net.t_l_n[sl].astype(np.float64)
        if host.size:
            transmitting = (status == INFECTED) & (day_infected <= day)
            sel = transmitting[host] & (status[nbr] == SUSCEPTIBLE)
            idx = np.flatnonzero(sel)
            if idx.size:
                b = epi._sample_removal_times(cfg.r_t, cfg.b_range, removal_rng,
                                              idx.size)
                doses = epi.batch_link_exposure(
                    t_s[idx], t_l[idx], t_s_n[idx], t_l_n[idx],
                    1.0 / b, DEFAULT_GENERATION_RATE, DEFAULT_PROXIMITY_VOLUME,
                    DEFAULT_PULMONARY_RATE)
                totals = np.bincount(nbr[idx], weights=doses,
                                     minlength=status.shape[0])
                exposed = np.flatnonzero(totals > 0.0)
                if exposed.size:
                    p_inf = -np.expm1(-cfg.sigma * totals[exposed])
                    u = infection_rng.random(exposed.size)
                    newly = exposed[u < p_inf]
                    if newly.size:
                        status[newly] = INFECTED
                        day_infected[newly] = day + 1
                        tau[newly] = epi._draw_tau(tau_rng, newly.size, cfg)
                        n_new = int(newly.size)

    prevalence = int(np.count_nonzero(status == INFECTED))
    return n_new, n_recovered, prevalence


def _reference_run(net, cfg, run):
    state = seeded_state(net.n_users, cfg, run)
    return [_reference_step(net, state, day, cfg,
                            *_eager_streams(cfg.rng_seed, run, day))
            for day in range(cfg.horizon_days)]


def _reference_simulation(net, cfg):
    return np.array([_reference_run(net, cfg, run) for run in range(cfg.runs)],
                    dtype=np.int64)


# ---------------------------------------------------------------------------
# inputs


@st.composite
def networks(draw):
    """Small random networks: repeated (host, nbr) pairs, hosts without links
    on some days, empty days, and an id order that differs from numeric."""
    n_users = draw(st.integers(2, 9))
    horizon = draw(st.integers(1, 5))
    users = [f"u{10 - i}" if i % 2 else f"u{i}" for i in range(n_users)]
    empty_days = draw(st.sets(st.integers(0, horizon - 1), max_size=horizon))
    rows = draw(st.lists(
        st.tuples(st.integers(0, horizon - 1), st.integers(0, n_users - 1),
                  st.integers(1, n_users - 1), st.integers(0, 300),
                  st.integers(0, 400), st.integers(-60, 500),
                  st.integers(1, 400)),
        max_size=40))
    cols = [[] for _ in range(7)]
    for day, host, shift, start, stay, nbr_start, nbr_stay in rows:
        if day in empty_days:
            continue
        t_s = day * 1440 + start
        t_s_n = max(t_s + nbr_start, day * 1440)
        t_l_n = max(t_s_n + nbr_stay, t_s + 1)
        for col, value in zip(cols, (day, host, (host + shift) % n_users, t_s,
                                     t_s + stay, t_s_n, t_l_n)):
            col.append(value)
    arrays = [np.array(col, dtype=np.int64) for col in cols]
    if not arrays[0].size:
        return DynamicContactNetwork(users[:0], horizon,
                                     *(np.empty(0, np.int64) for _ in range(7)))
    return DynamicContactNetwork._from_arrays(users, horizon, *arrays)


def configs(n_users, horizon):
    return st.builds(
        SimulationConfig,
        seeds=st.sampled_from(sorted({0, min(1, n_users), n_users})),
        horizon_days=st.integers(1, horizon + 2),
        r_t=st.sampled_from([7.5, 35.0, 300.0]),
        sigma=st.sampled_from([0.33, 5.0, 50.0]),
        tau_range=st.sampled_from([(1, 1), (1, 3), (3, 5)]),
        tau_mode=st.sampled_from(["uniform", "mean3"]),
        rng_seed=st.integers(0, 2**32),
        runs=st.integers(1, 7),
    )


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the block budget so that a few runs fill a block."""
    def set_block_runs(runs_per_block, net):
        busiest = int(net.day_link_counts().max(initial=0))
        monkeypatch.setattr(epi, "_BLOCK_PAIRS", runs_per_block * max(busiest, 1))
        assert epi._block_runs(net) == runs_per_block
    return set_block_runs


_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# the oracle


@_SETTINGS
@given(data=st.data())
def test_lockstep_matches_reference_on_random_networks(data):
    net = data.draw(networks())
    cfg = data.draw(configs(net.n_users, net.horizon))
    assert np.array_equal(run_simulation(net, cfg), _reference_simulation(net, cfg))


@_SETTINGS
@given(data=st.data(), runs_per_block=st.integers(1, 4))
def test_block_boundaries_match_reference(small_blocks, data, runs_per_block):
    net = data.draw(networks())
    cfg = data.draw(configs(net.n_users, net.horizon))
    small_blocks(runs_per_block, net)
    assert np.array_equal(run_simulation(net, cfg), _reference_simulation(net, cfg))


@_SETTINGS
@given(data=st.data())
def test_step_day_matches_reference_step(data):
    net = data.draw(networks())
    cfg = data.draw(configs(net.n_users, net.horizon))
    run = data.draw(st.integers(0, 3))
    state = seeded_state(net.n_users, cfg, run)
    ref = PopulationState(state.status.copy(), state.day_infected.copy(),
                          state.tau.copy())
    for day in range(cfg.horizon_days):
        state, row = step_day(net, state, day, cfg, run)
        assert row.tolist() == list(_reference_step(
            net, ref, day, cfg, *_eager_streams(cfg.rng_seed, run, day)))
        for field in ("status", "day_infected", "tau"):
            assert getattr(state, field).shape == (net.n_users,)
            assert np.array_equal(getattr(state, field), getattr(ref, field))


def _synth_net(users=150, days=5, seed=4):
    cfg = SynthConfig(n_users=users, days=days, rng_seed=seed, n_locations=6,
                      area_m=(500.0, 500.0), active_day_probability=0.6)
    parsed = ParsedTrace(updates=generate_trace(cfg))
    return extract_spdt_links(segment_all(parsed), parsed,
                              BuilderConfig(horizon_days=days))


@pytest.fixture(scope="module")
def synth_net():
    return _synth_net()


@pytest.mark.parametrize("tau_mode", ["uniform", "mean3"])
@pytest.mark.parametrize("runs_per_block, runs", [
    (4, 1), (4, 3), (4, 4), (4, 5), (4, 13), (1, 3)])
@pytest.mark.parametrize("workers", [1, 2])
def test_synthetic_network_blocks_and_workers(synth_net, small_blocks, tau_mode,
                                              runs_per_block, runs, workers):
    small_blocks(runs_per_block, synth_net)
    cfg = SimulationConfig(seeds=6, horizon_days=7, r_t=60.0, sigma=0.5,
                           tau_mode=tau_mode, rng_seed=11, runs=runs)
    got = run_simulation(synth_net, cfg, workers=workers)
    assert np.array_equal(got, _reference_simulation(synth_net, cfg))
    assert got[:, :, epi.NEW_INFECTIONS].any()


def test_every_user_seeded(synth_net):
    cfg = SimulationConfig(seeds=synth_net.n_users, horizon_days=6, r_t=35.0,
                           rng_seed=2, runs=3)
    assert np.array_equal(run_simulation(synth_net, cfg),
                          _reference_simulation(synth_net, cfg))


def test_default_block_holds_several_runs(synth_net):
    # the whole point of lockstep: small networks step many runs together
    assert epi._block_runs(synth_net) > 1
    cfg = SimulationConfig(seeds=5, horizon_days=5, r_t=60.0, rng_seed=9, runs=9)
    assert np.array_equal(run_simulation(synth_net, cfg),
                          _reference_simulation(synth_net, cfg))


def test_runs_without_draws_derive_no_streams(synth_net, monkeypatch):
    derived = []
    real = epi._generator
    monkeypatch.setattr(epi, "_generator",
                        lambda key: derived.append(key) or real(key))
    cfg = SimulationConfig(seeds=0, horizon_days=5, r_t=60.0, rng_seed=1, runs=4)
    run_simulation(synth_net, cfg)
    assert derived == []  # no infectious host, nothing drawn

    cfg = replace(cfg, seeds=3, tau_mode="mean3")
    assert np.array_equal(run_simulation(synth_net, cfg),
                          _reference_simulation(synth_net, cfg))
    assert derived and all(key[2] != epi._STREAM_TAU for key in derived)


def test_no_stream_derived_twice(synth_net, small_blocks, monkeypatch):
    # a repeated (seed, run, stream, day) key would replay the same numbers
    small_blocks(2, synth_net)
    derived = []
    real = epi._generator
    monkeypatch.setattr(epi, "_generator",
                        lambda key: derived.append(key) or real(key))
    cfg = SimulationConfig(seeds=6, horizon_days=7, r_t=60.0, sigma=0.5,
                           rng_seed=11, runs=7)
    assert np.array_equal(run_simulation(synth_net, cfg),
                          _reference_simulation(synth_net, cfg))
    assert {key[2] for key in derived} == {
        epi._STREAM_TAU, epi._STREAM_REMOVAL, epi._STREAM_INFECTION}
    assert len(set(derived)) == len(derived)


def test_simulate_keeps_no_copy_of_the_columns():
    # the network's seven int64 columns take 56 B per link; the stepper may
    # add offsets and per-block-day gathers, but no per-link copy
    parsed = ParsedTrace(updates=generate_trace(replace(desk_profile(0),
                                                        n_users=300)))
    net = extract_spdt_links(segment_all(parsed), parsed,
                             BuilderConfig(horizon_days=14))
    cfg = SimulationConfig(seeds=30, horizon_days=14, rng_seed=3, runs=1)
    tracemalloc.start()
    try:
        counts = run_simulation(net, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[:, :, epi.NEW_INFECTIONS].any()
    assert peak < 32 * net.n_links
