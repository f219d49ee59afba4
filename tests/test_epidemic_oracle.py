"""Differential oracle for the lockstep simulator.

The reference below is the per-run simulator: one run at a time, one day at
a time, every day gathering over all of that day's links, with all three
random substreams derived eagerly. The lockstep path must give an equal
counts array for any network, seed count, infectious-period range, run
count and worker count, and `step_day` must match the reference step.
The reference draws every infectious period, also a pinned one, so it checks
that the simulator's not drawing a pinned period changes no output.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spdt.epidemic as epi
from spdt import _rng
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
    REMOVAL_TIME_RANGE,
)
from spdt.network import (
    BuilderConfig,
    DynamicContactNetwork,
    densify,
    extract_spdt_links,
)
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


def _reference_tau(cfg, rng, n):
    lo, hi = cfg.tau_range
    return rng.integers(lo, hi + 1, size=n, dtype=np.int64)


def _reference_removal_times(cfg, rng, n):
    # a fair coin picks the half-range, then a uniform draw within it
    lo, hi = REMOVAL_TIME_RANGE
    side = rng.random(n) < 0.5
    u = rng.random(n)
    return np.where(side, lo + u * (cfg.r_t - lo), cfg.r_t + u * (hi - cfg.r_t))


def _reference_step(net, state, day, cfg, tau_rng, removal_rng, infection_rng):
    status, day_infected, tau = state.status, state.day_infected, state.tau
    infected = status == INFECTED
    due = infected & (day - day_infected >= tau)
    n_recovered = int(np.count_nonzero(due))
    if n_recovered:
        status[due] = RECOVERED

    n_new = 0
    if day < net.horizon:
        sl = net.day == day
        host, nbr = net.host[sl], net.nbr[sl]
        t_s, t_l = net.t_s[sl].astype(np.float64), net.t_l[sl].astype(np.float64)
        t_s_n = net.t_s_n[sl].astype(np.float64)
        t_l_n = net.t_l_n[sl].astype(np.float64)
        if host.size:
            transmitting = (status == INFECTED) & (day_infected <= day)
            sel = transmitting[host] & (status[nbr] == SUSCEPTIBLE)
            idx = np.flatnonzero(sel)
            if idx.size:
                b = _reference_removal_times(cfg, removal_rng, idx.size)
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
                        tau[newly] = _reference_tau(cfg, tau_rng, newly.size)
                        n_new = int(newly.size)

    prevalence = int(np.count_nonzero(status == INFECTED))
    return n_new, n_recovered, prevalence


def _reference_seeded_state(n_users, cfg, run):
    state = PopulationState.initial(n_users)
    if cfg.seeds:
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.rng_seed, run, epi._STREAM_INIT)))
        chosen = rng.choice(n_users, size=cfg.seeds, replace=False)
        state.status[chosen] = INFECTED
        state.day_infected[chosen] = 0
        state.tau[chosen] = _reference_tau(cfg, rng, cfg.seeds)
    return state


def _reference_run(net, cfg, run):
    state = _reference_seeded_state(net.n_users, cfg, run)
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
    return DynamicContactNetwork._from_arrays(
        users, horizon, *(np.array(col, dtype=np.int64) for col in cols))


def configs(n_users, horizon):
    return st.builds(
        SimulationConfig,
        seeds=st.sampled_from(sorted({0, min(1, n_users), n_users})),
        horizon_days=st.integers(1, horizon + 2),
        r_t=st.sampled_from([7.5, 35.0, 300.0]),
        sigma=st.sampled_from([0.33, 5.0, 50.0]),
        tau_range=st.sampled_from([(1, 1), (1, 3), (3, 5)]),
        rng_seed=st.integers(0, 2**64 - 1),
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
    ref = _reference_seeded_state(net.n_users, cfg, run)
    for field in ("status", "day_infected", "tau"):
        assert np.array_equal(getattr(state, field), getattr(ref, field))
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


# the ids are the names of the former tau modes: "mean3" pinned the period
# to the range's lower bound, which a one-value range does now
@pytest.mark.parametrize("tau_range", [(3, 5), (3, 3)], ids=["uniform", "mean3"])
@pytest.mark.parametrize("runs_per_block, runs", [
    (4, 1), (4, 3), (4, 4), (4, 5), (4, 13), (1, 3)])
@pytest.mark.parametrize("workers", [1, 2])
def test_synthetic_network_blocks_and_workers(synth_net, small_blocks, tau_range,
                                              runs_per_block, runs, workers):
    small_blocks(runs_per_block, synth_net)
    cfg = SimulationConfig(seeds=6, horizon_days=7, r_t=60.0, sigma=0.5,
                           tau_range=tau_range, rng_seed=11, runs=runs)
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


def test_key_budget_caps_block_runs(synth_net, monkeypatch):
    # a block mixes 3 keys per (run, day) ahead; the budget bounds its runs
    cfg = SimulationConfig(seeds=6, horizon_days=7, r_t=60.0, sigma=0.5,
                           rng_seed=11, runs=7)
    assert epi._block_runs(synth_net) >= cfg.runs
    monkeypatch.setattr(epi, "_BLOCK_KEYS", 2 * 3 * cfg.horizon_days)
    blocks = []
    real = epi._simulate_block
    monkeypatch.setattr(epi, "_simulate_block", lambda net, geometry, cfg, block:
                        blocks.append(block) or real(net, geometry, cfg, block))
    assert np.array_equal(run_simulation(synth_net, cfg),
                          _reference_simulation(synth_net, cfg))
    assert blocks == [range(0, 2), range(2, 4), range(4, 6), range(6, 7)]


def _spy_streams(monkeypatch, cfg):
    """Record the key of every generator the simulator builds, found by its
    seed words among all (seed, run, stream, day) and (seed, run, init) keys
    that SeedSequence itself hashes."""
    keys = [(cfg.rng_seed, run, epi._STREAM_INIT) for run in range(cfg.runs)]
    keys += [(cfg.rng_seed, run, stream, day) for run in range(cfg.runs)
             for stream in epi._DAY_STREAMS for day in range(cfg.horizon_days)]
    by_words = {tuple(np.random.SeedSequence(key).generate_state(4, np.uint64)
                      .tolist()): key for key in keys}
    built = []
    real = _rng.generator
    monkeypatch.setattr(_rng, "generator", lambda words: built.append(
        by_words[tuple(words.tolist())]) or real(words))
    return built


def test_runs_without_draws_derive_no_streams(synth_net, monkeypatch):
    cfg = SimulationConfig(seeds=0, horizon_days=5, r_t=60.0, rng_seed=1, runs=4)
    built = _spy_streams(monkeypatch, cfg)
    run_simulation(synth_net, cfg)
    assert built == []  # no infectious host, nothing drawn

    cfg = replace(cfg, seeds=3, tau_range=(3, 3))  # a pinned period
    assert np.array_equal(run_simulation(synth_net, cfg),
                          _reference_simulation(synth_net, cfg))
    day_keys = [key for key in built if len(key) == 4]
    assert day_keys and all(key[2] != epi._STREAM_TAU for key in day_keys)


def test_no_stream_derived_twice(synth_net, small_blocks, monkeypatch):
    # a repeated (seed, run, stream, day) key would replay the same numbers
    small_blocks(2, synth_net)
    cfg = SimulationConfig(seeds=6, horizon_days=7, r_t=60.0, sigma=0.5,
                           rng_seed=11, runs=7)
    built = _spy_streams(monkeypatch, cfg)
    assert np.array_equal(run_simulation(synth_net, cfg),
                          _reference_simulation(synth_net, cfg))
    assert {key[2] for key in built if len(key) == 4} == {
        epi._STREAM_TAU, epi._STREAM_REMOVAL, epi._STREAM_INFECTION}
    assert {key for key in built if len(key) == 3} == {
        (cfg.rng_seed, run, epi._STREAM_INIT) for run in range(cfg.runs)}
    assert len(set(built)) == len(built)


@pytest.fixture(scope="module")
def desk_net_300():
    parsed = ParsedTrace(updates=generate_trace(replace(desk_profile(0),
                                                        n_users=300)))
    return extract_spdt_links(segment_all(parsed), parsed,
                              BuilderConfig(horizon_days=14))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_keeps_no_copy_of_the_columns(desk_net_300):
    # the network's seven int64 columns take 56 B per link; the stepper may
    # add per-block-day gathers, but no per-link copy
    net = desk_net_300
    cfg = SimulationConfig(seeds=30, horizon_days=14, rng_seed=3, runs=1)
    counts, peak = _traced_peak(lambda: run_simulation(net, cfg))
    assert counts[:, :, epi.NEW_INFECTIONS].any()
    assert peak < 32 * net.n_links


def test_densify_keeps_no_copy_of_the_columns(desk_net_300):
    # the densified network shares the base columns and adds (day, host)
    # tables of a few bytes per link at most
    net = desk_net_300
    dense, peak = _traced_peak(lambda: densify(net, rng_seed=0))
    assert dense.n_links > 2 * net.n_links
    assert peak < 8 * net.n_links
