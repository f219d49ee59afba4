"""Stochastic SIR engine: sampler construction, stepping semantics,
conservation invariants and determinism."""

from dataclasses import replace

import numpy as np
import pytest

from linkrows import from_tuples
from spdt import epidemic
from spdt.epidemic import (
    INFECTED,
    NEW_INFECTIONS,
    NEW_RECOVERIES,
    PREVALENCE,
    RECOVERED,
    SUSCEPTIBLE,
    PopulationState,
    SimulationConfig,
    run_simulation,
    sample_removal_rate,
    seeded_state,
    step_day,
    write_daily_csv,
)
from spdt.exposure import infection_probability
from spdt.synth import SynthConfig, generate_trace
from spdt.trace import ParsedTrace, segment_all
from spdt.network import BuilderConfig, extract_spdt_links


def chain_net(horizon=6):
    """a meets b on day 0, b meets c on day 1 (long, strong overlaps)."""
    links = []
    for day, (h, v) in enumerate((("a", "b"), ("b", "c"))):
        t0 = day * 1440
        links.append((h, v, t0, t0 + 400, t0 + 1, t0 + 400, day))
        links.append((v, h, t0, t0 + 400, t0 + 1, t0 + 400, day))
    return from_tuples(links, horizon)


def synth_net(users=250, days=6, seed=2):
    cfg = SynthConfig(n_users=users, days=days, rng_seed=seed, n_locations=15,
                      area_m=(900.0, 900.0), active_day_probability=0.4)
    parsed = ParsedTrace(updates=generate_trace(cfg))
    return extract_spdt_links(segment_all(parsed), parsed,
                              BuilderConfig(horizon_days=days))


class TestRemovalSampler:
    def test_rate_is_reciprocal_time(self):
        # a pinned range leaves one removal time, whose rate is its reciprocal
        rng = np.random.default_rng(0)
        assert sample_removal_rate(60.0, (60.0, 60.0), rng) == 1.0 / 60.0

    def test_rejects_median_outside_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_removal_rate(5.0, (7.5, 300.0), rng)

    def test_degenerate_lower_bound(self):
        rng = np.random.default_rng(0)
        times = np.array([1.0 / sample_removal_rate(7.5, (7.5, 300.0), rng)
                          for _ in range(2000)])
        assert np.all(times >= 7.5 - 1e-12)
        assert np.median(times) == pytest.approx(7.5, abs=1.0)

    def test_median_matches_target(self):
        rng = np.random.default_rng(1)
        times = np.array([1.0 / sample_removal_rate(60.0, (7.5, 300.0), rng)
                          for _ in range(20000)])
        assert np.median(times) == pytest.approx(60.0, abs=2.0)
        assert times.min() >= 7.5 and times.max() <= 300.0


class TestConfigValidation:
    def test_disease_defaults(self):
        cfg = SimulationConfig()
        assert cfg.sigma == 0.33
        assert cfg.tau_range == (3, 5)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(r_t=500.0)
        with pytest.raises(ValueError):
            SimulationConfig(b_range=(0.0, 10.0), r_t=5.0)
        with pytest.raises(ValueError):
            SimulationConfig(tau_range=(0, 3))
        with pytest.raises(ValueError):
            SimulationConfig(runs=0)
        with pytest.raises(ValueError):
            SimulationConfig(sigma=-1.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("sigma", {"sigma": float("inf")}),
        ("sigma", {"sigma": float("nan")}),
        ("b_range", {"b_range": (7.5, float("inf"))}),
        ("r_t", {"r_t": float("inf")}),
    ])
    def test_rejects_non_finite(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**kwargs)

    def test_bad_worker_variable_named(self, monkeypatch):
        monkeypatch.setenv("SPDT_WORKERS", "two")
        with pytest.raises(ValueError, match="SPDT_WORKERS.*'two'"):
            run_simulation(chain_net(), SimulationConfig(seeds=1, horizon_days=2))


class TestStepDay:
    def test_no_infectious_no_infections(self):
        net = chain_net()
        cfg = SimulationConfig(seeds=0, horizon_days=6, r_t=60.0, runs=1)
        state = seeded_state(net.n_users, cfg, run=0)
        new_state, row = step_day(net, state, 0, cfg, 0)
        assert row[NEW_INFECTIONS] == 0 and row[PREVALENCE] == 0
        assert np.bincount(new_state.status, minlength=3).tolist() == [3, 0, 0]

    def test_input_state_not_mutated(self):
        net = chain_net()
        cfg = SimulationConfig(seeds=3, horizon_days=6, r_t=60.0, runs=1)
        state = seeded_state(net.n_users, cfg, run=0)
        before = state.status.copy()
        step_day(net, state, 0, cfg, 0)
        assert np.array_equal(state.status, before)

    def test_enormous_exposure_infects_almost_always(self):
        # one infectious host, one susceptible, one whole-day overlap link:
        # the dose drives the infection probability above 0.999
        net = from_tuples([("h", "v", 0, 1400, 1, 1400, 0)], 1)
        cfg = SimulationConfig(seeds=0, horizon_days=1, r_t=300.0, sigma=5.0,
                               runs=1)
        h = net.users.index("h")
        hits = 0
        for trial in range(1000):
            state = PopulationState.initial(2)
            state.status[h] = INFECTED
            state.day_infected[h] = 0
            state.tau[h] = 3
            _, row = step_day(net, state, 0, replace(cfg, rng_seed=trial), 0)
            hits += row[NEW_INFECTIONS]
        assert hits >= 990

    def test_latent_day_then_transmission(self):
        # seed a; b infected via day-0 exposure transmits to c on day 1 only
        net = chain_net()
        cfg = SimulationConfig(seeds=0, horizon_days=6, r_t=300.0, sigma=50.0,
                               runs=1, tau_range=(3, 3), rng_seed=1)
        a, b, c = (net.users.index(u) for u in "abc")
        state = PopulationState.initial(3)
        state.status[a] = INFECTED
        state.day_infected[a] = 0
        state.tau[a] = 3

        state, s0 = step_day(net, state, 0, cfg, 0)
        assert s0[NEW_INFECTIONS] == 1  # b caught it
        assert state.status[b] == INFECTED and state.day_infected[b] == 1
        assert s0[PREVALENCE] == 2

        state, s1 = step_day(net, state, 1, cfg, 0)
        assert s1[NEW_INFECTIONS] == 1  # b, now infectious, reached c
        assert state.status[c] == INFECTED and state.day_infected[c] == 2

    def test_recovery_after_period(self):
        net = chain_net()
        cfg = SimulationConfig(seeds=0, horizon_days=6, r_t=60.0, sigma=1e-9,
                               runs=1, tau_range=(3, 3), rng_seed=2)
        a = net.users.index("a")
        state = PopulationState.initial(3)
        state.status[a] = INFECTED
        state.day_infected[a] = 0
        state.tau[a] = 3
        recoveries = []
        for day in range(5):
            state, row = step_day(net, state, day, cfg, 0)
            recoveries.append(row[NEW_RECOVERIES])
        assert recoveries == [0, 0, 0, 1, 0]
        assert state.status[a] == RECOVERED


class TestRunSimulation:
    @pytest.mark.parametrize("bad", [
        # a host stay of 2**31 minutes
        ("c", "d", 0, 2**31, 5, 10, 0),
        # a span past int64: every int64 length wraps to a small value, so
        # only the span shows it
        ("c", "d", -2**63, -2**63, 2**63 - 5, 2**63 - 2, 0),
    ])
    def test_geometry_past_int32_names_its_base_link(self, bad):
        net = from_tuples([("a", "b", 0, 30, 10, 100, 0), bad,
                           ("e", "f", 0, 2**31 - 1, 2**31 - 1, 2**31, 0)], horizon=1)
        cfg = SimulationConfig(seeds=1, horizon_days=1, runs=1)
        with pytest.raises(ValueError, match=r"^base link 1: link geometry exceeds "
                                             r"2147483647 minutes"):
            run_simulation(net, cfg)
        with pytest.raises(ValueError, match=r"^base link 1: "):
            step_day(net, seeded_state(net.n_users, cfg, 0), 0, cfg, 0)
        # the largest lengths that fit are simulated
        top = 2**31 - 1
        fits = from_tuples([(h, v, 0, top, top, 2 * top, 0) for h, v in ("ef", "fe")],
                           horizon=1)
        assert run_simulation(fits, cfg)[0, 0, PREVALENCE] >= 1

    def test_zero_seeds_all_zero(self):
        net = synth_net()
        cfg = SimulationConfig(seeds=0, horizon_days=4, r_t=60.0, runs=3)
        counts = run_simulation(net, cfg)
        assert counts.shape == (3, 4, 3)
        assert not counts[:, :, NEW_INFECTIONS].any()
        assert not counts[:, :, PREVALENCE].any()

    def test_full_seeding_no_susceptibles(self):
        net = synth_net()
        cfg = SimulationConfig(seeds=net.n_users, horizon_days=1, r_t=60.0, runs=2)
        for stats in run_simulation(net, cfg):
            assert stats[0, PREVALENCE] == net.n_users
            assert stats[0, NEW_INFECTIONS] == 0

    def test_infections_drawn_with_the_dose_response(self, monkeypatch):
        # the stepper compares its draws with infection_probability of the
        # summed doses, so the dose-response tests (acceptance criterion 2)
        # test the simulator's own formula
        seen = []

        def spy(dose, sigma):
            probs = infection_probability(dose, sigma)
            seen.append((dose, sigma, probs))
            return probs

        monkeypatch.setattr(epidemic, "infection_probability", spy)
        cfg = SimulationConfig(seeds=20, horizon_days=6, r_t=35.0, runs=4, rng_seed=3)
        run_simulation(synth_net(), cfg)
        assert seen and all(sigma == cfg.sigma for _, sigma, _ in seen)
        dose = np.concatenate([d for d, _, _ in seen])
        probs = np.concatenate([p for _, _, p in seen])
        assert np.all(dose > 0.0)
        np.testing.assert_allclose(probs, 1.0 - np.exp(-cfg.sigma * dose),
                                   rtol=1e-9, atol=1e-15)

    def test_seeds_beyond_population_rejected(self):
        net = synth_net()
        cfg = SimulationConfig(seeds=net.n_users + 1, horizon_days=2, runs=1)
        with pytest.raises(ValueError):
            run_simulation(net, cfg)

    def test_deterministic_under_seed(self):
        net = synth_net()
        cfg = SimulationConfig(seeds=20, horizon_days=6, r_t=35.0, rng_seed=5,
                               runs=4)
        assert np.array_equal(run_simulation(net, cfg), run_simulation(net, cfg))

    def test_worker_count_does_not_change_results(self):
        net = synth_net()
        cfg = SimulationConfig(seeds=20, horizon_days=6, r_t=35.0, rng_seed=5,
                               runs=6)
        assert np.array_equal(run_simulation(net, cfg, workers=1),
                              run_simulation(net, cfg, workers=4))

    def test_conservation_and_monotone_recovery(self):
        net = synth_net()
        cfg = SimulationConfig(seeds=25, horizon_days=6, r_t=60.0, rng_seed=7,
                               runs=5)
        for stats in run_simulation(net, cfg):
            total_recovered = 0
            prev_prevalence = None
            for new, recovered, prevalence in stats.tolist():
                total_recovered += recovered
                assert new >= 0 and recovered >= 0
                if prev_prevalence is not None:
                    # prevalence ledger balances day over day
                    assert prevalence == prev_prevalence + new - recovered
                prev_prevalence = prevalence
            # day 0 ledger starts from the seeds
            assert stats[0, PREVALENCE] == (cfg.seeds + stats[0, NEW_INFECTIONS]
                                            - stats[0, NEW_RECOVERIES])

    def test_status_transitions_only_forward(self):
        net = chain_net()
        cfg = SimulationConfig(seeds=1, horizon_days=6, r_t=60.0, sigma=5.0,
                               rng_seed=3, runs=1, tau_range=(3, 3))
        state = seeded_state(net.n_users, cfg, run=0)
        seen = [state.status.copy()]
        for day in range(cfg.horizon_days):
            state, _ = step_day(net, state, day, cfg, 0)
            seen.append(state.status.copy())
        order = {SUSCEPTIBLE: 0, INFECTED: 1, RECOVERED: 2}
        for before, after in zip(seen, seen[1:]):
            assert all(order[int(b)] <= order[int(a)]
                       for b, a in zip(before, after))

    def test_tau_modes(self):
        net = synth_net()
        base = dict(seeds=40, horizon_days=2, r_t=60.0, rng_seed=1, runs=1)
        uniform_cfg = SimulationConfig(tau_range=(3, 5), **base)
        pinned_cfg = SimulationConfig(tau_range=(3, 3), **base)
        state_u = seeded_state(net.n_users, uniform_cfg, run=0)
        state_p = seeded_state(net.n_users, pinned_cfg, run=0)
        taus_u = state_u.tau[state_u.status == INFECTED]
        taus_p = state_p.tau[state_p.status == INFECTED]
        assert set(taus_u.tolist()) <= {3, 4, 5} and len(set(taus_u.tolist())) > 1
        assert set(taus_p.tolist()) == {3}


def test_spdt_outbreaks_exceed_spst_on_same_trace():
    from spdt.network import project_spst
    from spdt.metrics import outbreak_size
    from spdt.sweep import one_sided_p_mean_greater

    sdt = synth_net(users=300, days=6, seed=21)
    sst = project_spst(sdt)
    cfg = SimulationConfig(seeds=15, horizon_days=6, r_t=60.0, rng_seed=2,
                           runs=200)
    out_sdt = outbreak_size(run_simulation(sdt, cfg))
    out_sst = outbreak_size(run_simulation(sst, cfg))
    assert one_sided_p_mean_greater(out_sdt, out_sst) < 0.01


def test_direct_only_network_is_its_own_projection():
    # when no link has an indirect part, the projection is the identity and
    # the simulation outcomes coincide exactly
    from spdt.network import project_spst

    net = from_tuples([("a", "b", 0, 200, 10, 150, 0),
                       ("b", "c", 1440, 1500, 1450, 1490, 1)], 3)
    proj = project_spst(net)
    assert proj == net
    cfg = SimulationConfig(seeds=2, horizon_days=3, r_t=35.0, rng_seed=4,
                           runs=10)
    assert np.array_equal(run_simulation(net, cfg), run_simulation(proj, cfg))


def test_daily_csv_format(tmp_path):
    net = chain_net()
    cfg = SimulationConfig(seeds=1, horizon_days=3, r_t=60.0, rng_seed=0, runs=2)
    stats = run_simulation(net, cfg)
    path = tmp_path / "daily.csv"
    write_daily_csv(stats, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "run,day,I_n,I_r,I_p"
    assert len(lines) == 1 + 2 * 3
    run, day, i_n, i_r, i_p = lines[1].split(",")
    assert (run, day) == ("0", "0")
