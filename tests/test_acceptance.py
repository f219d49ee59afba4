"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The trend criteria run the desk-scale profile (2,000 users, 14 days,
200 runs per cell) and stay within the stated runtime budget.
"""

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad

from linkrows import edge_set, to_tuples
from spdt import epidemic
from spdt._kernel import batch_link_exposure
from spdt.epidemic import (
    INFECTED,
    NEW_INFECTIONS,
    NEW_RECOVERIES,
    PREVALENCE,
    RECOVERED,
    SUSCEPTIBLE,
    SimulationConfig,
    run_simulation,
    sample_removal_rate,
    seeded_state,
    step_day,
    write_daily_csv,
)
from spdt.exposure import infection_probability
from spdt.metrics import (
    StaticGraph,
    clustering_distribution,
    daily_network_metrics,
    outbreak_size,
    static_graph,
)
from spdt.network import (
    BuilderConfig,
    densify,
    extract_spdt_links,
    make_ldt_lst,
    project_spst,
)
from spdt.sweep import (
    ExperimentPlan,
    amplification_gap_p,
    cell_config,
    match_sigma,
    one_sided_p_mean_greater,
    simulate_cell,
)
from spdt.synth import SynthConfig, desk_profile, generate_trace
from spdt.trace import ParsedTrace, segment_all
from tracerows import LocationUpdate, Visit, columns


def _report(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} PASS: {label}{suffix}", flush=True)


# ---------------------------------------------------------------------------
# desk-scale fixture shared by the trend criteria


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    t0 = time.monotonic()
    parsed = ParsedTrace(updates=generate_trace(desk_profile(rng_seed=0)))
    visits = segment_all(parsed)
    sdt = extract_spdt_links(visits, parsed, BuilderConfig(horizon_days=14))
    sst = project_spst(sdt)
    plan = ExperimentPlan.desk()
    outbreaks: dict[tuple[str, float], np.ndarray] = {}
    for variant, net in (("SDT", sdt), ("SST", sst)):
        for r_t in plan.r_t_values:
            counts = simulate_cell(net, plan, variant, r_t, 0.33, "3-5")
            outbreaks[(variant, r_t)] = outbreak_size(counts).astype(np.float64)
    elapsed = time.monotonic() - t0
    return {"sdt": sdt, "sst": sst, "plan": plan, "outbreaks": outbreaks,
            "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criterion 1: exposure closed forms vs adaptive quadrature


def test_criterion_1_exposure_oracle_suite():
    rng = np.random.default_rng(2024)
    m = 10_000
    t_s = rng.uniform(0.0, 5000.0, 2 * m)
    t_l = t_s + rng.uniform(0.5, 600.0, 2 * m)
    t_s_n = t_s + rng.uniform(-100.0, 500.0, 2 * m)
    t_l_n = t_s_n + rng.uniform(0.5, 400.0, 2 * m)
    keep = np.flatnonzero(t_l_n > t_s + 1e-6)[:m]
    assert keep.size == m
    t_s, t_l, t_s_n, t_l_n = t_s[keep], t_l[keep], t_s_n[keep], t_l_n[keep]
    r = rng.uniform(1.0 / 300.0, 1.0 / 7.5, m)
    g = rng.uniform(5.0, 40.0, m)
    V = rng.uniform(500.0, 4000.0, m)
    p = rng.uniform(0.003, 0.012, m)

    t0 = time.monotonic()
    worst = 0.0
    for i in range(m):
        one = slice(i, i + 1)
        closed = float(batch_link_exposure(t_s[one], t_l[one], t_s_n[one],
                                           t_l_n[one], r[one], g[i], V[i], p[i])[0])

        def conc(t, i=i):
            if t <= t_l[i]:
                return (g[i] / (r[i] * V[i])) * (1.0 - math.exp(-r[i] * (t - t_s[i])))
            return ((g[i] / (r[i] * V[i]))
                    * (1.0 - math.exp(-r[i] * (t_l[i] - t_s[i])))
                    * math.exp(-r[i] * (t - t_l[i])))

        a, b = max(t_s[i], t_s_n[i]), t_l_n[i]
        expected = 0.0
        if a < min(b, t_l[i]):
            expected += quad(conc, a, min(b, t_l[i]),
                             epsabs=1e-13, epsrel=1e-11)[0]
        if max(a, t_l[i]) < b:
            expected += quad(conc, max(a, t_l[i]), b,
                             epsabs=1e-13, epsrel=1e-11)[0]
        expected *= p[i]
        if expected > 0:
            worst = max(worst, abs(closed - expected) / expected)
        else:
            worst = max(worst, abs(closed - expected))
    elapsed = time.monotonic() - t0

    assert worst <= 1e-8, f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    _report(1, "exposure oracle suite",
            f"{m} links, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: dose-response anchor


def test_criterion_2_dose_response_anchor():
    p_half = infection_probability(2.1, 0.33)
    assert p_half == pytest.approx(0.5, abs=1e-3)
    _report(2, "dose-response anchor", f"P(2.1 PFU) = {p_half:.5f}")


# ---------------------------------------------------------------------------
# criterion 3: construction-rule hand traces


def test_criterion_3_construction_rules():
    cfg = BuilderConfig(horizon_days=32)
    host = Visit("h", 0.0, 0.0, 0.0, 30.0)

    def links_for(updates):
        updates, visits = columns(updates, [host])
        return to_tuples(extract_spdt_links(visits, updates, cfg))

    def visits_of(updates):
        return len(segment_all(columns(updates)[0]))

    direct = links_for([LocationUpdate("v", 10.0, 5.0, 0.0),
                        LocationUpdate("v", 20.0, 5.0, 0.0)])
    assert direct == [("h", "v", 0, 30, 10, 20, 0)]

    indirect = links_for([LocationUpdate("v", 100.0, 3.0, 4.0),
                          LocationUpdate("v", 150.0, 3.0, 4.0)])
    assert indirect == [("h", "v", 0, 30, 100, 150, 0)]

    assert links_for([LocationUpdate("v", 10.0, 25.0, 0.0)]) == []

    # visit gap: 40 minutes of silence starts a new visit
    assert visits_of([LocationUpdate("u", 0.0, 0.0, 0.0),
                      LocationUpdate("u", 40.0, 0.0, 0.0)]) == 2
    assert visits_of([LocationUpdate("u", 0.0, 0.0, 0.0),
                      LocationUpdate("u", 30.0, 0.0, 0.0)]) == 1

    # indirect window cutoff at departure + 200
    assert len(links_for([LocationUpdate("v", 229.0, 0.0, 0.0)])) == 1
    assert links_for([LocationUpdate("v", 230.0, 0.0, 0.0)]) == []
    assert links_for([LocationUpdate("v", 231.0, 0.0, 0.0)]) == []

    _report(3, "construction-rule hand traces")


# ---------------------------------------------------------------------------
# criterion 4: variant dominance across removal times


def test_criterion_4_dominance_suite():
    failures = []
    for seed in range(20):
        # dense co-location: visitors at a hub form near-cliques, so the
        # clustering comparison is not at the mercy of a few pendant edges
        cfg = SynthConfig(n_users=250, days=4, rng_seed=seed, n_locations=5,
                          area_m=(500.0, 500.0), active_day_probability=0.6,
                          visits_per_active_day=(2, 4))
        parsed = ParsedTrace(updates=generate_trace(cfg))
        bcfg = BuilderConfig(horizon_days=4)
        sdt = extract_spdt_links(segment_all(parsed), parsed, bcfg)
        sst = project_spst(sdt)
        universe = sdt.users
        if not set(sst.users) <= set(sdt.users):
            failures.append((seed, "users"))
        for r_t in (10.0, 35.0, 60.0):
            g_sdt = static_graph(sdt, r_t=r_t, universe=universe)
            g_sst = static_graph(sst, r_t=r_t, universe=universe)
            if not edge_set(g_sst) <= edge_set(g_sdt):
                failures.append((seed, r_t, "edges"))
            rows_sdt = daily_network_metrics(sdt, [r_t], universe=universe)
            rows_sst = daily_network_metrics(sst, [r_t], universe=universe)
            for a, b in zip(rows_sdt, rows_sst):
                if a.mean_degree < b.mean_degree:
                    failures.append((seed, r_t, a.day, "degree"))
                if a.mean_clustering < b.mean_clustering:
                    failures.append((seed, r_t, a.day, "clustering"))
        ldt, lst = make_ldt_lst(densify(sdt, rng_seed=seed))
        if not np.array_equal(ldt.day_link_counts(), lst.day_link_counts()):
            failures.append((seed, "ldt-lst counts"))
        if ldt.users != lst.users:
            failures.append((seed, "ldt-lst users"))
    assert not failures, failures
    _report(4, "variant dominance on 20 synthetic traces")


# ---------------------------------------------------------------------------
# criteria 5 and 6: desk-scale trend reproduction


def test_criterion_5_trend_reproduction(desk):
    out = desk["outbreaks"]
    d10, d35, d60 = (out[("SDT", r)].mean() for r in (10.0, 35.0, 60.0))
    s10, s60 = out[("SST", 10.0)].mean(), out[("SST", 60.0)].mean()

    assert d10 < d35 < d60, f"SDT outbreak means not increasing: {d10, d35, d60}"

    p_gap = amplification_gap_p(out[("SDT", 60.0)], out[("SST", 60.0)],
                                out[("SDT", 10.0)], out[("SST", 10.0)])
    assert p_gap < 0.01, f"amplification gap p = {p_gap:.4g}"
    assert desk["elapsed"] < 600.0, f"desk profile took {desk['elapsed']:.0f}s"

    amp10, amp60 = d10 / s10, d60 / s60
    _report(5, "trend reproduction",
            f"SDT means {d10:.0f}/{d35:.0f}/{d60:.0f}, "
            f"amplification {amp10:.1f}->{amp60:.1f}, p={p_gap:.2g}, "
            f"{desk['elapsed']:.0f}s")


def test_criterion_6_reconstruction_sign_pattern(desk):
    plan, sst = desk["plan"], desk["sst"]
    out = desk["outbreaks"]
    target = float(out[("SDT", 60.0)].mean())

    # bisect the infectiousness that reproduces the full network's outbreak
    # at the high removal time on the direct-only network
    probe = SimulationConfig(
        seeds=plan.seeds, horizon_days=plan.horizon_days, r_t=60.0,
        rng_seed=cell_config(plan, "SST", 60.0, 0.33, "3-5").rng_seed,
        runs=60)
    sigma_star = match_sigma(sst, probe, target, 0.33, 4.0, iterations=7)
    assert sigma_star > 0.4, "matching requires an elevated infectiousness"

    # verify the match at the high endpoint, then test the stated mismatch
    # sign at the low endpoint: the matched direct-only model overestimates
    matched_60 = outbreak_size(run_simulation(sst, SimulationConfig(
        seeds=plan.seeds, horizon_days=plan.horizon_days, r_t=60.0,
        sigma=sigma_star, rng_seed=probe.rng_seed, runs=plan.runs))).astype(np.float64)
    assert abs(matched_60.mean() - target) / target < 0.15, \
        f"match quality off: {matched_60.mean():.0f} vs {target:.0f}"

    sst_low = outbreak_size(run_simulation(sst, SimulationConfig(
        seeds=plan.seeds, horizon_days=plan.horizon_days, r_t=10.0,
        sigma=sigma_star, rng_seed=probe.rng_seed, runs=plan.runs))).astype(np.float64)
    sdt_low = out[("SDT", 10.0)]

    p_over = one_sided_p_mean_greater(sst_low, sdt_low)
    assert p_over < 0.01, (
        f"no overestimate at low removal time: SST(sigma*)={sst_low.mean():.0f} "
        f"vs SDT={sdt_low.mean():.0f}, p={p_over:.3g}")

    # the crossing's other side: matching at the low endpoint instead leaves
    # the direct-only model short at the high one
    target_low = float(sdt_low.mean())
    sigma_low_match = match_sigma(sst, replace(probe, r_t=10.0), target_low,
                                  0.33, 4.0, iterations=7)
    under_60 = outbreak_size(run_simulation(sst, SimulationConfig(
        seeds=plan.seeds, horizon_days=plan.horizon_days, r_t=60.0,
        sigma=sigma_low_match, rng_seed=probe.rng_seed, runs=probe.runs))).astype(np.float64)
    assert under_60.mean() < target, (
        f"no underestimate at high removal time: {under_60.mean():.0f} "
        f"vs {target:.0f}")

    _report(6, "reconstruction sign pattern",
            f"sigma*={sigma_star:.2f}, matched {matched_60.mean():.0f} vs "
            f"{target:.0f} at r_t=60; at r_t=10 SST {sst_low.mean():.0f} > "
            f"SDT {sdt_low.mean():.0f} (p={p_over:.2g}); matched at r_t=10 "
            f"with sigma={sigma_low_match:.2f} underestimates at 60 "
            f"({under_60.mean():.0f})")


# ---------------------------------------------------------------------------
# criterion 7: epidemic invariants and bit-identical outputs


def _criterion_7_case():
    cfg_trace = SynthConfig(n_users=250, days=6, rng_seed=17, n_locations=15,
                            area_m=(900.0, 900.0), active_day_probability=0.4)
    parsed = ParsedTrace(updates=generate_trace(cfg_trace))
    net = extract_spdt_links(segment_all(parsed), parsed,
                             BuilderConfig(horizon_days=6))
    cfg = SimulationConfig(seeds=25, horizon_days=6, r_t=60.0, rng_seed=11,
                           runs=6)
    return net, cfg


def test_criterion_7_epidemic_invariants(tmp_path):
    net, cfg = _criterion_7_case()

    # state-level invariants, stepped manually
    order = {SUSCEPTIBLE: 0, INFECTED: 1, RECOVERED: 2}
    state = seeded_state(net.n_users, cfg, run=0)
    prev_prevalence = None
    for day in range(cfg.horizon_days):
        before = state.status.copy()
        state, row = step_day(net, state, day, cfg, 0)
        s, i, r = (np.count_nonzero(state.status == v)
                   for v in (SUSCEPTIBLE, INFECTED, RECOVERED))
        assert s + i + r == net.n_users
        assert all(order[int(a)] >= order[int(b)]
                   for a, b in zip(state.status, before))
        if prev_prevalence is not None:
            assert row[PREVALENCE] == (prev_prevalence + row[NEW_INFECTIONS]
                                       - row[NEW_RECOVERIES])
        prev_prevalence = row[PREVALENCE]

    # bit-identical CSVs across executions and worker counts
    paths = []
    for label, workers in (("a1", 1), ("b1", 1), ("a8", 8), ("b8", 8)):
        path = tmp_path / f"daily_{label}.csv"
        write_daily_csv(run_simulation(net, cfg, workers=workers), path)
        paths.append(path)
    blobs = [p.read_bytes() for p in paths]
    assert all(b == blobs[0] for b in blobs[1:])
    _report(7, "epidemic invariants and bit-identical outputs")


def test_criterion_7_worker_count_under_forkserver(monkeypatch):
    # Python 3.14 starts pool workers by forkserver, which sends each worker
    # the scheduled network and its geometry by pickle instead of inheriting
    # them; the counts must still not depend on the worker count
    net, cfg = _criterion_7_case()
    dense = densify(net)
    assert dense._source is not None
    busiest = int(dense.day_link_counts().max())
    monkeypatch.setattr(epidemic, "_BLOCK_PAIRS", 2 * busiest)
    assert epidemic._block_runs(dense) == 2  # three blocks: the pool runs
    monkeypatch.setattr(epidemic, "ProcessPoolExecutor", partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("forkserver")))
    want = run_simulation(dense, cfg, workers=1)
    assert want[:, :, NEW_INFECTIONS].sum() > 0
    assert np.array_equal(run_simulation(dense, cfg, workers=2), want)


# ---------------------------------------------------------------------------
# criterion 8: clustering against brute-force triangle enumeration


def test_criterion_8_clustering_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(3, 51))
        nodes = [f"n{i}" for i in range(n)]
        density = rng.uniform(0.05, 0.4)
        edges = [(a, b) for a, b in combinations(nodes, 2)
                 if rng.random() < density]
        position = {v: i for i, v in enumerate(sorted(nodes))}
        ends = np.array([(position[a], position[b]) for a, b in edges],
                        dtype=np.int64).reshape(-1, 2)
        graph = StaticGraph(tuple(sorted(nodes)), ends[:, 0], ends[:, 1])

        # the brute force reads its own edge list, not the graph under test
        adjacent = set(edges) | {(b, a) for a, b in edges}
        triangles = {v: 0 for v in nodes}
        for a, b, c in combinations(nodes, 3):
            if (a, b) in adjacent and (b, c) in adjacent and (a, c) in adjacent:
                for v in (a, b, c):
                    triangles[v] += 1
        degree = {v: 0 for v in nodes}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        coeffs, _ = clustering_distribution(graph)
        for v in nodes:
            d = degree[v]
            expect = 2.0 * triangles[v] / (d * (d - 1)) if d >= 2 else 0.0
            assert coeffs[v] == expect, f"node {v}: {coeffs[v]} != {expect}"
    _report(8, "clustering oracle on 100 random graphs")


# ---------------------------------------------------------------------------
# criterion 9: removal-time sampler median


def test_criterion_9_sampler_median():
    rng = np.random.default_rng(7)
    times = np.empty(100_000)
    for i in range(times.size):
        times[i] = 1.0 / sample_removal_rate(60.0, (7.5, 300.0), rng)
    median = float(np.median(times))
    assert abs(median - 60.0) <= 2.0, f"median {median:.2f}"
    _report(9, "sampler median", f"median b = {median:.2f} min over 100k draws")
