"""Reproduction series, static/daily graph metrics, clustering oracle."""

import math
import re
from itertools import combinations

import numpy as np
import pytest

from linkrows import edge_set, from_tuples
from spdt.cli import main
from spdt.metrics import (
    DailyMetricsRow,
    StaticGraph,
    clustering_distribution,
    daily_network_metrics,
    degree_distribution,
    outbreak_size,
    run_summaries,
    static_graph,
    write_daily_metrics_csv,
    write_histogram_csv,
    write_summary_csv,
)
from spdt.network import BuilderConfig, extract_spdt_links, project_spst, save_network
from spdt.synth import SynthConfig, generate_trace
from spdt.trace import ParsedTrace, segment_all


def counts_of(*runs):
    """Counts array from per-run lists of (I_n, I_r) days, prevalence 0."""
    return np.array([[(i_n, i_r, 0) for i_n, i_r in run] for run in runs],
                    dtype=np.int64)


class TestReproductionSeries:
    def test_simple_ratio(self):
        _, effective, initial = run_summaries(counts_of([(10, 5)]))
        assert effective.tolist() == [2.0]
        assert initial.tolist() == [2.0]

    def test_zero_recovery_days_excluded(self):
        _, effective, initial = run_summaries(counts_of([(10, 0), (6, 3), (4, 4)]))
        assert initial.tolist() == [2.0]  # day 0 has no recovery
        assert effective[0] == pytest.approx((2.0 + 1.0) / 2)

    def test_all_undefined_gives_none(self):
        _, effective, initial = run_summaries(counts_of([(5, 0), (2, 0)]))
        assert np.isnan(effective[0])
        assert np.isnan(initial[0])

    def test_constant_ratio_identity(self):
        _, effective, _ = run_summaries(
            counts_of([(3 * k, k) for k in (1, 2, 5, 4)]))
        assert effective[0] == pytest.approx(3.0)

    def test_initial_is_earliest_defined(self):
        _, _, initial = run_summaries(counts_of([(5, 0), (8, 2), (1, 1)]))
        assert initial.tolist() == [4.0]

    def test_outbreak_size_sums_new_infections(self):
        assert outbreak_size(counts_of([(3, 0), (7, 2)])).tolist() == [10]


def graph_of(nodes, edges):
    """The graph of node-id edges over the sorted node set."""
    nodes = tuple(sorted(set(nodes)))
    position = {node: i for i, node in enumerate(nodes)}
    ends = np.array([(position[a], position[b]) for a, b in edges],
                    dtype=np.int64).reshape(-1, 2)
    return StaticGraph(nodes, ends[:, 0], ends[:, 1])


class TestStaticGraphBasics:
    def test_triangle_degrees(self):
        g = graph_of("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert degree_distribution(g) == {2: 3}

    def test_empty_graph(self):
        g = graph_of([], [])
        assert degree_distribution(g) == {}
        coeffs, mean = clustering_distribution(g)
        assert coeffs == {} and mean == 0.0

    def test_star_graph(self):
        nodes = ["c"] + [f"n{i}" for i in range(5)]
        g = graph_of(nodes, [("c", f"n{i}") for i in range(5)])
        dist = degree_distribution(g)
        assert dist == {5: 1, 1: 5}
        coeffs, mean = clustering_distribution(g)
        assert set(coeffs.values()) == {0.0} and mean == 0.0

    def test_complete_graph_clustering(self):
        nodes = "abcd"
        g = graph_of(nodes, list(combinations(nodes, 2)))
        coeffs, mean = clustering_distribution(g)
        assert all(c == pytest.approx(1.0) for c in coeffs.values())
        assert mean == pytest.approx(1.0)

    def test_four_cycle_with_chord(self):
        # square a-b-c-d with chord a-c: hand-computed coefficients
        g = graph_of("abcd", [("a", "b"), ("b", "c"), ("c", "d"),
                              ("d", "a"), ("a", "c")])
        coeffs, mean = clustering_distribution(g)
        # b and d close their single neighbour pair; a and c each carry two
        # triangles over three neighbour pairs
        assert coeffs["b"] == pytest.approx(1.0)
        assert coeffs["d"] == pytest.approx(1.0)
        assert coeffs["a"] == pytest.approx(2.0 / 3.0)
        assert coeffs["c"] == pytest.approx(2.0 / 3.0)
        assert mean == pytest.approx((1 + 1 + 2 / 3 + 2 / 3) / 4)

    def test_mean_clustering_summed_left_to_right(self):
        # every node of the circulant graph C_10(1, 2, 3) has coefficient 0.6,
        # and ten 0.6s summed left to right round otherwise than a compensated
        # sum (the builtin sum of floats from Python 3.12) does
        nodes = [f"n{i}" for i in range(10)]
        g = graph_of(nodes, [(nodes[i], nodes[(i + k) % 10])
                             for i in range(10) for k in (1, 2, 3)])
        coeffs, mean = clustering_distribution(g)
        assert set(coeffs.values()) == {0.6}
        total = 0.0
        for c in coeffs.values():
            total += c
        assert total / 10 != math.fsum(coeffs.values()) / 10
        assert mean == total / 10


def brute_force_clustering(nodes, edges) -> dict[str, float]:
    """Triangle enumeration over all node triples (independent oracle)."""
    adjacent = set(edges) | {(b, a) for a, b in edges}
    triangles = {v: 0 for v in nodes}
    for a, b, c in combinations(nodes, 3):
        if (a, b) in adjacent and (b, c) in adjacent and (a, c) in adjacent:
            for v in (a, b, c):
                triangles[v] += 1
    out = {}
    for v in nodes:
        d = sum((v, u) in adjacent for u in nodes)
        out[v] = 2.0 * triangles[v] / (d * (d - 1)) if d >= 2 else 0.0
    return out


def test_clustering_matches_triangle_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        nodes = [f"n{i}" for i in range(n)]
        edges = [(a, b) for a, b in combinations(nodes, 2)
                 if rng.random() < 0.2]
        got, _ = clustering_distribution(graph_of(nodes, edges))
        expect = brute_force_clustering(nodes, edges)
        for v in nodes:
            assert got[v] == pytest.approx(expect[v], abs=1e-12)


class TestExposureThresholdGraph:
    def _net(self):
        return from_tuples([
            ("a", "b", 0, 120, 10, 110, 0),   # strong direct link
            ("c", "d", 0, 1, 1440, 1441, 0),  # negligible dose
        ], horizon=1)

    def test_edges_require_threshold_dose(self):
        assert edge_set(static_graph(self._net(), r_t=60.0)) == {("a", "b")}

    def test_zero_dose_never_an_edge(self):
        # both segments degenerate
        net = from_tuples([("a", "b", 0, 0, 50, 50, 0)], horizon=1)
        g = static_graph(net, r_t=60.0)
        assert g.n_edges == 0

    def test_raising_threshold_never_adds_edges(self):
        net = self._net()
        lo = static_graph(net, r_t=60.0, threshold=0.001)
        hi = static_graph(net, r_t=60.0, threshold=0.05)
        assert edge_set(hi) <= edge_set(lo)

    def test_universe_must_cover_network_users(self):
        with pytest.raises(ValueError, match=r"misses 2 users .*, the first 'c'$"):
            static_graph(self._net(), universe=["a", "b"])

    def test_cli_names_the_user_the_universe_misses(self, tmp_path, capsys):
        net, small = tmp_path / "net.spdt", tmp_path / "small.spdt"
        save_network(self._net(), net)
        save_network(from_tuples([("a", "b", 0, 120, 10, 110, 0)], horizon=1), small)
        assert main(["metrics", "--net", str(net), "--universe-net", str(small),
                     "--out-prefix", str(tmp_path / "m_")]) == 2
        assert capsys.readouterr().err == (
            "spdt: error: universe misses 2 users present in the network, "
            "the first 'c'\n")

    @pytest.mark.parametrize("bad", [-5.0, 0.0, 0, float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_removal_time_not_positive_finite(self, bad):
        net = self._net()
        pattern = rf"r_t .*{re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=pattern):
            static_graph(net, r_t=bad)
        with pytest.raises(ValueError, match=pattern):
            daily_network_metrics(net, [60.0, bad])

    @pytest.mark.parametrize("bad", [1e-310, 5e-324])
    def test_rejects_removal_time_whose_rate_overflows(self, bad):
        # positive and finite, but 1 / r_t is inf and would make every dose NaN
        net = self._net()
        pattern = rf"r_t .*1/r_t .*{re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=pattern):
            static_graph(net, r_t=bad)
        with pytest.raises(ValueError, match=pattern):
            daily_network_metrics(net, [60.0, bad])

    @pytest.mark.parametrize("bad", [-0.01, 0.0, float("nan"), float("inf")])
    def test_rejects_threshold_not_positive_finite(self, bad):
        net = self._net()
        pattern = rf"threshold .*{re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=pattern):
            static_graph(net, threshold=bad)
        with pytest.raises(ValueError, match=pattern):
            daily_network_metrics(net, [60.0], threshold=bad)


def build_pair(seed=4, users=220, days=5):
    cfg = SynthConfig(n_users=users, days=days, rng_seed=seed, n_locations=14,
                      area_m=(900.0, 900.0), active_day_probability=0.4)
    parsed = ParsedTrace(updates=generate_trace(cfg))
    sdt = extract_spdt_links(segment_all(parsed), parsed,
                             BuilderConfig(horizon_days=days))
    return sdt, project_spst(sdt)


class TestVariantDominance:
    def test_static_edges_subset_and_degree_shift(self):
        sdt, sst = build_pair()
        universe = sdt.users
        g_sdt = static_graph(sdt, r_t=60.0, universe=universe)
        g_sst = static_graph(sst, r_t=60.0, universe=universe)
        assert edge_set(g_sst) <= edge_set(g_sdt)
        assert set(sst.users) <= set(sdt.users)
        # stochastic dominance of the degree distribution
        deg_sdt = sorted(g_sdt._degree.tolist())
        deg_sst = sorted(g_sst._degree.tolist())
        assert all(a >= b for a, b in zip(deg_sdt, deg_sst))

    def test_daily_means_dominated(self):
        sdt, sst = build_pair(seed=6)
        universe = sdt.users
        for r_t in (10.0, 35.0, 60.0):
            rows_sdt = daily_network_metrics(sdt, [r_t], universe=universe)
            rows_sst = daily_network_metrics(sst, [r_t], universe=universe)
            for a, b in zip(rows_sdt, rows_sst):
                assert a.mean_degree >= b.mean_degree
                assert a.mean_clustering >= b.mean_clustering

    def test_mean_degree_monotone_in_removal_time(self):
        sdt, _ = build_pair(seed=8)
        rows = daily_network_metrics(sdt, [10.0, 35.0, 60.0])
        by_day: dict[int, list[float]] = {}
        for row in rows:
            by_day.setdefault(row.day, []).append(row.mean_degree)
        for day, values in by_day.items():
            assert values == sorted(values)

    def test_single_day_network_equals_static(self):
        net = from_tuples([("a", "b", 0, 120, 10, 110, 0)], horizon=1)
        rows = daily_network_metrics(net, [60.0])
        g = static_graph(net, r_t=60.0)
        assert len(rows) == 1
        assert rows[0].mean_degree == pytest.approx(2 * g.n_edges / g.n_nodes)


class TestWriters:
    def test_summary_csv(self, tmp_path):
        counts = counts_of([(4, 0), (6, 2)], [(0, 0), (0, 0)])
        path = tmp_path / "summary.csv"
        write_summary_csv(counts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "run,outbreak_size,R_e"
        assert lines[1] == "0,10,3.0"
        assert lines[2] == "2,0,".replace("2", "1", 1)  # run 1, outbreak 0, blank R_e

    def test_run_summaries_fields(self):
        outbreak, effective, initial = run_summaries(counts_of([(4, 2), (1, 1)]))
        assert outbreak.tolist() == [5]
        assert effective[0] == pytest.approx(1.5)
        assert initial[0] == pytest.approx(2.0)

    def test_histogram_csv(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram_csv({2: 3, 0: 1}, path)
        assert path.read_text().splitlines() == ["value,count", "0,1", "2,3"]

    def test_daily_metrics_csv(self, tmp_path):
        sdt, _ = build_pair(seed=9, users=60, days=2)
        rows = daily_network_metrics(sdt, [60.0])
        path = tmp_path / "daily.csv"
        write_daily_metrics_csv(rows, "SDT", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "day,mean_degree,mean_clustering,r_t,variant"
        assert lines[1].endswith(",SDT")

    @pytest.mark.parametrize("variant", ["SDT,x\ny", "x,y", "a\tb", "", "a\udcff"])
    def test_daily_metrics_csv_refuses_a_label_that_is_not_one_field(self, tmp_path,
                                                                    variant):
        rows = [DailyMetricsRow(0, 60.0, 1.0, 0.5)]
        path = tmp_path / "daily.csv"
        with pytest.raises(ValueError, match=r"^variant .* not representable"):
            write_daily_metrics_csv(rows, variant, path)
        assert not path.exists()
