"""Experiment orchestration and the command-line pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdt import sweep
from spdt.cli import main
from spdt.epidemic import SimulationConfig, run_simulation, write_daily_csv
from spdt.metrics import (
    degree_distribution,
    static_graph,
    write_histogram_csv,
    write_summary_csv,
)
from spdt.network import (
    BuilderConfig,
    extract_spdt_links,
    load_network,
    make_ldt_lst,
    save_network,
)
from spdt.sweep import (
    ExperimentPlan,
    build_variants,
    cell_seed,
    one_sided_p_mean_greater,
    parse_tau_spec,
    read_config_file,
    reconstruct_compare,
    run_plan,
)
from spdt.synth import SynthConfig, generate_trace
from spdt.trace import parse_trace, segment_all, write_trace_csv


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    cfg = SynthConfig(n_users=180, days=4, rng_seed=12, n_locations=12,
                      area_m=(800.0, 800.0), active_day_probability=0.45)
    write_trace_csv(generate_trace(cfg), path)
    return path


SMALL_PLAN = ExperimentPlan(
    variants=("SDT", "SST"),
    r_t_values=(10.0, 60.0),
    sigma_values=(0.33,),
    tau_values=("3-5",),
    runs=4,
    seeds=10,
    horizon_days=4,
)


class TestPlan:
    def test_tau_spec_parsing(self):
        assert parse_tau_spec("3-5") == (3, 5)
        assert parse_tau_spec("4") == (4, 4)
        assert parse_tau_spec(4) == (4, 4)
        with pytest.raises(ValueError):
            parse_tau_spec("5-3")
        for spec in ("abc", "3-x", "-3"):
            with pytest.raises(ValueError,
                               match=f"invalid infectious-period spec '{spec}'"):
                parse_tau_spec(spec)

    def test_profiles(self):
        desk, full = ExperimentPlan.desk(), ExperimentPlan.full()
        assert desk.r_t_values == (10.0, 35.0, 60.0)
        assert len(full.r_t_values) == 11 and full.runs == 1000
        assert set(full.variants) == {"SDT", "SST", "DDT", "DST", "LDT", "LST"}

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=("SDT", "XYZ"))

    def test_from_mapping_overrides(self):
        plan = ExperimentPlan.from_mapping(
            {"variants": "SDT,SST", "r_t": "15,45", "runs": "7", "sigma": "0.4"})
        assert plan.r_t_values == (15.0, 45.0)
        assert plan.runs == 7 and plan.sigma_values == (0.4,)

    def test_rejects_r_t_values_sharing_a_cell_seed(self):
        # cell_seed keys r_t to 1e-3: these two would draw the same stream
        assert cell_seed(0, "SDT", 10.0001, 0.33, "3-5") == \
            cell_seed(0, "SDT", 10.0004, 0.33, "3-5")
        with pytest.raises(ValueError, match=r"10\.0001.*10\.0004"):
            ExperimentPlan(r_t_values=(10.0001, 35.0, 10.0004))

    def test_rejects_sigma_values_sharing_a_cell_seed(self):
        with pytest.raises(ValueError, match=r"0\.33.*0\.3300001"):
            ExperimentPlan(sigma_values=(0.33, 0.3300001))

    @pytest.mark.parametrize("key, value", [
        ("b_range", "7.5, inf"), ("sigma", "0.33, inf"), ("sigma", "nan"),
        ("runs", "0"), ("seeds", "-1"), ("tau_mode", "weird"), ("tau", "3-5, 0"),
        ("r_t", "5"),
    ])
    def test_rejects_invalid_cell(self, key, value):
        name = {"r_t": "removal time", "tau": "infectious-period"}.get(key, key)
        with pytest.raises(ValueError, match=name):
            ExperimentPlan.from_mapping({key: value})

    def test_defaults_follow_simulation_config(self):
        plan, cfg = ExperimentPlan(), SimulationConfig()
        assert plan.sigma_values == (cfg.sigma,)
        assert [parse_tau_spec(t) for t in plan.tau_values] == [cfg.tau_range]
        assert (plan.tau_mode, plan.b_range) == (cfg.tau_mode, cfg.b_range)

    def test_distinct_grid_values_accepted(self):
        plan = ExperimentPlan(r_t_values=(10.0, 10.001), sigma_values=(0.33, 0.330001))
        assert plan.r_t_values == (10.0, 10.001)

    def test_cell_seed_independent_of_other_axes(self):
        s = cell_seed(0, "SDT", 60.0, 0.33, "3-5")
        assert s == cell_seed(0, "SDT", 60.0, 0.33, "3-5")
        assert s != cell_seed(0, "SDT", 10.0, 0.33, "3-5")
        assert s != cell_seed(0, "SST", 60.0, 0.33, "3-5")
        assert s != cell_seed(1, "SDT", 60.0, 0.33, "3-5")


def test_read_config_file(tmp_path):
    path = tmp_path / "plan.cfg"
    path.write_text("# comment\nruns = 9\nr_t = 10, 35 # inline\n\n")
    assert read_config_file(path) == {"runs": "9", "r_t": "10, 35"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_config_file(bad)
    twice = tmp_path / "twice.cfg"
    twice.write_text("runs = 9\n# again\nruns = 10\n")
    with pytest.raises(ValueError, match=r"twice\.cfg:3: duplicate key 'runs'"):
        read_config_file(twice)


class TestBuildVariants:
    def test_all_variants_consistent(self, small_trace):
        nets = build_variants(small_trace, 4, ("SDT", "SST", "DDT", "DST",
                                               "LDT", "LST"))
        assert set(nets) == {"SDT", "SST", "DDT", "DST", "LDT", "LST"}
        assert set(nets["SST"].users) <= set(nets["SDT"].users)
        assert nets["LDT"].users == nets["LST"].users
        assert np.array_equal(nets["LDT"].day_link_counts(),
                              nets["LST"].day_link_counts())
        assert nets["DDT"].n_links >= nets["SDT"].n_links


class TestRunPlan:
    def test_outputs_and_manifest(self, small_trace, tmp_path):
        out = tmp_path / "run"
        manifest = run_plan(SMALL_PLAN, small_trace, out)
        assert all(c["status"] == "ok" for c in manifest["cells"])
        for rel in manifest["outputs"]:
            assert (out / rel).exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_R_t"
        # one row per (variant, r_t, run)
        assert len(summary) == 1 + 2 * 2 * SMALL_PLAN.runs
        amp = (out / "amplification.csv").read_text().splitlines()
        assert amp[0].startswith("pair,r_t,sigma,tau")
        assert len(amp) == 1 + 2  # SDT/SST at two removal times
        manifest_text = (out / "manifest.json").read_text()
        assert json.loads(manifest_text)["format"] == "spdt-run v1"

    def test_single_cell_plan_single_row(self, small_trace, tmp_path):
        plan = ExperimentPlan(variants=("SDT",), r_t_values=(35.0,),
                              sigma_values=(0.33,), tau_values=("4",),
                              runs=1, seeds=10, horizon_days=4)
        out = tmp_path / "single"
        run_plan(plan, small_trace, out)
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2  # header plus exactly one row
        assert len(list((out / "cells").glob("*_daily.csv"))) == 1

    def test_failing_cell_recorded_and_isolated(self, small_trace, tmp_path):
        # seeds beyond the population make every simulation cell fail while
        # the sweep itself completes and records the error
        plan = ExperimentPlan(variants=("SDT",), r_t_values=(10.0,),
                              sigma_values=(0.33,), tau_values=("4",),
                              runs=1, seeds=10_000, horizon_days=4)
        out = tmp_path / "failing"
        manifest = run_plan(plan, small_trace, out)
        assert [c["status"] for c in manifest["cells"]] == ["error"]
        assert "seeds" in manifest["cells"][0]["error"]
        assert (out / "summary.csv").read_text().splitlines()[0].startswith("variant")

    def test_byte_identical_reruns(self, small_trace, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_plan(SMALL_PLAN, small_trace, out_a)
        run_plan(SMALL_PLAN, small_trace, out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.csv"))
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.csv"))
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        assert (out_a / "manifest.json").read_bytes() == \
            (out_b / "manifest.json").read_bytes()

    def test_interrupted_rerun_leaves_no_manifest(self, small_trace, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "run"
        run_plan(SMALL_PLAN, small_trace, out)
        assert (out / "manifest.json").is_file()

        real = sweep.simulate_cell
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(args[2:])
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep, "simulate_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_plan(SMALL_PLAN, small_trace, out)
        assert len(calls) == 2
        # the first cell's daily CSV is new, so the old manifest must be gone
        assert not (out / "manifest.json").exists()
        assert not list(out.glob("manifest*"))

    def test_manifest_written_whole(self, small_trace, tmp_path, monkeypatch):
        out = tmp_path / "run"
        real_dump = json.dump

        def failing_dump(obj, fh, **kwargs):
            fh.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(sweep.json, "dump", failing_dump)
        with pytest.raises(OSError):
            run_plan(SMALL_PLAN, small_trace, out)
        monkeypatch.setattr(sweep.json, "dump", real_dump)
        assert not list(out.glob("manifest*"))

    def test_compare_same_run_zero_differences(self, small_trace, tmp_path):
        plan = ExperimentPlan(variants=("SDT",), r_t_values=(10.0, 60.0),
                              sigma_values=(0.33,), tau_values=("3-5",),
                              runs=3, seeds=10, horizon_days=4)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_plan(plan, small_trace, out_a)
        run_plan(plan, small_trace, out_b)
        rows = reconstruct_compare(out_a, out_b, tmp_path / "cmp.csv")
        assert len(rows) == 2
        assert all(r["difference"] == 0.0 for r in rows)
        header = (tmp_path / "cmp.csv").read_text().splitlines()[0]
        assert header.startswith("r_t,variant_a")

    def test_compare_rejects_different_traces(self, small_trace, tmp_path):
        other_trace = tmp_path / "other.csv"
        cfg = SynthConfig(n_users=100, days=4, rng_seed=99, n_locations=10,
                          area_m=(700.0, 700.0), active_day_probability=0.4)
        write_trace_csv(generate_trace(cfg), other_trace)
        plan = ExperimentPlan(variants=("SDT",), r_t_values=(10.0,),
                              sigma_values=(0.33,), tau_values=("4",),
                              runs=2, seeds=5, horizon_days=4)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        run_plan(plan, small_trace, out_a)
        run_plan(plan, other_trace, out_b)
        with pytest.raises(ValueError, match="trace"):
            reconstruct_compare(out_a, out_b)

    @pytest.mark.parametrize("damage", ["tamper", "delete"])
    def test_compare_verifies_output_digests(self, small_trace, tmp_path, damage):
        plan = ExperimentPlan(variants=("SDT",), r_t_values=(10.0,),
                              sigma_values=(0.33,), tau_values=("4",),
                              runs=2, seeds=5, horizon_days=4)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_plan(plan, small_trace, out_a)
        run_plan(plan, small_trace, out_b)
        summary = out_b / "summary.csv"
        if damage == "tamper":
            data = bytearray(summary.read_bytes())
            data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
            summary.write_bytes(bytes(data))
        else:
            summary.unlink()
        with pytest.raises(ValueError, match="summary.csv"):
            reconstruct_compare(out_a, out_b)


def test_one_sided_p_behaviour():
    rng = np.random.default_rng(0)
    high = rng.normal(10.0, 1.0, 200)
    low = rng.normal(8.0, 1.0, 200)
    assert one_sided_p_mean_greater(high, low) < 1e-6
    assert one_sided_p_mean_greater(low, high) > 0.99


class TestCli:
    def test_full_pipeline(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(["synth", "--out", str(trace), "--users", "150",
                     "--days", "4", "--seed", "3", "--locations", "12",
                     "--area", "800,800", "--active-day-prob", "0.45"]) == 0
        net = tmp_path / "sdt.spdt"
        assert main(["build", "--trace", str(trace), "--out", str(net),
                     "--horizon", "4"]) == 0
        sst = tmp_path / "sst.spdt"
        assert main(["project-spst", "--net", str(net), "--out", str(sst)]) == 0
        ddt = tmp_path / "ddt.spdt"
        assert main(["densify", "--net", str(net), "--out", str(ddt)]) == 0
        ldt, lst = tmp_path / "ldt.spdt", tmp_path / "lst.spdt"
        assert main(["make-ldt-lst", "--net", str(ddt), "--out-ldt", str(ldt),
                     "--out-lst", str(lst)]) == 0
        assert load_network(ldt).users == load_network(lst).users

        daily, summary = tmp_path / "daily.csv", tmp_path / "summary.csv"
        assert main(["simulate", "--net", str(net), "--out-daily", str(daily),
                     "--out-summary", str(summary), "--r-t", "35",
                     "--runs", "3", "--seeds", "10", "--seed", "1"]) == 0
        assert daily.read_text().startswith("run,day,I_n,I_r,I_p")
        assert summary.read_text().startswith("run,outbreak_size,R_e")

        prefix = tmp_path / "metrics" / "sdt_"
        assert main(["metrics", "--net", str(net), "--out-prefix", str(prefix),
                     "--r-t", "60", "--daily"]) == 0
        assert Path(f"{prefix}degree_hist.csv").exists()
        assert Path(f"{prefix}clustering_hist.csv").exists()
        assert Path(f"{prefix}daily_metrics.csv").exists()

    def test_build_reports_skip_reasons(self, tmp_path, capsys):
        trace = tmp_path / "latlon.csv"
        trace.write_text("user_id,t_min,lat,lon\n"
                         "a,0,51.5,179.9999\n" "b,1,51.5,-179.9999\n"
                         "a,2,95.0,0.0\n" "b,3,51.5\n")
        assert main(["build", "--trace", str(trace), "--out",
                     str(tmp_path / "net.spdt"), "--horizon", "1",
                     "--project-latlon"]) == 0
        out = capsys.readouterr().out
        assert "2 rows skipped: 1 lat/lon out of range, 1 wrong field count" in out

    def test_simulate_config_file_with_cli_override(self, tmp_path):
        trace = tmp_path / "trace.csv"
        main(["synth", "--out", str(trace), "--users", "120", "--days", "3",
              "--seed", "5", "--locations", "10", "--area", "700,700",
              "--active-day-prob", "0.5"])
        net = tmp_path / "net.spdt"
        main(["build", "--trace", str(trace), "--out", str(net),
              "--horizon", "3"])
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("r_t = 35\nruns = 2\nseeds = 8\nrng_seed = 4\n")
        daily_a = tmp_path / "a.csv"
        main(["simulate", "--net", str(net), "--out-daily", str(daily_a),
              "--out-summary", str(tmp_path / "sa.csv"), "--config", str(cfg)])
        # flag overrides the config value: different removal time, same seed
        daily_b = tmp_path / "b.csv"
        main(["simulate", "--net", str(net), "--out-daily", str(daily_b),
              "--out-summary", str(tmp_path / "sb.csv"), "--config", str(cfg),
              "--r-t", "300"])
        assert daily_a.read_text() != daily_b.read_text()

    def test_sweep_and_compare(self, tmp_path):
        trace = tmp_path / "trace.csv"
        main(["synth", "--out", str(trace), "--users", "150", "--days", "4",
              "--seed", "3", "--locations", "12", "--area", "800,800",
              "--active-day-prob", "0.45"])
        plan_file = tmp_path / "plan.cfg"
        plan_file.write_text(
            "variants = SDT,SST\nr_t = 10,60\nruns = 3\nseeds = 10\n"
            "horizon_days = 4\n")
        out_a = tmp_path / "run_a"
        assert main(["sweep", "--trace", str(trace), "--out-dir", str(out_a),
                     "--config", str(plan_file)]) == 0
        out_b = tmp_path / "run_b"
        assert main(["sweep", "--trace", str(trace), "--out-dir", str(out_b),
                     "--config", str(plan_file)]) == 0
        cmp_path = tmp_path / "cmp.csv"
        assert main(["compare", "--a", str(out_a), "--b", str(out_b),
                     "--out", str(cmp_path)]) == 0
        assert cmp_path.exists()

    def test_sweep_rejects_non_finite_plan(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        main(["synth", "--out", str(trace), "--users", "150", "--days", "4",
              "--seed", "3", "--locations", "12", "--area", "800,800",
              "--active-day-prob", "0.45"])
        plan_file = tmp_path / "plan.cfg"
        plan_file.write_text("variants = SDT\nr_t = 10\nruns = 2\nseeds = 5\n"
                             "horizon_days = 4\nb_range = 7.5, inf\n")
        out = tmp_path / "run"
        assert main(["sweep", "--trace", str(trace), "--out-dir", str(out),
                     "--config", str(plan_file)]) == 2
        assert "b_range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, field", [
        (["--zipf", "nan"], "zipf_exponent"),
        (["--area", "nan,500"], "area_m"),
        (["--area", "inf,500"], "area_m"),
        (["--area", "500"], "area_m"),
        (["--area", "500,600,700"], "area_m"),
        (["--area", "abc,500"], "--area"),
    ])
    def test_synth_rejects_non_finite(self, tmp_path, capsys, flags, field):
        trace = tmp_path / "trace.csv"
        assert main(["synth", "--out", str(trace), "--users", "20",
                     "--days", "2", *flags]) == 2
        assert field in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("command, flags, config, named", [
        ("simulate", ["--tau", "abc"], "", "invalid infectious-period spec 'abc'"),
        ("simulate", [], "runs = x\n", "runs"),
        ("simulate", [], "tau = 3-y\n", "tau"),
        ("sweep", [], "runs = x\n", "runs"),
        ("sweep", [], "b_range = 7.5\n", "b_range"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, command, flags,
                                     config, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        missing = str(tmp_path / "missing")
        args = {"simulate": ["--net", missing, "--out-daily", missing,
                             "--out-summary", missing],
                "sweep": ["--trace", missing, "--out-dir", missing]}[command]
        assert main([command, *args, "--config", str(cfg), *flags]) == 2
        assert named in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("r_t = 35\nsgima = 0.4\n")  # typo must not pass silently
        net = tmp_path / "missing.spdt"
        code = main(["simulate", "--net", str(net),
                     "--out-daily", str(tmp_path / "d.csv"),
                     "--out-summary", str(tmp_path / "s.csv"),
                     "--config", str(cfg)])
        assert code == 2

    def test_error_reported_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.spdt"
        code = main(["simulate", "--net", str(missing),
                     "--out-daily", str(tmp_path / "d.csv"),
                     "--out-summary", str(tmp_path / "s.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_console_entry_point(self):
        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-m", "spdt.cli", "--version"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip()


class TestCliDefaults:
    """Each subcommand run without options matches the library defaults."""

    @pytest.fixture(scope="class")
    def default_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("defaults")
        trace, net = root / "trace.csv", root / "sdt.spdt"
        assert main(["synth", "--out", str(trace)]) == 0
        assert main(["build", "--trace", str(trace), "--out", str(net)]) == 0
        return trace, net

    def test_synth(self, default_run, tmp_path):
        trace, _ = default_run
        expected = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(SynthConfig()), expected)
        assert trace.read_bytes() == expected.read_bytes()

    def test_build(self, default_run, tmp_path):
        trace, net = default_run
        cfg = BuilderConfig()
        parsed = parse_trace(trace)
        expected = tmp_path / "sdt.spdt"
        save_network(extract_spdt_links(
            segment_all(parsed, cfg.radius_m, cfg.visit_gap_min), parsed, cfg),
            expected)
        assert net.read_bytes() == expected.read_bytes()

    def test_simulate(self, default_run, tmp_path):
        _, net_path = default_run
        daily, summary = tmp_path / "daily.csv", tmp_path / "summary.csv"
        assert main(["simulate", "--net", str(net_path), "--out-daily", str(daily),
                     "--out-summary", str(summary)]) == 0
        net = load_network(net_path)
        counts = run_simulation(net, SimulationConfig(horizon_days=net.horizon))
        write_daily_csv(counts, tmp_path / "ref_daily.csv")
        write_summary_csv(counts, tmp_path / "ref_summary.csv")
        assert daily.read_bytes() == (tmp_path / "ref_daily.csv").read_bytes()
        assert summary.read_bytes() == (tmp_path / "ref_summary.csv").read_bytes()

    def test_make_ldt_lst_and_metrics(self, default_run, tmp_path):
        _, net_path = default_run
        ldt, lst = tmp_path / "ldt.spdt", tmp_path / "lst.spdt"
        assert main(["make-ldt-lst", "--net", str(net_path), "--out-ldt", str(ldt),
                     "--out-lst", str(lst)]) == 0
        net = load_network(net_path)
        ref_ldt, ref_lst = make_ldt_lst(net)
        save_network(ref_ldt, tmp_path / "ref_ldt.spdt")
        save_network(ref_lst, tmp_path / "ref_lst.spdt")
        assert ldt.read_bytes() == (tmp_path / "ref_ldt.spdt").read_bytes()
        assert lst.read_bytes() == (tmp_path / "ref_lst.spdt").read_bytes()

        prefix = tmp_path / "m_"
        assert main(["metrics", "--net", str(net_path),
                     "--out-prefix", str(prefix)]) == 0
        write_histogram_csv(degree_distribution(static_graph(net)),
                            tmp_path / "ref_degree.csv")
        assert Path(f"{prefix}degree_hist.csv").read_bytes() == \
            (tmp_path / "ref_degree.csv").read_bytes()
