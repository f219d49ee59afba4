"""Experiment orchestration and the command-line pipeline."""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from spdt import epidemic, sweep
from spdt.cli import _SIM_OPTIONS, _SYNTH_OPTIONS, main
from spdt.epidemic import SimulationConfig, run_simulation, write_daily_csv
from spdt.metrics import (
    degree_distribution,
    static_graph,
    write_histogram_csv,
    write_summary_csv,
)
from spdt.network import (
    BuilderConfig,
    densify,
    extract_spdt_links,
    load_network,
    make_ldt_lst,
    project_spst,
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

    def test_rejects_grid_values_printing_one_label(self):
        # own cell seeds, but one label: the cells would share a daily CSV
        # and the rows of their tables could not be told apart
        assert cell_seed(0, "SDT", 100.0015, 0.33, "3-5") != \
            cell_seed(0, "SDT", 100.0012, 0.33, "3-5")
        with pytest.raises(ValueError, match=r"r_t values 100\.0015 and 100\.0012 "
                                             r"print the same label '100\.001'"):
            ExperimentPlan(r_t_values=(35.0, 100.0015, 100.0012))
        with pytest.raises(ValueError, match=r"sigma values 1\.000001 and 1\.000002 "
                                             r"print the same label '1'"):
            ExperimentPlan(sigma_values=(1.000001, 1.000002))

    def test_rejects_sigma_values_sharing_a_cell_seed(self):
        with pytest.raises(ValueError, match=r"0\.33.*0\.3300001"):
            ExperimentPlan(sigma_values=(0.33, 0.3300001))

    def test_rejects_repeated_variant(self):
        with pytest.raises(ValueError, match=r"variants 'SDT' and 'SDT'"):
            ExperimentPlan(variants=("SDT", "SST", "SDT"))
        with pytest.raises(ValueError, match=r"variants 'SST' and 'SST'"):
            ExperimentPlan.from_mapping({"variants": "sst,SDT,SST"})

    @pytest.mark.parametrize("specs, named", [
        (("4", "4-4"), r"'4' and '4-4'"),
        (("3-5", "4", "3-5"), r"'3-5' and '3-5'"),
        (("03-5", "3-05"), r"'03-5' and '3-05'"),
    ])
    def test_rejects_tau_specs_of_one_range(self, specs, named):
        # one range is one cell seed: the two cells would be the same samples
        with pytest.raises(ValueError, match=f"tau values {named}"):
            ExperimentPlan(tau_values=specs)

    @pytest.mark.parametrize("key", ["rng_seed", "densify_seed"])
    def test_rejects_negative_seed_by_name(self, key):
        with pytest.raises(ValueError, match=f"{key} must be non-negative, got -1"):
            ExperimentPlan(**{key: -1})
        with pytest.raises(ValueError, match=f"{key} must be non-negative, got -1"):
            ExperimentPlan.from_mapping({key: "-1"})

    @pytest.mark.parametrize("key, value", [
        ("sigma", "0.33, inf"), ("sigma", "nan"),
        ("runs", "0"), ("seeds", "-1"), ("tau", "3-5, 0"),
        ("r_t", "5"),
    ])
    def test_rejects_invalid_cell(self, key, value):
        name = {"r_t": "removal time", "tau": "infectious-period"}.get(key, key)
        with pytest.raises(ValueError, match=name):
            ExperimentPlan.from_mapping({key: value})

    def test_unknown_key_lists_the_plan_keys(self):
        with pytest.raises(ValueError, match=r"unknown keys \['foo'\]") as info:
            ExperimentPlan.from_mapping({"foo": "1"})
        valid = str(info.value).partition("valid: ")[2]
        assert valid == str(sorted([
            "variants", "r_t", "sigma", "tau", "runs", "seeds", "horizon_days",
            "rng_seed", "densify_seed"]))

    def test_defaults_follow_simulation_config(self):
        plan, cfg = ExperimentPlan(), SimulationConfig()
        assert plan.sigma_values == (cfg.sigma,)
        assert [parse_tau_spec(t) for t in plan.tau_values] == [cfg.tau_range]

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


@pytest.fixture(scope="module")
def builder_chain(small_trace):
    """Each variant of the small trace from its own builder call."""
    cfg = BuilderConfig(horizon_days=4)
    parsed = parse_trace(small_trace)
    sdt = extract_spdt_links(segment_all(parsed, cfg.radius_m, cfg.visit_gap_min),
                             parsed, cfg)
    ddt = densify(sdt)
    ldt, lst = make_ldt_lst(ddt)
    return {"SDT": sdt, "SST": project_spst(sdt), "DDT": ddt,
            "DST": project_spst(ddt), "LDT": ldt, "LST": lst}


class TestBuildVariants:
    @pytest.mark.parametrize("wanted", [
        ("SST",), ("DST",), ("SST", "DST"), ("LDT",), ("LST",), ("DDT", "LST"),
        sweep.VARIANTS,
    ])
    def test_each_request_matches_builder_chain(self, small_trace, builder_chain,
                                                wanted):
        # the trace drops links from SST and densifies some hosts
        assert builder_chain["SST"].n_links < builder_chain["SDT"].n_links
        assert builder_chain["DDT"]._source is not None
        nets = build_variants(small_trace, 4, wanted)
        assert list(nets) == [v for v in sweep.VARIANTS if v in wanted]
        for variant, net in nets.items():
            want = builder_chain[variant]
            assert net == want and net.users == want.users
            for f in ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n"):
                assert np.array_equal(getattr(net, f), getattr(want, f))

    def test_all_variants_consistent(self, small_trace):
        nets = build_variants(small_trace, 4, ("SDT", "SST", "DDT", "DST",
                                               "LDT", "LST"))
        assert set(nets) == {"SDT", "SST", "DDT", "DST", "LDT", "LST"}
        # DDT holds SDT's base links and index; one projection: SST holds
        # DST's five columns and index, and LST holds LDT's index and the
        # four columns that the projection leaves unchanged
        for a, b in (("DDT", "SDT"), ("SST", "DST"), ("LST", "LDT")):
            assert nets[a]._cells is nets[b]._cells
        for a, b in zip(nets["DDT"]._base, nets["SDT"]._base):
            assert a is b
        for a, b in zip(nets["SST"]._base, nets["DST"]._base):
            assert a is b
        for f in ("nbr", "t_s", "t_l", "t_s_n"):
            assert getattr(nets["LST"]._base, f) is getattr(nets["LDT"]._base, f)
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

    def test_worker_count_does_not_change_the_outputs(self, small_trace, tmp_path,
                                                      monkeypatch):
        # one run a block: each cell's four runs make four blocks, which two
        # workers share through the process pool
        monkeypatch.setattr(epidemic, "_BLOCK_PAIRS", 1)
        pools = []

        def spy(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(epidemic, "ProcessPoolExecutor", spy)
        outs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("SPDT_WORKERS", workers)
            outs[workers] = tmp_path / f"w{workers}"
            manifest = run_plan(SMALL_PLAN, small_trace, outs[workers])
            assert [c["status"] for c in manifest["cells"]] == ["ok"] * 4
            if workers == "1":
                assert pools == []
        assert pools == [2] * 4
        daily = sorted(p.name for p in (outs["1"] / "cells").iterdir())
        assert len(daily) == 4
        assert daily == sorted(p.name for p in (outs["2"] / "cells").iterdir())
        for rel in ["manifest.json"] + [f"cells/{name}" for name in daily]:
            assert (outs["1"] / rel).read_bytes() == (outs["2"] / rel).read_bytes()

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
                     str(tmp_path / "net.spdt"), "--horizon", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 rows skipped: 1 lat/lon out of range, 1 wrong field count" in out

    def test_build_counts_user_ids_with_whitespace(self, tmp_path, capsys):
        # such an id cannot be saved; it is skipped with its rows, not
        # found only when the network is written
        trace = tmp_path / "trace.csv"
        trace.write_text("user_id,t_min,x_m,y_m\n"
                         "a,0,0,0\n" "a b,5,0,0\n" "c,10,1,0\n")
        net = tmp_path / "net.spdt"
        assert main(["build", "--trace", str(trace), "--out", str(net),
                     "--horizon", "1"]) == 0
        out = capsys.readouterr().out
        assert "from 2 updates (1 rows skipped: 1 user id contains whitespace)" in out
        assert load_network(net).users == ("a", "c")

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
                             "horizon_days = 4\nsigma = inf\n")
        out = tmp_path / "run"
        assert main(["sweep", "--trace", str(trace), "--out-dir", str(out),
                     "--config", str(plan_file)]) == 2
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, named", [
        (("densify_seed", "-1"), "densify_seed must be non-negative"),
        (("rng_seed", "-1"), "rng_seed must be non-negative"),
        (("variants", "SDT,DDT,SDT"), "variants 'SDT' and 'SDT'"),
        (("tau", "4,4-4"), "tau values '4' and '4-4'"),
        (("r_t", "100.0015,100.0012"), "r_t values 100.0015 and 100.0012 print"),
    ])
    def test_sweep_rejects_bad_plan_before_any_output(self, tmp_path, capsys,
                                                      entry, named):
        # an earlier run's outputs stay as they are: nothing is deleted or made
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{}\n")
        plan = {"variants": "SDT,DDT", "r_t": "10", "runs": "2", "seeds": "5",
                "horizon_days": "4"}
        plan.update([entry])
        plan_file = tmp_path / "plan.cfg"
        plan_file.write_text("".join(f"{k} = {v}\n" for k, v in plan.items()))
        assert main(["sweep", "--trace", str(tmp_path / "missing.csv"),
                     "--out-dir", str(out), "--config", str(plan_file)]) == 2
        assert named in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == "{}\n"

    @pytest.mark.parametrize("case", ["missing trace", "bad SPDT_WORKERS"])
    def test_sweep_bad_input_leaves_the_run_directory(self, small_trace, tmp_path,
                                                      capsys, monkeypatch, case):
        plan_file = tmp_path / "plan.cfg"
        plan_file.write_text("variants = SDT\nr_t = 10\nruns = 2\nseeds = 5\n"
                             "horizon_days = 4\n")
        out = tmp_path / "run"

        def files():
            return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        sweep = ["sweep", "--out-dir", str(out), "--config", str(plan_file)]
        assert main([*sweep, "--trace", str(small_trace)]) == 0
        before = files()
        trace, named = small_trace, "SPDT_WORKERS"
        if case == "missing trace":
            trace = named = str(tmp_path / "typo.csv")
        else:
            monkeypatch.setenv("SPDT_WORKERS", "abc")
        capsys.readouterr()
        assert main([*sweep, "--trace", str(trace)]) == 2
        assert named in capsys.readouterr().err
        assert files() == before
        monkeypatch.delenv("SPDT_WORKERS", raising=False)
        assert main(["compare", "--a", str(out), "--b", str(out),
                     "--out", str(tmp_path / "cmp.csv")]) == 0

    def test_simulate_bad_worker_variable_named_before_the_load(self, tmp_path,
                                                               capsys, monkeypatch):
        monkeypatch.setenv("SPDT_WORKERS", "0")
        assert main(["simulate", "--net", str(tmp_path / "missing.spdt"),
                     "--out-daily", str(tmp_path / "d.csv"),
                     "--out-summary", str(tmp_path / "s.csv")]) == 2
        assert "SPDT_WORKERS must be at least 1, got '0'" in capsys.readouterr().err

    def test_sweep_latlon_trace(self, small_trace, tmp_path):
        # the synthetic trace's metres as degrees near 51.5 N: the header
        # alone selects the projection
        trace = tmp_path / "latlon.csv"
        rows = [line.split(",") for line in small_trace.read_text().splitlines()[1:]]
        trace.write_text("user_id,t_min,lat,lon\n" + "".join(
            f"{u},{t},{51.5 + float(y) / 111_195!r},{float(x) / 69_218!r}\n"
            for u, t, x, y in rows))
        plan_file = tmp_path / "plan.cfg"
        plan_file.write_text("variants = SDT,SST\nr_t = 10\nruns = 2\nseeds = 5\n"
                             "horizon_days = 4\n")
        out = tmp_path / "run"
        assert main(["sweep", "--trace", str(trace), "--out-dir", str(out),
                     "--config", str(plan_file)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [c["status"] for c in manifest["cells"]] == ["ok", "ok"]

    def test_densify_rejects_negative_seed(self, tmp_path, capsys):
        net = tmp_path / "ok.spdt"
        net.write_text("spdt-net v1 horizon=3\n0 a b 0 30 10 20\n")
        out = tmp_path / "out" / "ddt.spdt"
        out.parent.mkdir()
        assert main(["densify", "--net", str(net), "--out", str(out),
                     "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "rng_seed must be non-negative, got -1" in captured.err
        assert captured.out == "" and not list(out.parent.iterdir())

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
        ("sweep", [], "r_t = 10, x\n", "r_t"),
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

    @pytest.mark.parametrize("command", ["synth", "simulate", "sweep"])
    def test_config_bytes_not_utf8_name_their_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# a run\nseeds = 5\nrng_seed = 1\xff\n")
        out = tmp_path / "out"
        args = {"synth": ["--out", str(out)],
                "simulate": ["--net", str(out), "--out-daily", str(out),
                             "--out-summary", str(out)],
                "sweep": ["--trace", str(out), "--out-dir", str(out)]}[command]
        assert main([command, *args, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"spdt: error: {cfg}:3: bytes that are not UTF-8\n")
        assert not out.exists()

    def test_sweep_plan_has_no_b_range_key(self, tmp_path, capsys):
        # the removal-time bounds are the model constant REMOVAL_TIME_RANGE
        plan_file = tmp_path / "plan.cfg"
        plan_file.write_text("variants = SDT\nr_t = 10\nb_range = 7.5, 300\n")
        out = tmp_path / "run"
        assert main(["sweep", "--trace", str(tmp_path / "missing.csv"),
                     "--out-dir", str(out), "--config", str(plan_file)]) == 2
        assert "unknown keys ['b_range']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("r_t", ["10,abc", "abc", "10,,60"])
    def test_metrics_bad_r_t_named_before_the_load(self, tmp_path, capsys, r_t):
        # the network does not exist: only a parse before the load names --r-t
        missing = str(tmp_path / "missing.spdt")
        assert main(["metrics", "--net", missing, "--out-prefix",
                     str(tmp_path / "m_"), "--r-t", r_t]) == 2
        err = capsys.readouterr().err
        assert "--r-t" in err and "missing.spdt" not in err

    def test_metrics_r_t_whose_rate_overflows_named_before_the_load(self, tmp_path,
                                                                    capsys):
        missing = str(tmp_path / "missing.spdt")
        assert main(["metrics", "--net", missing, "--out-prefix",
                     str(tmp_path / "m_"), "--r-t", "10,1e-310"]) == 2
        err = capsys.readouterr().err
        assert "--r-t: r_t must be large enough for 1/r_t to be finite, got 1e-310" in err
        assert "missing.spdt" not in err

    @pytest.mark.parametrize("flags, named", [
        (["--r-t", "10,0", "--daily"], "--r-t"),
        (["--r-t", "nan"], "--r-t"),
        (["--threshold", "-1"], "--threshold"),
        (["--threshold", "inf", "--daily"], "--threshold"),
    ])
    def test_metrics_out_of_range_named_before_any_output(self, tmp_path, capsys,
                                                          flags, named):
        net = tmp_path / "ok.spdt"
        net.write_text("spdt-net v1 horizon=1\n0 a b 0 30 10 20\n")
        assert main(["metrics", "--net", str(net), "--out-prefix",
                     str(tmp_path / "x_"), *flags]) == 2
        out, err = capsys.readouterr()
        assert named in err and out == ""
        assert not list(tmp_path.glob("x_*"))

    @pytest.mark.parametrize("variant", ["SDT,x\ny", "x,y", "a b", "", "a\udcff"])
    def test_metrics_bad_variant_named_before_the_load(self, tmp_path, capsys,
                                                       variant):
        # a label the daily CSV cannot hold as one field
        missing = str(tmp_path / "missing.spdt")
        assert main(["metrics", "--net", missing, "--out-prefix",
                     str(tmp_path / "m_"), "--variant", variant, "--daily"]) == 2
        err = capsys.readouterr().err
        assert "--variant: variant" in err and "missing.spdt" not in err
        assert not list(tmp_path.iterdir())

    def test_metrics_prefix_ending_in_a_separator_writes_into_that_directory(
            self, tmp_path, monkeypatch):
        # "m/" names files in m/, not m-prefixed files next to it
        (tmp_path / "ok.spdt").write_text(
            "spdt-net v1 horizon=2\n0 a b 0 30 10 20\n1 b a 1440 1500 1450 1460\n")
        monkeypatch.chdir(tmp_path)
        assert main(["metrics", "--net", "ok.spdt", "--out-prefix", "m/",
                     "--daily"]) == 0
        assert sorted(p.name for p in (tmp_path / "m").iterdir()) == [
            "clustering_hist.csv", "daily_metrics.csv", "degree_hist.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m", "ok.spdt"]

    @pytest.mark.parametrize("delta", ["inf", "nan", "-5", "0"])
    def test_make_ldt_lst_bad_delta_named_before_any_output(self, tmp_path, capsys,
                                                            delta):
        net = tmp_path / "ok.spdt"
        net.write_text("spdt-net v1 horizon=1\n0 a b 0 30 100 150\n")
        for source in (tmp_path / "missing.spdt", net):  # checked before the load
            assert main(["make-ldt-lst", "--net", str(source),
                         "--out-ldt", str(tmp_path / "ldt.spdt"),
                         "--out-lst", str(tmp_path / "lst.spdt"),
                         "--delta", delta]) == 2
            out, err = capsys.readouterr()
            assert "--delta must be positive and finite" in err and out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.spdt"]

    def test_make_ldt_lst_has_one_rewrite(self, tmp_path, capsys):
        # LDT keeps each indirect presence's duration; there is no other mode
        net = tmp_path / "ok.spdt"
        net.write_text("spdt-net v1 horizon=1\n0 a b 0 30 100 150\n")
        with pytest.raises(SystemExit) as info:
            main(["make-ldt-lst", "--net", str(net), "--out-ldt",
                  str(tmp_path / "ldt.spdt"), "--out-lst", str(tmp_path / "lst.spdt"),
                  "--keep-departure"])
        assert info.value.code == 2
        assert "unrecognized arguments: --keep-departure" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.spdt"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("r_t = 35\nsgima = 0.4\n")  # typo must not pass silently
        net = tmp_path / "missing.spdt"
        code = main(["simulate", "--net", str(net),
                     "--out-daily", str(tmp_path / "d.csv"),
                     "--out-summary", str(tmp_path / "s.csv"),
                     "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("command, key", [
        *(("synth", key) for key in _SYNTH_OPTIONS),
        *(("simulate", key) for key in _SIM_OPTIONS),
    ])
    def test_bad_flag_and_config_value_fail_alike(self, tmp_path, capsys,
                                                  command, key):
        # the network does not exist: only a parse before the load names the key
        out = tmp_path / "out"
        out.mkdir()
        args = {"synth": ["--out", str(out / "trace.csv")],
                "simulate": ["--net", str(tmp_path / "missing.spdt"),
                             "--out-daily", str(out / "d.csv"),
                             "--out-summary", str(out / "s.csv")]}[command]
        options = {"synth": _SYNTH_OPTIONS, "simulate": _SIM_OPTIONS}[command]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = x\n")
        errors = []
        for given in (["--" + options[key][1], "x"], ["--config", str(cfg)]):
            assert main([command, *args, *given]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"spdt: error: {key}: ")
        assert errors[0].count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command, options", [
        ("synth", _SYNTH_OPTIONS), ("simulate", _SIM_OPTIONS)])
    def test_help_lists_every_option_row(self, capsys, command, options):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for key, (_, flag, _) in options.items():
            assert f"--{flag} {key.upper()}\n" in text

    @pytest.mark.parametrize("manifest", [
        "{}",
        '{"format": "spdt-run v9"}',
        "not json",
        '{"format": "spdt-run v1"}',
        '{"format": "spdt-run v1", "trace": {"sha256": 1}, "outputs": {}}',
        '{"format": "spdt-run v1", "trace": {"sha256": "0"}, "outputs": []}',
        '{"format": "spdt-run v1", "trace": {"sha256": "0"}, "outputs": {"x": 1}}',
        '{"format": "spdt-run v1", "trace": {"sha256": "0"},'
        ' "outputs": {"../../../etc/passwd": "0"}}',
        '{"format": "spdt-run v1", "trace": {"sha256": "0"},'
        ' "outputs": {"/etc/passwd": "0"}}',
    ])
    def test_compare_rejects_an_unknown_manifest(self, tmp_path, capsys, manifest):
        # run a's manifest is well formed and lists only the summary
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        valid = ('{"format": "spdt-run v1", "trace": {"sha256": "0"},'
                 ' "outputs": {"summary.csv": "0"}}')
        for run, text in ((run_a, valid), (run_b, manifest)):
            run.mkdir()
            (run / "manifest.json").write_text(text + "\n")
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--a", str(run_a), "--b", str(run_b),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spdt: error:") and err.count("\n") == 1
        assert str(run_b / "manifest.json") in err
        assert not out.exists()

    @staticmethod
    def _run_dirs(tmp_path, summary: str | bytes, listed: bool = True):
        # two run directories holding the same summary.csv, their manifests
        # listing it with its digest, or listing no outputs
        if isinstance(summary, str):
            summary = summary.encode()
        digest = hashlib.sha256(summary).hexdigest()
        manifest = {"format": "spdt-run v1", "trace": {"sha256": "0"},
                    "outputs": {"summary.csv": digest} if listed else {}}
        runs = tmp_path / "a", tmp_path / "b"
        for run in runs:
            run.mkdir(parents=True)
            (run / "manifest.json").write_text(json.dumps(manifest) + "\n")
            (run / "summary.csv").write_bytes(summary)
        return runs

    def _compare_fails(self, runs, tmp_path, capsys) -> str:
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--a", str(runs[0]), "--b", str(runs[1]),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spdt: error:") and err.count("\n") == 1
        assert not out.exists()
        return err

    def test_compare_reads_only_a_listed_summary(self, tmp_path, capsys):
        header = "variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_R_t\n"
        summary = header + "SDT,10,0.33,4,0,5,0.0,0.0\n"
        listed = self._run_dirs(tmp_path / "listed", summary)
        assert main(["compare", "--a", str(listed[0]), "--b", str(listed[1]),
                     "--out", str(tmp_path / "ok.csv")]) == 0
        runs = self._run_dirs(tmp_path / "unlisted", summary, listed=False)
        err = self._compare_fails(runs, tmp_path, capsys)
        assert f"{runs[0] / 'manifest.json'}:" in err and "summary.csv" in err

    @pytest.mark.parametrize("summary, line", [
        ("variant,r_t\nSDT,10\n", 1),
        ("", 1),
        ("variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_R_t\n"
         "SDT,x,0.33,4,0,5,0.0,0.0\n", 2),
        ("variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_R_t\n"
         "SDT,10,0.33,4,0,5,0.0,0.0\nSDT,10,0.33,4,1,five,0.0,0.0\n", 3),
        ("variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_R_t\n"
         "SDT,10,0.33,4,0,5\n", 2),
    ], ids=["other-header", "empty", "bad-r_t", "bad-size", "short-row"])
    def test_compare_names_a_malformed_summary_line(self, tmp_path, capsys,
                                                    summary, line):
        runs = self._run_dirs(tmp_path, summary)
        err = self._compare_fails(runs, tmp_path, capsys)
        assert f"{runs[0] / 'summary.csv'}:{line}:" in err

    @pytest.mark.parametrize("summary, line", [
        (b"variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_\xff\n", 1),
        (b"variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_R_t\n"
         b"SDT,10,0.33,4,0,5,0.0,0.0\nSDT\xff,10,0.33,4,1,5,0.0,0.0\n", 3),
    ], ids=["header", "row"])
    def test_compare_names_a_summary_line_not_utf8(self, tmp_path, capsys, summary,
                                                   line):
        runs = self._run_dirs(tmp_path, summary)
        err = self._compare_fails(runs, tmp_path, capsys)
        assert err == (f"spdt: error: {runs[0] / 'summary.csv'}:{line}: "
                       f"bytes that are not UTF-8\n")

    @pytest.mark.parametrize("case", [
        "metrics of the network", "simulate of the network", "build --horizon",
        "simulate --horizon"])
    def test_horizon_too_large_to_index_reported_cleanly(self, tmp_path, capsys,
                                                        case):
        # 10^15 days asks for arrays of about 7 PiB, beyond any user address
        # space, so the allocation fails at once and touches no memory
        huge = str(10**15)
        big, ok = tmp_path / "big.spdt", tmp_path / "ok.spdt"
        big.write_text(f"spdt-net v1 horizon={huge}\n0 a b 0 30 10 20\n")
        ok.write_text("spdt-net v1 horizon=1\n0 a b 0 30 10 20\n")
        trace = tmp_path / "trace.csv"
        trace.write_text("user_id,t_min,x_m,y_m\na,0,0,0\nb,5,1,1\n")
        out = tmp_path / "out"
        out.mkdir()
        simulate = ["simulate", "--out-daily", str(out / "d.csv"),
                    "--out-summary", str(out / "s.csv"), "--seeds", "1"]
        argv = {
            "metrics of the network": ["metrics", "--net", str(big),
                                       "--out-prefix", str(out / "m_")],
            "simulate of the network": [*simulate, "--net", str(big)],
            "build --horizon": ["build", "--trace", str(trace),
                                "--out", str(out / "net.spdt"), "--horizon", huge],
            "simulate --horizon": [*simulate, "--net", str(ok), "--horizon", huge],
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("spdt: error: ") and captured.out == ""
        assert captured.err.strip() != "spdt: error:"
        assert not list(out.iterdir())

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
