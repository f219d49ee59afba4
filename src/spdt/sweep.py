"""Experiment orchestration: build network variants, run parameter grids,
write plot-ready reports with a digest manifest.

A plan is a grid over (network variant, median removal time, infectiousness,
infectious-period spec) with a fixed number of Monte-Carlo runs per cell.
Every cell derives its own seed from the plan seed and the cell's parameter
values, so changing one sweep axis never perturbs the randomness of
unrelated cells. Outputs are byte-deterministic for a fixed plan and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .epidemic import PREVALENCE, SimulationConfig, run_simulation, write_daily_csv
from .metrics import _fmt, outbreak_size, run_summaries
from .network import (
    DEFAULT_DENSIFY_SEED,
    BuilderConfig,
    DynamicContactNetwork,
    densify,
    extract_spdt_links,
    make_ldt_lst,
    project_spst,
)
from .trace import parse_trace, segment_all

VARIANTS = ("SDT", "SST", "DDT", "DST", "LDT", "LST")

MANIFEST_FORMAT = "spdt-run v1"

_PAIRS = (("SDT", "SST"), ("DDT", "DST"), ("LDT", "LST"))

# resolution at which cell_seed tells r_t and sigma values apart
_R_T_SEED_SCALE = 1000
_SIGMA_SEED_SCALE = 1_000_000


def parse_tau_spec(spec: str | int) -> tuple[int, int]:
    """Infectious-period spec: '3-5' for a uniform range, '4' for a fixed value."""
    lo_s, dash, hi_s = str(spec).strip().partition("-")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if dash else lo
    except ValueError:
        raise ValueError(f"invalid infectious-period spec {spec!r}") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid infectious-period spec {spec!r}")
    return lo, hi


@dataclass(frozen=True)
class ExperimentPlan:
    """Sweep grid plus simulation scale; see desk() and full() profiles.

    A plan is valid when the SimulationConfig of every cell is.
    """

    variants: tuple[str, ...] = ("SDT", "SST")
    r_t_values: tuple[float, ...] = (10.0, 35.0, 60.0)
    sigma_values: tuple[float, ...] = (SimulationConfig.sigma,)
    tau_values: tuple[str, ...] = ("{}-{}".format(*SimulationConfig.tau_range),)
    runs: int = 200
    seeds: int = 50
    horizon_days: int = 14
    rng_seed: int = 0
    densify_seed: int = DEFAULT_DENSIFY_SEED
    tau_mode: str = SimulationConfig.tau_mode
    b_range: tuple[float, float] = SimulationConfig.b_range

    def __post_init__(self):
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants {sorted(unknown)}; valid: {VARIANTS}")
        for name in ("variants", "r_t_values", "sigma_values", "tau_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for r_t, sigma, tau_spec in product(self.r_t_values, self.sigma_values,
                                            self.tau_values):
            cell_config(self, self.variants[0], r_t, sigma, tau_spec)
        for name, values, scale in (("r_t", self.r_t_values, _R_T_SEED_SCALE),
                                    ("sigma", self.sigma_values, _SIGMA_SEED_SCALE)):
            seen: dict[int, float] = {}
            for value in values:
                key = int(round(value * scale))
                if key in seen:
                    raise ValueError(
                        f"{name} values {seen[key]!r} and {value!r} share a cell "
                        f"seed: they round to the same multiple of 1/{scale}")
                seen[key] = value

    @classmethod
    def desk(cls) -> "ExperimentPlan":
        """Minutes-scale profile: 200 runs per cell, three removal times."""
        return cls()

    @classmethod
    def full(cls) -> "ExperimentPlan":
        """Whole-grid profile (hours of compute)."""
        return cls(
            variants=VARIANTS,
            r_t_values=tuple(float(v) for v in range(10, 61, 5)),
            sigma_values=(0.33, 0.4, 0.5),
            tau_values=("3", "4", "5"),
            runs=1000,
            seeds=500,
            horizon_days=32,
        )

    @classmethod
    def from_mapping(cls, mapping: dict[str, str],
                     base: "ExperimentPlan | None" = None) -> "ExperimentPlan":
        """Apply key=value overrides (config-file entries) onto a base plan."""
        plan = base if base is not None else cls.desk()
        kwargs: dict = {}
        for key, raw in mapping.items():
            try:
                if key == "variants":
                    kwargs[key] = tuple(v.strip().upper() for v in raw.split(","))
                elif key == "r_t":
                    kwargs["r_t_values"] = tuple(float(v) for v in raw.split(","))
                elif key == "sigma":
                    kwargs["sigma_values"] = tuple(float(v) for v in raw.split(","))
                elif key == "tau":
                    kwargs["tau_values"] = tuple(v.strip() for v in raw.split(","))
                elif key in ("runs", "seeds", "horizon_days", "rng_seed", "densify_seed"):
                    kwargs[key] = int(raw)
                elif key == "tau_mode":
                    kwargs[key] = raw.strip()
                elif key == "b_range":
                    lo, hi = (float(v) for v in raw.split(","))
                    kwargs["b_range"] = (lo, hi)
                else:
                    raise ValueError("unknown plan key")
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return replace(plan, **kwargs)


def read_config_file(path) -> dict[str, str]:
    """Parse a `key = value` config file; '#' starts a comment."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in entries:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value
    return entries


def build_variants(
    trace_path,
    horizon_days: int,
    variants: Iterable[str],
    densify_seed: int = DEFAULT_DENSIFY_SEED,
    project_latlon: bool = False,
) -> dict[str, DynamicContactNetwork]:
    """Parse a trace and derive the requested network variants."""
    wanted = set(variants)
    unknown = wanted - set(VARIANTS)
    if unknown:
        raise ValueError(f"unknown variants {sorted(unknown)}")
    cfg = BuilderConfig(horizon_days=horizon_days)

    parsed = parse_trace(trace_path, project_latlon=project_latlon)
    visits = segment_all(parsed, cfg.radius_m, cfg.visit_gap_min)
    sdt = extract_spdt_links(visits, parsed, cfg)

    nets: dict[str, DynamicContactNetwork] = {}
    if "SDT" in wanted:
        nets["SDT"] = sdt
    if "SST" in wanted:
        nets["SST"] = project_spst(sdt)
    if wanted & {"DDT", "DST", "LDT", "LST"}:
        ddt = densify(sdt, rng_seed=densify_seed)
        if "DDT" in wanted:
            nets["DDT"] = ddt
        if "DST" in wanted:
            nets["DST"] = project_spst(ddt)
        if wanted & {"LDT", "LST"}:
            ldt, lst = make_ldt_lst(ddt, cfg.indirect_window_min)
            if "LDT" in wanted:
                nets["LDT"] = ldt
            if "LST" in wanted:
                nets["LST"] = lst
    return nets


def cell_seed(plan_seed: int, variant: str, r_t: float, sigma: float,
              tau_spec: str) -> int:
    """Seed for one sweep cell, a pure function of the cell's parameter values."""
    tau_lo, tau_hi = parse_tau_spec(tau_spec)
    ss = np.random.SeedSequence((
        plan_seed,
        VARIANTS.index(variant),
        int(round(r_t * _R_T_SEED_SCALE)),
        int(round(sigma * _SIGMA_SEED_SCALE)),
        tau_lo,
        tau_hi,
    ))
    return int(ss.generate_state(1, np.uint64)[0])


def cell_config(plan: ExperimentPlan, variant: str, r_t: float, sigma: float,
                tau_spec: str) -> SimulationConfig:
    cfg = SimulationConfig(
        seeds=plan.seeds,
        horizon_days=plan.horizon_days,
        r_t=r_t,
        b_range=plan.b_range,
        sigma=sigma,
        tau_range=parse_tau_spec(tau_spec),
        tau_mode=plan.tau_mode,
        runs=plan.runs,
    )
    # the seed is derived only from values SimulationConfig has accepted
    return replace(cfg, rng_seed=cell_seed(plan.rng_seed, variant, r_t, sigma,
                                           tau_spec))


def simulate_cell(
    net: DynamicContactNetwork,
    plan: ExperimentPlan,
    variant: str,
    r_t: float,
    sigma: float,
    tau_spec: str,
    workers: int | None = None,
) -> np.ndarray:
    return run_simulation(net, cell_config(plan, variant, r_t, sigma, tau_spec),
                          workers=workers)


def _cell_name(variant: str, r_t: float, sigma: float, tau_spec: str) -> str:
    return f"{variant}_rt{r_t:g}_sig{sigma:g}_tau{tau_spec}"


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cell_rows(cell: str, counts: np.ndarray) -> tuple[list[str], list[str], float]:
    """One cell's summary rows, mean-prevalence rows and mean outbreak.

    Rows start with ``cell``, the cell's key columns; ``counts`` is the
    cell's counts array.
    """
    outbreak, effective, initial = run_summaries(counts)
    summary = [f"{cell},{run},{size},{_fmt(r_e)},{_fmt(r_0)}"
               for run, (size, r_e, r_0) in enumerate(zip(
                   outbreak.tolist(), effective.tolist(), initial.tolist()))]
    # dividing the numpy scalar keeps the `np.float64(...)` repr that the
    # sweep's recorded digests pin
    totals = counts[:, :, PREVALENCE].sum(axis=0)
    prevalence = [f"{cell},{day},{total / len(counts)!r}"
                  for day, total in enumerate(totals)]
    return summary, prevalence, float(outbreak.mean())


def run_plan(plan: ExperimentPlan, trace_path, out_dir,
             project_latlon: bool = False) -> dict:
    """Execute every cell of the plan on the given trace.

    Writes, under ``out_dir``: per-cell daily CSVs, a long-format summary,
    mean prevalence curves, the baseline amplification table for each
    same-trace variant pair, and `manifest.json` listing each output with
    its content digest. A failing cell is recorded in the manifest and
    skipped; other cells still run.

    The manifest marks a complete run: an existing one is deleted before
    any output is written, and the new one is written to a temporary file
    and renamed into place last, so an interrupted sweep never leaves
    outputs that look complete.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    cells_dir = out / "cells"
    cells_dir.mkdir(exist_ok=True)

    nets = build_variants(trace_path, plan.horizon_days, plan.variants,
                          plan.densify_seed, project_latlon)

    summary_rows: list[str] = []
    prevalence_rows: list[str] = []
    mean_outbreaks: dict[tuple[str, float, float, str], float] = {}
    cell_records: list[dict] = []
    outputs: list[Path] = []

    grid = list(product(plan.variants, plan.r_t_values, plan.sigma_values,
                        plan.tau_values))
    for variant, r_t, sigma, tau_spec in grid:
        record = {"variant": variant, "r_t": r_t, "sigma": sigma, "tau": tau_spec}
        try:
            counts = simulate_cell(nets[variant], plan, variant, r_t, sigma, tau_spec)
            name = _cell_name(variant, r_t, sigma, tau_spec)
            cell_path = cells_dir / f"{name}_daily.csv"
            write_daily_csv(counts, cell_path)
            outputs.append(cell_path)

            summary, prevalence, mean_outbreak = _cell_rows(
                f"{variant},{r_t:g},{sigma:g},{tau_spec}", counts)
            summary_rows.extend(summary)
            prevalence_rows.extend(prevalence)
            mean_outbreaks[(variant, r_t, sigma, tau_spec)] = mean_outbreak
            record["status"] = "ok"
        except Exception as exc:  # cell-level isolation
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        cell_records.append(record)

    summary_path = out / "summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_R_t\n")
        fh.write("".join(row + "\n" for row in summary_rows))
    outputs.append(summary_path)

    prevalence_path = out / "prevalence.csv"
    with open(prevalence_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("variant,r_t,sigma,tau,day,mean_I_p\n")
        fh.write("".join(row + "\n" for row in prevalence_rows))
    outputs.append(prevalence_path)

    amp_path = out / "amplification.csv"
    with open(amp_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("pair,r_t,sigma,tau,spdt_mean_outbreak,spst_mean_outbreak,"
                 "amplification\n")
        for (spdt_v, spst_v), r_t, sigma, tau_spec in product(
                _PAIRS, plan.r_t_values, plan.sigma_values, plan.tau_values):
            key_d = (spdt_v, r_t, sigma, tau_spec)
            key_s = (spst_v, r_t, sigma, tau_spec)
            if key_d not in mean_outbreaks or key_s not in mean_outbreaks:
                continue
            md, ms = mean_outbreaks[key_d], mean_outbreaks[key_s]
            ratio = "" if ms == 0 else repr(md / ms)
            fh.write(f"{spdt_v}/{spst_v},{r_t:g},{sigma:g},{tau_spec},"
                     f"{md!r},{ms!r},{ratio}\n")
    outputs.append(amp_path)

    manifest = {
        "format": MANIFEST_FORMAT,
        "trace": {
            "name": Path(trace_path).name,
            "sha256": _sha256_file(Path(trace_path)),
        },
        "plan": asdict(plan),
        "cells": cell_records,
        "outputs": {
            str(p.relative_to(out)): _sha256_file(p) for p in sorted(outputs)
        },
    }
    partial = out / "manifest.json.tmp"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(partial, manifest_path)
    finally:
        partial.unlink(missing_ok=True)
    return manifest


def _load_group_means(run_dir: Path) -> dict[tuple[str, str, str], dict[float, float]]:
    """Mean outbreak by (variant, sigma, tau) group, keyed by r_t inside."""
    sums: dict[tuple, list[float]] = {}
    with open(run_dir / "summary.csv", "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        for line in fh:
            parts = line.rstrip("\n").split(",")
            key = (parts[idx["variant"]], parts[idx["sigma"]], parts[idx["tau"]])
            r_t = float(parts[idx["r_t"]])
            sums.setdefault((key, r_t), []).append(
                float(parts[idx["outbreak_size"]])
            )
    groups: dict[tuple[str, str, str], dict[float, float]] = {}
    for (key, r_t), values in sums.items():
        groups.setdefault(key, {})[r_t] = sum(values) / len(values)
    return groups


def reconstruct_compare(dir_a, dir_b, out_path=None) -> list[dict]:
    """Per-removal-time difference table between two completed runs.

    Both runs must have been produced from the same trace (digests are
    compared), and every output listed in each run's manifest must still
    match its recorded digest. Every (variant, sigma, tau) group of run A is
    compared with every group of run B over their common removal times; the
    difference is B minus A.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    manifests = []
    for d in (dir_a, dir_b):
        with open(d / "manifest.json", "r", encoding="utf-8") as fh:
            manifests.append(json.load(fh))
    if manifests[0]["trace"]["sha256"] != manifests[1]["trace"]["sha256"]:
        raise ValueError("mismatched trace digests: runs are not comparable")
    for d, manifest in zip((dir_a, dir_b), manifests):
        for rel, sha in sorted(manifest["outputs"].items()):
            path = d / rel
            if not path.is_file():
                raise ValueError(f"{path}: output listed in the manifest is missing")
            if _sha256_file(path) != sha:
                raise ValueError(f"{path}: output does not match its manifest digest")

    groups_a = _load_group_means(dir_a)
    groups_b = _load_group_means(dir_b)
    rows = []
    for key_a, by_rt_a in sorted(groups_a.items()):
        for key_b, by_rt_b in sorted(groups_b.items()):
            for r_t in sorted(set(by_rt_a) & set(by_rt_b)):
                rows.append({
                    "r_t": r_t,
                    "variant_a": key_a[0], "sigma_a": key_a[1], "tau_a": key_a[2],
                    "mean_outbreak_a": by_rt_a[r_t],
                    "variant_b": key_b[0], "sigma_b": key_b[1], "tau_b": key_b[2],
                    "mean_outbreak_b": by_rt_b[r_t],
                    "difference": by_rt_b[r_t] - by_rt_a[r_t],
                })
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("r_t,variant_a,sigma_a,tau_a,mean_outbreak_a,"
                     "variant_b,sigma_b,tau_b,mean_outbreak_b,difference\n")
            for row in rows:
                fh.write(
                    f"{row['r_t']:g},{row['variant_a']},{row['sigma_a']},"
                    f"{row['tau_a']},{row['mean_outbreak_a']!r},"
                    f"{row['variant_b']},{row['sigma_b']},{row['tau_b']},"
                    f"{row['mean_outbreak_b']!r},{row['difference']!r}\n"
                )
    return rows


def one_sided_p_mean_greater(x: Sequence[float], y: Sequence[float]) -> float:
    """Welch-style one-sided p-value for mean(x) > mean(y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    se = math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
    if se == 0.0:
        return 0.0 if x.mean() > y.mean() else 1.0
    z = (x.mean() - y.mean()) / se
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def amplification_gap_p(
    spdt_hi: Sequence[float], spst_hi: Sequence[float],
    spdt_lo: Sequence[float], spst_lo: Sequence[float],
) -> float:
    """One-sided p-value that the outbreak amplification ratio at the high
    removal time exceeds the ratio at the low one.

    Delta-method test on the difference of log ratios of means; the four
    cells are independent Monte-Carlo samples.
    """
    cells = [np.asarray(c, dtype=np.float64)
             for c in (spdt_hi, spst_hi, spdt_lo, spst_lo)]
    means = [c.mean() for c in cells]
    if any(m <= 0 for m in means):
        return math.nan
    d = (math.log(means[0]) - math.log(means[1])
         - math.log(means[2]) + math.log(means[3]))
    var = sum(c.var(ddof=1) / (c.size * m * m) for c, m in zip(cells, means))
    if var == 0.0:
        return 0.0 if d > 0 else 1.0
    z = d / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def match_sigma(
    net: DynamicContactNetwork,
    base_cfg: SimulationConfig,
    target_mean_outbreak: float,
    sigma_lo: float,
    sigma_hi: float,
    iterations: int = 8,
) -> float:
    """Bisect the infectiousness at which the mean outbreak hits the target.

    The mean outbreak is monotone in infectiousness, so plain bisection on
    the interval converges; each probe reuses the same seed for variance
    control.
    """
    lo, hi = sigma_lo, sigma_hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        counts = run_simulation(net, replace(base_cfg, sigma=mid))
        mean_out = float(outbreak_size(counts).mean())
        if mean_out < target_mean_outbreak:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
