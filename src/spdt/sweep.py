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

from . import _textio
from .epidemic import (
    PREVALENCE,
    SimulationConfig,
    resolve_workers,
    run_simulation,
    write_daily_csv,
)
from .metrics import outbreak_size, run_summaries
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
# written by run_plan and required by compare
_SUMMARY_HEADER = "variant,r_t,sigma,tau,run,outbreak_size,R_e,initial_R_t"

_PAIRS = (("SDT", "SST"), ("DDT", "DST"), ("LDT", "LST"))

# resolution at which cell_seed tells r_t and sigma values apart
_R_T_SEED_SCALE = 1000
_SIGMA_SEED_SCALE = 1_000_000


def _label(value: float) -> str:
    """An r_t or sigma value as cell file names and table rows print it."""
    return f"{value:g}"


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

    def __post_init__(self):
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants {sorted(unknown)}; valid: {VARIANTS}")
        for name in ("variants", "r_t_values", "sigma_values", "tau_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for name in ("rng_seed", "densify_seed"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)!r}")
        for r_t, sigma, tau_spec in product(self.r_t_values, self.sigma_values,
                                            self.tau_values):
            cell_config(self, self.variants[0], r_t, sigma, tau_spec)
        # two values that cell_seed cannot tell apart would repeat a cell, and
        # two that print one label would share its file and its table rows
        rounded = "share a cell seed: they round to the same multiple of 1/"
        for name, values, seed_key, reason in (
            ("variants", self.variants, str, "repeat a variant"),
            ("tau values", self.tau_values, parse_tau_spec,
             "share a cell seed: they parse to the same range"),
            ("r_t values", self.r_t_values, lambda v: int(round(v * _R_T_SEED_SCALE)),
             f"{rounded}{_R_T_SEED_SCALE}"),
            ("sigma values", self.sigma_values,
             lambda v: int(round(v * _SIGMA_SEED_SCALE)),
             f"{rounded}{_SIGMA_SEED_SCALE}"),
            ("r_t values", self.r_t_values, _label, "print the same label {key!r}"),
            ("sigma values", self.sigma_values, _label, "print the same label {key!r}"),
        ):
            seen: dict = {}
            for value in values:
                key = seed_key(value)
                if key in seen:
                    raise ValueError(f"{name} {seen[key]!r} and {value!r} "
                                     + reason.format(key=key))
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
        return replace(plan, **parse_keys(mapping, _PLAN_OPTIONS))


def _listed(parse):
    """Parser of a comma-separated list of ``parse``'s values."""
    return lambda raw: tuple(parse(v.strip()) for v in raw.split(","))


# plan key -> (ExperimentPlan field, parser)
_PLAN_OPTIONS = {
    "variants": ("variants", _listed(str.upper)),
    "r_t": ("r_t_values", _listed(float)),
    "sigma": ("sigma_values", _listed(float)),
    "tau": ("tau_values", _listed(str)),
    "runs": ("runs", int),
    "seeds": ("seeds", int),
    "horizon_days": ("horizon_days", int),
    "rng_seed": ("rng_seed", int),
    "densify_seed": ("densify_seed", int),
}


def parse_keys(entries: dict[str, str], options: dict) -> dict:
    """Dataclass fields from raw ``key: value`` entries, each parsed by its
    ``options`` row (field first, parser last) and named by its key when it
    fails; an unknown key fails with the list of valid ones."""
    unknown = set(entries) - set(options)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}; valid: {sorted(options)}")
    fields = {}
    for key, raw in entries.items():
        field, *_, parse = options[key]
        try:
            fields[field] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return fields


def read_config_file(path) -> dict[str, str]:
    """Parse a `key = value` config file; '#' starts a comment."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            _textio.check_utf8(path, lineno, line)
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
) -> dict[str, DynamicContactNetwork]:
    """Parse a trace and derive the requested network variants."""
    wanted = set(variants)
    unknown = wanted - set(VARIANTS)
    if unknown:
        raise ValueError(f"unknown variants {sorted(unknown)}")
    cfg = BuilderConfig(horizon_days=horizon_days)

    parsed = parse_trace(trace_path)
    visits = segment_all(parsed, cfg.radius_m, cfg.visit_gap_min)
    sdt = extract_spdt_links(visits, parsed, cfg)

    nets = {"SDT": sdt}
    if wanted & {"DDT", "DST", "LDT", "LST"}:
        nets["DDT"] = ddt = densify(sdt, rng_seed=densify_seed)
        if "DST" in wanted:
            nets["DST"] = project_spst(ddt)
        if wanted & {"LDT", "LST"}:
            nets["LDT"], nets["LST"] = make_ldt_lst(ddt, cfg.indirect_window_min)
    if "SST" in wanted:
        # DDT's base links are SDT's, and a schedule never changes which
        # users have base links: DST's base links, index and users are SST's
        dst = nets.get("DST")
        nets["SST"] = project_spst(sdt) if dst is None else DynamicContactNetwork(
            dst.users, cfg.horizon_days, dst._base, dst._cells)
    return {variant: nets[variant] for variant in VARIANTS if variant in wanted}


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
        sigma=sigma,
        tau_range=parse_tau_spec(tau_spec),
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
) -> np.ndarray:
    return run_simulation(net, cell_config(plan, variant, r_t, sigma, tau_spec))


def _cell_name(variant: str, r_t: float, sigma: float, tau_spec: str) -> str:
    return f"{variant}_rt{_label(r_t)}_sig{_label(sigma)}_tau{tau_spec}"


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
    summary = [f"{cell},{run},{size},{_textio.float_field(r_e)},"
               f"{_textio.float_field(r_0)}" for run, (size, r_e, r_0) in enumerate(
                   zip(outbreak.tolist(), effective.tolist(), initial.tolist()))]
    # dividing the numpy scalar keeps the `np.float64(...)` repr that the
    # sweep's recorded digests pin
    totals = counts[:, :, PREVALENCE].sum(axis=0)
    prevalence = [f"{cell},{day},{total / len(counts)!r}"
                  for day, total in enumerate(totals)]
    return summary, prevalence, float(outbreak.mean())


def run_plan(plan: ExperimentPlan, trace_path, out_dir) -> dict:
    """Execute every cell of the plan on the given trace.

    Writes, under ``out_dir``: per-cell daily CSVs, a long-format summary,
    mean prevalence curves, the baseline amplification table for each
    same-trace variant pair, and `manifest.json` listing each output with
    its content digest. A failing cell is recorded in the manifest and
    skipped; other cells still run.

    The manifest marks a complete run: an existing one is deleted before
    any output is written, and the new one is written to a temporary file
    and renamed into place last, so an interrupted sweep never leaves
    outputs that look complete. A bad trace or worker count fails before
    anything under ``out_dir`` is made, changed or deleted.
    """
    resolve_workers()  # each cell resolves it again: a bad one fails here first
    nets = build_variants(trace_path, plan.horizon_days, plan.variants,
                          plan.densify_seed)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    cells_dir = out / "cells"
    cells_dir.mkdir(exist_ok=True)

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
                f"{variant},{_label(r_t)},{_label(sigma)},{tau_spec}", counts)
            summary_rows.extend(summary)
            prevalence_rows.extend(prevalence)
            mean_outbreaks[(variant, r_t, sigma, tau_spec)] = mean_outbreak
            record["status"] = "ok"
        except Exception as exc:  # cell-level isolation
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        cell_records.append(record)

    amplification = []
    for (spdt_v, spst_v), r_t, sigma, tau_spec in product(
            _PAIRS, plan.r_t_values, plan.sigma_values, plan.tau_values):
        key_d = (spdt_v, r_t, sigma, tau_spec)
        key_s = (spst_v, r_t, sigma, tau_spec)
        if key_d not in mean_outbreaks or key_s not in mean_outbreaks:
            continue
        md, ms = mean_outbreaks[key_d], mean_outbreaks[key_s]
        ratio = "" if ms == 0 else repr(md / ms)
        amplification.append(f"{spdt_v}/{spst_v},{_label(r_t)},{_label(sigma)},"
                             f"{tau_spec},{md!r},{ms!r},{ratio}")
    for name, header, lines in (
        ("summary.csv", _SUMMARY_HEADER, summary_rows),
        ("prevalence.csv", "variant,r_t,sigma,tau,day,mean_I_p", prevalence_rows),
        ("amplification.csv", "pair,r_t,sigma,tau,spdt_mean_outbreak,"
         "spst_mean_outbreak,amplification", amplification),
    ):
        _textio.write_table(out / name, header, lines)
        outputs.append(out / name)

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
    """Mean outbreak by (variant, sigma, tau) group, keyed by r_t inside.

    Raises naming ``path:line`` unless the file is UTF-8, starts with the
    header run_plan writes and every row has its eight fields, r_t and
    outbreak_size numeric.
    """
    path = run_dir / "summary.csv"
    sums: dict[tuple, list[float]] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        _textio.check_utf8(path, 1, header)
        if header != _SUMMARY_HEADER + "\n":
            raise ValueError(f"{path}:1: header is not {_SUMMARY_HEADER!r}")
        for lineno, line in enumerate(fh, start=2):
            _textio.check_utf8(path, lineno, line)
            try:
                variant, r_t, sigma, tau, _, size, _, _ = line.rstrip("\n").split(",")
                sums.setdefault(((variant, sigma, tau), float(r_t)), []).append(
                    float(size))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: malformed summary row {line.rstrip()!r}") from None
    groups: dict[tuple[str, str, str], dict[float, float]] = {}
    for (key, r_t), values in sums.items():
        groups.setdefault(key, {})[r_t] = sum(values) / len(values)
    return groups


def _read_manifest(path: Path) -> dict:
    """A run's manifest, checked for every field that compare reads.

    Raises naming ``path`` unless the file is a v1 manifest with a string
    ``trace.sha256`` and an ``outputs`` map from paths inside the run
    directory to string digests that lists ``summary.csv``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found != MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a {MANIFEST_FORMAT!r} manifest "
                         f"(format {found!r})")
    trace, outputs = manifest.get("trace"), manifest.get("outputs")
    if not (isinstance(trace, dict) and isinstance(trace.get("sha256"), str)
            and isinstance(outputs, dict)
            and all(isinstance(sha, str) for sha in outputs.values())):
        raise ValueError(f"{path}: 'trace.sha256' or 'outputs' missing or malformed")
    for rel in map(Path, outputs):
        if rel.is_absolute() or ".." in rel.parts:
            raise ValueError(f"{path}: output {str(rel)!r} is outside the run directory")
    if "summary.csv" not in outputs:
        raise ValueError(f"{path}: outputs do not list 'summary.csv'")
    return manifest


def reconstruct_compare(dir_a, dir_b, out_path=None) -> list[dict]:
    """Per-removal-time difference table between two completed runs.

    Both runs must have been produced from the same trace (digests are
    compared), and every output listed in each run's manifest must still
    match its recorded digest. Every (variant, sigma, tau) group of run A is
    compared with every group of run B over their common removal times; the
    difference is B minus A.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    manifests = [_read_manifest(d / "manifest.json") for d in (dir_a, dir_b)]
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
        _textio.write_table(
            out_path, "r_t,variant_a,sigma_a,tau_a,mean_outbreak_a,"
            "variant_b,sigma_b,tau_b,mean_outbreak_b,difference",
            (f"{_label(row['r_t'])},{row['variant_a']},{row['sigma_a']},"
             f"{row['tau_a']},{row['mean_outbreak_a']!r},"
             f"{row['variant_b']},{row['sigma_b']},{row['tau_b']},"
             f"{row['mean_outbreak_b']!r},{row['difference']!r}" for row in rows))
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
