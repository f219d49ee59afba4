"""Day-stepped stochastic SIR process over a dynamic contact network.

Each simulated day, every susceptible user collects the day's links whose
host is currently infectious, a removal rate is drawn per link, the link
doses are summed and one Bernoulli draw decides infection. New infections
start transmitting the next day (the one-day latency) and recover once their
assigned infectious period has elapsed. Seed users transmit from day 0.

Results are one int64 array ``counts[run, day, col]`` of shape
(runs, horizon_days, 3), whose columns are NEW_INFECTIONS, NEW_RECOVERIES
and PREVALENCE. New infections are attributed to the day of the causing
exposure, and prevalence counts everyone currently infected including that
day's not-yet-transmitting new cases, so
prevalence(d) = prevalence(d-1) + new_infections(d) - new_recoveries(d).

Runs are stepped in lockstep: a contiguous block of runs moves forward one
day at a time, its state held as (runs, users) arrays. Each day the
(run, host) pairs of transmitting hosts are expanded to the hosts' link
ranges, links whose neighbour is not susceptible in that run are dropped,
and all remaining links of the block go to the dose kernel in one call;
doses are summed per (run, neighbour) with one bincount. The pairs are in
run-major, ascending-link order, so every run sees its links, draws and
dose sums in the order a run stepped alone would.

The stepper reads the network's own columns. Host link ranges come from one
(day, host) offsets array per ``run_simulation`` call, and each block-day
gathers its links' int64 times, which the kernel converts to float64
exactly, one kernel block at a time; no per-network copy of the columns is
kept.

Randomness is organised as named substreams derived from
(rng_seed, run, stream, day), so results are reproducible for any worker
count and block size and unaffected by unrelated parameter changes. A
substream is derived only when a run draws from it, once per day.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernel import batch_link_exposure
from .exposure import (
    DEFAULT_GENERATION_RATE,
    DEFAULT_PROXIMITY_VOLUME,
    DEFAULT_PULMONARY_RATE,
    DEFAULT_SIGMA,
    check_positive,
)
from .network import _ROW_BLOCK, DynamicContactNetwork

SUSCEPTIBLE = 0
INFECTED = 1
RECOVERED = 2

# columns of the counts array
NEW_INFECTIONS = 0
NEW_RECOVERIES = 1
PREVALENCE = 2

_STREAM_INIT = 0
_STREAM_TAU = 1
_STREAM_REMOVAL = 2
_STREAM_INFECTION = 3

TAU_MODES = ("uniform", "mean3")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one Monte-Carlo simulation batch.

    ``r_t`` is the median particle removal time in minutes; per evaluated
    link the removal time is drawn from ``b_range`` with that median and the
    removal rate is its reciprocal. ``tau_mode`` selects how the infectious
    period is drawn from ``tau_range``: 'uniform' over the integer range, or
    'mean3' pinning it to the lower bound.
    """

    seeds: int = 500
    horizon_days: int = 32
    r_t: float = 60.0
    b_range: tuple[float, float] = (7.5, 300.0)
    sigma: float = DEFAULT_SIGMA
    tau_range: tuple[int, int] = (3, 5)
    tau_mode: str = "uniform"
    rng_seed: int = 0
    runs: int = 1

    def __post_init__(self):
        lo, hi = self.b_range
        check_positive("b_range", lo)
        check_positive("b_range", hi)
        if not lo <= hi:
            raise ValueError(f"invalid removal-time bounds b_range={self.b_range!r}")
        if not lo <= self.r_t <= hi:
            raise ValueError(f"median removal time r_t={self.r_t!r} outside "
                             f"b_range={self.b_range!r}")
        if self.seeds < 0:
            raise ValueError("seeds must be non-negative")
        if self.horizon_days < 1:
            raise ValueError("horizon_days must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        check_positive("sigma", self.sigma)
        tlo, thi = self.tau_range
        if tlo < 1 or thi < tlo:
            raise ValueError(f"invalid infectious-period range {self.tau_range!r}")
        if self.tau_mode not in TAU_MODES:
            raise ValueError(f"tau_mode must be one of {TAU_MODES}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass
class PopulationState:
    """Array-backed state of every user: status, infection day, period.

    A block of runs stepped together holds one row per run.
    """

    status: np.ndarray  # int8: SUSCEPTIBLE/INFECTED/RECOVERED
    day_infected: np.ndarray  # int64; -1 while never infected
    tau: np.ndarray  # int64; 0 while unset

    @classmethod
    def initial(cls, n_users: int) -> "PopulationState":
        return cls(
            status=np.zeros(n_users, dtype=np.int8),
            day_infected=np.full(n_users, -1, dtype=np.int64),
            tau=np.zeros(n_users, dtype=np.int64),
        )


def _generator(key: tuple[int, int, int, int]) -> np.random.Generator:
    # what np.random.default_rng does with a SeedSequence, without its checks
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def removal_rate_from_time(b: float) -> float:
    """Removal rate (per minute) for a removal time of b minutes."""
    if not b > 0:
        raise ValueError(f"removal time must be positive, got {b!r}")
    return 1.0 / b


def _sample_removal_times(
    r_t: float, b_range: tuple[float, float], rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw removal times with median r_t: a fair coin picks the half-range,
    then a uniform draw within it."""
    lo, hi = b_range
    side = rng.random(n) < 0.5
    u = rng.random(n)
    return np.where(side, lo + u * (r_t - lo), r_t + u * (hi - r_t))


def sample_removal_rate(
    r_t: float, b_range: tuple[float, float], rng: np.random.Generator
) -> float:
    """Draw one removal rate (per minute) whose underlying time has median r_t."""
    lo, hi = b_range
    if not lo <= r_t <= hi:
        raise ValueError(f"median removal time {r_t} outside bounds {b_range}")
    return removal_rate_from_time(float(_sample_removal_times(r_t, b_range, rng, 1)[0]))


def _host_offsets(net: DynamicContactNetwork) -> np.ndarray:
    """Link offsets by (day, host): with n users, host h's links on day d are
    [offsets[d * n + h], offsets[d * n + h + 1]), as links are in canonical
    (day, host, ...) order."""
    key = net.day * net.n_users
    key += net.host
    return np.searchsorted(key, np.arange(net.horizon * net.n_users + 1))


# Upper bound on the (run, link) pairs of one lockstep day: a block holds as
# many runs as fit when every run gathers all links of the network's busiest
# day. At desk scale (about 190k links on the busiest day) that is 5 runs,
# whose pair arrays stay a few MB; a small network steps hundreds of runs
# together.
_BLOCK_PAIRS = 1 << 20


def _block_runs(net: DynamicContactNetwork) -> int:
    """Runs stepped together in one block."""
    busiest = int(net.day_link_counts().max(initial=0))
    return max(1, _BLOCK_PAIRS // max(busiest, 1))


def _draw_tau(rng: np.random.Generator | None, n: int,
              cfg: SimulationConfig) -> np.ndarray:
    # 'mean3' pins the period and draws nothing from rng
    lo, hi = cfg.tau_range
    if cfg.tau_mode == "uniform":
        return rng.integers(lo, hi + 1, size=n, dtype=np.int64)
    return np.full(n, lo, dtype=np.int64)


def _step_block(
    net: DynamicContactNetwork,
    offsets: np.ndarray,
    state: PopulationState,
    day: int,
    cfg: SimulationConfig,
    runs: range,
    row: np.ndarray,
) -> None:
    """Advance the block of runs ``runs`` by one day in place.

    ``state`` holds one row per run and ``offsets`` is _host_offsets(net);
    the day's counts are written into ``row``, of shape (runs, 3). Each
    (run, stream, day) substream is derived at most once, when drawn from.
    """
    status, day_infected, tau = state.status, state.day_infected, state.tau
    n_runs, n_users = status.shape

    def per_run_draws(counts: np.ndarray, stream: int, draw) -> np.ndarray:
        # draw(rng, k) concatenated over the runs with k > 0 draws, in run
        # order, rng being the run's (rng_seed, run, stream, day) substream
        return np.concatenate([draw(_generator((cfg.rng_seed, run, stream, day)), k)
                               for run, k in zip(runs, counts.tolist()) if k])

    # recoveries first: an individual whose period elapsed today no longer
    # transmits today
    due = (status == INFECTED) & (day - day_infected >= tau)
    row[:, NEW_RECOVERIES] = np.count_nonzero(due, axis=1)
    row[:, NEW_INFECTIONS] = 0
    status[due] = RECOVERED

    if day < net.horizon:
        # (run, host) pairs of transmitting hosts, run-major, each expanded
        # to the host's link range: (run, link) pairs in ascending link order
        # within each run, the order a per-run step would visit them in
        run, host = np.nonzero((status == INFECTED) & (day_infected <= day))
        at = day * n_users + host
        first = offsets[at]
        count = offsets[at + 1] - first
        ends = np.cumsum(count)
        total = int(ends[-1]) if ends.size else 0
        link = np.arange(total) + np.repeat(first - (ends - count), count)
        key = np.repeat(run * n_users, count) + net.nbr[link]
        susceptible = status.ravel()[key] == SUSCEPTIBLE
        link, key = link[susceptible], key[susceptible]
        if link.size:
            per_run = np.bincount(key // n_users, minlength=n_runs)
            b = per_run_draws(per_run, _STREAM_REMOVAL, lambda rng, k:
                              _sample_removal_times(cfg.r_t, cfg.b_range, rng, k))
            # the kernel converts the gathered int64 minutes, exact in
            # float64, block by block: no float copy of a column is made
            doses = batch_link_exposure(
                net.t_s[link], net.t_l[link], net.t_s_n[link], net.t_l_n[link],
                1.0 / b, DEFAULT_GENERATION_RATE, DEFAULT_PROXIMITY_VOLUME,
                DEFAULT_PULMONARY_RATE,
            )
            totals = np.bincount(key, weights=doses, minlength=n_runs * n_users)
            exposed = np.flatnonzero(totals > 0.0)
            if exposed.size:
                p_inf = -np.expm1(-cfg.sigma * totals[exposed])
                u = per_run_draws(np.bincount(exposed // n_users, minlength=n_runs),
                                  _STREAM_INFECTION, lambda rng, k: rng.random(k))
                newly = exposed[u < p_inf]
                if newly.size:
                    n_new = np.bincount(newly // n_users, minlength=n_runs)
                    row[:, NEW_INFECTIONS] = n_new
                    np.put(status, newly, INFECTED)
                    np.put(day_infected, newly, day + 1)  # latent until tomorrow
                    if cfg.tau_mode == "uniform":
                        np.put(tau, newly, per_run_draws(
                            n_new, _STREAM_TAU, lambda rng, k: _draw_tau(rng, k, cfg)))
                    else:
                        np.put(tau, newly, _draw_tau(None, newly.size, cfg))

    row[:, PREVALENCE] = np.count_nonzero(status == INFECTED, axis=1)


def step_day(
    net: DynamicContactNetwork,
    states: PopulationState,
    day: int,
    cfg: SimulationConfig,
    run: int,
) -> tuple[PopulationState, np.ndarray]:
    """Advance run ``run`` by one day; returns the new state and the day's
    counts, a length-3 row of the counts array."""
    if day < 0 or day >= cfg.horizon_days:
        raise ValueError(f"day {day} outside [0, {cfg.horizon_days})")
    block = PopulationState(states.status[None].copy(),
                            states.day_infected[None].copy(), states.tau[None].copy())
    row = np.empty((1, 3), dtype=np.int64)
    _step_block(net, _host_offsets(net), block, day, cfg, range(run, run + 1), row)
    return PopulationState(block.status[0], block.day_infected[0], block.tau[0]), row[0]


def seeded_state(
    n_users: int, cfg: SimulationConfig, run: int
) -> PopulationState:
    """Initial state with seed users infectious from day 0."""
    if cfg.seeds > n_users:
        raise ValueError(f"seeds={cfg.seeds} exceeds population {n_users}")
    state = PopulationState.initial(n_users)
    if cfg.seeds:
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.rng_seed, run, _STREAM_INIT))
        )
        chosen = rng.choice(n_users, size=cfg.seeds, replace=False)
        state.status[chosen] = INFECTED
        state.day_infected[chosen] = 0
        state.tau[chosen] = _draw_tau(rng, cfg.seeds, cfg)
    return state


def _simulate_block(
    net: DynamicContactNetwork, offsets: np.ndarray, cfg: SimulationConfig,
    block: range
) -> np.ndarray:
    """Counts of the runs ``block``, stepped in lockstep."""
    seeded = [seeded_state(net.n_users, cfg, run) for run in block]
    state = PopulationState(*(np.stack([getattr(s, field) for s in seeded])
                              for field in ("status", "day_infected", "tau")))
    counts = np.empty((len(block), cfg.horizon_days, 3), dtype=np.int64)
    for day in range(cfg.horizon_days):
        _step_block(net, offsets, state, day, cfg, block, counts[:, day])
    return counts


_POOL_STATE: dict = {}


def _pool_init(net, offsets, cfg):
    _POOL_STATE["args"] = (net, offsets, cfg)


def _pool_block(block: range) -> np.ndarray:
    return _simulate_block(*_POOL_STATE["args"], block)


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else SPDT_WORKERS, else 1."""
    if workers is None:
        raw = os.environ.get("SPDT_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"SPDT_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


def run_simulation(
    net: DynamicContactNetwork,
    cfg: SimulationConfig,
    workers: int | None = None,
) -> np.ndarray:
    """Run the configured number of independent runs; returns their counts,
    of shape (runs, horizon_days, 3).

    Runs are stepped in contiguous lockstep blocks; with several workers the
    blocks are spread over processes. Outputs are fully determined by
    (network, config); the worker count only changes scheduling.
    """
    if cfg.seeds > net.n_users:
        raise ValueError(f"seeds={cfg.seeds} exceeds population {net.n_users}")
    workers = resolve_workers(workers)
    offsets = _host_offsets(net)
    size = _block_runs(net)
    blocks = [range(start, min(start + size, cfg.runs))
              for start in range(0, cfg.runs, size)]
    if workers == 1 or len(blocks) == 1:
        parts = [_simulate_block(net, offsets, cfg, block) for block in blocks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(blocks)),
            initializer=_pool_init,
            initargs=(net, offsets, cfg),
        ) as pool:
            parts = list(pool.map(_pool_block, blocks))
    return np.concatenate(parts)


def write_daily_csv(counts: np.ndarray, path) -> None:
    """Write a counts array as `run,day,I_n,I_r,I_p` rows."""
    days = counts.shape[1]
    rows = counts.reshape(-1, 3)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("run,day,I_n,I_r,I_p\n")
        for i in range(0, rows.shape[0], _ROW_BLOCK):
            run, day = np.divmod(np.arange(i, min(i + _ROW_BLOCK, rows.shape[0])), days)
            fh.write("".join([
                f"{r},{d},{i_n},{i_r},{i_p}\n" for r, d, (i_n, i_r, i_p)
                in zip(run.tolist(), day.tolist(), rows[i:i + _ROW_BLOCK].tolist())
            ]))
