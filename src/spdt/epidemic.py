"""Day-stepped stochastic SIR process over a dynamic contact network.

Each simulated day, every susceptible user collects the day's links whose
host is currently infectious, a removal rate is drawn per link, the link
doses are summed and one Bernoulli draw decides infection. New infections
start transmitting the next day (the one-day latency) and recover once their
assigned infectious period has elapsed. Seed users transmit from day 0.

Daily counts follow the convention that new infections are attributed to the
day of the causing exposure, and prevalence counts everyone currently
infected including that day's not-yet-transmitting new cases, so
prevalence(d) = prevalence(d-1) + new_infections(d) - new_recoveries(d).

Runs are stepped in lockstep: a contiguous block of runs moves forward one
day at a time, its state held as (runs, users) arrays. Each day the
(run, host) pairs of transmitting hosts are expanded to the hosts' link
ranges, links whose neighbour is not susceptible in that run are dropped,
and all remaining links of the block go to the dose kernel in one call;
doses are summed per (run, neighbour) with one bincount. The pairs are in
run-major, ascending-link order, so every run sees its links, draws and
dose sums in the order a run stepped alone would.

Randomness is organised as named substreams derived from
(rng_seed, run, stream, day), so results are reproducible for any worker
count and block size and unaffected by unrelated parameter changes. A
substream is derived only when a run first draws from it.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from ._kernel import batch_link_exposure
from .exposure import (
    DEFAULT_GENERATION_RATE,
    DEFAULT_PROXIMITY_VOLUME,
    DEFAULT_PULMONARY_RATE,
    DEFAULT_SIGMA,
)
from .network import DynamicContactNetwork

SUSCEPTIBLE = 0
INFECTED = 1
RECOVERED = 2

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
    g: float = DEFAULT_GENERATION_RATE
    V: float = DEFAULT_PROXIMITY_VOLUME
    p: float = DEFAULT_PULMONARY_RATE

    def __post_init__(self):
        lo, hi = self.b_range
        if not 0 < lo <= hi:
            raise ValueError(f"invalid removal-time bounds {self.b_range!r}")
        if not lo <= self.r_t <= hi:
            raise ValueError(
                f"median removal time {self.r_t} outside bounds {self.b_range}"
            )
        if self.seeds < 0:
            raise ValueError("seeds must be non-negative")
        if self.horizon_days < 1:
            raise ValueError("horizon_days must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        tlo, thi = self.tau_range
        if tlo < 1 or thi < tlo:
            raise ValueError(f"invalid infectious-period range {self.tau_range!r}")
        if self.tau_mode not in TAU_MODES:
            raise ValueError(f"tau_mode must be one of {TAU_MODES}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        for name in ("g", "V", "p"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


class IndividualState(NamedTuple):
    """Status snapshot of one user (status, infection day, infectious period)."""

    status: int
    day_infected: int | None
    tau: int | None


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

    def copy(self) -> "PopulationState":
        return PopulationState(
            self.status.copy(), self.day_infected.copy(), self.tau.copy()
        )

    def individual(self, i: int) -> IndividualState:
        infected_ever = self.day_infected[i] >= 0
        return IndividualState(
            int(self.status[i]),
            int(self.day_infected[i]) if infected_ever else None,
            int(self.tau[i]) if infected_ever else None,
        )

    def counts(self) -> tuple[int, int, int]:
        return (
            int(np.count_nonzero(self.status == SUSCEPTIBLE)),
            int(np.count_nonzero(self.status == INFECTED)),
            int(np.count_nonzero(self.status == RECOVERED)),
        )


@dataclass(frozen=True)
class DailyStats:
    """One day's counts: new infections, new recoveries, prevalence."""

    day: int
    new_infections: int
    new_recoveries: int
    prevalence: int


def _generator(key: tuple[int, int, int, int]) -> np.random.Generator:
    # what np.random.default_rng does with a SeedSequence, without its checks
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


class DayStreams:
    """Named random substreams used within one simulated day of one run.

    Each stream is derived from (rng_seed, run, stream, day) on first access,
    so a run that draws nothing on a day costs no generator.
    """

    __slots__ = ("_key", "_tau", "_removal", "_infection")

    def __init__(self, rng_seed: int, run: int, day: int):
        self._key = (rng_seed, run, day)
        self._tau = self._removal = self._infection = None

    @classmethod
    def derive(cls, rng_seed: int, run: int, day: int) -> "DayStreams":
        return cls(rng_seed, run, day)

    def _gen(self, stream: int) -> np.random.Generator:
        rng_seed, run, day = self._key
        return _generator((rng_seed, run, stream, day))

    @property
    def tau(self) -> np.random.Generator:
        if self._tau is None:
            self._tau = self._gen(_STREAM_TAU)
        return self._tau

    @property
    def removal(self) -> np.random.Generator:
        if self._removal is None:
            self._removal = self._gen(_STREAM_REMOVAL)
        return self._removal

    @property
    def infection(self) -> np.random.Generator:
        if self._infection is None:
            self._infection = self._gen(_STREAM_INFECTION)
        return self._infection


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


class _DayLinks(NamedTuple):
    host: np.ndarray
    nbr: np.ndarray
    t_s: np.ndarray
    t_l: np.ndarray
    t_s_n: np.ndarray
    t_l_n: np.ndarray
    # host h's links are [offsets[h], offsets[h + 1]): a day's links are
    # sorted by host
    offsets: np.ndarray


_EMPTY_DAY = _DayLinks(*(np.empty(0, dtype=np.int64) for _ in range(2)),
                       *(np.empty(0, dtype=np.float64) for _ in range(4)),
                       np.empty(0, dtype=np.int64))

_VIEW_CACHE: "weakref.WeakKeyDictionary[DynamicContactNetwork, list[_DayLinks]]"
_VIEW_CACHE = weakref.WeakKeyDictionary()


def _day_views(net: DynamicContactNetwork) -> list[_DayLinks]:
    """Per-day link arrays with float64 timestamps and host offsets, cached
    per network."""
    views = _VIEW_CACHE.get(net)
    if views is None:
        views = []
        hosts = np.arange(net.n_users + 1)
        for day in range(net.horizon):
            sl = net.day_slice(day)
            if sl.stop == sl.start:
                views.append(_EMPTY_DAY)
            else:
                views.append(_DayLinks(
                    net.host[sl], net.nbr[sl],
                    net.t_s[sl].astype(np.float64), net.t_l[sl].astype(np.float64),
                    net.t_s_n[sl].astype(np.float64), net.t_l_n[sl].astype(np.float64),
                    np.searchsorted(net.host[sl], hosts),
                ))
        _VIEW_CACHE[net] = views
    return views


# Upper bound on the (run, link) pairs of one lockstep day: a block holds as
# many runs as fit when every run gathers all links of the network's busiest
# day. At desk scale (about 190k links on the busiest day) that is 5 runs,
# whose pair arrays stay a few MB; a small network steps hundreds of runs
# together.
_BLOCK_PAIRS = 1 << 20


def _block_runs(views: list[_DayLinks]) -> int:
    """Runs stepped together in one block."""
    busiest = max((links.host.size for links in views), default=0)
    return max(1, _BLOCK_PAIRS // max(busiest, 1))


def _draw_tau(rng: np.random.Generator | None, n: int,
              cfg: SimulationConfig) -> np.ndarray:
    # 'mean3' pins the period and draws nothing from rng
    lo, hi = cfg.tau_range
    if cfg.tau_mode == "uniform":
        return rng.integers(lo, hi + 1, size=n, dtype=np.int64)
    return np.full(n, lo, dtype=np.int64)


def _per_run_draws(counts: np.ndarray, draw) -> np.ndarray:
    """Concatenate draw(run, k) over the runs with k > 0 draws, in run order."""
    return np.concatenate([draw(run, k) for run, k in enumerate(counts.tolist())
                           if k])


def _step_block(
    views: list[_DayLinks],
    state: PopulationState,
    day: int,
    cfg: SimulationConfig,
    streams: list[DayStreams],
) -> list[DailyStats]:
    """Advance a block of runs by one day in place; one DailyStats per run.

    ``state`` holds one row per run and ``streams`` one DayStreams per row.
    """
    status, day_infected, tau = state.status, state.day_infected, state.tau
    runs, n_users = status.shape

    # recoveries first: an individual whose period elapsed today no longer
    # transmits today
    due = (status == INFECTED) & (day - day_infected >= tau)
    n_recovered = np.count_nonzero(due, axis=1)
    status[due] = RECOVERED

    n_new = np.zeros(runs, dtype=np.int64)
    links = views[day] if day < len(views) else _EMPTY_DAY
    if links.host.size:
        # (run, host) pairs of transmitting hosts, run-major, each expanded
        # to the host's link range: (run, link) pairs in ascending link order
        # within each run, the order a per-run step would visit them in
        run, host = np.nonzero((status == INFECTED) & (day_infected <= day))
        first = links.offsets[host]
        count = links.offsets[host + 1] - first
        ends = np.cumsum(count)
        total = int(ends[-1]) if ends.size else 0
        link = np.arange(total) + np.repeat(first - (ends - count), count)
        key = np.repeat(run * n_users, count) + links.nbr[link]
        susceptible = status.ravel()[key] == SUSCEPTIBLE
        link, key = link[susceptible], key[susceptible]
        if link.size:
            per_run = np.bincount(key // n_users, minlength=runs)
            b = _per_run_draws(per_run, lambda r, k: _sample_removal_times(
                cfg.r_t, cfg.b_range, streams[r].removal, k))
            doses = batch_link_exposure(
                links.t_s[link], links.t_l[link],
                links.t_s_n[link], links.t_l_n[link],
                1.0 / b, cfg.g, cfg.V, cfg.p,
            )
            totals = np.bincount(key, weights=doses, minlength=runs * n_users)
            exposed = np.flatnonzero(totals > 0.0)
            if exposed.size:
                p_inf = -np.expm1(-cfg.sigma * totals[exposed])
                u = _per_run_draws(np.bincount(exposed // n_users, minlength=runs),
                                   lambda r, k: streams[r].infection.random(k))
                newly = exposed[u < p_inf]
                if newly.size:
                    n_new = np.bincount(newly // n_users, minlength=runs)
                    np.put(status, newly, INFECTED)
                    np.put(day_infected, newly, day + 1)  # latent until tomorrow
                    if cfg.tau_mode == "uniform":
                        np.put(tau, newly, _per_run_draws(
                            n_new, lambda r, k: _draw_tau(streams[r].tau, k, cfg)))
                    else:
                        np.put(tau, newly, _draw_tau(None, newly.size, cfg))

    prevalence = np.count_nonzero(status == INFECTED, axis=1)
    return [DailyStats(day, i_n, i_r, i_p) for i_n, i_r, i_p in
            zip(n_new.tolist(), n_recovered.tolist(), prevalence.tolist())]


def step_day(
    net: DynamicContactNetwork,
    states: PopulationState,
    day: int,
    cfg: SimulationConfig,
    rng: DayStreams,
) -> tuple[PopulationState, DailyStats]:
    """Advance one day; returns the new state and the day's counts."""
    if day < 0 or day >= cfg.horizon_days:
        raise ValueError(f"day {day} outside [0, {cfg.horizon_days})")
    block = PopulationState(states.status[None].copy(),
                            states.day_infected[None].copy(), states.tau[None].copy())
    (stats,) = _step_block(_day_views(net), block, day, cfg, [rng])
    return PopulationState(block.status[0], block.day_infected[0], block.tau[0]), stats


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
    views: list[_DayLinks], n_users: int, cfg: SimulationConfig, block: range
) -> list[list[DailyStats]]:
    """Runs ``block`` stepped in lockstep; one stats list per run."""
    seeded = [seeded_state(n_users, cfg, run) for run in block]
    state = PopulationState(*(np.stack([getattr(s, field) for s in seeded])
                              for field in ("status", "day_infected", "tau")))
    out: list[list[DailyStats]] = [[] for _ in block]
    for day in range(cfg.horizon_days):
        streams = [DayStreams.derive(cfg.rng_seed, run, day) for run in block]
        for run_stats, stats in zip(out, _step_block(views, state, day, cfg, streams)):
            run_stats.append(stats)
    return out


_POOL_STATE: dict = {}


def _pool_init(views, n_users, cfg):
    _POOL_STATE["views"] = views
    _POOL_STATE["n_users"] = n_users
    _POOL_STATE["cfg"] = cfg


def _pool_block(block: range) -> list[list[DailyStats]]:
    return _simulate_block(
        _POOL_STATE["views"], _POOL_STATE["n_users"], _POOL_STATE["cfg"], block
    )


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else SPDT_WORKERS, else 1."""
    if workers is None:
        workers = int(os.environ.get("SPDT_WORKERS", "1"))
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


def run_simulation(
    net: DynamicContactNetwork,
    cfg: SimulationConfig,
    workers: int | None = None,
) -> list[list[DailyStats]]:
    """Run the configured number of independent runs; one stats list per run.

    Runs are stepped in contiguous lockstep blocks; with several workers the
    blocks are spread over processes. Outputs are fully determined by
    (network, config); the worker count only changes scheduling.
    """
    if cfg.seeds > net.n_users:
        raise ValueError(f"seeds={cfg.seeds} exceeds population {net.n_users}")
    workers = resolve_workers(workers)
    views = _day_views(net)
    size = _block_runs(views)
    blocks = [range(start, min(start + size, cfg.runs))
              for start in range(0, cfg.runs, size)]
    if workers == 1 or len(blocks) == 1:
        parts = [_simulate_block(views, net.n_users, cfg, block) for block in blocks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(blocks)),
            initializer=_pool_init,
            initargs=(views, net.n_users, cfg),
        ) as pool:
            parts = list(pool.map(_pool_block, blocks))
    return [run_stats for part in parts for run_stats in part]


def write_daily_csv(runs_stats: Iterable[list[DailyStats]], path) -> None:
    """Write per-run daily counts as `run,day,I_n,I_r,I_p` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("run,day,I_n,I_r,I_p\n")
        for run, stats in enumerate(runs_stats):
            for s in stats:
                fh.write(f"{run},{s.day},{s.new_infections},"
                         f"{s.new_recoveries},{s.prevalence}\n")
