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

The stepper reads the network's base links through ``host_links``. Once
per ``run_simulation`` call it computes every base link's geometry, the five
whole-minute lengths a dose depends on, as int32 (20 B per base link, range
checked), and each block-day gathers its links' rows of it. A densified
network's repeats are their base links moved by whole days, so they share
the base link's geometry; no per-network copy of the columns, or of the
repeats, is kept. The kernel converts the lengths to float64 exactly and
evaluates each dose term only on the links that have it.

Randomness is organised as named substreams keyed by
(rng_seed, run, stream, day), so results are reproducible for any worker
count and block size and unaffected by unrelated parameter changes. A block
mixes all of its keys once, with a vectorised copy of numpy's SeedSequence
hash, into the words SeedSequence(key) would hand PCG64; a generator is built
from those words only for a run that draws, at most once per (run, stream,
day). Removal times are drawn as one (coin, uniform) pair of rows per run
and turned into times once per block-day.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

# the stepper calls link_doses; perfbench/layers.py still patches
# batch_link_exposure by name in this module
from ._kernel import batch_link_exposure, link_doses, link_geometry  # noqa: F401
from .exposure import (
    DEFAULT_GENERATION_RATE,
    DEFAULT_PROXIMITY_VOLUME,
    DEFAULT_PULMONARY_RATE,
    DEFAULT_SIGMA,
    check_positive,
    infection_probability,
)
from .network import _ROW_BLOCK, DynamicContactNetwork, _ranges

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
# the per-day streams, in the order of a block's stream axis
_DAY_STREAMS = (_STREAM_TAU, _STREAM_REMOVAL, _STREAM_INFECTION)


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one Monte-Carlo simulation batch.

    ``r_t`` is the median particle removal time in minutes; per evaluated
    link the removal time is drawn from ``b_range`` with that median and the
    removal rate is its reciprocal. The infectious period in days is drawn
    uniformly over the integer range ``tau_range``; a one-value range such as
    (3, 3) pins it, and then nothing is drawn.
    """

    seeds: int = 500
    horizon_days: int = 32
    r_t: float = 60.0
    b_range: tuple[float, float] = (7.5, 300.0)
    sigma: float = DEFAULT_SIGMA
    tau_range: tuple[int, int] = (3, 5)
    rng_seed: int = 0
    runs: int = 1

    def __post_init__(self):
        if len(self.b_range) != 2:
            raise ValueError(f"invalid removal-time bounds b_range={self.b_range!r}")
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
    def initial(cls, shape: int | tuple[int, int]) -> "PopulationState":
        """Everyone susceptible: ``shape`` is n_users, or (runs, n_users)."""
        return cls(
            status=np.zeros(shape, dtype=np.int8),
            day_infected=np.full(shape, -1, dtype=np.int64),
            tau=np.zeros(shape, dtype=np.int64),
        )


def _stream_seeds(rng_seed: int, runs, days) -> np.ndarray:
    """_rng.mix of every (rng_seed, run, stream, day) key, of shape
    (runs, days, 3, 4), the stream axis in _DAY_STREAMS order."""
    # _rng loads numpy.random, which only a simulation needs
    from ._rng import mix
    return mix(rng_seed, np.asarray(runs)[:, None, None],
               np.asarray(_DAY_STREAMS), np.asarray(days)[:, None])


def _removal_times(
    r_t: float, b_range: tuple[float, float], draws: np.ndarray
) -> np.ndarray:
    """Removal times with median r_t from draws of shape (2, n): a fair coin
    (row 0 below 0.5) picks the half-range, the uniform in row 1 a point
    within it."""
    lo, hi = b_range
    coin, u = draws
    return np.where(coin < 0.5, lo + u * (r_t - lo), r_t + u * (hi - r_t))


def sample_removal_rate(
    r_t: float, b_range: tuple[float, float], rng: np.random.Generator
) -> float:
    """Draw one removal rate (per minute) whose underlying time has median r_t."""
    lo, hi = b_range
    if not lo <= r_t <= hi:
        raise ValueError(f"median removal time {r_t} outside bounds {b_range}")
    return 1.0 / float(_removal_times(r_t, b_range, rng.random((2, 1)))[0])


# Upper bound on the (run, link) pairs of one lockstep day: a block holds as
# many runs as fit when every run gathers all links of the network's busiest
# day. At desk scale (about 190k links on the busiest day) that is 5 runs,
# whose pair arrays stay a few MB; a small network steps hundreds of runs
# together.
_BLOCK_PAIRS = 1 << 20
# Upper bound on the (run, day, stream) keys a block mixes ahead: 8 MB of
# seed words, which binds only on networks with few links a day.
_BLOCK_KEYS = 1 << 18


def _block_runs(net: DynamicContactNetwork) -> int:
    """Runs stepped together in one block."""
    busiest = int(net.day_link_counts().max(initial=0))
    return max(1, _BLOCK_PAIRS // max(busiest, 1))


# Base links whose geometry is built at once: the int64 temporaries of a
# block take about 0.3 MB, next to the 20 B per link the geometry keeps.
_GEOMETRY_BLOCK = 1 << 12


def _base_geometry(net: DynamicContactNetwork) -> np.ndarray:
    """The kernel's link geometry of every base link, one int32 row of five
    lengths per link, built a block of links at a time.

    A link's geometry is at most its span, max(t_l, t_l_n) - t_s, and its
    direct length, lead and indirect length add up to it. Below 2**63 the
    span leaves the int64 geometry exact; at or above it, one of those three
    lengths exceeds int32 anyway.
    """
    _, _, _, *times = net._base
    n = times[0].size
    geometry = np.empty((n, 5), dtype=np.int32)
    top = np.iinfo(np.int32).max
    for a in range(0, n, _GEOMETRY_BLOCK):
        t_s, t_l, t_s_n, t_l_n = (t[a:a + _GEOMETRY_BLOCK] for t in times)
        # t_s < max(t_l, t_l_n) in a valid network: the uint64 difference is exact
        bad = np.maximum(t_l, t_l_n).view(np.uint64) - t_s.view(np.uint64) >= 1 << 63
        for k, col in enumerate(link_geometry(t_s, t_l, t_s_n, t_l_n)):
            bad |= col > top
            geometry[a:a + _GEOMETRY_BLOCK, k] = col
        if bad.any():
            raise ValueError(f"base link {a + int(bad.argmax())}: link geometry "
                             f"exceeds {top} minutes, the kernel's int32 range")
    geometry.setflags(write=False)
    return geometry


def _step_block(
    net: DynamicContactNetwork,
    geometry: np.ndarray,
    state: PopulationState,
    day: int,
    cfg: SimulationConfig,
    seeds: np.ndarray,
    row: np.ndarray,
) -> None:
    """Advance a block of runs by one day in place.

    ``geometry`` is the network's _base_geometry; ``state`` holds one row
    per run; ``seeds``, of shape (runs, 3, 4), holds the day's _stream_seeds
    of each run, and the day's counts are written into ``row``, of shape
    (runs, 3).
    A run's generator for a stream is built at most once, when drawn from.
    """
    from ._rng import generator
    status, day_infected, tau = state.status, state.day_infected, state.tau
    n_runs, n_users = status.shape

    def per_run_draws(counts: np.ndarray, stream: int, draw) -> np.ndarray:
        # draw(rng, k) concatenated along its last axis over the runs with
        # k > 0 draws, in run order, rng being the run's substream
        words = seeds[:, _DAY_STREAMS.index(stream)]
        return np.concatenate([draw(generator(words[i]), k)
                               for i, k in enumerate(counts.tolist()) if k], axis=-1)

    # recoveries first: an individual whose period elapsed today no longer
    # transmits today
    due = (status == INFECTED) & (day - day_infected >= tau)
    row[:, NEW_RECOVERIES] = np.count_nonzero(due, axis=1)
    row[:, NEW_INFECTIONS] = 0
    status[due] = RECOVERED

    if day < net.horizon:
        # (run, host) pairs of transmitting hosts, run-major, each expanded
        # to the host's base rows: (run, link) pairs in (host, in-cell) order
        # within each run, the order a per-run step would visit them in
        run, host = np.nonzero((status == INFECTED) & (day_infected <= day))
        first, count = (col[host] for col in net.host_links(day))
        link = _ranges(first, count)
        nbr = net._base[2]
        key = np.repeat(run * n_users, count) + nbr[link]
        susceptible = status.ravel()[key] == SUSCEPTIBLE
        link, key = link[susceptible], key[susceptible]
        if link.size:
            per_run = np.bincount(key // n_users, minlength=n_runs)
            b = _removal_times(cfg.r_t, cfg.b_range, per_run_draws(
                per_run, _STREAM_REMOVAL, lambda rng, k: rng.random((2, k))))
            # one take of whole rows: far quicker than fancy indexing of rows
            doses = link_doses(
                *np.take(geometry, link, axis=0).T, 1.0 / b, DEFAULT_GENERATION_RATE,
                DEFAULT_PROXIMITY_VOLUME, DEFAULT_PULMONARY_RATE)
            totals = np.bincount(key, weights=doses, minlength=n_runs * n_users)
            exposed = np.flatnonzero(totals > 0.0)
            if exposed.size:
                p_inf = infection_probability(totals[exposed], cfg.sigma)
                u = per_run_draws(np.bincount(exposed // n_users, minlength=n_runs),
                                  _STREAM_INFECTION, lambda rng, k: rng.random(k))
                newly = exposed[u < p_inf]
                if newly.size:
                    n_new = np.bincount(newly // n_users, minlength=n_runs)
                    row[:, NEW_INFECTIONS] = n_new
                    np.put(status, newly, INFECTED)
                    np.put(day_infected, newly, day + 1)  # latent until tomorrow
                    # a pinned period builds no tau generator
                    lo, hi = cfg.tau_range
                    np.put(tau, newly, lo if lo == hi else per_run_draws(
                        n_new, _STREAM_TAU,
                        lambda rng, k: rng.integers(lo, hi + 1, size=k, dtype=np.int64)))

    row[:, PREVALENCE] = np.count_nonzero(status == INFECTED, axis=1)


def step_day(
    net: DynamicContactNetwork,
    states: PopulationState,
    day: int,
    cfg: SimulationConfig,
    run: int,
) -> tuple[PopulationState, np.ndarray]:
    """Advance run ``run`` by one day; returns the new state and the day's
    counts, a length-3 row of the counts array. The base links' geometry is
    built for this one call."""
    if day < 0 or day >= cfg.horizon_days:
        raise ValueError(f"day {day} outside [0, {cfg.horizon_days})")
    block = PopulationState(states.status[None].copy(),
                            states.day_infected[None].copy(), states.tau[None].copy())
    row = np.empty((1, 3), dtype=np.int64)
    _step_block(net, _base_geometry(net), block, day, cfg,
                _stream_seeds(cfg.rng_seed, [run], [day])[:, 0], row)
    return PopulationState(block.status[0], block.day_infected[0], block.tau[0]), row[0]


def seeded_state(
    n_users: int, cfg: SimulationConfig, run: int
) -> PopulationState:
    """Initial state with seed users infectious from day 0."""
    block = _seeded_block(n_users, cfg, range(run, run + 1))
    return PopulationState(block.status[0], block.day_infected[0], block.tau[0])


def _seeded_block(n_users: int, cfg: SimulationConfig, runs: range) -> PopulationState:
    """Initial state of the runs ``runs``, one row each; a run that has seed
    users draws them from its (rng_seed, run, _STREAM_INIT) substream."""
    if cfg.seeds > n_users:
        raise ValueError(f"seeds={cfg.seeds} exceeds population {n_users}")
    state = PopulationState.initial((len(runs), n_users))
    if cfg.seeds:
        from ._rng import generator, mix
        lo, hi = cfg.tau_range
        for i, words in enumerate(mix(cfg.rng_seed, np.asarray(runs), _STREAM_INIT)):
            rng = generator(words)
            chosen = rng.choice(n_users, size=cfg.seeds, replace=False)
            state.status[i, chosen] = INFECTED
            state.day_infected[i, chosen] = 0
            state.tau[i, chosen] = lo if lo == hi else rng.integers(
                lo, hi + 1, size=cfg.seeds, dtype=np.int64)
    return state


def _simulate_block(
    net: DynamicContactNetwork, geometry: np.ndarray, cfg: SimulationConfig,
    block: range,
) -> np.ndarray:
    """Counts of the runs ``block``, stepped in lockstep; ``geometry`` is
    the network's _base_geometry."""
    state = _seeded_block(net.n_users, cfg, block)
    seeds = _stream_seeds(cfg.rng_seed, block, range(cfg.horizon_days))
    counts = np.empty((len(block), cfg.horizon_days, 3), dtype=np.int64)
    for day in range(cfg.horizon_days):
        _step_block(net, geometry, state, day, cfg, seeds[:, day], counts[:, day])
    return counts


_POOL_STATE: dict = {}


def _pool_init(net, geometry, cfg):
    _POOL_STATE["args"] = (net, geometry, cfg)


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
            raise ValueError(f"SPDT_WORKERS must be at least 1, got {raw!r}")
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
    geometry = _base_geometry(net)
    size = min(_block_runs(net), max(1, _BLOCK_KEYS // (3 * cfg.horizon_days)))
    blocks = [range(start, min(start + size, cfg.runs))
              for start in range(0, cfg.runs, size)]
    if workers == 1 or len(blocks) == 1:
        parts = [_simulate_block(net, geometry, cfg, block) for block in blocks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(blocks)),
            initializer=_pool_init,
            initargs=(net, geometry, cfg),
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
