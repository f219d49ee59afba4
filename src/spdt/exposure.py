"""Airborne exposure model: particle concentration, inhaled dose, infection risk.

An infected host deposits infectious particles at a constant rate while
present at a location. The ambient concentration rises toward the steady
state g/(rV) during the stay and decays exponentially once the host leaves.
A neighbour inhales particles while present in the same proximity, possibly
only after the host has already departed (the indirect part of a link).

Canonical units throughout: minutes, cubic metres, PFU. The influenza-like
defaults below are expressed in these units (generation 0.304 PFU/s,
pulmonary ventilation 7.5 L/min, proximity volume for a 20 m radius and 2 m
height).

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._kernel import batch_link_exposure

DEFAULT_GENERATION_RATE = 18.24  # PFU/min (0.304 PFU/s)
DEFAULT_PROXIMITY_VOLUME = 2512.0  # m^3
DEFAULT_PULMONARY_RATE = 0.0075  # m^3/min (7.5 L/min)
DEFAULT_SIGMA = 0.33  # per PFU


def check_positive(name: str, value: float) -> None:
    """Reject a parameter value that is not a positive finite number."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class EnvironmentParams:
    """Location environment driving particle build-up and removal.

    g: particle generation rate (PFU per minute)
    V: proximity air volume (cubic metres)
    p: pulmonary ventilation rate (cubic metres per minute)
    r: particle removal rate (per minute)
    """

    g: float
    V: float
    p: float
    r: float

    def __post_init__(self):
        for name in ("g", "V", "p", "r"):
            check_positive(name, getattr(self, name))

    @property
    def steady_state(self) -> float:
        """Saturation concentration g/(rV), PFU per cubic metre."""
        return self.g / (self.r * self.V)


def default_env(r: float) -> EnvironmentParams:
    """Environment with the canonical g, V, p and the given removal rate."""
    return EnvironmentParams(
        g=DEFAULT_GENERATION_RATE,
        V=DEFAULT_PROXIMITY_VOLUME,
        p=DEFAULT_PULMONARY_RATE,
        r=r,
    )


@dataclass(frozen=True)
class LinkInterval:
    """Host and neighbour presence bounds of one transmission link (minutes).

    The host occupies the location during [t_s, t_l]; the neighbour is
    present during [t_s_n, t_l_n], which may extend past the host's
    departure. Every valid interval falls in exactly one of three cases:
    direct-only (t_l_n <= t_l), mixed (t_s_n < t_l < t_l_n) or
    indirect-only (t_s_n >= t_l).
    """

    t_s: float
    t_l: float
    t_s_n: float
    t_l_n: float

    def __post_init__(self):
        if not self.t_s <= self.t_l:
            raise ValueError(f"host departs before arriving: {self.t_s} > {self.t_l}")
        if not self.t_s_n <= self.t_l_n:
            raise ValueError(
                f"neighbour departs before arriving: {self.t_s_n} > {self.t_l_n}"
            )
        if not self.t_l_n > self.t_s:
            raise ValueError(
                "neighbour gone before host arrives: no exposure window exists"
            )

    @property
    def case(self) -> str:
        """'direct', 'mixed' or 'indirect'."""
        if self.t_l_n <= self.t_l:
            return "direct"
        if self.t_s_n >= self.t_l:
            return "indirect"
        return "mixed"


def concentration_during_presence(env: EnvironmentParams, t_s: float, t: float) -> float:
    """Concentration at time t while the host, arrived at t_s, is present.

    Rises from zero at arrival toward the steady state g/(rV).
    """
    if t < t_s:
        raise ValueError(f"t={t} precedes host arrival t_s={t_s}")
    return env.steady_state * -math.expm1(-env.r * (t - t_s))


def concentration_after_departure(
    env: EnvironmentParams, t_s: float, t_l: float, t: float
) -> float:
    """Concentration at time t >= t_l after the host left at t_l.

    Continuous with the presence curve at t = t_l, then decays as e^{-r(t-t_l)}.
    """
    if t_l < t_s:
        raise ValueError(f"departure t_l={t_l} precedes arrival t_s={t_s}")
    if t < t_l:
        raise ValueError(f"t={t} precedes host departure t_l={t_l}")
    return (
        env.steady_state
        * -math.expm1(-env.r * (t_l - t_s))
        * math.exp(-env.r * (t - t_l))
    )


def link_exposure(env: EnvironmentParams, link: LinkInterval) -> float:
    """Particles inhaled by the neighbour over one link (PFU).

    The neighbour breathes at rate p over [max(t_s, t_s_n), t_l_n]; the
    concentration follows the presence curve before t_l and the decay curve
    after. Both segments are integrated in closed form by the active kernel
    backend.
    """
    out = batch_link_exposure(
        np.array([link.t_s]),
        np.array([link.t_l]),
        np.array([link.t_s_n]),
        np.array([link.t_l_n]),
        np.array([env.r]),
        env.g,
        env.V,
        env.p,
    )
    return float(out[0])


def total_exposure(exposures: Iterable[float]) -> float:
    """Total dose received over an observation window (sum of link doses)."""
    values = list(exposures)
    for value in values:
        if value < 0.0:
            raise ValueError(f"negative link exposure {value!r}")
    return math.fsum(values)


def infection_probability(exposure: float, sigma: float) -> float:
    """Dose-response conversion: P = 1 - e^{-sigma * exposure}, in [0, 1)."""
    if exposure < 0.0:
        raise ValueError(f"exposure must be non-negative, got {exposure!r}")
    check_positive("sigma", sigma)
    return -math.expm1(-sigma * exposure)


def emit_concentration_curve(
    env: EnvironmentParams,
    t_s: float,
    t_l: float,
    horizon: float,
    step: float,
) -> list[tuple[float, float]]:
    """Sample the rise-and-decay concentration curve on [t_s, horizon].

    Samples the presence curve every `step` minutes on [t_s, t_l] and the
    post-departure decay on (t_l, horizon]; the junction at t_l appears
    exactly once. All values lie in [0, g/(rV)].
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    if t_l < t_s:
        raise ValueError(f"departure t_l={t_l} precedes arrival t_s={t_s}")
    if horizon < t_l:
        raise ValueError(f"horizon {horizon} precedes departure t_l={t_l}")

    points: list[tuple[float, float]] = []
    t = t_s
    while t < t_l:
        points.append((t, concentration_during_presence(env, t_s, t)))
        t += step
    points.append((t_l, concentration_during_presence(env, t_s, t_l)))
    t = t_l + step
    while t < horizon:
        points.append((t, concentration_after_departure(env, t_s, t_l, t)))
        t += step
    if horizon > t_l:
        points.append((horizon, concentration_after_departure(env, t_s, t_l, horizon)))
    return points


def write_concentration_csv(points: Sequence[tuple[float, float]], path) -> None:
    """Write curve samples as `time_min,concentration_pfu_m3` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time_min,concentration_pfu_m3\n")
        for t, c in points:
            fh.write(f"{t!r},{c!r}\n")
