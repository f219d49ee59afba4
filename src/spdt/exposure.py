"""Airborne exposure model: per-link inhaled dose and infection risk.

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


def infection_probability(exposure: float, sigma: float) -> float:
    """Dose-response conversion: P = 1 - e^{-sigma * exposure}, in [0, 1)."""
    if exposure < 0.0:
        raise ValueError(f"exposure must be non-negative, got {exposure!r}")
    check_positive("sigma", sigma)
    return -math.expm1(-sigma * exposure)
