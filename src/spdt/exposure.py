"""Airborne exposure model: its constants and the dose-response conversion.

An infected host deposits infectious particles at a constant rate while
present at a location. The ambient concentration rises toward the steady
state g/(rV) during the stay and decays exponentially once the host leaves.
A neighbour inhales particles while present in the same proximity, possibly
only after the host has already departed (the indirect part of a link).
``spdt._kernel.batch_link_exposure`` integrates both parts in closed form
for a batch of links; ``infection_probability`` turns a summed dose into
the chance of infection, for the simulator and for any caller.

Canonical units throughout: minutes, cubic metres, PFU. The influenza-like
defaults below are expressed in these units (generation 0.304 PFU/s,
pulmonary ventilation 7.5 L/min, proximity volume for a 20 m radius and 2 m
height).

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_GENERATION_RATE = 18.24  # PFU/min (0.304 PFU/s)
DEFAULT_PROXIMITY_VOLUME = 2512.0  # m^3
DEFAULT_PULMONARY_RATE = 0.0075  # m^3/min (7.5 L/min)
DEFAULT_SIGMA = 0.33  # per PFU
# bounds of a link's particle removal time, in minutes; the median r_t lies
# within them
REMOVAL_TIME_RANGE = (7.5, 300.0)


def check_positive(name: str, value: float) -> None:
    """Reject a parameter value that is not a positive finite number."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def infection_probability(dose, sigma: float):
    """Dose-response conversion, elementwise: P = 1 - e^{-sigma * dose}, in
    [0, 1), for a dose in PFU or an array of them."""
    if np.any(dose < 0.0):
        raise ValueError(f"dose must be non-negative, got {float(np.min(dose))!r}")
    check_positive("sigma", sigma)
    return -np.expm1(-sigma * dose)
