"""Seeded inputs: a nonpositive ``r,k`` forcing table and a non-dyadic final time.

The same seed always gives the same table text and the same T. The table is
a smooth negative shape (one to three Gaussian bumps under an ``r (1 - r)``
envelope, so it vanishes at both ends) sampled on 33 equispaced radii and
scaled so that its largest magnitude, the amplitude, lies in [2, 8]: well
above 1, where the analytic bump used by the tests never goes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TABLE_POINTS = 33
AMPLITUDE_RANGE = (2.0, 8.0)
T_RANGE = (0.1, 0.5)


@dataclass(frozen=True)
class Inputs:
    seed: int
    T: float
    amplitude: float
    table_text: str


def _is_dyadic(x: float, max_power: int = 12) -> bool:
    return (x * 2.0 ** max_power).is_integer()


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    amplitude = rng.uniform(*AMPLITUDE_RANGE)
    bumps = [(rng.uniform(0.2, 0.8), rng.uniform(0.12, 0.3), rng.uniform(0.5, 1.0))
             for _ in range(rng.randint(1, 3))]
    while True:
        T = round(rng.uniform(*T_RANGE), 4)
        if T_RANGE[0] < T < T_RANGE[1] and not _is_dyadic(T):
            break

    radii = [i / (TABLE_POINTS - 1) for i in range(TABLE_POINTS)]
    shape = [4.0 * r * (1.0 - r) * sum(w * math.exp(-((r - c) / s) ** 2)
                                       for c, s, w in bumps)
             for r in radii]
    peak = max(shape)
    k = [-amplitude * v / peak for v in shape]
    k[0] = k[-1] = 0.0
    lines = ["r,k"] + [f"{r!r},{v!r}" for r, v in zip(radii, k)]
    return Inputs(seed=seed, T=T, amplitude=amplitude,
                  table_text="\n".join(lines) + "\n")
