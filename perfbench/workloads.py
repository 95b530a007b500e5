"""The benchmark's workloads: which CLI commands each one runs, built from a seed.

Every op is one ``cli.run`` call with ``--workers 1``.  The seed is passed to
the CLI as its master seed and also draws the rational targets of ``bridge``;
the package sees only the generated configs.  Each workload has exactly two
command groups, reported end to end as ``cmd1_s`` and ``cmd2_s``; the named
per-command metrics of NOTES.md are those two slots under their own names.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    label: str  # unique within the workload
    group: str  # named per-command metric the op's time counts toward
    command: str
    system: str
    params: dict


# workload -> (group reported as cmd1_s, group reported as cmd2_s)
GROUPS = {
    "orbits": ("excursions_s", "simulate_s"),
    "sampling": ("constants_s", "survey_s"),
    "bridge": ("approx_s", "dani_s"),
}


def _rational(rng: random.Random, q_lo: int, q_hi: int) -> str:
    q = rng.randint(q_lo, q_hi)
    while True:
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) == 1:
            return f"{p}/{q}"


def _orbits(seed: int, tiny: bool) -> list[Op]:
    return [
        Op("excursions", "excursions_s", "excursions", "cantor:2",
           {"points": 1 if tiny else 6, "n_max": 10 if tiny else 200,
            "level": 3.0, "grid_refine": 4}),
        Op("simulate", "simulate_s", "simulate", "cantor:1",
           {"walks": 4 if tiny else 100, "steps": 300 if tiny else 2000,
            "level": 3.0}),
    ]


def _sampling(seed: int, tiny: bool) -> list[Op]:
    return [
        # n_max 8 is the smallest that reaches the n = 8 cover_hyperplane
        # certificate of the ROADMAP table.
        Op("constants", "constants_s", "constants", "cantor:2",
           {"n_max": 3 if tiny else 8, "samples": 2000 if tiny else 20000,
            "search_budget": 10 if tiny else 100}),
        Op("survey", "survey_s", "survey", "cantor:2",
           {"count": 50 if tiny else 1000, "q_max": 256 if tiny else 10000,
            "psi_a": 1.5}),
    ]


def _bridge(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    x1 = _rational(rng, 101, 997)
    x2 = f"{_rational(rng, 11, 199)},{_rational(rng, 11, 199)}"
    return [
        # rational x: the exact Fraction scan
        Op("approx_exact_d1", "approx_s", "approx", "cantor:1",
           {"x": x1, "q_max": 200 if tiny else 10000}),
        # irrational x: the float scan
        Op("approx_golden", "approx_s", "approx", "cantor:1",
           {"x": "golden", "q_max": 1000 if tiny else 1000000}),
        # d = 2: the cross-check runs cold one-shot LLL plus enumeration
        Op("approx_exact_d2", "approx_s", "approx", "cantor:1",
           {"x": x2, "q_max": 200 if tiny else 3000}),
        # psi_b > 0 has no closed form, so r_from_psi really bisects
        Op("dani", "dani_s", "dani", "cantor:1",
           {"d": 2, "psi_a": 1.0, "psi_b": 1.0, "alpha": 0.5}),
    ]


_BUILDERS = {"orbits": _orbits, "sampling": _sampling, "bridge": _bridge}


def ops_for(workload: str, seed: int, scale: str = "full") -> list[Op]:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return _BUILDERS[workload](seed, scale == "tiny")
