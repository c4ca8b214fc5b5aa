"""The benchmark's workloads: job lists made from a seed, and their inputs.

Each job is one CLI subcommand.  A workload's jobs run back to back as one
*pass*; the same seed gives the same jobs and input files.  Why each
workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import impulsegames as ig

GAMMA = 0.9  # the CLI's default discount for --gen games


@dataclass
class Job:
    name: str                      # unique within a pass; also its output directory
    kind: str                      # the subcommand, which picks the check
    argv: list                     # the subcommand's arguments, without --out
    game_key: str                  # games with one key are built once for checking
    make_game: Callable
    params: dict = field(default_factory=dict)


def _gen(kind, name, spec, extra, **params):
    s, a, b, seed = spec
    return Job(name, kind, [kind, "--gen", f"{s},{a},{b},{seed}", *extra],
               f"gen:{s},{a},{b},{seed}", lambda: ig.random_game(s, a, b, seed, gamma=GAMMA),
               params)


def _seeds(rng, n):
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]


def exact_dense(rng, indir):
    g = _seeds(rng, 5)
    jobs = [_gen("solve", "solve-800x3x3", (800, 3, 3, g[0]), ["--tol", "1e-9"]),
            _gen("solve", "solve-300x7x7", (300, 7, 7, g[1]), ["--tol", "1e-9"])]
    jobs += [_gen("oracle", f"oracle-4x2x2-{i}", (4, 2, 2, g[2 + i]), []) for i in range(3)]
    return jobs


def learn_small(rng, indir):
    g = _seeds(rng, 6)
    shapes = [(5, 1, 1, 20_000), (5, 1, 1, 20_000), (30, 3, 3, 40_000)]
    return [_gen("learn", f"learn-{s}x{a}x{b}-{i}", (s, a, b, g[i]),
                 ["--steps", str(n), "--seed", str(g[3 + i])], steps=n)
            for i, (s, a, b, n) in enumerate(shapes)]


def _duopoly_params(rng):
    return {"kappa1": round(float(rng.uniform(0.15, 0.3)), 4),
            "kappa2": round(float(rng.uniform(0.15, 0.3)), 4),
            "h_slope": round(float(rng.uniform(0.4, 0.6)), 4)}


def polynomial_basis(grid_size):
    """Eight smooth features of the two sales levels, scaled to [-1, 1]."""
    x = np.repeat(np.linspace(-1.0, 1.0, grid_size), grid_size)
    y = np.tile(np.linspace(-1.0, 1.0, grid_size), grid_size)
    return np.stack([np.ones_like(x), x, y, x * y, x * x, y * y, x * x * y, x * y * y], 1)


def duopoly_fit(rng, indir):
    params = _duopoly_params(rng)
    k = _seeds(rng, 3)
    start = int(rng.integers(121))
    duo = os.path.join(indir, "duopoly.json")
    small = os.path.join(indir, "duopoly81.json")
    make = lambda: ig.build_duopoly_game(ig.duopoly_params_from_dict(params))
    make81 = lambda: ig.build_duopoly_game(ig.duopoly_params_from_dict({**params, "grid_size": 9}))
    basis = polynomial_basis(9)
    with open(duo, "w", encoding="utf-8") as f:
        json.dump(params, f)
    doc = ig.game_to_dict(make81())
    doc["basis"] = basis.tolist()
    with open(small, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, allow_nan=False)
    return [
        Job("fit-duopoly-121", "fit", ["fit", "--duopoly", duo, "--steps", "10000",
                                       "--combinator", "T", "--seed", str(k[0])],
            "duopoly", make, {"samples": 10_000, "basis": np.eye(121)}),
        Job("fit-basis-81", "fit", ["fit", "--game", small, "--steps", "5000",
                                    "--combinator", "T", "--seed", str(k[1])],
            "duopoly81", make81, {"samples": 5_000, "basis": basis}),
        Job("simulate-duopoly", "simulate", ["simulate", "--duopoly", duo, "--steps", "50000",
                                             "--seed", str(k[2]), "--start", str(start)],
            "duopoly", make, {"steps": 50_000, "start": start}),
    ]


def budget_caps(rng, indir):
    g = _seeds(rng, 4)
    jobs = []
    for i, (s, caps) in enumerate([(20, (8, 8)), (30, (3, 10))]):
        start = int(rng.integers(s))
        jobs.append(_gen("budget", f"budget-{s}x2x2-{caps[0]}-{caps[1]}", (s, 2, 2, g[i]),
                         ["--n1", str(caps[0]), "--n2", str(caps[1]), "--steps", "5000",
                          "--seed", str(g[2 + i]), "--start", str(start)],
                         caps=caps, steps=5000, start=start))
    return jobs


WORKLOADS = {"exact_dense": exact_dense, "learn_small": learn_small,
             "duopoly_fit": duopoly_fit, "budget_caps": budget_caps}


def build(workload: str, seed: int, indir) -> list[Job]:
    """Write the workload's input files under ``indir`` and return its jobs."""
    os.makedirs(indir, exist_ok=True)
    return WORKLOADS[workload](np.random.default_rng(seed), str(indir))
