"""Model-free learning of the game's action values by simulated play.

Each step executes exactly one of: a costly Player-1 action, a costly
Player-2 action (precedence when both trigger), or the null pair, and updates
only the executed cell toward a sampled one-step bootstrap target on the raw
(cost-exclusive) reward.  The learner keeps one raw and one net value (plus
the game's ``cell_costs``) per executable cell, as cells of
``ImpulseGame.cells``, reads the net values through the greedy combinator,
and returns ``Q[s, a, b]``.  Per state it keeps each player's best net value
and cell (:func:`_side`), a bound on the side's runner-up (:func:`_ranked`)
and the read-off they give; a step touches only the updated cell's side and
rescans it only when its kept best falls behind the runner-up.
Actions are cells: a step bisects the executed cell's row of
:attr:`ImpulseGame.sampler_rows` with one uniform, inline.  It explores by
:func:`_explore`; :func:`impulsegames.solver.read_off` reads the value and
policy off a learned table.  The ``LEARN_*`` constants fix the rest of its
schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .game import ImpulseGame, _count, _finite_table, _write_csv, to_cells
from .envs import _UNIT, BlockDraws
from .solver import TIE_EPS


# The exploration rate at the end of the step budget (a lower start is kept), and the
# steps per diagnostics row.
LEARN_EPSILON_END = 0.01
LEARN_EVAL_EVERY = 1000


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of a learning run.

    Step sizes are per-cell ``1 / (1 + visits)**omega`` with
    ``omega in (0.5, 1]`` so they are square-summable but not summable.
    Exploration decays linearly from ``epsilon_start`` to
    ``LEARN_EPSILON_END`` over the step budget; a start below that stays
    constant, so ``epsilon_start=0`` is greedy.  An episode restarts from a
    uniform state every ``episode_len`` steps.
    """

    steps: int
    epsilon_start: float = 0.2
    omega: float = 0.85
    seed: int = 0
    episode_len: int = 100

    def __post_init__(self):
        _count(self.steps, "steps")
        _count(self.episode_len, "episode_len", 1)
        _count(self.seed, "seed")
        if not (0.5 < self.omega <= 1.0):
            raise ValueError("omega must lie in (0.5, 1]")
        if not 0.0 <= self.epsilon_start <= 1.0:
            raise ValueError("epsilon_start must lie in [0, 1]")


def _side(row, lo: int, hi: int, sign: float) -> tuple[float, int]:
    """One player's best net value among cells ``lo .. hi-1`` of a row and the
    first cell that holds it: the largest for Player 1 (``sign`` 1.0), the
    smallest for Player 2 (``sign`` -1.0); ``(-sign * inf, 0)`` when no cell
    beats that (an empty or fully masked side)."""
    best, i = -math.inf, 0
    for c in range(lo, hi):
        x = sign * row[c]
        if x > best:
            best, i = x, c
    return sign * best, i


def _ranked(row, lo: int, hi: int, sign: float) -> tuple[float, int, float, int]:
    """One player's best net value and cell among cells ``lo .. hi-1``
    (:func:`_side`), then the side's runner-up: the best of its other cells
    under the same order (value first, then the lowest cell), by
    :func:`_side` on the cells on either side of the best."""
    best, i = _side(row, lo, hi, sign)
    left, right = _side(row, lo, i, sign), _side(row, max(i + 1, lo), hi, sign)
    return (best, i, *(left if sign * left[0] >= sign * right[0] else right))


def _greedy(row, na: int) -> tuple[float, int]:
    """Greedy value at one state and the cell it executes, by the rule of
    ``solver._reduce`` and ``extract_policy``, from a plain list of the
    state's net values in the layout of ``ImpulseGame.cells``."""
    # `solver.read_off` on Python floats: a vectorised call on one row costs more per step.
    noop = row[0]
    best1, i = _side(row, 1, na, 1.0)
    best2, j = _side(row, na, len(row), -1.0)
    inner = best1 if best1 > noop else noop
    out = best2 if best2 < inner else inner
    if best2 < inner - TIE_EPS:
        return out, j
    return out, i if best1 > noop + TIE_EPS else 0


def _slots(cost_rows, na: int) -> list[list[list[int]]]:
    """Per state, the exploration slots: the no-op slot (an empty list), then
    the available costly cells of Player 1 and of Player 2, each side only
    when it has one.  ``cost_rows`` are ``cell_costs`` rows as lists; a cell
    is available where its entry is finite."""
    slots = []
    for row in cost_rows:
        p1 = [c for c in range(1, na) if math.isfinite(row[c])]
        p2 = [c for c in range(na, len(row)) if math.isfinite(row[c])]
        slots.append([[], *(side for side in (p1, p2) if side)])
    return slots


def _explore(slots, rng) -> int:
    """One exploration draw from a state's :func:`_slots`: a uniform slot, then
    a cell in it (0 for the no-op slot)."""
    side = slots[rng.integers(len(slots))]
    return side[rng.integers(len(side))] if side else 0


@dataclass
class LearnDiagnostics:
    """Learning-run telemetry: a row per ``LEARN_EVAL_EVERY`` steps and at the
    last step, the ``(S, A, B)`` visit counts and summary counters."""

    rows: list = field(default_factory=list)
    visits: Optional[np.ndarray] = None
    steps_run: int = 0
    final_sup_delta: float = 0.0

    def to_csv(self, path) -> None:
        """Write the rows, one column per key, as ``csv.DictWriter`` would."""
        header = ["step", "sup_norm_delta", "dist_to_qhat", "epsilon", "seed"]
        _write_csv(path, header, [np.array([row[key] for row in self.rows]) for key in header])


def learn(game: ImpulseGame, config: LearnConfig, q0=None,
          reference_q=None) -> tuple[np.ndarray, LearnDiagnostics]:
    """Run the simulated-play learner for the configured step budget.

    The learner reads only the game's static knowledge (action counts,
    discount and ``cell_costs``); transitions and raw rewards are reached
    only by sampling, one bisection of the executed cell's row of
    :attr:`ImpulseGame.sampler_rows` per step, so the learning stays
    model-free.  Every draw (reset state, exploration coin, slot and action,
    next-state uniform) comes from one :class:`BlockDraws` of
    ``config.seed``: the scalar draws of
    ``np.random.default_rng(config.seed)``, bit for bit, read from raw words
    fetched in blocks; the coin and the uniform are read from
    :attr:`BlockDraws.word` inline.  The steps run in segments that end at
    the next diagnostics row or episode reset.  The read-off is kept per
    state, with each player's best net value and cell and its runner-up, the
    best of the side's other cells: after an update only the updated cell's
    side changes.  A cell beats another with a better value, or the same from
    a lower index.  A cell that beats the kept best takes over, and the best
    it displaced becomes the runner-up; one that beats the runner-up becomes
    it; a kept best that gets worse stays while it beats the runner-up, and
    only when it does not is the side rescanned.  A runner-up that gets worse
    keeps its old value as a bound, which can cost an extra rescan but never
    a wrong read-off.  The no-op and the two sides are then combined by
    :func:`_greedy`'s rule, bit for bit.  The table and visit counts
    come back as ``(S, A, B)`` arrays, where cells in which both players act
    keep their ``q0`` value.  When ``reference_q`` is given, the diagnostics
    track the sup-norm distance to it over the cells executed so far.
    Refused with ``ValueError`` before any draw: a ``q0`` or ``reference_q``
    that is not an ``(S, A, B)`` array of finite values.
    """
    ns, na, nb = game.num_states, game.num_actions1, game.num_actions2
    q = np.zeros((ns, na, nb)) if q0 is None else _finite_table(q0, "q0", (ns, na, nb))
    ref = (None if reference_q is None
           else to_cells(_finite_table(reference_q, "reference_q", q.shape)))
    draws = BlockDraws(config.seed)
    steps = config.steps
    diag = LearnDiagnostics(visits=np.zeros(q.shape, dtype=np.int64), steps_run=steps)
    cells = to_cells(q)
    table, nets = cells.tolist(), (cells + game.cell_costs).tolist()
    counts = [[0] * len(row) for row in table]
    costs = game.cell_costs.tolist()
    slots = _slots(costs, na)
    # Per state: each player's best net value and the cell that holds it (`_side`), a
    # bound on the side's runner-up and its cell (`_ranked`), and the read-off they give
    # with the no-op, `_greedy`'s value in `vals`, its cell in `acts`.
    width = na + nb - 1
    best1, cell1, next1, ncell1 = map(list, zip(*[_ranked(net, 1, na, 1.0) for net in nets]))
    best2, cell2, next2, ncell2 = map(list, zip(*[_ranked(net, na, width, -1.0)
                                                  for net in nets]))
    vals, acts = map(list, zip(*[_greedy(net, na) for net in nets]))
    eps0 = config.epsilon_start
    eps_span = min(eps0, LEARN_EPSILON_END) - eps0
    word, unit, rows = draws.word, _UNIT, game.sampler_rows
    gamma, neg_omega, isfinite, bisect = game.discount, -config.omega, math.isfinite, bisect_right
    eval_every, episode_len = LEARN_EVAL_EVERY, config.episode_len
    s = draws.integers(ns)
    epoch_sup = 0.0
    # A step draws its coin and next-state uniform as `draws.random()` would, inline,
    # and bisects the executed cell's row of `rows` without `SamplingEnv.step`'s
    # checks: the read-off never picks a masked cell (its net value is -inf for Player 1,
    # +inf for Player 2, so it is never a side's kept best), and `_slots` lists
    # finite-cost cells only.  The steps run in segments that end at the next
    # diagnostics row or episode reset.
    lo = 0
    while lo < steps:
        hi = min(steps, (lo // eval_every + 1) * eval_every,
                 (lo // episode_len + 1) * episode_len)
        for t in range(lo, hi):
            epsilon = eps0 + eps_span * (t / steps)
            if epsilon > 0.0 and (word() >> 11) * unit < epsilon:
                c = _explore(slots[s], draws)
            else:
                c = acts[s]
            cum, raw = rows[s][c]
            s2 = bisect(cum, (word() >> 11) * unit)
            row_counts, row = counts[s], table[s]
            row_counts[c] += 1
            alpha = row_counts[c] ** neg_omega
            target = raw + gamma * vals[s2]
            if not isfinite(target):
                raise FloatingPointError(
                    f"non-finite update target at step {t}: check the reward model")
            delta = alpha * (target - row[c])
            row[c] += delta
            net = nets[s]
            x = net[c] = row[c] + costs[s][c]
            # Only c's side can change.  "Beats" is `_side`'s order: a better value, or
            # the same from a lower cell.  The kept best stays while it beats the
            # runner-up bound, and the side is rescanned only once it does not; a cell
            # that beats the kept best takes over, and the best it displaced becomes
            # the runner-up; a cell that beats the bound becomes the runner-up.  A
            # runner-up that gets worse keeps its old value as the bound.
            if c >= na:
                b, k = best2[s], cell2[s]
                if c == k:
                    r = next2[s]
                    if x < r or (x == r and c < ncell2[s]):
                        best2[s] = x
                    else:
                        best2[s], cell2[s], next2[s], ncell2[s] = _ranked(net, na, width, -1.0)
                elif x < b or (x == b and c < k):
                    best2[s], cell2[s], next2[s], ncell2[s] = x, c, b, k
                else:
                    r = next2[s]
                    if x < r or (x == r and c < ncell2[s]):
                        next2[s], ncell2[s] = x, c
            elif c:
                b, k = best1[s], cell1[s]
                if c == k:
                    r = next1[s]
                    if x > r or (x == r and c < ncell1[s]):
                        best1[s] = x
                    else:
                        best1[s], cell1[s], next1[s], ncell1[s] = _ranked(net, 1, na, 1.0)
                elif x > b or (x == b and c < k):
                    best1[s], cell1[s], next1[s], ncell1[s] = x, c, b, k
                else:
                    r = next1[s]
                    if x > r or (x == r and c < ncell1[s]):
                        next1[s], ncell1[s] = x, c
            # `_greedy`'s combine, inline: as a call it costs more per step.
            noop, b1, b2 = net[0], best1[s], best2[s]
            inner = b1 if b1 > noop else noop
            vals[s] = b2 if b2 < inner else inner
            if b2 < inner - TIE_EPS:
                acts[s] = cell2[s]
            else:
                acts[s] = cell1[s] if b1 > noop + TIE_EPS else 0
            if abs(delta) > epoch_sup:
                epoch_sup = abs(delta)
            s = s2
        if hi % eval_every == 0 or hi == steps:
            dist = ""
            if ref is not None:
                seen = np.array(counts) > 0
                if seen.any():
                    dist = float(np.abs(np.array(table)[seen] - ref[seen]).max())
            diag.rows.append({
                "step": hi,
                "sup_norm_delta": epoch_sup,
                "dist_to_qhat": dist,
                "epsilon": epsilon,
                "seed": config.seed,
            })
            diag.final_sup_delta = epoch_sup
            epoch_sup = 0.0
        if hi % episode_len == 0:
            s = draws.integers(ns)
        lo = hi
    table, counts = np.array(table), np.array(counts, dtype=np.int64)
    q[:, :, 0], q[:, 0, 1:] = table[:, :na], table[:, na:]
    diag.visits[:, :, 0], diag.visits[:, 0, 1:] = counts[:, :na], counts[:, na:]
    return q, diag
