"""The benchmark's own reference operator, written in plain numpy.

It imports nothing from ``impulsegames.solver``: it reads only the arrays of
a game object (kernel, rewards, costs, masks, discount) and evaluates

    min( max( best costly P1 action, do-nothing ), best costly P2 action )

on the executable cells only: ``(0, 0)``, ``(a, 0)`` and ``(0, b)``.  With
``budgets=(n1, n2)`` the value field lives on ``(s, y, z)``, ``y``/``z``
counting remaining interventions; an executed costly action moves its
player's counter down by one and a spent counter removes that player's
costly actions.  The flat layout is ``(s * (n1+1) + y) * (n2+1) + z``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Terms(NamedTuple):
    noop: np.ndarray   # do-nothing continuation
    best1: np.ndarray  # best costly Player-1 value, -inf when none is allowed
    best2: np.ndarray  # best costly Player-2 value, +inf when none is allowed
    act1: np.ndarray   # the action reaching best1 (lowest on ties), 0 when none
    act2: np.ndarray


def _grid(game, v, budgets):
    ns = game.kernel.shape[0]
    if budgets is None:
        return np.asarray(v, dtype=float).reshape(ns, 1, 1), 0
    n1, n2 = budgets
    return np.asarray(v, dtype=float).reshape(ns, n1 + 1, n2 + 1), 1


def _spend(e, axis, by):
    """``out[..., k, ...] = e[..., k - by, ...]``: acting moves a counter down by ``by``.

    The first ``by`` slots along ``axis`` (a spent counter) are left at 0 and
    must be masked by the caller.
    """
    if by == 0:
        return e
    out = np.zeros_like(e)
    src = [slice(None)] * e.ndim
    dst = [slice(None)] * e.ndim
    src[axis] = slice(0, e.shape[axis] - by)
    dst[axis] = slice(by, None)
    out[tuple(dst)] = e[tuple(src)]
    return out


def terms(game, v, budgets=None) -> Terms:
    """The three operator terms at every (augmented) state, flat."""
    grid, d = _grid(game, v, budgets)
    ns, ny, nz = grid.shape
    flat = grid.reshape(ns, ny * nz)
    k, r, g = game.kernel, game.reward, game.discount
    na, nb = k.shape[1], k.shape[2]
    noop = r[:, 0, 0, None, None] + g * (k[:, 0, 0, :] @ flat).reshape(ns, ny, nz)
    best1 = np.full((ns, ny, nz), -np.inf)
    act1 = np.zeros((ns, ny, nz), dtype=int)
    if na > 1:
        e1 = np.einsum("sat,tm->sam", k[:, 1:, 0, :], flat).reshape(ns, na - 1, ny, nz)
        cand = (r[:, 1:, 0] - game.cost1[:, 1:])[:, :, None, None] + g * _spend(e1, 2, d)
        cand = np.where(game.mask1[:, 1:, None, None], cand, -np.inf)
        cand[:, :, :d, :] = -np.inf
        best1 = cand.max(axis=1)
        act1 = np.where(np.isfinite(best1), cand.argmax(axis=1) + 1, 0)
    best2 = np.full((ns, ny, nz), np.inf)
    act2 = np.zeros((ns, ny, nz), dtype=int)
    if nb > 1:
        e2 = np.einsum("sbt,tm->sbm", k[:, 0, 1:, :], flat).reshape(ns, nb - 1, ny, nz)
        cand = (r[:, 0, 1:] + game.cost2[:, 1:])[:, :, None, None] + g * _spend(e2, 3, d)
        cand = np.where(game.mask2[:, 1:, None, None], cand, np.inf)
        cand[:, :, :, :d] = np.inf
        best2 = cand.min(axis=1)
        act2 = np.where(np.isfinite(best2), cand.argmin(axis=1) + 1, 0)
    return Terms(noop.ravel(), best1.ravel(), best2.ravel(), act1.ravel(), act2.ravel())


def operator(game, v, budgets=None) -> np.ndarray:
    """One application of the value operator, flat like ``v``."""
    t = terms(game, v, budgets)
    return np.minimum(np.maximum(t.best1, t.noop), t.best2)


def certified_error(game, v, budgets=None) -> float:
    """Sup-norm distance of ``v`` to the fixed point is at most this.

    ``||v - v*|| <= ||T v - v|| / (1 - gamma)`` for a gamma-contraction.
    """
    v = np.asarray(v, dtype=float).ravel()
    return float(np.abs(operator(game, v, budgets) - v).max()) / (1.0 - game.discount)


def fixed_point(game, budgets=None, tol=1e-12, max_sweeps=100_000) -> np.ndarray:
    """Value iteration on the reference operator to a certified ``tol``."""
    ns = game.kernel.shape[0]
    size = ns if budgets is None else ns * (budgets[0] + 1) * (budgets[1] + 1)
    v = np.zeros(size)
    for _ in range(max_sweeps):
        nv = operator(game, v, budgets)
        step = float(np.abs(nv - v).max())
        v = nv
        if step * game.discount / (1.0 - game.discount) <= tol:
            return v
    raise RuntimeError("reference value iteration did not converge")


def q_table(game, v) -> np.ndarray:
    """Cost-exclusive action values ``r + gamma * E[v(s')]`` for every cell."""
    return game.reward + game.discount * (game.kernel @ np.asarray(v, dtype=float))


class Decisions(NamedTuple):
    p1_acts: np.ndarray
    p2_acts: np.ndarray
    p1_margin: np.ndarray  # |best1 - noop|: how far the P1 decision is from a tie
    p2_margin: np.ndarray  # |best2 - max(best1, noop)|
    executed_a: np.ndarray  # the pair the greedy policy executes (P2 first)
    executed_b: np.ndarray


def decisions(game, v, budgets=None, tie=1e-10) -> Decisions:
    """Who intervenes at the greedy policy of ``v``; P2 takes precedence."""
    t = terms(game, v, budgets)
    inner = np.maximum(t.best1, t.noop)
    p1 = t.best1 > t.noop + tie
    p2 = t.best2 < inner - tie
    return Decisions(p1, p2, np.abs(t.best1 - t.noop), np.abs(t.best2 - inner),
                     np.where(p1 & ~p2, t.act1, 0), np.where(p2, t.act2, 0))


def stationary_weights(game, v) -> np.ndarray:
    """Stationary law of the chain the greedy policy of ``v`` induces.

    Solves ``w (I - P) = 0`` with ``sum(w) = 1`` directly; a chain with a
    transient state (some weight below 1e-9) gets uniform weights instead.
    """
    d = decisions(game, v)
    ns = game.kernel.shape[0]
    p = game.kernel[np.arange(ns), d.executed_a, d.executed_b]
    lhs = np.vstack([(np.eye(ns) - p).T, np.ones((1, ns))])
    w, *_ = np.linalg.lstsq(lhs, np.r_[np.zeros(ns), 1.0], rcond=None)
    return w if (w > 1e-9).all() else np.full(ns, 1.0 / ns)
