"""Linear value-field approximation: weighted projection, the one-step
operator on feature-parameterised fields, projected fixed points, a sampled
weight-space iteration, and the approximation-error bound check.

Two nestings of the operator are kept side by side behind a ``combinator``
switch: ``"T"`` is min-outside (the solver's own nesting, so its fixed point
is the game value) and ``"F"`` is the flipped max-outside form.  Both are
gamma-contractions; they differ in which player the middle do-nothing term
shelters.  The sampled fit evaluates them at the visited state only; its
behaviour trajectory takes the learner's exploration draw
(:func:`impulsegames.qlearn.explore`) and the sampler of
:class:`impulsegames.envs.SamplingEnv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .envs import SamplingEnv
from .game import ImpulseGame
from .qlearn import explore
from .solver import _combine, _executed_chain, extract_policy, operator_terms, solve

RANK_TOL = 1e-10

BOUND_SLACK = 1e-8

COMBINATORS = ("F", "T")


@dataclass(frozen=True)
class FeatureBasis:
    """A (states x features) matrix of linearly independent columns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("basis must be a 2-D (states x features) matrix")
        if m.shape[1] > m.shape[0]:
            raise ValueError("more features than states: columns cannot be independent")
        sv = np.linalg.svd(m, compute_uv=False)
        if sv.min() <= RANK_TOL * max(1.0, sv.max()):
            raise ValueError("basis columns are not linearly independent")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_features(self) -> int:
        return self.matrix.shape[1]

    def field(self, r) -> np.ndarray:
        return self.matrix @ np.asarray(r, dtype=float)


def identity_basis(num_states: int) -> FeatureBasis:
    return FeatureBasis(np.eye(num_states))


def constant_basis(num_states: int) -> FeatureBasis:
    return FeatureBasis(np.ones((num_states, 1)))


def _check_weights(weights, num_states):
    w = np.asarray(weights, dtype=float)
    if w.shape != (num_states,):
        raise ValueError(f"weights must have shape ({num_states},)")
    if not (w > 0).all():
        raise ValueError("state weights must be strictly positive")
    return w / w.sum()


def weighted_norm(weights, x) -> float:
    w = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    return math.sqrt(float(w @ (x * x)) / w.sum())


def projection_weights(basis: FeatureBasis, weights, target) -> np.ndarray:
    """Coefficients of the weighted least-squares projection onto the span."""
    w = _check_weights(weights, basis.num_states)
    sq = np.sqrt(w)
    r, *_ = np.linalg.lstsq(basis.matrix * sq[:, None],
                            np.asarray(target, dtype=float) * sq, rcond=None)
    return r


def project(basis: FeatureBasis, weights, target) -> np.ndarray:
    """Weighted least-squares projection of a state field onto the span.

    Idempotent, and non-expansive in the same weighted norm.
    """
    return basis.field(projection_weights(basis, weights, target))


def _operator_on_field(game: ImpulseGame, lam, combinator: str, rows=None) -> np.ndarray:
    t = operator_terms(game, lam, _rows=rows)
    if combinator == "T":
        return _combine(t)
    if combinator == "F":
        inner = np.where(t.has1, np.minimum(t.m1, t.noop), t.noop)
        return np.where(t.has2, np.maximum(inner, t.m2), inner)
    raise ValueError(f"combinator must be one of {COMBINATORS}, got {combinator!r}")


def apply_operator(game: ImpulseGame, basis: FeatureBasis, r,
                   combinator: str = "F") -> np.ndarray:
    """One application of the selected operator nesting to the field ``Phi r``.

    The middle slot of either nesting is the do-nothing continuation of the
    field; a player with no available costly action drops out of its side of
    the nesting, so with no actions at all both forms reduce to the plain
    one-step expected-value operator.
    """
    return _operator_on_field(game, basis.field(r), combinator)


class StationaryResult(NamedTuple):
    weights: np.ndarray
    ergodic: bool


def stationary_distribution(game: ImpulseGame, policy, tol: float = 1e-12,
                            max_iter: int = 200_000) -> StationaryResult:
    """Stationary law of the executed-policy chain by damped power iteration.

    ``ergodic=False`` flags a chain whose iteration failed to converge or
    whose stationary weights are not strictly positive (transient states);
    callers then fall back to uniform weights.
    """
    ns = game.num_states
    acts1 = np.where(policy.p1_acts & ~policy.p2_acts, policy.p1_action, 0)
    acts2 = np.where(policy.p2_acts, policy.p2_action, 0)
    p, _ = _executed_chain(game, acts1, acts2)
    lazy = 0.5 * (np.eye(ns) + p)
    w = np.full(ns, 1.0 / ns)
    for _ in range(max_iter):
        nw = w @ lazy
        if np.abs(nw - w).sum() <= tol:
            w = nw
            break
        w = nw
    else:
        return StationaryResult(weights=w / w.sum(), ergodic=False)
    w = w / w.sum()
    return StationaryResult(weights=w, ergodic=bool((w > 1e-9).all()))


def projected_iteration(game: ImpulseGame, basis: FeatureBasis, weights,
                        combinator: str = "T", tol: float = 1e-12,
                        max_iter: int = 100_000) -> tuple[np.ndarray, list[float]]:
    """Deterministic fixed point of projection composed with the operator.

    Iterates coefficients through project(operator(field)); the composite
    contracts, so the coefficient deltas shrink geometrically.  Returns the
    limit coefficients and the delta history.
    """
    w = _check_weights(weights, basis.num_states)
    r = np.zeros(basis.num_features)
    deltas = []
    for _ in range(max_iter):
        field = _operator_on_field(game, basis.field(r), combinator)
        nr = projection_weights(basis, w, field)
        delta = float(np.abs(nr - r).max())
        deltas.append(delta)
        r = nr
        if delta <= tol:
            break
    return r, deltas


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the sampled weight-space iteration."""

    samples: int
    epsilon: float = 0.2
    step_power: float = 0.85
    seed: int = 0
    episode_len: int = 100
    epoch: int = 1000
    tol: float = 0.0
    combinator: str = "T"
    divergence_limit: float = 1e6
    compute_reference: bool = True

    def __post_init__(self):
        if self.combinator not in COMBINATORS:
            raise ValueError(f"combinator must be one of {COMBINATORS}")
        if self.episode_len <= 0 or self.epoch <= 0:
            raise ValueError("episode_len and epoch must be positive")


class FitDivergenceError(RuntimeError):
    def __init__(self, step, r):
        self.step = step
        self.r = np.array(r)
        super().__init__(f"weight iteration diverged at step {step}: |r| = {np.abs(r).max():.3g}")


@dataclass(frozen=True)
class FitReport:
    samples_run: int
    final_epoch_delta: float
    sup_dist_to_value: Optional[float]
    stopped_early: bool

    def to_dict(self) -> dict:
        return {
            "samples_run": self.samples_run,
            "final_epoch_delta": self.final_epoch_delta,
            "sup_dist_to_value": self.sup_dist_to_value,
            "stopped_early": self.stopped_early,
        }


def fit(game: ImpulseGame, basis: FeatureBasis, config: FitConfig,
        r0=None) -> tuple[np.ndarray, FitReport]:
    """Stochastic weight iteration along a greedy-with-exploration trajectory.

    Each visited state nudges the coefficients toward the selected
    operator's value there, with Robbins-Monro step sizes; the visiting
    distribution of the behaviour trajectory supplies the projection
    weighting.  The behaviour policy is refreshed from the current field
    once per epoch.  Intervention terms are expectations under the model;
    only the trajectory is sampled.
    """
    rng = np.random.default_rng(config.seed)
    env = SamplingEnv(game, rng=rng)
    phi = basis.matrix
    r = np.zeros(basis.num_features) if r0 is None else np.array(r0, dtype=float)
    s = env.reset()
    policy = extract_policy(game, basis.field(r))
    r_epoch = r.copy()
    final_delta = math.inf
    stopped = False
    steps_run = 0
    for t in range(config.samples):
        lam = phi @ r
        target = _operator_on_field(game, lam, config.combinator, rows=slice(s, s + 1))[0]
        alpha = (1.0 + t) ** -config.step_power
        r = r + alpha * phi[s] * (target - lam[s])
        steps_run = t + 1
        if np.abs(r).max() > config.divergence_limit:
            raise FitDivergenceError(t, r)
        if (t + 1) % config.epoch == 0:
            final_delta = float(np.abs(r - r_epoch).max())
            r_epoch = r.copy()
            policy = extract_policy(game, phi @ r)
            if config.tol > 0.0 and final_delta <= config.tol:
                stopped = True
                break
        if config.epsilon > 0.0 and rng.random() < config.epsilon:
            pair = explore(game, s, rng)
        else:
            pair = policy.executed_pair(s)
        s, _ = env.step(s, pair)
        if (t + 1) % config.episode_len == 0:
            s = env.reset()
    dist = None
    if config.compute_reference:
        vhat = solve(game, tol=1e-9).value
        dist = float(np.abs(basis.field(r) - vhat).max())
    return r, FitReport(samples_run=steps_run, final_epoch_delta=final_delta,
                        sup_dist_to_value=dist, stopped_early=stopped)


class BoundReport(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    used_uniform_weights: bool
    weights: np.ndarray

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "used_uniform_weights": self.used_uniform_weights,
            "weights": self.weights.tolist(),
        }


def verify_bound(game: ImpulseGame, basis: FeatureBasis, r,
                 value=None) -> BoundReport:
    """Check the approximation-error bound against the exact value field.

    In the stationary-weighted norm of the equilibrium chain (uniform
    fallback when that chain is not ergodic):

        ||Phi r - v||_w  <=  (1 - gamma^2)^(-1/2) ||Proj v - v||_w + slack
    """
    vhat = solve(game, tol=1e-10).value if value is None else np.asarray(value, dtype=float)
    policy = extract_policy(game, vhat)
    w, ergodic = stationary_distribution(game, policy)
    used_uniform = not ergodic
    if used_uniform:
        w = np.full(game.num_states, 1.0 / game.num_states)
    lhs = weighted_norm(w, basis.field(r) - vhat)
    proj = project(basis, w, vhat)
    rhs = (1.0 - game.discount ** 2) ** -0.5 * weighted_norm(w, proj - vhat)
    return BoundReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + BOUND_SLACK),
                       used_uniform_weights=used_uniform, weights=w)
