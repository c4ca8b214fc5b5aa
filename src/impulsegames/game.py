"""Model container for two-player zero-sum stochastic games with costly actions.

Both players always own the cost-free null action ``0``; every other action
pays a state-dependent cost bounded below by a positive floor, so acting at
every step is never free.  Player 1 maximises the discounted sum of net
rewards, Player 2 minimises the same quantity (its payoff is the exact
negation).  Tables are dense numpy arrays indexed ``[state, action1, action2]``
with the null action in slot 0 of each action axis.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

KAPPA_DEFAULT = 0.1

KERNEL_ROW_TOL = 1e-12


class JointAction(NamedTuple):
    a: int
    b: int


class Violation(NamedTuple):
    """One broken model invariant: a short code, offending indices, message."""

    code: str
    where: tuple
    message: str


class GameFormatError(ValueError):
    """Raised when a game-spec file cannot be parsed into model tables."""


class GameValidationError(ValueError):
    """Raised when parsed tables violate the model invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ImpulseGame:
    """A finite zero-sum stochastic game where non-null actions are costly.

    Parameters
    ----------
    kernel : array (S, A, B, S)
        Transition probabilities; row ``kernel[s, a, b]`` is the distribution
        of the next state when the executed pair is ``(a, b)``.
    reward : array (S, A, B)
        Player 1's raw (cost-exclusive) reward for each executed pair.
    cost1, cost2 : array (S, A), (S, B)
        Per-action costs for each player.  Column 0 belongs to the null
        action, carries no cost and is never queried.
    cost_floor : float
        Positive lower bound every non-null cost must respect.
    discount : float
        Discount factor in [0, 1).
    mask1, mask2 : bool array, optional
        Per-state action availability.  The null action must stay available
        everywhere; defaults to everything allowed.  Used by the budgeted
        construction to remove actions once a budget is spent.
    """

    kernel: np.ndarray
    reward: np.ndarray
    cost1: np.ndarray
    cost2: np.ndarray
    cost_floor: float
    discount: float
    mask1: np.ndarray = None
    mask2: np.ndarray = None

    def __post_init__(self):
        kernel = _frozen_array(self.kernel)
        if kernel.ndim != 4 or kernel.shape[0] != kernel.shape[3]:
            raise ValueError(f"kernel must have shape (S, A, B, S), got {kernel.shape}")
        s, a, b, _ = kernel.shape
        reward = _frozen_array(self.reward)
        if reward.shape != (s, a, b):
            raise ValueError(f"reward must have shape {(s, a, b)}, got {reward.shape}")
        cost1 = _frozen_array(self.cost1)
        if cost1.shape != (s, a):
            raise ValueError(f"cost1 must have shape {(s, a)}, got {cost1.shape}")
        cost2 = _frozen_array(self.cost2)
        if cost2.shape != (s, b):
            raise ValueError(f"cost2 must have shape {(s, b)}, got {cost2.shape}")
        mask1 = np.ones((s, a), dtype=bool) if self.mask1 is None else self.mask1
        mask2 = np.ones((s, b), dtype=bool) if self.mask2 is None else self.mask2
        mask1 = _frozen_array(mask1, dtype=bool)
        mask2 = _frozen_array(mask2, dtype=bool)
        if mask1.shape != (s, a) or mask2.shape != (s, b):
            raise ValueError("action masks must match the (state, action) table shapes")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "cost1", cost1)
        object.__setattr__(self, "cost2", cost2)
        object.__setattr__(self, "mask1", mask1)
        object.__setattr__(self, "mask2", mask2)
        object.__setattr__(self, "cost_floor", float(self.cost_floor))
        object.__setattr__(self, "discount", float(self.discount))

    @property
    def num_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def num_actions1(self) -> int:
        return self.kernel.shape[1]

    @property
    def num_actions2(self) -> int:
        return self.kernel.shape[2]

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Kernel rows ``(S, A+B-1, S)`` and net rewards ``(S, A+B-1)`` of the
        pairs that can execute under Player 2's precedence, built on first use:
        column ``a`` is ``(a, 0)``, ``A - 1 + b`` is ``(0, b)``.  A masked cell's
        net reward is -inf for Player 1 and +inf for Player 2."""
        k, r = self.kernel, self.reward
        kernel = np.concatenate([k[:, :, 0], k[:, 0, 1:]], axis=1)
        net = np.concatenate([r[:, :1, 0],
                              np.where(self.mask1[:, 1:], r[:, 1:, 0] - self.cost1[:, 1:], -np.inf),
                              np.where(self.mask2[:, 1:], r[:, 0, 1:] + self.cost2[:, 1:], np.inf)],
                             axis=1)
        kernel.setflags(write=False)
        net.setflags(write=False)
        return kernel, net


def validate(game: ImpulseGame) -> list[Violation]:
    """Check every model invariant; violations come back as data, not raises.

    An empty list means the game is well-formed.
    """
    out = []
    row_sums = game.kernel.sum(axis=3)
    bad = np.argwhere(np.abs(row_sums - 1.0) > KERNEL_ROW_TOL)
    for s, a, b in bad:
        out.append(Violation(
            "kernel-row-sum", (int(s), int(a), int(b)),
            f"kernel row (s={s}, a={a}, b={b}) sums to {row_sums[s, a, b]!r}, expected 1",
        ))
    neg = np.argwhere(game.kernel < 0)
    for s, a, b, t in neg:
        out.append(Violation(
            "kernel-negative", (int(s), int(a), int(b), int(t)),
            f"kernel entry (s={s}, a={a}, b={b}, s'={t}) is negative",
        ))
    if not np.isfinite(game.kernel).all():
        out.append(Violation("kernel-not-finite", (), "kernel has non-finite entries"))
    if not (game.cost_floor > 0):
        out.append(Violation(
            "cost-floor", (), f"cost_floor must be > 0, got {game.cost_floor!r}"))
    for name, costs, width in (("1", game.cost1, game.num_actions1),
                               ("2", game.cost2, game.num_actions2)):
        if width > 1:
            low = np.argwhere(~(costs[:, 1:] >= game.cost_floor))
            for s, j in low:
                out.append(Violation(
                    "cost-below-floor", (name, int(s), int(j) + 1),
                    f"cost{name}(s={s}, action={j + 1}) = {costs[s, j + 1]!r} "
                    f"is below the floor {game.cost_floor}",
                ))
    if not np.isfinite(game.reward).all():
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(game.reward))[0])
        out.append(Violation(
            "reward-not-finite", where, f"reward at (s,a,b)={where} is not finite"))
    if not (0.0 <= game.discount < 1.0):
        out.append(Violation(
            "discount-range", (), f"discount must be < 1 and >= 0, got {game.discount!r}"))
    for name, mask in (("1", game.mask1), ("2", game.mask2)):
        if not mask[:, 0].all():
            s = int(np.argwhere(~mask[:, 0])[0][0])
            out.append(Violation(
                "mask-null-action", (name, s),
                f"null action of player {name} is masked at state {s}"))
    return out


def effective_reward(game: ImpulseGame, s: int, joint) -> float:
    """Player 1's net one-step payoff for the executed pair at state ``s``.

    The raw reward, minus Player 1's action cost when it acts, plus Player
    2's action cost when it acts (the minimiser paying a cost raises the
    maximiser's payoff under the zero-sum convention).
    """
    a, b = joint
    if not (0 <= s < game.num_states):
        raise IndexError(f"state {s} out of range")
    if not (0 <= a < game.num_actions1 and 0 <= b < game.num_actions2):
        raise IndexError(f"joint action ({a}, {b}) out of range")
    r = float(game.reward[s, a, b])
    if a != 0:
        r -= float(game.cost1[s, a])
    if b != 0:
        r += float(game.cost2[s, b])
    return r


def player2_reward(game: ImpulseGame, s: int, joint) -> float:
    """Player 2's net payoff: exactly the negation of Player 1's."""
    return -effective_reward(game, s, joint)


def random_game(num_states: int, num_actions1: int, num_actions2: int, seed,
                gamma: float = 0.9, cost_floor: float = KAPPA_DEFAULT) -> ImpulseGame:
    """Draw a well-formed random game, deterministic in ``seed``.

    Action counts exclude the null action (it is always added in slot 0).
    Kernel rows are normalised uniform variates, rewards are uniform in
    [-1, 1] and costs uniform in [cost_floor, 2*cost_floor].
    """
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    if num_actions1 < 0 or num_actions2 < 0:
        raise ValueError("action counts must be >= 0")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    na, nb = num_actions1 + 1, num_actions2 + 1
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(num_states, na, nb, num_states))
    kernel = raw / raw.sum(axis=3, keepdims=True)
    reward = rng.uniform(-1.0, 1.0, size=(num_states, na, nb))
    cost1 = np.zeros((num_states, na))
    if num_actions1:
        cost1[:, 1:] = rng.uniform(cost_floor, 2 * cost_floor, size=(num_states, num_actions1))
    cost2 = np.zeros((num_states, nb))
    if num_actions2:
        cost2[:, 1:] = rng.uniform(cost_floor, 2 * cost_floor, size=(num_states, num_actions2))
    return ImpulseGame(kernel=kernel, reward=reward, cost1=cost1, cost2=cost2,
                       cost_floor=cost_floor, discount=gamma)


def games_equal(g1: ImpulseGame, g2: ImpulseGame) -> bool:
    """Exact field-for-field equality (used for round-trip checks)."""
    return (
        g1.kernel.shape == g2.kernel.shape
        and np.array_equal(g1.kernel, g2.kernel)
        and np.array_equal(g1.reward, g2.reward)
        and np.array_equal(g1.cost1, g2.cost1)
        and np.array_equal(g1.cost2, g2.cost2)
        and np.array_equal(g1.mask1, g2.mask1)
        and np.array_equal(g1.mask2, g2.mask2)
        and g1.cost_floor == g2.cost_floor
        and g1.discount == g2.discount
    )


_REQUIRED_KEYS = ("states", "actions1", "actions2", "gamma", "cost_floor",
                  "rewards", "costs1", "costs2", "kernel")


def game_to_dict(game: ImpulseGame) -> dict:
    doc = {
        "states": game.num_states,
        "actions1": game.num_actions1,
        "actions2": game.num_actions2,
        "gamma": game.discount,
        "cost_floor": game.cost_floor,
        "rewards": game.reward.tolist(),
        "costs1": game.cost1[:, 1:].tolist(),
        "costs2": game.cost2[:, 1:].tolist(),
        "kernel": game.kernel.tolist(),
    }
    if not game.mask1.all():
        doc["mask1"] = game.mask1.astype(int).tolist()
    if not game.mask2.all():
        doc["mask2"] = game.mask2.astype(int).tolist()
    return doc


def save_game(game: ImpulseGame, path) -> None:
    """Write the game-spec JSON document (UTF-8, row-major dense arrays)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(game_to_dict(game), f, sort_keys=True, indent=2, allow_nan=False)
        f.write("\n")


def _reject_constant(token):
    raise GameFormatError(f"non-finite literal {token!r} is not allowed in game files")


def _shaped(doc, key, shape):
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"key '{key}' is not a numeric array: {exc}") from None
    if arr.shape != shape:
        raise GameFormatError(f"key '{key}' has shape {arr.shape}, expected {shape}")
    return arr


def _scalar(x, key, kind):
    """``x`` as a Python ``int`` or ``float``; a bool, a string, null or (for
    an int) a fractional number is a format error naming ``key``."""
    abc, noun = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a number")
    if isinstance(x, bool) or not isinstance(x, abc):
        raise GameFormatError(f"key '{key}' must be {noun}, got {x!r}")
    return kind(x)


def game_from_dict(doc: dict) -> ImpulseGame:
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise GameFormatError(f"missing key '{key}'")
    s, na, nb = (_scalar(doc[key], key, int) for key in ("states", "actions1", "actions2"))
    if s < 1 or na < 1 or nb < 1:
        raise GameFormatError("state and action counts must be positive")
    reward = _shaped(doc, "rewards", (s, na, nb))
    kernel = _shaped(doc, "kernel", (s, na, nb, s))
    cost1 = np.zeros((s, na))
    if na > 1:
        cost1[:, 1:] = _shaped(doc, "costs1", (s, na - 1))
    cost2 = np.zeros((s, nb))
    if nb > 1:
        cost2[:, 1:] = _shaped(doc, "costs2", (s, nb - 1))
    mask1 = mask2 = None
    if "mask1" in doc:
        mask1 = _shaped(doc, "mask1", (s, na)).astype(bool)
    if "mask2" in doc:
        mask2 = _shaped(doc, "mask2", (s, nb)).astype(bool)
    game = ImpulseGame(kernel=kernel, reward=reward, cost1=cost1, cost2=cost2,
                       cost_floor=_scalar(doc["cost_floor"], "cost_floor", float),
                       discount=_scalar(doc["gamma"], "gamma", float),
                       mask1=mask1, mask2=mask2)
    violations = validate(game)
    if violations:
        raise GameValidationError(violations)
    return game


def load_game(path) -> ImpulseGame:
    """Parse and validate a game-spec JSON file.

    Raises ``GameFormatError`` naming the offending key on schema problems
    and ``GameValidationError`` carrying the violation list on semantic ones.
    """
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise GameFormatError("top-level JSON value must be an object")
    return game_from_dict(doc)


def load_basis(path):
    """Read the optional `basis` matrix from a game-spec file, or None."""
    with open(path, encoding="utf-8") as f:
        doc = json.loads(f.read(), parse_constant=_reject_constant)
    if "basis" not in doc:
        return None
    arr = np.asarray(doc["basis"], dtype=float)
    if arr.ndim != 2 or arr.shape[0] != int(doc.get("states", arr.shape[0])):
        raise GameFormatError("key 'basis' must be a (states x features) matrix")
    return arr
