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
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import NamedTuple

import numpy as np

KAPPA_DEFAULT = 0.1

KERNEL_ROW_TOL = 1e-12

# Largest transition kernel S*A*B*S (float64 entries, 128 MB at the limit) a
# game may have; checked from the counts before any table is built.
MAX_KERNEL_ENTRIES = 16_000_000


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
        shown = [v.message for v in self.violations[:3]]
        if len(self.violations) > 3:
            shown[-1] += f" ({len(self.violations) - 3} more)"
        super().__init__("; ".join(shown))


def _frozen_array(values, dtype=float):
    """``values`` as a read-only C-contiguous ``dtype`` array.  A read-only
    array that owns its memory (another game's table, say) is kept as it is;
    an array made here from a list or by a dtype or layout change is frozen
    in place; a view, or a writeable array the caller passed in, is copied,
    so later writes to it leave the game unchanged."""
    arr = np.asarray(values, dtype=dtype, order="C")
    if not arr.flags.owndata or (arr is values and arr.flags.writeable):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _write_whole(path, write, newline=None) -> None:
    """Write through a temporary file renamed into place, so a write that
    fails part-way leaves no partial output behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as f:
            write(f)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON, byte for byte what ``json.dump(obj, f,
    sort_keys=True, indent=2, allow_nan=False)`` and a final newline write,
    through :func:`_write_whole`.

    Besides what ``json`` takes (dicts with string keys, lists, tuples and
    scalars), ``obj`` may hold numpy arrays, written as their ``tolist()``:
    a float or integer array is formatted in blocks along its leading axis,
    one ``repr`` map per block, and each block is written before the next is
    made.  A list of flat dicts with one key set (records) is formatted with
    one row template; such a list, or one of scalars, is written a batch of
    items at a time.  A non-finite float, in an array or not, raises
    ``ValueError`` and leaves no file."""
    _write_whole(path, lambda f: (f.writelines(_encode(obj, 0)), f.write("\n")))


# Rows of a CSV file formatted at a time.
_BLOCK_ROWS = 1 << 12


def _csv_quote(text: str) -> str:
    """``text`` as a field of ``csv.writer``'s default dialect: quoted, with
    inner quotes doubled, when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_fields(values) -> list:
    """The fields of a 1-D array as ``csv.writer`` writes them, each distinct
    value formatted once: floats (told apart by their bits, so ``-0.0`` is
    not ``0.0``) with ``repr``, ints and bools with ``str``, strings quoted."""
    if values.dtype == np.float64:
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        texts = [repr(x) for x in keys.view(np.float64).tolist()]
    else:
        keys, inverse = np.unique(values, return_inverse=True)
        fmt = _csv_quote if values.dtype.kind == "U" else str
        texts = [fmt(x) for x in keys.tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def _write_csv(path, header, columns) -> None:
    """Write equal-length 1-D arrays ``columns`` (two or more; float64, int,
    bool or str) under ``header``: the bytes of ``csv.writer`` with its
    default dialect, CRLF line ends, formatted ``_BLOCK_ROWS`` rows at a time,
    through :func:`_write_whole`."""
    def write(f):
        f.write(",".join(map(_csv_quote, header)) + "\r\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            fields = [_csv_fields(col[lo:lo + _BLOCK_ROWS]) for col in columns]
            f.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
    _write_whole(path, write, newline="")


# Numbers of an array, and items of a list of scalars or records, formatted
# per piece: a piece's strings and text are what writing a table holds beyond
# the table itself.
_BLOCK_NUMBERS = 1 << 11
_BLOCK_ITEMS = 1 << 8


def _not_compliant(x) -> ValueError:
    return ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _json_float(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise _not_compliant(x)


def _json_scalar(x) -> str:
    """A scalar as ``json`` writes it; the checks run in ``json``'s order."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _json_float(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


# Encoders of a column whose values all have exactly one of these types.
_COLUMN_ENCODERS = {str: _quote, int: int.__repr__, float: _json_float,
                    bool: lambda x: "true" if x else "false", type(None): lambda x: "null"}


def _encode(obj, level: int):
    """The JSON text of ``obj`` at nesting ``level``, in pieces."""
    inner, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, np.ndarray):
        yield from _array(obj, level)
    elif isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            yield sep + _quote(key) + ": "
            yield from _encode(value, level + 1)
            sep = "," + inner
        yield close + "}" if obj else "{}"
    elif isinstance(obj, (list, tuple)):
        items = _records(obj, level + 1)
        if items is None and not any(isinstance(x, (dict, list, tuple, np.ndarray))
                                     for x in obj):
            items = map(_json_scalar, obj)
        if not obj:
            yield "[]"
        elif items is not None:
            sep = "[" + inner
            while batch := list(islice(items, _BLOCK_ITEMS)):
                yield sep + ("," + inner).join(batch)
                sep = "," + inner
            yield close + "]"
        else:
            sep = "[" + inner
            for item in obj:
                yield sep
                yield from _encode(item, level + 1)
                sep = "," + inner
            yield close + "]"
    else:
        yield _json_scalar(obj)


def _records(rows, level: int):
    """The texts of ``rows`` at nesting ``level``, one per row, made as they
    are read, when ``rows`` is a list of flat dicts sharing one key set
    (records): each column has one encoder, picked from its value types, and
    each row is filled into one template.  None for any other list."""
    if not rows or type(rows[0]) is not dict or not rows[0]:
        return None
    keys = rows[0].keys()
    if not all(type(row) is dict and row.keys() == keys for row in rows):
        return None
    keys = sorted(keys)
    columns = []
    for key in keys:
        kinds = set(map(type, map(itemgetter(key), rows)))
        if not kinds <= _COLUMN_ENCODERS.keys():
            return None  # a container or a subclass: the generic path
        encode = _COLUMN_ENCODERS[kinds.pop()] if len(kinds) == 1 else _json_scalar
        columns.append(map(encode, map(itemgetter(key), rows)))
    inner = "\n" + "  " * (level + 1)
    template = ("{" + ",".join(inner + _quote(key).replace("%", "%%") + ": %s" for key in keys)
                + "\n" + "  " * level + "}")
    return map(template.__mod__, zip(*columns))


def _array(arr: np.ndarray, level: int):
    """The text of ``arr.tolist()`` at nesting ``level``, in blocks of whole
    rows along the leading axis.  Leaf ``j`` of a block is followed by the
    separator that closes and reopens as many inner lists as the index
    rolls over there, so one join per block places every bracket."""
    if arr.ndim == 0 or arr.size == 0 or arr.dtype.kind not in "fiu":
        yield from _encode(arr.tolist(), level)
        return
    k = arr.ndim
    nl = ["\n" + "  " * (level + d) for d in range(k + 1)]
    # seps[r]: between two leaves across r inner list boundaries
    seps = ["".join(nl[k - i] + "]" for i in range(1, r + 1)) + ","
            + "".join(nl[k - i] + "[" for i in range(r, 0, -1)) + nl[k] for r in range(k)]
    row = arr.size // arr.shape[0]
    per_block = max(1, _BLOCK_NUMBERS // row) * row
    pattern = [seps[0]] * per_block
    stride = 1
    for r in range(1, k):
        stride *= arr.shape[k - r]
        pattern[stride - 1::stride] = [seps[r]] * (per_block // stride)
    is_float = arr.dtype.kind == "f"
    flat = arr.reshape(-1)
    yield "".join("[" + nl[d] for d in range(1, k + 1))
    for start in range(0, flat.size, per_block):
        block = flat[start:start + per_block]
        if is_float and not np.isfinite(block).all():
            raise _not_compliant(block[~np.isfinite(block)][0].item())
        parts = [None] * (2 * block.size)
        parts[0::2] = map(float.__repr__ if is_float else int.__repr__, block.tolist())
        parts[1::2] = pattern[:block.size]
        if start + per_block >= flat.size:
            parts[-1] = "".join(nl[k - i] + "]" for i in range(1, k + 1))
        yield "".join(parts)


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

    Every table is stored read-only.  A read-only C-contiguous array of the
    right dtype that owns its memory (another game's table, say) is shared,
    not copied; a view or a writeable array is copied, so the caller may go
    on changing it; a list or an array of another dtype is converted once
    and the conversion is kept.  Only the array's own flags are checked: a
    caller that hands over a read-only array must not make it writeable
    again or keep a writeable view of it, or every game sharing it changes.
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
        column ``a`` is ``(a, 0)``, ``A - 1 + b`` is ``(0, b)``.  A net reward
        is the raw reward plus :attr:`cell_costs`."""
        kernel = to_cells(self.kernel)
        net = to_cells(self.reward) + self.cell_costs
        kernel.setflags(write=False)
        net.setflags(write=False)
        return kernel, net

    @cached_property
    def cell_costs(self) -> np.ndarray:
        """What executing each cell of :attr:`cells` adds to its raw reward,
        ``(S, A+B-1)``: ``-cost1`` for ``(a, 0)``, ``+cost2`` for ``(0, b)``,
        -inf / +inf where the action is masked, and -0.0 for the null pair
        (the zero that leaves every reward's bits as they are)."""
        costs = np.concatenate([np.full((self.num_states, 1), -0.0),
                                np.where(self.mask1[:, 1:], -self.cost1[:, 1:], -np.inf),
                                np.where(self.mask2[:, 1:], self.cost2[:, 1:], np.inf)],
                               axis=1)
        costs.setflags(write=False)
        return costs


def check_kernel_size(num_states: int, num_actions1: int, num_actions2: int) -> None:
    """Refuse a game whose kernel would exceed ``MAX_KERNEL_ENTRIES``, before
    anything is allocated.  Action counts include the null action."""
    entries = num_states * num_states * num_actions1 * num_actions2
    if entries > MAX_KERNEL_ENTRIES:
        raise ValueError(
            f"a game of {num_states} states and {num_actions1}x{num_actions2} action pairs "
            f"has {entries} kernel entries, above the limit of {MAX_KERNEL_ENTRIES}")


def to_cells(table: np.ndarray) -> np.ndarray:
    """``table[:, a, b, ...]`` at the pairs that can execute, in the layout of
    :attr:`ImpulseGame.cells`: shape ``(S, A+B-1, ...)``."""
    return np.concatenate([table[:, :, 0], table[:, 0, 1:]], axis=1)


def cell_index(num_actions1: int, a, b) -> np.ndarray:
    """The column of :attr:`ImpulseGame.cells` that the pairs ``(a, b)``
    execute (arrays of actions, elementwise): ``A - 1 + b`` where Player 2
    acts, which takes precedence, else ``a``."""
    return np.where(b != 0, b + (num_actions1 - 1), a)


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
            f"kernel row (s={s}, a={a}, b={b}) sums to {float(row_sums[s, a, b])!r}, expected 1",
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
                    f"cost{name}(s={s}, action={j + 1}) = {float(costs[s, j + 1])!r} "
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
    check_kernel_size(num_states, na, nb)
    rng = np.random.default_rng(seed)
    kernel = rng.uniform(0.1, 1.0, size=(num_states, na, nb, num_states))
    kernel /= kernel.sum(axis=3, keepdims=True)
    reward = rng.uniform(-1.0, 1.0, size=(num_states, na, nb))
    cost1 = np.zeros((num_states, na))
    if num_actions1:
        cost1[:, 1:] = rng.uniform(cost_floor, 2 * cost_floor, size=(num_states, num_actions1))
    cost2 = np.zeros((num_states, nb))
    if num_actions2:
        cost2[:, 1:] = rng.uniform(cost_floor, 2 * cost_floor, size=(num_states, num_actions2))
    for table in (kernel, reward, cost1, cost2):
        table.setflags(write=False)
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


def _game_doc(game: ImpulseGame) -> dict:
    """The game-spec document with its tables as arrays, the one layout
    :func:`game_to_dict` and :func:`save_game` write."""
    doc = {
        "states": game.num_states,
        "actions1": game.num_actions1,
        "actions2": game.num_actions2,
        "gamma": game.discount,
        "cost_floor": game.cost_floor,
        "rewards": game.reward,
        "costs1": game.cost1[:, 1:],
        "costs2": game.cost2[:, 1:],
        "kernel": game.kernel,
    }
    if not game.mask1.all():
        doc["mask1"] = game.mask1.astype(int)
    if not game.mask2.all():
        doc["mask2"] = game.mask2.astype(int)
    return doc


def _plain(doc: dict) -> dict:
    """``doc`` with each array value replaced by its ``tolist()``: the public
    form of a document a private builder makes for :func:`_write_json`."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in doc.items()}


def game_to_dict(game: ImpulseGame) -> dict:
    """The game-spec document as plain JSON-ready lists and scalars."""
    return _plain(_game_doc(game))


def save_game(game: ImpulseGame, path) -> None:
    """Write the game-spec JSON document (UTF-8, row-major dense arrays); the
    tables go to the writer as arrays, so no nested list of them is built."""
    _write_json(path, _game_doc(game))


def _reject_constant(token):
    raise GameFormatError(f"non-finite literal {token!r} is not allowed in game files")


def _numeric(doc, key):
    try:
        return np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"key '{key}' is not a numeric array: {exc}") from None


def _shaped(doc, key, shape):
    arr = _numeric(doc, key)
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
    check_kernel_size(s, na, nb)
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


def _read_spec(path) -> dict:
    """The top-level JSON object of a game-spec file, read strictly: bad JSON,
    a non-finite literal or a top-level value other than an object raises
    ``GameFormatError``."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise GameFormatError("top-level JSON value must be an object")
    return doc


def load_game(path) -> ImpulseGame:
    """Parse and validate a game-spec JSON file.

    Raises ``GameFormatError`` naming the offending key on schema problems
    and ``GameValidationError`` carrying the violation list on semantic ones.
    """
    return game_from_dict(_read_spec(path))


def _basis_from_dict(doc: dict):
    """The optional `basis` matrix of a parsed game-spec document, or None."""
    if "basis" not in doc:
        return None
    arr = _numeric(doc, "basis")
    if arr.ndim != 2 or arr.shape[0] != _scalar(doc.get("states", arr.shape[0]), "states", int):
        raise GameFormatError("key 'basis' must be a (states x features) matrix")
    return arr


def load_basis(path):
    """Read the optional `basis` matrix from a game-spec file, or None."""
    return _basis_from_dict(_read_spec(path))
