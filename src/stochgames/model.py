"""Core data model: arenas, exact distributions, strategies, objectives.

Also owns the JSON game/strategy file formats.  Probabilities are exact
rationals end to end; nothing in this module ever rounds.  A
``Distribution`` keeps its weights once, as integer numerators over one
denominator, the form its sum check computes; solving and evaluation read
that form or the support, and the ``Fraction`` mapping is a view built
when something reads it.  State and action ids are strings in files and
dense integers internally, ordered by file order, so every enumeration
downstream is canonical.

Parsers translate and constructors validate: ``parse_game`` and
``parse_strategy`` check a document's shape and resolve its names, while
``Distribution``, ``Arena`` and ``FiniteMemoryStrategy`` own every semantic
invariant, so objects built in code and parsed from files meet the same
rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import Iterable, Mapping

from .bitset import mask_of
from .errors import SchemaError, ValidationError

EVE = "eve"
ADAM = "adam"
PLAYERS = (EVE, ADAM)

_GAME_KEYS = {
    "states",
    "init",
    "final",
    "eve_actions",
    "adam_actions",
    "eve_obs",
    "adam_obs",
    "transitions",
}
_TRANSITION_KEYS = {"from", "eve", "adam", "to"}
_STRATEGY_KEYS = {"owner", "memory", "init", "move", "update"}


def _plain_ratio(raw) -> Fraction | None:
    """The value of an int, or of an ASCII "digits/digits" string with a
    non-zero denominator; None for anything else, which
    ``parse_probability`` parses or rejects."""
    if type(raw) is int:
        return Fraction(raw)
    if type(raw) is str:
        num, slash, den = raw.partition("/")
        if slash and num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
            try:
                d = int(den)
                return Fraction(int(num), d) if d else None
            except ValueError:  # past int's digit limit, as for Fraction(raw)
                return None
    return None


def parse_probability(raw, where: str) -> Fraction:
    """Parse a probability written as an integer or a string.

    A string is read in the syntax of Python's ``Fraction``: "num/den" with
    optional sign and surrounding whitespace, or a decimal such as "0.5" or
    "1e-1"; digits may be any Unicode decimal digits, grouped by single
    underscores.  Floats are rejected: the file format is exact by design.
    The range is left to ``Distribution``: positive weights summing to 1
    lie in [0,1].
    """
    value = _plain_ratio(raw)
    if value is not None:
        return value
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise SchemaError(f"{where}: probability must be an integer or 'num/den' string, got {raw!r}")
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: cannot parse probability {raw!r}") from exc
    return value


def format_probability(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class Distribution:
    """Probability distribution over a finite set, with explicit support.

    Weights are exact rationals, each strictly positive, summing to exactly 1.
    The support is exactly the key set; zero entries are rejected rather than
    dropped so that a declared support is always intentional.

    The weights are stored once, in integers over one denominator: ``den``
    is the lcm of their reduced denominators, and ``nums`` maps each element,
    in insertion order, to its numerator over ``den``, so the weight of x is
    ``nums[x] / den`` and the nums sum to ``den``.  Both are read-only.  The
    ``Fraction`` mapping that ``items()`` and ``[]`` read is built from them
    when first read; solving and evaluation read the integers alone.
    """

    __slots__ = ("den", "nums", "_fractions")

    def __init__(self, weights: Mapping):
        w = {}
        for elem, p in weights.items():
            if type(p) is not Fraction:
                p = Fraction(p)
            if p.numerator <= 0:
                raise ValidationError(
                    f"zero-weight or negative entry for {elem!r}; drop it or make it positive"
                )
            w[elem] = p
        if not w:
            raise ValidationError("distribution must have a non-empty support")
        den = lcm(*[p.denominator for p in w.values()])
        nums = {elem: p.numerator * (den // p.denominator) for elem, p in w.items()}
        total = sum(nums.values())
        if total != den:
            raise ValidationError(f"distribution weights sum to {Fraction(total, den)}, expected exactly 1")
        self.den = den
        self.nums = nums
        self._fractions = None

    @classmethod
    def point(cls, elem) -> "Distribution":
        return cls({elem: Fraction(1)})

    @classmethod
    def uniform(cls, elems: Iterable) -> "Distribution":
        elems = list(elems)
        return cls({e: Fraction(1, len(elems)) for e in elems})

    def _weights(self) -> dict:
        """The ``Fraction`` view of the weights, built on first read."""
        view = self._fractions
        if view is None:
            den = self.den
            view = self._fractions = {e: Fraction(n, den) for e, n in self.nums.items()}
        return view

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.nums))

    def items(self):
        return self._weights().items()

    def __getitem__(self, elem) -> Fraction:
        return self._weights().get(elem, Fraction(0))

    def __contains__(self, elem) -> bool:
        return elem in self.nums

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{e!r}: {format_probability(p)}" for e, p in sorted(self.items(), key=repr))
        return f"Distribution({{{inner}}})"

    def __reduce__(self):
        return (Distribution, (self._weights(),))


class Objective(Enum):
    """Winning condition, always evaluated against the arena's final set."""

    REACHABILITY = "reach"
    SAFETY = "safety"
    BUCHI = "buchi"
    COBUCHI = "cobuchi"

    @classmethod
    def from_name(cls, name: str) -> "Objective":
        for obj in cls:
            if obj.value == name:
                return obj
        raise ValidationError(f"unknown objective {name!r}")


@dataclass(frozen=True)
class Arena:
    """Concurrent arena with imperfect information on both sides.

    ``transition`` is total: it maps every (state, eve action, adam action)
    triple to a distribution over state indices.  ``eve_obs``/``adam_obs``
    are partitions of the states into observation blocks; each player only
    ever sees the index of the block the current state lies in.  State and
    action names are distinct.
    """

    states: tuple[str, ...]
    init: int
    eve_actions: tuple[str, ...]
    adam_actions: tuple[str, ...]
    transition: Mapping[tuple[int, int, int], Distribution]
    eve_obs: tuple[tuple[int, ...], ...]
    adam_obs: tuple[tuple[int, ...], ...]
    final: frozenset[int]

    def __post_init__(self):
        n = len(self.states)
        if n == 0:
            raise ValidationError("arena needs at least one state")
        if len(set(self.states)) != n:
            raise ValidationError("duplicate state names")
        if not 0 <= self.init < n:
            raise ValidationError("init is not a state index")
        if not self.eve_actions or not self.adam_actions:
            raise ValidationError("both players need at least one action")
        for key, names in (("eve_actions", self.eve_actions), ("adam_actions", self.adam_actions)):
            if len(set(names)) != len(names):
                raise ValidationError(f"duplicate names in {key!r}")
        for f in self.final:
            if not 0 <= f < n:
                raise ValidationError("final contains a non-state index")
        for key, obs in (("eve_obs", self.eve_obs), ("adam_obs", self.adam_obs)):
            seen = set()
            for b, block in enumerate(obs):
                if not block:
                    raise ValidationError(f"{key}[{b}] is an empty block, not a partition")
                for s in block:
                    if not 0 <= s < n:
                        raise ValidationError(f"{key}[{b}] holds the non-state index {s}")
                    if s in seen:
                        raise ValidationError(f"{key} lists state {self.states[s]!r} twice, not a partition")
                    seen.add(s)
            if len(seen) != n:
                raise ValidationError(f"{key} does not cover all states, not a partition")
        n_eve, n_adam = len(self.eve_actions), len(self.adam_actions)
        for (s, e, a), dist in self.transition.items():
            if not (0 <= s < n and 0 <= e < n_eve and 0 <= a < n_adam):
                raise ValidationError(f"transition key ({s},{e},{a}) out of range")
            for t in dist.nums:
                if not 0 <= t < n:
                    raise ValidationError(f"transition from ({s},{e},{a}) targets a non-state index")
        if len(self.transition) != n * n_eve * n_adam:
            triples = product(range(n), range(n_eve), range(n_adam))
            s, e, a = next(k for k in triples if k not in self.transition)
            raise ValidationError(
                "transition function not total: no entry for "
                f"({self.states[s]},{self.eve_actions[e]},{self.adam_actions[a]})"
            )

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def eve_action_index(self) -> Mapping[str, int]:
        return {name: i for i, name in enumerate(self.eve_actions)}

    @cached_property
    def eve_block_of(self) -> tuple[int, ...]:
        return self._block_lookup(self.eve_obs)

    @cached_property
    def adam_block_of(self) -> tuple[int, ...]:
        return self._block_lookup(self.adam_obs)

    @cached_property
    def post(self) -> tuple[tuple[int, ...], ...]:
        """``post[s][e]``: mask of the states reachable from s under Eve's
        action e and some Adam action."""
        adam = range(len(self.adam_actions))
        return tuple(
            tuple(
                mask_of(t for a in adam for t in self.transition[(s, e, a)].nums)
                for e in range(len(self.eve_actions))
            )
            for s in range(len(self.states))
        )

    def _block_lookup(self, obs) -> tuple[int, ...]:
        lookup = [0] * len(self.states)
        for b, block in enumerate(obs):
            for s in block:
                lookup[s] = b
        return tuple(lookup)

    def actions(self, player: str) -> tuple[str, ...]:
        return self.eve_actions if player == EVE else self.adam_actions

    def obs_blocks(self, player: str) -> tuple[tuple[int, ...], ...]:
        return self.eve_obs if player == EVE else self.adam_obs

    def block_of(self, player: str) -> tuple[int, ...]:
        return self.eve_block_of if player == EVE else self.adam_block_of


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class FiniteMemoryStrategy:
    """Observation-based strategy implemented by a finite transducer.

    ``move`` maps each memory to a distribution over the owner's action
    names; ``update`` maps (memory, observation block index) to the next
    memory.  The first move is taken from the initial memory without
    observing anything; updates consume the block of each subsequent state.
    Memory names are hashable, and so is every value that names one.
    """

    owner: str
    memory: tuple[str, ...]
    init_mem: str
    move: Mapping[str, Distribution]
    update: Mapping[str, Mapping[int, str]]

    def __post_init__(self):
        if self.owner not in PLAYERS:
            raise ValidationError(f"strategy owner must be one of {PLAYERS}, got {self.owner!r}")
        names = self.memory
        if not names or not all(map(_hashable, names)) or len(set(names)) != len(names):
            raise ValidationError("strategy memory must be a non-empty list of unique names")
        mems = set(names)
        if not _hashable(self.init_mem) or self.init_mem not in mems:
            raise ValidationError(f"init memory {self.init_mem!r} is not in the memory set")
        if set(self.move) != mems:
            raise ValidationError("move must be defined for exactly the memory set")
        if set(self.update) != mems:
            raise ValidationError("update must be defined for exactly the memory set")
        for m, row in self.update.items():
            for b, target in row.items():
                if not isinstance(b, int) or b < 0:
                    raise ValidationError(f"update[{m!r}] keyed by invalid block index {b!r}")
                if not _hashable(target) or target not in mems:
                    raise ValidationError(f"update[{m!r}][{b}] targets unknown memory {target!r}")

    @classmethod
    def constant(cls, owner: str, action: str, n_blocks: int) -> "FiniteMemoryStrategy":
        """Memoryless strategy that always plays a single action."""
        return cls.memoryless_uniform(owner, (action,), n_blocks)

    @classmethod
    def memoryless_uniform(cls, owner: str, actions: Iterable[str], n_blocks: int) -> "FiniteMemoryStrategy":
        return cls(
            owner=owner,
            memory=("m0",),
            init_mem="m0",
            move={"m0": Distribution.uniform(actions)},
            update={"m0": {b: "m0" for b in range(n_blocks)}},
        )


def validate_strategy(arena: Arena, owner: str, strat: FiniteMemoryStrategy) -> None:
    """Check that a strategy is playable by ``owner`` in ``arena``.

    Moves must range over the owner's actions and update must be total over
    memory x the owner's observation blocks.  Raises ValidationError naming
    the offending key.
    """
    if owner not in PLAYERS:
        raise ValidationError(f"owner must be one of {PLAYERS}, got {owner!r}")
    if strat.owner != owner:
        raise ValidationError(f"strategy owned by {strat.owner!r}, expected {owner!r}")
    alphabet = set(arena.actions(owner))
    for m, dist in strat.move.items():
        for action in dist.support:
            if action not in alphabet:
                raise ValidationError(f"move[{m!r}] plays {action!r}, not an action of {owner}")
    blocks = range(len(arena.obs_blocks(owner)))
    for m, row in strat.update.items():
        for b in blocks:
            if b not in row:
                raise ValidationError(f"update[{m!r}] lacks observation block {b}")
        for b in row:
            if b >= len(arena.obs_blocks(owner)):
                raise ValidationError(f"update[{m!r}] keyed by unknown observation block {b}")


# ---------------------------------------------------------------------------
# File format


def _load_object(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{what}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{what}: top level must be an object")
    return doc


def _check_keys(doc: dict, required: set[str], what: str) -> None:
    missing = required - doc.keys()
    if missing:
        raise SchemaError(f"{what}: missing keys {sorted(missing)}")
    extra = doc.keys() - required
    if extra:
        raise SchemaError(f"{what}: unknown keys {sorted(extra)}")


def _string_list(doc: dict, key: str, what: str) -> list[str]:
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{what}: {key!r} must be an array of strings")
    return value


def parse_game(text: str) -> Arena:
    """Translate a game document into an Arena.

    Raises SchemaError for structural problems.  Raises ValidationError for
    unknown names, a state listed twice in 'final', a triple listed twice in
    'transitions', and every invariant that Distribution and Arena check
    (non-total transition function, bad weights, broken partitions).
    """
    doc = _load_object(text, "game")
    _check_keys(doc, _GAME_KEYS, "game")

    states = _string_list(doc, "states", "game")
    index = {name: i for i, name in enumerate(states)}

    def state_id(name, where):
        if not isinstance(name, str) or name not in index:
            raise ValidationError(f"{where}: unknown state {name!r}")
        return index[name]

    init = state_id(doc["init"], "game: init")
    final = []
    for name in _string_list(doc, "final", "game"):
        f = state_id(name, "game: final")
        if f in final:
            raise ValidationError(f"game: final lists {name!r} twice")
        final.append(f)

    eve_actions = _string_list(doc, "eve_actions", "game")
    adam_actions = _string_list(doc, "adam_actions", "game")

    partitions = {}
    for key in ("eve_obs", "adam_obs"):
        raw = doc[key]
        if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
            raise SchemaError(f"game: {key!r} must be an array of arrays")
        partitions[key] = tuple(
            tuple(sorted(state_id(name, f"game: {key}[{b}]") for name in block))
            for b, block in enumerate(raw)
        )

    raw_transitions = doc["transitions"]
    if not isinstance(raw_transitions, list):
        raise SchemaError("game: 'transitions' must be an array")
    transition: dict[tuple[int, int, int], Distribution] = {}
    eve_index = {a: i for i, a in enumerate(eve_actions)}
    adam_index = {a: i for i, a in enumerate(adam_actions)}
    # each location is formatted on its error path only
    for k, entry in enumerate(raw_transitions):
        if not isinstance(entry, dict) or entry.keys() != _TRANSITION_KEYS:
            raise SchemaError(f"game: transitions[{k}]: must be an object with keys from/eve/adam/to")
        src, eve, adam, to = entry["from"], entry["eve"], entry["adam"], entry["to"]
        s = index.get(src) if isinstance(src, str) else None
        if s is None:
            raise ValidationError(f"game: transitions[{k}]: unknown state {src!r}")
        e = eve_index.get(eve) if isinstance(eve, str) else None
        if e is None:
            raise ValidationError(f"game: transitions[{k}]: unknown eve action {eve!r}")
        a = adam_index.get(adam) if isinstance(adam, str) else None
        if a is None:
            raise ValidationError(f"game: transitions[{k}]: unknown adam action {adam!r}")
        if (s, e, a) in transition:
            raise ValidationError(f"game: transitions[{k}]: duplicate transition for ({src},{eve},{adam})")
        if not isinstance(to, dict) or not to:
            raise SchemaError(f"game: transitions[{k}]: 'to' must be a non-empty object")
        weights = {}
        for name, raw in to.items():
            t = index.get(name)
            if t is None:
                raise ValidationError(f"game: transitions[{k}]: unknown state {name!r}")
            p = _plain_ratio(raw)
            weights[t] = parse_probability(raw, f"game: transitions[{k}]: to[{name!r}]") if p is None else p
        try:
            transition[(s, e, a)] = Distribution(weights)
        except ValidationError as exc:
            # Distribution saw state indices; the same check keyed by the
            # names gives the error that names the state
            try:
                Distribution(dict(zip(to, weights.values())))
            except ValidationError as named:
                exc = named
            raise ValidationError(f"game: transitions[{k}]: {exc}") from exc

    try:
        return Arena(
            states=tuple(states),
            init=init,
            eve_actions=tuple(eve_actions),
            adam_actions=tuple(adam_actions),
            transition=transition,
            eve_obs=partitions["eve_obs"],
            adam_obs=partitions["adam_obs"],
            final=frozenset(final),
        )
    except ValidationError as exc:
        raise ValidationError(f"game: {exc}") from exc


def _weight_strings(dist: Distribution) -> list[tuple]:
    """(element, "num/den") pairs of ``dist`` in element order, each weight
    reduced, formatted from the integer form without building the
    ``Fraction`` view."""
    return [(x, format_probability(Fraction(num, dist.den))) for x, num in sorted(dist.nums.items())]


def serialize_game(arena: Arena) -> str:
    """Canonical document for an arena; parse_game(serialize_game(a)) == a."""
    doc = {
        "states": list(arena.states),
        "init": arena.states[arena.init],
        "final": [arena.states[s] for s in sorted(arena.final)],
        "eve_actions": list(arena.eve_actions),
        "adam_actions": list(arena.adam_actions),
        "eve_obs": [[arena.states[s] for s in block] for block in arena.eve_obs],
        "adam_obs": [[arena.states[s] for s in block] for block in arena.adam_obs],
        "transitions": [
            {
                "from": arena.states[s],
                "eve": arena.eve_actions[e],
                "adam": arena.adam_actions[a],
                "to": {arena.states[t]: w for t, w in _weight_strings(arena.transition[(s, e, a)])},
            }
            for (s, e, a) in sorted(arena.transition)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_strategy(text: str) -> FiniteMemoryStrategy:
    """Translate a strategy document into a FiniteMemoryStrategy, which
    checks its own invariants.  Arena-dependent checks (action names, block
    totality) are left to validate_strategy."""
    doc = _load_object(text, "strategy")
    _check_keys(doc, _STRATEGY_KEYS, "strategy")
    memory = _string_list(doc, "memory", "strategy")
    raw_move = doc["move"]
    raw_update = doc["update"]
    if not isinstance(raw_move, dict) or not isinstance(raw_update, dict):
        raise SchemaError("strategy: 'move' and 'update' must be objects")
    move = {}
    for m, row in raw_move.items():
        if not isinstance(row, dict) or not row:
            raise SchemaError(f"strategy: move[{m!r}] must be a non-empty object")
        try:
            move[m] = Distribution(
                {a: parse_probability(p, f"strategy: move[{m!r}][{a!r}]") for a, p in row.items()}
            )
        except ValidationError as exc:
            raise ValidationError(f"strategy: move[{m!r}]: {exc}") from exc
    update = {}
    for m, row in raw_update.items():
        if not isinstance(row, dict):
            raise SchemaError(f"strategy: update[{m!r}] must be an object")
        parsed = {}
        for b, target in row.items():
            if not (b.isascii() and b.isdigit()):
                raise SchemaError(f"strategy: update[{m!r}] block key {b!r} is not an index")
            parsed[int(b)] = target
        update[m] = parsed
    names = [doc["init"], *(target for row in update.values() for target in row.values())]
    if any(isinstance(name, (list, dict)) for name in names):
        raise SchemaError("strategy: 'init' and update targets must name a memory, not hold an array or object")
    return FiniteMemoryStrategy(
        owner=doc["owner"],
        memory=tuple(memory),
        init_mem=doc["init"],
        move=move,
        update=update,
    )


def serialize_strategy(strat: FiniteMemoryStrategy) -> str:
    doc = {
        "owner": strat.owner,
        "memory": list(strat.memory),
        "init": strat.init_mem,
        "move": {m: dict(_weight_strings(strat.move[m])) for m in strat.memory},
        "update": {
            m: {str(b): strat.update[m][b] for b in sorted(strat.update[m])}
            for m in strat.memory
        },
    }
    return json.dumps(doc, indent=2) + "\n"
