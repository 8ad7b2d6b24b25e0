"""Core data model: arenas, exact distributions, strategies, objectives.

Also owns the JSON game/strategy file formats.  Probabilities are exact
rationals end to end; nothing in this module ever rounds.  State and action
ids are strings in files and dense integers internally, ordered by file
order, so every enumeration downstream is canonical.

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
_STRATEGY_KEYS = {"owner", "memory", "init", "move", "update"}


def parse_probability(raw, where: str) -> Fraction:
    """Parse a probability written as an integer or a "num/den" string.

    Floats are rejected: the file format is exact by design.  The range is
    left to ``Distribution``: positive weights summing to 1 lie in [0,1].
    """
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
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Mapping):
        w = {}
        total = Fraction(0)
        for elem, p in weights.items():
            p = Fraction(p)
            if p <= 0:
                raise ValidationError(
                    f"zero-weight or negative entry for {elem!r}; drop it or make it positive"
                )
            w[elem] = p
            total += p
        if not w:
            raise ValidationError("distribution must have a non-empty support")
        if total != 1:
            raise ValidationError(f"distribution weights sum to {total}, expected exactly 1")
        self._weights = w

    @classmethod
    def point(cls, elem) -> "Distribution":
        return cls({elem: Fraction(1)})

    @classmethod
    def uniform(cls, elems: Iterable) -> "Distribution":
        elems = list(elems)
        return cls({e: Fraction(1, len(elems)) for e in elems})

    @property
    def support(self) -> tuple:
        return tuple(sorted(self._weights))

    def items(self):
        return self._weights.items()

    def __getitem__(self, elem) -> Fraction:
        return self._weights.get(elem, Fraction(0))

    def __contains__(self, elem) -> bool:
        return elem in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self._weights == other._weights

    def __hash__(self):
        return hash(frozenset(self._weights.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{e!r}: {format_probability(p)}" for e, p in sorted(self._weights.items(), key=repr))
        return f"Distribution({{{inner}}})"

    def __reduce__(self):
        return (Distribution, (self._weights,))


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
            for t, _q in dist.items():
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
                mask_of(t for a in adam for t, _q in self.transition[(s, e, a)].items())
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


@dataclass(frozen=True)
class FiniteMemoryStrategy:
    """Observation-based strategy implemented by a finite transducer.

    ``move`` maps each memory to a distribution over the owner's action
    names; ``update`` maps (memory, observation block index) to the next
    memory.  The first move is taken from the initial memory without
    observing anything; updates consume the block of each subsequent state.
    """

    owner: str
    memory: tuple[str, ...]
    init_mem: str
    move: Mapping[str, Distribution]
    update: Mapping[str, Mapping[int, str]]

    def __post_init__(self):
        if self.owner not in PLAYERS:
            raise ValidationError(f"strategy owner must be one of {PLAYERS}, got {self.owner!r}")
        if not self.memory or len(set(self.memory)) != len(self.memory):
            raise ValidationError("strategy memory must be a non-empty list of unique names")
        mems = set(self.memory)
        if self.init_mem not in mems:
            raise ValidationError(f"init memory {self.init_mem!r} is not in the memory set")
        if set(self.move) != mems:
            raise ValidationError("move must be defined for exactly the memory set")
        if set(self.update) != mems:
            raise ValidationError("update must be defined for exactly the memory set")
        for m, row in self.update.items():
            for b, target in row.items():
                if not isinstance(b, int) or b < 0:
                    raise ValidationError(f"update[{m!r}] keyed by invalid block index {b!r}")
                if target not in mems:
                    raise ValidationError(f"update[{m!r}][{b}] targets unknown memory {target!r}")

    @classmethod
    def constant(cls, owner: str, action: str, n_blocks: int, name: str = "m0") -> "FiniteMemoryStrategy":
        """Memoryless strategy that always plays a single action."""
        return cls(
            owner=owner,
            memory=(name,),
            init_mem=name,
            move={name: Distribution.point(action)},
            update={name: {b: name for b in range(n_blocks)}},
        )

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
    for k, entry in enumerate(raw_transitions):
        where = f"game: transitions[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"from", "eve", "adam", "to"}:
            raise SchemaError(f"{where}: must be an object with keys from/eve/adam/to")
        s = state_id(entry["from"], where)
        if not isinstance(entry["eve"], str) or entry["eve"] not in eve_index:
            raise ValidationError(f"{where}: unknown eve action {entry['eve']!r}")
        if not isinstance(entry["adam"], str) or entry["adam"] not in adam_index:
            raise ValidationError(f"{where}: unknown adam action {entry['adam']!r}")
        e, a = eve_index[entry["eve"]], adam_index[entry["adam"]]
        if (s, e, a) in transition:
            raise ValidationError(f"{where}: duplicate transition for ({entry['from']},{entry['eve']},{entry['adam']})")
        to = entry["to"]
        if not isinstance(to, dict) or not to:
            raise SchemaError(f"{where}: 'to' must be a non-empty object")
        weights = {
            state_id(name, where): parse_probability(raw, f"{where}: to[{name!r}]") for name, raw in to.items()
        }
        try:
            transition[(s, e, a)] = Distribution(weights)
        except ValidationError as exc:
            # Distribution saw state indices; the same check keyed by the
            # names gives the error that names the state
            try:
                Distribution(dict(zip(to, weights.values())))
            except ValidationError as named:
                exc = named
            raise ValidationError(f"{where}: {exc}") from exc

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
                "to": {
                    arena.states[t]: format_probability(p)
                    for t, p in sorted(arena.transition[(s, e, a)].items())
                },
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
    try:
        return FiniteMemoryStrategy(
            owner=doc["owner"],
            memory=tuple(memory),
            init_mem=doc["init"],
            move=move,
            update=update,
        )
    except TypeError as exc:
        raise SchemaError(f"strategy: {exc}") from exc


def serialize_strategy(strat: FiniteMemoryStrategy) -> str:
    doc = {
        "owner": strat.owner,
        "memory": list(strat.memory),
        "init": strat.init_mem,
        "move": {
            m: {a: format_probability(p) for a, p in sorted(strat.move[m].items())}
            for m in strat.memory
        },
        "update": {
            m: {str(b): strat.update[m][b] for b in sorted(strat.update[m])}
            for m in strat.memory
        },
    }
    return json.dumps(doc, indent=2) + "\n"
