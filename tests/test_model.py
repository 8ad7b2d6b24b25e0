import dataclasses
import hashlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgames import (
    Distribution,
    GameError,
    Objective,
    SchemaError,
    ValidationError,
    parse_game,
    parse_strategy,
    serialize_game,
    serialize_strategy,
    validate_strategy,
)
from stochgames.gen import generate_arena, random_params
from stochgames.model import FiniteMemoryStrategy, parse_probability

from instances import g1, g1_doc, one_state_doc
from oracles import distribution_error, is_play_prefix, step_distribution
from util import random_strategy


def test_parse_one_state_absorbing():
    arena = parse_game(one_state_doc())
    assert arena.n_states == 1
    assert arena.transition[(0, 0, 0)] == Distribution.point(0)


def test_parse_g1_shape():
    arena = g1()
    assert arena.states == ("s", "f")
    assert arena.eve_actions == ("a", "b")
    assert arena.adam_actions == ("x", "y")
    assert arena.final == frozenset({1})
    assert len(arena.transition) == 8


def test_missing_transition_is_not_total():
    doc = json.loads(g1_doc())
    doc["transitions"] = doc["transitions"][1:]
    with pytest.raises(ValidationError, match="not total"):
        parse_game(json.dumps(doc))


def test_duplicate_transition_rejected():
    doc = json.loads(g1_doc())
    doc["transitions"].append(doc["transitions"][0])
    with pytest.raises(ValidationError, match="duplicate"):
        parse_game(json.dumps(doc))


def test_zero_weight_rejected():
    doc = json.loads(g1_doc())
    doc["transitions"][0]["to"] = {"f": 1, "s": 0}
    with pytest.raises(ValidationError, match="zero-weight") as rejected:
        parse_game(json.dumps(doc))
    assert "transitions[0]: zero-weight or negative entry for 's';" in str(rejected.value)


def test_bad_sum_rejected():
    doc = json.loads(g1_doc())
    doc["transitions"][0]["to"] = {"f": "1/2", "s": "1/3"}
    with pytest.raises(ValidationError, match="sum"):
        parse_game(json.dumps(doc))


def test_float_probability_rejected():
    doc = json.loads(g1_doc())
    doc["transitions"][0]["to"] = {"f": 0.5, "s": 0.5}
    with pytest.raises(SchemaError):
        parse_game(json.dumps(doc))


# What the probability grammar accepts beyond "num/den", recorded before
# parse_probability gained its fast path: Python's Fraction syntax.
PROBABILITY_GRAMMAR = [
    ("0.5", Fraction(1, 2)),
    ("1e-1", Fraction(1, 10)),
    (" 1/2 ", Fraction(1, 2)),
    ("\t3/4\n", Fraction(3, 4)),
    ("+1/2", Fraction(1, 2)),
    ("-1/2", Fraction(-1, 2)),
    ("１/２", Fraction(1, 2)),
    ("٣/٤", Fraction(3, 4)),
    ("1_0/20", Fraction(1, 2)),
    ("007/010", Fraction(7, 10)),
    ("1", Fraction(1)),
    (1, Fraction(1)),
    ("1/2/3", None),
    ("1 /2", None),
    ("1/0", None),
    ("1/-2", None),
    ("1__0/2", None),
    ("_1/2", None),
    ("/2", None),
    ("1/", None),
    ("", None),
    ("1.5/2", None),
    ("inf", None),
    ("½", None),
]


@pytest.mark.parametrize("raw,value", PROBABILITY_GRAMMAR)
def test_probability_grammar(raw, value):
    if value is None:
        with pytest.raises(SchemaError) as rejected:
            parse_probability(raw, "w")
        assert str(rejected.value) == f"w: cannot parse probability {raw!r}"
    else:
        parsed = parse_probability(raw, "w")
        assert type(parsed) is Fraction and parsed == value


# ASCII and Unicode digits, signs, separators, exponents and whitespace
probability_strings = st.text(st.sampled_from("0123456789１２٣߁²+-/._eE \t\n"), max_size=8)


@settings(max_examples=500, deadline=None)
@given(st.one_of(probability_strings, st.integers(-5, 5)))
def test_probability_matches_fraction(raw):
    """parse_probability reads exactly Python's Fraction syntax."""
    try:
        want = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SchemaError):
            parse_probability(raw, "w")
        return
    got = parse_probability(raw, "w")
    assert type(got) is Fraction and got == want


weights = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.integers(-1, 2),
    st.sampled_from(["1/2", "1/3", "2/3", "0", "-1/4"]),
)


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(st.sampled_from("abcd"), weights, max_size=4), st.booleans())
def test_distribution_matches_fraction_oracle(raw, complete):
    """Distribution accepts and rejects the weight maps a Fraction-sum check
    does, with the same message; ``complete`` keeps a map's positive
    weights and tops them up to 1."""
    if complete:
        raw = {e: p for e, p in raw.items() if Fraction(p) > 0}
        rest = 1 - sum((Fraction(p) for p in raw.values()), Fraction(0))
        if rest > 0:
            raw["z"] = rest
    want = distribution_error(raw)
    if want is None:
        assert dict(Distribution(raw).items()) == {e: Fraction(p) for e, p in raw.items()}
    else:
        with pytest.raises(ValidationError) as rejected:
            Distribution(raw)
        assert str(rejected.value) == want


@st.composite
def written_weights(draw):
    """(elements in insertion order, {element: weight}) for positive weights
    summing to 1, each written as an int, a "num/den" string (not always
    reduced) or a ``Fraction``."""
    elems = draw(st.lists(st.one_of(st.integers(0, 20), st.text("abc", min_size=1, max_size=2)),
                          min_size=1, max_size=6, unique_by=repr))
    parts = [draw(st.fractions(min_value=Fraction(1, 10**4), max_value=50, max_denominator=10**4)) for _ in elems]
    total = sum(parts)
    raw = {}
    for elem, part in zip(elems, parts):
        w = part / total
        form = draw(st.sampled_from(["int", "str", "fraction"] if w == 1 else ["str", "fraction"]))
        if form == "int":
            raw[elem] = 1
        elif form == "str":
            k = draw(st.integers(1, 5))
            raw[elem] = f"{w.numerator * k}/{w.denominator * k}"
        else:
            raw[elem] = w
    return elems, raw


@settings(max_examples=200, deadline=None)
@given(written_weights(), st.randoms(use_true_random=False))
def test_distribution_keeps_integer_weights(written, rng):
    """A distribution stores its weights once, as integers over the lcm of
    their reduced denominators; its ``Fraction`` view, equality, hash and
    pickling read the same weights in any key order."""
    elems, raw = written
    want = {e: Fraction(p) for e, p in raw.items()}
    dist = Distribution(raw)
    assert dist.den == math.lcm(*(p.denominator for p in want.values()))
    assert list(dist.nums) == elems
    assert all(Fraction(num, dist.den) == want[e] for e, num in dist.nums.items())
    assert sum(dist.nums.values()) == dist.den
    shuffled = list(elems)
    rng.shuffle(shuffled)
    other = Distribution({e: want[e] for e in shuffled})
    assert other == dist and hash(other) == hash(dist)
    copy = pickle.loads(pickle.dumps(dist))
    assert copy == dist and hash(copy) == hash(dist)
    assert copy.den == dist.den and list(copy.nums.items()) == list(dist.nums.items())
    items = list(dist.items())
    assert [e for e, _p in items] == elems
    assert all(type(p) is Fraction and p == want[e] for e, p in items)


def test_malformed_weight_reported_before_bad_one():
    doc = json.loads(g1_doc())
    for to in ({"f": 0, "s": "x"}, {"f": "3/2", "s": "1 /2"}, {"f": "-1", "s": 0.5}):
        doc["transitions"][0]["to"] = to
        with pytest.raises(SchemaError, match=r"transitions\[0\]: to\['s'\]"):
            parse_game(json.dumps(doc))


def test_partition_must_cover():
    doc = json.loads(g1_doc())
    doc["eve_obs"] = [["s"]]
    with pytest.raises(ValidationError, match="partition"):
        parse_game(json.dumps(doc))


def test_partition_no_duplicates():
    doc = json.loads(g1_doc())
    doc["eve_obs"] = [["s", "f"], ["f"]]
    with pytest.raises(ValidationError, match="partition"):
        parse_game(json.dumps(doc))


def test_partition_no_empty_block():
    doc = json.loads(g1_doc())
    doc["adam_obs"] = [["s", "f"], []]
    with pytest.raises(ValidationError, match="empty block"):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("key,value", [("init", "nope"), ("final", ["nope"])])
def test_unknown_ids(key, value):
    doc = json.loads(g1_doc())
    doc[key] = value
    with pytest.raises(ValidationError, match="unknown state"):
        parse_game(json.dumps(doc))


def test_unknown_action_in_transition():
    doc = json.loads(g1_doc())
    doc["transitions"][0]["eve"] = "zz"
    with pytest.raises(ValidationError, match="unknown eve action"):
        parse_game(json.dumps(doc))


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_game("not json")
    with pytest.raises(SchemaError):
        parse_game("[1,2]")
    with pytest.raises(SchemaError, match="missing keys"):
        parse_game("{}")
    doc = json.loads(g1_doc())
    doc["bogus"] = 1
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("parse,what", [(parse_game, "game"), (parse_strategy, "strategy")])
def test_deeply_nested_json_is_a_schema_error(parse, what):
    for text in ("[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000):
        with pytest.raises(SchemaError, match=f"^{what}: JSON nested too deeply$"):
            parse(text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text() | st.sampled_from(["0", "1", "-1", "²", "٣", " 1"]), children, max_size=3),
    max_leaves=8,
)


def _field_paths(doc, path=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


def _two_memory_strategy_doc() -> str:
    return serialize_strategy(
        FiniteMemoryStrategy(
            owner="eve",
            memory=("m0", "m1"),
            init_mem="m0",
            move={"m0": Distribution.uniform(["a", "b"]), "m1": Distribution.point("b")},
            update={"m0": {0: "m1", 1: "m0"}, "m1": {0: "m0", 1: "m1"}},
        )
    )


def _parse_with_field(kind: str, path: tuple, value):
    """Parse a valid game or strategy document (the latter also validated
    against g1) after setting the field at ``path`` to ``value``; return
    the parsed object."""
    doc = json.loads(g1_doc() if kind == "game" else _two_memory_strategy_doc())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    if kind == "game":
        return parse_game(json.dumps(doc))
    strat = parse_strategy(json.dumps(doc))
    validate_strategy(g1(), "eve", strat)
    return strat


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["game", "strategy"]), st.data())
def test_parsers_raise_only_game_errors(kind, data):
    """Replacing any one field of a valid document by an arbitrary JSON
    value either still parses or raises a GameError, never anything else."""
    doc = json.loads(g1_doc() if kind == "game" else _two_memory_strategy_doc())
    path = data.draw(st.sampled_from(list(_field_paths(doc))))
    try:
        _parse_with_field(kind, path, data.draw(json_values))
    except GameError:
        pass


@pytest.mark.parametrize(
    "kind,path,value",
    [
        ("game", ("transitions", 0, "eve"), ["a"]),
        ("game", ("transitions", 0, "adam"), {"x": 1}),
        ("strategy", ("update", "m0"), {"²": "m0", "1": "m0"}),
    ],
)
def test_parsers_reject_unhashable_actions_and_non_ascii_block_keys(kind, path, value):
    with pytest.raises(GameError):
        _parse_with_field(kind, path, value)


# One-field replacements: wrong types, out-of-range and zero weights, empty
# and repeated blocks, duplicate names, and well-formed alternatives.
REPLACEMENTS = [
    None, True, 1.5, -1, 0, 1, 2, "", "zz", "0", "0/1", "-1/2", "1/2", "3/2", "1/0",
    "s", "f", "a", "b", "x", "y", "m0", "m1",
    [], [[]], ["s"], ["f"], ["s", "f"], ["f", "s"], ["s", "s"], ["s", "f", "s"],
    ["a", "a"], ["a", "b", "a"], ["x", "x"], ["m0", "m0"], ["m1"],
    [["s", "f"]], [["s"], ["s"]], [["s"], ["f"], []], [["s", "s"], ["f"]], [["f"], ["s"]],
    {}, {"f": 1}, {"s": 1}, {"f": 0, "s": 1}, {"f": "1/2", "s": "1/2"}, {"f": "3/2", "s": "-1/2"},
    {"f": 2}, {"a": 1}, {"b": "1/2", "a": "1/2"}, {"a": 0, "b": 1}, {"x": 1},
    {"0": "m0", "1": "m0"}, {"0": "m1"}, {"0": "m0", "1": "m1", "2": "m0"}, {"0": "zz", "1": "m0"},
    {"from": "s", "eve": "a", "adam": "x", "to": {"f": 1}},
    {"from": "f", "eve": "b", "adam": "y", "to": {"s": 1}},
]

# Recorded before the parsers left the semantic checks to the constructors.
MUTATION_OUTCOMES_DIGEST = "e7fbc2e6679cf2576283160ca9d49d7aa5d8e06a37b8a2cb4480ba2e4569807f"


def _mutations():
    """(kind, path, value) of every one-field replacement, in a fixed order."""
    for kind in ("game", "strategy"):
        doc = json.loads(g1_doc() if kind == "game" else _two_memory_strategy_doc())
        for path in _field_paths(doc):
            for value in REPLACEMENTS:
                yield kind, path, value


def test_single_field_mutation_outcomes_pinned():
    """Each one-field replacement keeps its outcome: the same canonical
    document when accepted, else the same exception class."""
    digest = hashlib.sha256()
    for kind, path, value in _mutations():
        try:
            parsed = _parse_with_field(kind, path, value)
            outcome = serialize_game(parsed) if kind == "game" else serialize_strategy(parsed)
        except GameError as exc:
            outcome = type(exc).__name__
        digest.update(json.dumps([kind, path, value, outcome]).encode())
    assert digest.hexdigest() == MUTATION_OUTCOMES_DIGEST


# Recorded before parse_game formatted locations only on its error paths.
MUTATION_MESSAGES_DIGEST = "748e1a0d6f49af85a8de12bd3c00da2bb4b358825460d0fa88c57a0adb70f2a6"


def test_single_field_mutation_messages_pinned():
    """Each rejected one-field replacement keeps its message byte for byte."""
    digest = hashlib.sha256()
    rejected = 0
    for kind, path, value in _mutations():
        try:
            _parse_with_field(kind, path, value)
        except GameError as exc:
            digest.update(json.dumps([kind, path, value, str(exc)]).encode())
            rejected += 1
    assert rejected == 5054
    assert digest.hexdigest() == MUTATION_MESSAGES_DIGEST


@pytest.mark.parametrize("field", ["eve_actions", "adam_actions"])
def test_arena_rejects_duplicate_action_names(field):
    arena = g1()
    name = getattr(arena, field)[0]
    with pytest.raises(ValidationError, match="duplicate"):
        dataclasses.replace(arena, **{field: (name, name)})


def test_round_trip_named_instances():
    for doc in (g1_doc(), one_state_doc()):
        arena = parse_game(doc)
        assert parse_game(serialize_game(arena)) == arena


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_random_arenas(seed):
    arena = generate_arena(random_params(seed))
    assert parse_game(serialize_game(arena)) == arena


def test_strategy_round_trip():
    rng = random.Random(3)
    arena = g1()
    for _ in range(10):
        strat = random_strategy(arena, "eve", rng)
        assert parse_strategy(serialize_strategy(strat)) == strat


def test_validate_strategy_ok():
    arena = g1()
    strat = FiniteMemoryStrategy.memoryless_uniform("eve", ["a", "b"], n_blocks=2)
    validate_strategy(arena, "eve", strat)


def test_validate_strategy_missing_block():
    arena = g1()
    strat = FiniteMemoryStrategy(
        owner="eve",
        memory=("m0",),
        init_mem="m0",
        move={"m0": Distribution.point("a")},
        update={"m0": {0: "m0"}},
    )
    with pytest.raises(ValidationError, match="lacks observation block 1"):
        validate_strategy(arena, "eve", strat)


def test_validate_strategy_wrong_action():
    arena = g1()
    strat = FiniteMemoryStrategy.constant("eve", "x", n_blocks=2)  # adam's action
    with pytest.raises(ValidationError, match="not an action of eve"):
        validate_strategy(arena, "eve", strat)


def test_validate_strategy_owner_mismatch():
    arena = g1()
    strat = FiniteMemoryStrategy.constant("adam", "x", n_blocks=2)
    with pytest.raises(ValidationError, match="owned by"):
        validate_strategy(arena, "eve", strat)


@pytest.mark.parametrize(
    "field,value",
    [
        ("init_mem", ["m0"]),
        ("memory", (["m0"],)),
        ("update", {"m0": {0: ["m0"], 1: "m0"}}),
    ],
)
def test_strategy_rejects_unhashable_memory_names(field, value):
    """A strategy built in code meets the rules a parsed one does: a list
    cannot name a memory, and saying so is invalid input, not a TypeError."""
    fields = dict(
        owner="eve",
        memory=("m0",),
        init_mem="m0",
        move={"m0": Distribution.point("a")},
        update={"m0": {0: "m0", 1: "m0"}},
    )
    with pytest.raises(ValidationError):
        FiniteMemoryStrategy(**{**fields, field: value})


@pytest.mark.parametrize("path", [("init",), ("update", "m0", "0")])
@pytest.mark.parametrize("value", [["m0"], {"m0": "m0"}])
def test_parse_strategy_rejects_array_or_object_memory_names(path, value):
    with pytest.raises(SchemaError, match="must name a memory"):
        _parse_with_field("strategy", path, value)


def test_step_distribution_point_actions():
    arena = g1()
    out = step_distribution(arena, 0, Distribution.point(0), Distribution.point(0))
    assert out == Distribution.point(1)  # (a, x) moves s -> f


def test_step_distribution_uniform_eve():
    arena = g1()
    out = step_distribution(arena, 0, Distribution.uniform([0, 1]), Distribution.point(0))
    assert out == Distribution({0: Fraction(1, 2), 1: Fraction(1, 2)})


def test_step_distribution_absorbing():
    arena = g1()
    out = step_distribution(arena, 1, Distribution.uniform([0, 1]), Distribution.uniform([0, 1]))
    assert out == Distribution.point(1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**4))
def test_step_distribution_closure(seed, mix_seed):
    arena = generate_arena(random_params(seed))
    rng = random.Random(mix_seed)
    from util import random_distribution

    de = random_distribution(rng, range(len(arena.eve_actions)))
    da = random_distribution(rng, range(len(arena.adam_actions)))
    for s in range(arena.n_states):
        out = step_distribution(arena, s, de, da)
        assert sum((p for _t, p in out.items()), Fraction(0)) == 1


def test_distribution_validation():
    with pytest.raises(ValidationError):
        Distribution({})
    with pytest.raises(ValidationError):
        Distribution({"a": Fraction(0)})
    with pytest.raises(ValidationError):
        Distribution({"a": Fraction(1, 2)})


def test_play_prefix():
    arena = g1()
    assert is_play_prefix(arena, [0, 1, 1])
    assert is_play_prefix(arena, [0, 0, 1])
    assert not is_play_prefix(arena, [1, 0])  # final state is absorbing


def test_objective_names():
    assert Objective.from_name("reach") is Objective.REACHABILITY
    with pytest.raises(ValidationError):
        Objective.from_name("parity")
