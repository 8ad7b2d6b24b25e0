import json
import time

import pytest

from stochgames import parse_game
from stochgames.cli import main
from stochgames.gen import GenParams, generate_arena, random_params
from stochgames.errors import ValidationError

from instances import g1_doc, g1_prime, cycle_arena
from stochgames.model import serialize_game


def test_gen_deterministic_bytes(tmp_path):
    args = [
        "gen", "--states", "4", "--eve-actions", "2", "--adam-actions", "2",
        "--density", "0.7", "--eve-blocks", "2", "--adam-blocks", "2",
        "--final", "1", "--seed", "1",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_output_parses():
    for draw in range(1000):
        arena = generate_arena(random_params(draw))
        assert parse_game(serialize_game(arena)) == arena


def test_gen_blind_partition():
    params = GenParams(
        state_count=3, eve_action_count=2, adam_action_count=1,
        transition_density=1.0, eve_blocks=1, adam_blocks=3, final_count=1, seed=0,
    )
    arena = generate_arena(params)
    assert len(arena.eve_obs) == 1 and len(arena.eve_obs[0]) == 3


def test_gen_param_validation():
    with pytest.raises(ValidationError):
        GenParams(0, 1, 1, 1.0, 1, 1, 0, 0)
    with pytest.raises(ValidationError):
        GenParams(2, 1, 1, 0.0, 1, 1, 0, 0)
    with pytest.raises(ValidationError):
        GenParams(2, 1, 1, 1.0, 3, 1, 0, 0)


def test_cli_solve_g1(tmp_path, capsys):
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    out = tmp_path / "report.json"
    code = main(["solve", "--game", str(game), "--objective", "reach", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "yes"
    assert report["objective"] == "reach"
    assert report["witness"]["owner"] == "eve"
    assert report["candidates_checked"] == 7
    assert report["config"]["objective"] == "reach"
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["command"] == "solve" and record["outcome"] == "verdict=yes"


def _strict_json(line: str) -> dict:
    """``line`` parsed as JSON proper, which has no NaN or Infinity."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=refuse)


def _run_records(err: str) -> list[dict]:
    return [_strict_json(line) for line in err.splitlines() if line.startswith("{")]


def test_cli_solve_debug_lists_search_checks(tmp_path, capsys):
    """A debug solve lists the search's one Adam check where a walk of
    every candidate would take 823,543; the fixpoint proves the rest."""
    game = tmp_path / "game.json"
    game.write_text(serialize_game(generate_arena(random_params(103, max_states=6, max_actions=3, max_blocks=3))))
    out = tmp_path / "report.json"
    args = ["solve", "--game", str(game), "--objective", "reach", "--debug-candidates", "--out", str(out)]
    assert main(args) == 0
    report = json.loads(out.read_text())
    assert (report["verdict"], report["candidates_checked"]) == ("no", 823543)
    [entry] = report["candidates"]
    assert entry["index"] == 0 < entry["next_index"] < 823543
    [record] = _run_records(capsys.readouterr().err)
    assert record["outcome"] == "verdict=no"


def test_cli_solve_malformed_exit_2(tmp_path):
    game = tmp_path / "bad.json"
    game.write_text("{broken")
    assert main(["solve", "--game", str(game), "--objective", "reach"]) == 2


def test_cli_solve_bad_game_run_record(tmp_path, capsys):
    game = tmp_path / "bad.json"
    game.write_text(g1_doc().replace('"init": "s"', '"init": "nowhere"'))
    assert main(["solve", "--game", str(game), "--objective", "reach"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["command"] == "solve"
    assert record["outcome"].startswith("invalid-input: ")
    assert "unknown state 'nowhere'" in record["outcome"]
    assert record["config"]["game"] == str(game)
    assert len(_run_records(captured.err)) == 1


def test_cli_solve_non_string_action_run_record(tmp_path, capsys):
    doc = json.loads(g1_doc())
    doc["transitions"][0]["eve"] = ["a"]
    game = tmp_path / "bad.json"
    game.write_text(json.dumps(doc))
    assert main(["solve", "--game", str(game), "--objective", "reach"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    records = _run_records(captured.err)
    assert len(records) == 1
    assert records[0]["outcome"].startswith("invalid-input: game: transitions[0]: unknown eve action")


def test_cli_solve_missing_file_exit_2(tmp_path):
    assert main(["solve", "--game", str(tmp_path / "none.json"), "--objective", "reach"]) == 2


def _invalid_input_record(capsys, command: str) -> dict:
    """The one run record of a command refused as invalid input."""
    captured = capsys.readouterr()
    assert captured.out == ""
    records = _run_records(captured.err)
    assert len(records) == 1
    assert records[0]["command"] == command
    assert records[0]["outcome"].startswith("invalid-input: ")
    return records[0]


def test_cli_undecodable_file_exit_2(tmp_path, capsys):
    """A game or strategy file that is not UTF-8 is invalid input."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["solve", "--game", str(bad), "--objective", "reach"]) == 2
    record = _invalid_input_record(capsys, "solve")
    assert record["outcome"].startswith(f"invalid-input: cannot read game file {str(bad)!r}: 'utf-8' codec")
    args = _eval_g1_args(tmp_path)
    args[args.index("--eve") + 1] = str(bad)
    assert main(args) == 2
    record = _invalid_input_record(capsys, "eval")
    assert record["outcome"].startswith(f"invalid-input: cannot read eve strategy file {str(bad)!r}")


def test_cli_deeply_nested_json_exit_2(tmp_path, capsys):
    game = tmp_path / "deep.json"
    game.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["knowledge", "--game", str(game)]) == 2
    record = _invalid_input_record(capsys, "knowledge")
    assert record["outcome"] == "invalid-input: game: JSON nested too deeply"


def test_cli_overlong_json_integer_exit_2(tmp_path, capsys):
    """An integer literal past Python's 4,300-digit conversion limit."""
    game = tmp_path / "long.json"
    game.write_text('{"states": %s}' % ("1" * 5000))
    assert main(["knowledge", "--game", str(game)]) == 2
    record = _invalid_input_record(capsys, "knowledge")
    assert record["outcome"] == "invalid-input: game: a JSON integer has too many digits to read"


def test_cli_unprintable_wrong_sum_exit_2(tmp_path, capsys):
    doc = json.loads(g1_doc())
    doc["transitions"][0]["to"] = {"f": "1e-5000"}
    game = tmp_path / "g1.json"
    game.write_text(json.dumps(doc))
    assert main(["solve", "--game", str(game), "--objective", "reach"]) == 2
    record = _invalid_input_record(capsys, "solve")
    assert record["outcome"].endswith("distribution weights do not sum to exactly 1")


def test_cli_unwritable_out_exit_2(tmp_path, capsys):
    existing = tmp_path / "dir"
    existing.mkdir()
    for out in (tmp_path / "missing" / "x.json", existing):
        assert main(["gen", "--states", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        records = _run_records(captured.err)
        assert len(records) == 1
        assert records[0]["outcome"].startswith(f"invalid-input: cannot write output file {str(out)!r}")
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]  # no .tmp- file left behind


def test_cli_solve_cap_exit_3(tmp_path, capsys):
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    out = tmp_path / "partial.json"
    for cap in (0, 1):
        code = main([
            "solve", "--game", str(game), "--objective", "reach",
            "--max-candidates", str(cap), "--out", str(out),
        ])
        assert code == 3
        partial = json.loads(out.read_text())
        assert partial["verdict"] is None
        assert partial["candidates_checked"] == cap
        assert "error" in partial
        records = _run_records(capsys.readouterr().err)
        assert [r["outcome"] for r in records] == [f"resource-limit: {partial['error']}"]


def _solve_partial(game, objective, max_beliefs, out):
    code = main([
        "solve", "--game", str(game), "--objective", objective,
        "--max-beliefs", str(max_beliefs), "--out", str(out),
    ])
    assert code == 3
    return json.loads(out.read_text())


def test_cli_solve_knowledge_cap_checks_no_candidate(tmp_path):
    game = tmp_path / "g.json"
    assert main([
        "gen", "--states", "6", "--eve-blocks", "2", "--adam-blocks", "2",
        "--density", "0.6", "--seed", "4", "--out", str(game),
    ]) == 0
    partial = _solve_partial(game, "reach", 5, tmp_path / "partial.json")
    assert partial["error"] == "knowledge arena exceeds 5 states"
    assert partial["candidates_checked"] == 0


def test_cli_support_rows_cap_exit_3(tmp_path, capsys):
    # 24 Eve actions give 2^24 - 1 support rows per knowledge state: both
    # commands stop before the build, whose first state alone would not finish
    game = tmp_path / "wide.json"
    assert main(["gen", "--states", "2", "--eve-actions", "24", "--seed", "1", "--out", str(game)]) == 0
    error = "knowledge arena needs 16777215 support rows per state, more than the cap of 5"
    start = time.monotonic()
    partial = _solve_partial(game, "reach", 5, tmp_path / "partial.json")
    assert main(["knowledge", "--game", str(game), "--max-beliefs", "5"]) == 3
    assert time.monotonic() - start < 10
    assert (partial["error"], partial["candidates_checked"]) == (error, 0)
    records = _run_records(capsys.readouterr().err)
    assert [r["outcome"] for r in records[1:]] == [f"resource-limit: {error}"] * 2


def test_cli_solve_belief_cap_counts_finished_candidates(tmp_path):
    game = tmp_path / "g.json"
    game.write_text(serialize_game(generate_arena(GenParams(4, 2, 2, 0.8, 3, 1, 1, seed=883))))
    # the refutations of earlier candidates cover the one at position 85,
    # whose belief graph overflows the cap; the search never builds it
    out = tmp_path / "report.json"
    assert main([
        "solve", "--game", str(game), "--objective", "reach", "--max-beliefs", "20", "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    assert (report["verdict"], report["candidates_checked"]) == ("yes", 165)
    game.write_text(serialize_game(generate_arena(GenParams(5, 2, 2, 0.5, 3, 1, 3, seed=73))))
    partial = _solve_partial(game, "reach", 20, tmp_path / "partial.json")
    assert partial["error"] == "belief graph exceeds 20 nodes"
    # positions 0 to 80 are decided; the graph of the candidate at 81 overflows
    assert partial["candidates_checked"] == 81


def _invalid_input(args, capsys):
    """Runs the CLI on bad input; returns the message of its one run record."""
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    records = _run_records(captured.err)
    assert len(records) == 1
    assert records[0]["command"] == args[0]
    kind, _, message = records[0]["outcome"].partition(": ")
    assert kind == "invalid-input"
    assert f"error: {message}" in captured.err.splitlines()
    return message


def test_cli_usage_error_exit_2(tmp_path, capsys):
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    solve = ["solve", "--game", str(game), "--objective", "reach"]
    assert _invalid_input(solve + ["--bogus", "1"], capsys) == "unrecognized arguments: --bogus 1"
    assert _invalid_input(solve + ["--max-candidates", "x"], capsys) == (
        "argument --max-candidates: invalid int value: 'x'"
    )


@pytest.mark.parametrize("density", ["nan", "inf", "Infinity", "1e400", "x"])
def test_cli_gen_non_finite_density_exit_2(density, capsys):
    """A --density that is not a finite number is a usage error, whose run
    record is strict JSON: echoing a NaN or infinite float would write a
    bare NaN or Infinity."""
    assert _invalid_input(["gen", "--states", "3", "--density", density], capsys) == (
        f"argument --density: expected a finite number, got {density!r}"
    )


def test_cli_solve_bad_threads_exit_2(tmp_path, capsys):
    # candidates are checked in one process; no command takes --threads
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    for args in (["solve", "--game", str(game), "--objective", "reach"], ["gen", "--states", "3"]):
        assert _invalid_input(args + ["--threads", "2"], capsys) == "unrecognized arguments: --threads 2"


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--max-candidates" in capsys.readouterr().out


def test_cli_negative_caps_exit_2(tmp_path, capsys):
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    solve = ["solve", "--game", str(game), "--objective", "reach"]
    knowledge = ["knowledge", "--game", str(game)]
    cases = [
        (solve + ["--max-candidates", "-5"], "candidate cap must be at least 0, got -5"),
        (solve + ["--max-beliefs", "-3"], "knowledge arena cap must be at least 0, got -3"),
        (knowledge + ["--max-beliefs", "-1"], "knowledge arena cap must be at least 0, got -1"),
        (_eval_g1_args(tmp_path) + ["--max-nodes", "-1"], "product chain cap must be at least 0, got -1"),
    ]
    for args, message in cases:
        assert _invalid_input(args, capsys) == message


def _eval_g1_args(tmp_path):
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    eve = tmp_path / "eve.json"
    eve.write_text(json.dumps({
        "owner": "eve", "memory": ["m"], "init": "m",
        "move": {"m": {"a": "1/2", "b": "1/2"}},
        "update": {"m": {"0": "m", "1": "m"}},
    }))
    adam = tmp_path / "adam.json"
    adam.write_text(json.dumps({
        "owner": "adam", "memory": ["m"], "init": "m",
        "move": {"m": {"x": "1/1"}},
        "update": {"m": {"0": "m", "1": "m"}},
    }))
    return ["eval", "--game", str(game), "--eve", str(eve), "--adam", str(adam), "--objective", "reach"]


def test_cli_eval_g1(tmp_path, capsys):
    code = main(_eval_g1_args(tmp_path))
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert json.loads(out) == {"probability": "1/1", "method": "exact"}


def test_cli_eval_node_cap_exit_3(tmp_path, capsys):
    args = _eval_g1_args(tmp_path)
    assert main(args + ["--max-nodes", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "product chain exceeds 1 nodes" in captured.err
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["command"] == "eval"
    assert record["outcome"] == "resource-limit: product chain exceeds 1 nodes"
    assert record["config"]["max_nodes"] == 1
    assert len(_run_records(captured.err)) == 1
    assert main(args + ["--max-nodes", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"probability": "1/1", "method": "exact"}


def test_cli_simulate_reproducible(tmp_path, capsys):
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    eve = tmp_path / "eve.json"
    eve.write_text(json.dumps({
        "owner": "eve", "memory": ["m"], "init": "m",
        "move": {"m": {"a": "1/2", "b": "1/2"}},
        "update": {"m": {"0": "m", "1": "m"}},
    }))
    adam = tmp_path / "adam.json"
    adam.write_text(json.dumps({
        "owner": "adam", "memory": ["m"], "init": "m",
        "move": {"m": {"x": 1}},
        "update": {"m": {"0": "m", "1": "m"}},
    }))
    args = [
        "simulate", "--game", str(game), "--eve", str(eve), "--adam", str(adam),
        "--objective", "reach", "--samples", "300", "--horizon", "40", "--seed", "9",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert record["generator"] == "python-random-mt19937"
    assert record["samples"] == 300


def test_cli_simulate_short_horizon_window(tmp_path, capsys):
    """Below a horizon of 10 the Buchi window is one step, the last; the
    record is pinned byte for byte."""
    args = ["simulate"] + _eval_g1_args(tmp_path)[1:-1]
    (tmp_path / "g1.json").write_text(serialize_game(g1_prime()))
    assert main(args + ["buchi", "--samples", "50", "--horizon", "7", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "probability": "9/25",\n  "method": "monte_carlo",\n  "samples": 50,\n'
        '  "half_width": 0.13304921194806077,\n  "approximate": true,\n'
        '  "generator": "python-random-mt19937",\n  "seed": 3,\n  "horizon": 7,\n  "window": 1\n}\n'
    )


def test_cli_simulate_bad_horizon_exit_2(tmp_path, capsys):
    args = ["simulate"] + _eval_g1_args(tmp_path)[1:] + ["--samples", "10", "--horizon", "-5"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [r["outcome"] for r in _run_records(captured.err)] == ["invalid-input: horizon must be >= 1"]


def test_cli_knowledge_dump(tmp_path, capsys):
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    out = tmp_path / "ka.json"
    code = main(["knowledge", "--game", str(game), "--dump", "--out", str(out)])
    assert code == 0
    dumped = parse_game(out.read_text())
    # perfect information: every knowledge is a singleton
    assert all("{" + name.split("|")[0] + "}" == name.split("|")[1] for name in dumped.states)
    err = capsys.readouterr().err
    assert "census: knowledge_states=" in err


def test_cli_knowledge_census_matches_module(tmp_path, capsys):
    from stochgames import build_knowledge_arena

    arena = cycle_arena(3, 2)
    game = tmp_path / "cycle.json"
    game.write_text(serialize_game(arena))
    assert main(["knowledge", "--game", str(game)]) == 0
    err = capsys.readouterr().err
    census_line = next(line for line in err.splitlines() if line.startswith("census:"))
    ka = build_knowledge_arena(arena)
    kstates, knowledges, edges = ka.census
    assert census_line == f"census: knowledge_states={kstates} knowledges={knowledges} edges={edges}"


def test_cli_config_echo_lists_options_read(tmp_path, capsys):
    pair = _eval_g1_args(tmp_path)[1:]
    game = pair[1]
    runs = [
        (["solve", "--game", game, "--objective", "reach"],
         {"game", "objective", "debug_candidates", "max_candidates", "max_beliefs", "out"}),
        (["eval", *pair], {"game", "eve", "adam", "objective", "max_nodes", "out"}),
        (["simulate", *pair, "--samples", "10"],
         {"game", "eve", "adam", "objective", "samples", "horizon", "seed", "out"}),
        (["knowledge", "--game", game], {"game", "dump", "max_beliefs", "out"}),
        (["gen", "--states", "3"],
         {"states", "eve_actions", "adam_actions", "density", "eve_blocks", "adam_blocks", "final", "seed", "out"}),
    ]
    once_shared = {"max_candidates", "max_beliefs", "out", "seed"}
    for args, keys in runs:
        assert main(args) == 0
        # one run record, the last line; only knowledge's census comes before it
        *before, last = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in before] == (["census"] if args[0] == "knowledge" else [])
        assert set(_run_records(last)[0]["config"]) == keys
    assert sum(len(keys & once_shared) for _args, keys in runs) == 10
