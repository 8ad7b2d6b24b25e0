"""Command-line front end: solve, eval, simulate, knowledge, gen.

Every run writes its primary output to --out (atomically) or stdout and
emits exactly one JSON run record on stderr echoing the options it read;
a usage error is invalid input and has its record too.  Each command takes
only the options it reads and returns its output, outcome and exit code;
``main`` alone writes the output and the run record.  Exit codes: 0
solved/ok, 2 invalid input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import NamedTuple

from .errors import GameError, ResourceLimit
from .evaluation import (
    GENERATOR_ID,
    build_chain,
    monte_carlo,
    objective_probability,
    tail_window,
)
from .gen import GenParams, generate_arena
from .halfplayer import DEFAULT_BELIEF_CAP
from .knowledge import build_knowledge_arena
from .model import (
    Objective,
    format_probability,
    parse_game,
    parse_strategy,
    serialize_game,
    serialize_strategy,
)
from .solver import DEFAULT_CANDIDATE_CAP, SolveReport, decide_almost_sure_buchi, decide_almost_sure_reach

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3
COMMANDS = ("solve", "eval", "simulate", "knowledge", "gen")


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise GameError(f"cannot write output file {out!r}: {exc}") from exc


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GameError(f"cannot read {what} file {path!r}: {exc}") from exc


def _run_record(command: str, config: dict, outcome: str, t0: float) -> None:
    record = {
        "command": command,
        "config": config,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
        "outcome": outcome,
    }
    print(json.dumps(record), file=sys.stderr)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _report_dict(report: SolveReport, config: dict) -> dict:
    doc = {
        "verdict": report.verdict,
        "objective": report.objective.value,
        "witness": json.loads(serialize_strategy(report.witness)) if report.witness else None,
        "witness_winning_knowledges": [list(k) for k in report.witness_winning_knowledges],
        "candidates_checked": report.candidates_checked,
        "elapsed_ms": report.elapsed_ms,
        "config": config,
    }
    if report.diagnostics is not None:
        doc["candidates"] = list(report.diagnostics)
    return doc


class _Done(NamedTuple):
    """A command's primary output (None for none), run-record outcome, exit
    code, and a stderr line to print between the output and the record."""

    text: str | None
    outcome: str
    code: int = EXIT_OK
    note: str | None = None


def cmd_solve(args: argparse.Namespace) -> _Done:
    t0 = time.perf_counter()
    config = _config_echo(args)
    arena = parse_game(_read(args.game, "game"))
    decide = decide_almost_sure_reach if args.objective == "reach" else decide_almost_sure_buchi
    try:
        report = decide(
            arena,
            max_candidates=args.max_candidates,
            max_beliefs=args.max_beliefs,
            debug=args.debug_candidates,
        )
    except ResourceLimit as exc:
        elapsed_ms = int((time.perf_counter() - t0) * 1000)
        partial = SolveReport(None, Objective.from_name(args.objective), None, (), exc.checked or 0, elapsed_ms)
        doc = {**_report_dict(partial, config), "error": str(exc)}
        return _Done(json.dumps(doc, indent=2) + "\n", f"resource-limit: {exc}", EXIT_RESOURCE)
    return _Done(json.dumps(_report_dict(report, config), indent=2) + "\n", f"verdict={report.verdict}")


def _load_pair(args):
    arena = parse_game(_read(args.game, "game"))
    eve = parse_strategy(_read(args.eve, "eve strategy"))
    adam = parse_strategy(_read(args.adam, "adam strategy"))
    return arena, eve, adam


def cmd_eval(args: argparse.Namespace) -> _Done:
    arena, eve, adam = _load_pair(args)
    objective = Objective.from_name(args.objective)
    chain = build_chain(arena, eve, adam, max_nodes=args.max_nodes)
    value = format_probability(objective_probability(chain, objective))
    return _Done(json.dumps({"probability": value, "method": "exact"}) + "\n", f"probability={value}")


def cmd_simulate(args: argparse.Namespace) -> _Done:
    arena, eve, adam = _load_pair(args)
    objective = Objective.from_name(args.objective)
    result = monte_carlo(
        arena, eve, adam, objective, samples=args.samples, horizon=args.horizon, seed=args.seed
    )
    estimate = format_probability(result.probability)
    record = {
        "probability": estimate,
        "method": result.method,
        "samples": result.samples,
        "half_width": result.half_width,
        "approximate": result.approximate,
        "generator": GENERATOR_ID,
        "seed": args.seed,
        "horizon": args.horizon,
        "window": tail_window(args.horizon),
    }
    return _Done(json.dumps(record, indent=2) + "\n", f"estimate={estimate}")


def cmd_knowledge(args: argparse.Namespace) -> _Done:
    arena = parse_game(_read(args.game, "game"))
    ka = build_knowledge_arena(arena, max_states=args.max_beliefs)
    kstates, knowledges, edges = ka.census
    return _Done(
        serialize_game(ka.arena) if args.dump else None,
        f"knowledge_states={kstates}",
        note=f"census: knowledge_states={kstates} knowledges={knowledges} edges={edges}",
    )


def cmd_gen(args: argparse.Namespace) -> _Done:
    params = GenParams(
        state_count=args.states,
        eve_action_count=args.eve_actions,
        adam_action_count=args.adam_actions,
        transition_density=args.density,
        eve_blocks=args.eve_blocks,
        adam_blocks=args.adam_blocks,
        final_count=args.final,
        seed=args.seed,
    )
    return _Done(serialize_game(generate_arena(params)), f"states={args.states}")


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into invalid input, with its run record."""

    def error(self, message):
        raise GameError(message)


def _option(*names, **kwargs) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    max_candidates = _option(
        "--max-candidates", type=int, default=DEFAULT_CANDIDATE_CAP, help="cap on the canonical candidate position"
    )
    max_beliefs = _option(
        "--max-beliefs", type=int, default=DEFAULT_BELIEF_CAP, help="cap on materialized knowledge/belief states"
    )
    out = _option("--out", default=None, help="write primary output to this file (atomic)")
    seed = _option("--seed", type=int, default=0, help="seed for randomized commands")

    parser = _Parser(
        prog="stochgames",
        description="Almost-sure winning in concurrent stochastic games with imperfect information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", parents=[max_candidates, max_beliefs, out], help="decide almost-sure winning and synthesize a witness"
    )
    p_solve.add_argument("--game", required=True)
    p_solve.add_argument("--objective", choices=["reach", "buchi"], required=True)
    p_solve.add_argument("--debug-candidates", action="store_true", help="list a diagnostic per candidate the search checks")
    p_solve.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("eval", parents=[out], help="exact objective probability of a strategy pair")
    p_eval.add_argument("--game", required=True)
    p_eval.add_argument("--eve", required=True)
    p_eval.add_argument("--adam", required=True)
    p_eval.add_argument("--objective", choices=["reach", "safety", "buchi", "cobuchi"], required=True)
    p_eval.add_argument("--max-nodes", type=int, default=10**6, help="cap on product-chain nodes")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", parents=[seed, out], help="Monte Carlo estimate for a strategy pair")
    p_sim.add_argument("--game", required=True)
    p_sim.add_argument("--eve", required=True)
    p_sim.add_argument("--adam", required=True)
    p_sim.add_argument("--objective", choices=["reach", "safety", "buchi", "cobuchi"], required=True)
    p_sim.add_argument("--samples", type=int, required=True)
    p_sim.add_argument("--horizon", type=int, default=1000)
    p_sim.set_defaults(func=cmd_simulate)

    p_know = sub.add_parser("knowledge", parents=[max_beliefs, out], help="build the knowledge arena")
    p_know.add_argument("--game", required=True)
    p_know.add_argument("--dump", action="store_true", help="emit the knowledge arena as a game file")
    p_know.set_defaults(func=cmd_knowledge)

    p_gen = sub.add_parser("gen", parents=[seed, out], help="generate a random game file")
    p_gen.add_argument("--states", type=int, required=True)
    p_gen.add_argument("--eve-actions", type=int, default=2)
    p_gen.add_argument("--adam-actions", type=int, default=2)
    p_gen.add_argument("--density", type=float, default=1.0)
    p_gen.add_argument("--eve-blocks", type=int, default=1)
    p_gen.add_argument("--adam-blocks", type=int, default=1)
    p_gen.add_argument("--final", type=int, default=1)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    t0 = time.perf_counter()
    # a usage error leaves no parsed arguments to echo
    command = argv[0] if argv and argv[0] in COMMANDS else None
    config: dict = {}
    try:
        args = _build_parser().parse_args(argv)
        command, config = args.command, _config_echo(args)
        done = args.func(args)
        if done.text is not None:
            _write_output(done.text, args.out)
    except ResourceLimit as exc:
        done = _Done(None, f"resource-limit: {exc}", EXIT_RESOURCE, f"error: {exc}")
    except GameError as exc:
        done = _Done(None, f"invalid-input: {exc}", EXIT_INVALID, f"error: {exc}")
    if done.note is not None:
        print(done.note, file=sys.stderr)
    _run_record(command, config, done.outcome, t0)
    return done.code


if __name__ == "__main__":
    sys.exit(main())
