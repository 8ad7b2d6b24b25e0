#!/usr/bin/env python3
"""Solve a seeded corpus of random games and cross-check the verdicts.

For every game the solver runs for reachability and/or Buchi; each "yes"
witness is certified twice: against the fully informed best response, and
by the exact evaluation of its product chain with Adam's uniform
memoryless strategy; both values must be exactly 1.  The brute-force
oracle of ``tests/oracles.py`` is consulted where affordable.  A summary
goes to stdout and per-game rows to --out as JSON lines.  Exits 1 on an
oracle disagreement or a "yes" witness that either check does not
certify, 0 otherwise.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from stochgames import (  # noqa: E402
    FiniteMemoryStrategy,
    Objective,
    best_response_full_info,
    build_chain,
    decide_almost_sure_buchi,
    decide_almost_sure_reach,
    objective_probability,
)
from stochgames.gen import generate_arena, random_params  # noqa: E402
from stochgames.model import ADAM  # noqa: E402
from oracles import brute_force_verdict  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--games", type=int, default=200)
    parser.add_argument("--master-seed", type=int, default=2000)
    parser.add_argument("--objective", choices=["reach", "buchi", "both"], default="both")
    parser.add_argument("--max-states", type=int, default=4)
    parser.add_argument("--skip-oracle", action="store_true")
    parser.add_argument("--out", default=None, help="JSON-lines file with one row per (game, objective)")
    args = parser.parse_args(argv)

    objectives = {
        "reach": [(Objective.REACHABILITY, decide_almost_sure_reach)],
        "buchi": [(Objective.BUCHI, decide_almost_sure_buchi)],
        "both": [
            (Objective.REACHABILITY, decide_almost_sure_reach),
            (Objective.BUCHI, decide_almost_sure_buchi),
        ],
    }[args.objective]

    rows = []
    tally = {"yes": 0, "no": 0}
    oracle_tally = {"yes": 0, "no": 0, "unknown": 0, "skipped": 0}
    sound = unsound = disagreements = 0
    misses = {"best_response": 0, "uniform_adam": 0}  # checks below 1
    t0 = time.perf_counter()
    for i in range(args.games):
        params = random_params(args.master_seed + i, max_states=args.max_states)
        arena = generate_arena(params)
        for objective, decide in objectives:
            report = decide(arena, max_candidates=100_000)
            tally[report.verdict] += 1
            row = {
                "game": i,
                "seed": args.master_seed + i,
                "objective": objective.value,
                "states": params.state_count,
                "verdict": report.verdict,
                "candidates_checked": report.candidates_checked,
                "elapsed_ms": report.elapsed_ms,
            }
            if report.verdict == "yes":
                adam = FiniteMemoryStrategy.memoryless_uniform(ADAM, arena.adam_actions, len(arena.adam_obs))
                values = {
                    "best_response": best_response_full_info(arena, report.witness, objective).probability,
                    "uniform_adam": objective_probability(build_chain(arena, report.witness, adam), objective),
                }
                for check, value in values.items():
                    row[check] = f"{value.numerator}/{value.denominator}"
                    misses[check] += value != 1
                if all(value == 1 for value in values.values()):
                    sound += 1
                else:
                    unsound += 1
            if args.skip_oracle:
                oracle_tally["skipped"] += 1
            else:
                oracle = brute_force_verdict(arena, objective)
                oracle_tally[oracle] += 1
                row["oracle"] = oracle
                if oracle in ("yes", "no") and oracle != report.verdict:
                    disagreements += 1
            rows.append(row)

    elapsed = time.perf_counter() - t0
    print(f"games={args.games} verdicts={tally} oracle={oracle_tally}")
    print(f"yes-witnesses certified: {sound}, not certified: {unsound}")
    print(f"values below 1: best response {misses['best_response']}, uniform adam {misses['uniform_adam']}")
    print(f"oracle disagreements: {disagreements}")
    print(f"elapsed: {elapsed:.1f}s")
    if args.out:
        with open(args.out, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
    return 1 if disagreements or unsound else 0


if __name__ == "__main__":
    sys.exit(main())
