import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import stochgames
from stochgames import EvalResult, FiniteMemoryStrategy, Objective, evaluation, knowledge, solver
from stochgames.gen import generate_arena, random_params
from stochgames.model import ADAM, EVE
from instances import coin_chain, g1

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_run_corpus_fails_on_uncertified_witness(monkeypatch, capsys):
    run_corpus = _load("run_corpus")
    args = ["--games", "4", "--objective", "reach"]
    assert run_corpus.main(args) == 0
    assert "not certified: 0" in capsys.readouterr().out
    monkeypatch.setattr(
        run_corpus, "best_response_full_info", lambda *_args: EvalResult(Fraction(1, 2), "exact")
    )
    assert run_corpus.main(args + ["--skip-oracle"]) == 1
    out = capsys.readouterr().out
    assert "certified by best response: 0," in out and "oracle disagreements: 0" in out


def test_mc_calibration_reports_coverage(capsys):
    mc_calibration = _load("mc_calibration")
    assert mc_calibration.main(["--seeds", "2", "--samples", "50"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("coverage: ")


def _traced_solve(make_arena):
    tracing = _load("tracing", ROOT / "perfbench")
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        report = tracer.run_op("solve", "solve", lambda: stochgames.decide_almost_sure_reach(make_arena()))
    finally:
        tracer.uninstall()
    return tracing, tracer, report


def test_benchmark_tracer_sees_every_adam_analysis():
    """The tracer wraps Adam's analyses where the solver looks them up, so
    it sees the proof of "no" as well as the check: this "no" takes one
    Adam check, whose analysis is one span, and two rounds of the proof."""
    params = random_params(103, max_states=6, max_actions=3, max_blocks=3)
    _tracing, tracer, report = _traced_solve(lambda: generate_arena(params))
    assert report.verdict == "no"
    checks = {i for i, span in enumerate(tracer.spans) if span.name == "solver.check"}
    analyses = [span for span in tracer.spans if span.name == "halfplayer.positive"]
    assert len(checks) == 1 and len(analyses) == 3
    assert sum(span.parent in checks for span in analyses) == 1


def test_benchmark_tracer_finds_every_name_it_wraps():
    """The benchmark's tracer wraps library functions where their callers
    look them up; a refactor that unbinds one of those names fails here."""
    tracing, tracer, report = _traced_solve(g1)
    assert report.verdict == "yes"
    assert solver.lower_strategy is knowledge.lower_strategy  # unwrapped again
    spans = {s.name for s in tracer.spans}
    assert {
        "model.arena_init",
        "model.validate_strategy",
        "knowledge.build",
        "knowledge.lower",
        "solver.decide",
        "solver.check",
        "solver.fold",
        "halfplayer.positive",
    } <= spans
    metrics = tracing.layer_metrics(tracer)
    assert metrics["knowledge.kstates"] > 0 and metrics["knowledge.witness_memory"] > 0


def test_benchmark_tracer_sees_the_evaluation_layer():
    """One traced eval op (reach and Buchi on one chain) and one traced
    certify op: every exact solve is an ``evaluation.absorb`` span under the
    objective or best response that asked for it, so a rewrite that
    unbinds ``absorption_values`` or stops returning ``Fraction`` values
    fails here instead of zeroing the per-layer figures."""
    tracing = _load("tracing", ROOT / "perfbench")
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    arena = coin_chain()
    eve = FiniteMemoryStrategy.constant(EVE, "a", 3)
    adam = FiniteMemoryStrategy.constant(ADAM, "x", 3)

    def evaluate():
        chain = stochgames.build_chain(arena, eve, adam)
        return [stochgames.objective_probability(chain, o) for o in (Objective.REACHABILITY, Objective.BUCHI)]

    try:
        values = tracer.run_op("p0/eval", "eval", evaluate)
        certified = tracer.run_op(
            "p0/certify", "certify", lambda: stochgames.best_response_full_info(arena, eve, Objective.REACHABILITY)
        )
    finally:
        tracer.uninstall()
    assert values == [Fraction(1, 2)] * 2 and certified.probability == Fraction(1, 2)
    assert not hasattr(evaluation.absorption_values, "__wrapped__")  # unwrapped again
    spans = {s.name for s in tracer.spans}
    assert {"evaluation.build_chain", "evaluation.objective", "evaluation.absorb", "evaluation.best_response"} <= spans
    absorbs = [s for s in tracer.spans if s.name == "evaluation.absorb"]
    assert len(absorbs) == 3
    for span in absorbs:
        assert tracer.spans[span.parent].name in {"evaluation.objective", "evaluation.best_response"}
    metrics = tracing.layer_metrics(tracer)
    assert metrics["evaluation.absorb_s"] > 0
    assert 0 <= metrics["evaluation.pinnable_share"] <= 1
    assert metrics["evaluation.max_denominator_digits"] > 0
