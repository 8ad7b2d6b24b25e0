import importlib.util
from fractions import Fraction
from pathlib import Path

from stochgames import EvalResult

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
