"""In-memory span tracer that wraps the library's public functions.

Each wrapped function is replaced, in the namespace its caller looks it up
in, by a wrapper that records a span: name, layer, start, end, parent span
and the id of the benchmark operation it belongs to.  Counters are attached
to spans by hooks that run after the span closes, inside an unattributed
span, so that their own cost (for example a second belief-graph build, or
counting 0/1 values) lands on no layer.  A layer's self time is the time its
spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

LAYERS = ("model", "knowledge", "solver", "halfplayer", "evaluation")


@dataclass
class Span:
    name: str
    layer: str | None  # None: unattributed measurement work
    start: float
    parent: int | None
    op: str | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op: str | None = None

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run_op(self, key: str, kind: str, fn):
        """Run one benchmark operation under a root span."""
        self.op = key
        span = self.open(f"op.{kind}", "bench")
        try:
            return fn()
        finally:
            self.close(span)
            self.op = None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until uninstall().

        ``after(span, args, kwargs, result)`` runs once the call returned,
        outside the span and inside an unattributed one.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                tracer.close(span)
                raise
            tracer.close(span)
            if after is not None:
                extra = tracer.open(f"trace.{name}", None)
                try:
                    after(span, args, kwargs, result)
                finally:
                    tracer.close(extra)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out: dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            if span.layer is not None:
                out[span.layer] = out.get(span.layer, 0.0) + span.duration - child
        return out

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of model, knowledge, solver, halfplayer and
    evaluation where their callers bind them."""
    import stochgames as sg
    from stochgames import evaluation, halfplayer, model, solver

    def census(span, args, kwargs, ka):
        span.attrs["kstates"], span.attrs["knowledges"], span.attrs["edges"] = ka.census

    def witness(span, args, kwargs, strategy):
        span.attrs["memory"] = len(strategy.memory)

    def decided(span, args, kwargs, report):
        span.attrs["decided"] = 1

    def positive(span, args, kwargs, report):
        game = args[0]
        span.attrs["rounds"] = report.iterations
        span.attrs["sure_beliefs"] = len(report.sure_beliefs)
        cap = args[1] if len(args) > 1 else kwargs.get("max_beliefs", halfplayer.DEFAULT_BELIEF_CAP)
        start = time.perf_counter()
        graph = halfplayer.build_belief_graph(game, cap)
        span.attrs["belief_graph_s"] = time.perf_counter() - start
        span.attrs["belief_nodes"] = len(graph.nodes)

    def chain(span, args, kwargs, result):
        span.attrs["nodes"] = len(result.nodes)

    def absorbed(span, args, kwargs, values):
        span.attrs["values"] = len(values)
        span.attrs["pinned"] = sum(1 for v in values if v == 0 or v == 1)
        span.attrs["digits"] = max((len(str(v.denominator)) for v in values), default=0)

    def steps(span, args, kwargs, result):
        horizon = args[5] if len(args) > 5 else kwargs.get("horizon", 1000)
        span.attrs["steps"] = result.samples * horizon

    w = tracer.wrap
    w(sg, "parse_game", "model.parse_game", "model")
    w(model.Arena, "__post_init__", "model.arena_init", "model")
    for namespace in (solver, evaluation):
        w(namespace, "validate_strategy", "model.validate_strategy", "model")
    w(solver, "build_knowledge_arena", "knowledge.build", "knowledge", census)
    w(solver, "lower_strategy", "knowledge.lower", "knowledge", witness)
    for name in ("decide_almost_sure_reach", "decide_almost_sure_buchi"):
        w(sg, name, "solver.decide", "solver", decided)
    w(solver, "check_candidate", "solver.check", "solver")
    w(solver, "fix_candidate", "solver.fold", "solver")
    for name in ("positive_safety", "positive_cobuchi"):
        w(solver, name, "halfplayer.positive", "halfplayer", positive)
    w(sg, "build_chain", "evaluation.build_chain", "evaluation", chain)
    w(sg, "objective_probability", "evaluation.objective", "evaluation")
    w(evaluation, "absorption_values", "evaluation.absorb", "evaluation", absorbed)
    w(sg, "best_response_full_info", "evaluation.best_response", "evaluation")
    w(sg, "monte_carlo", "evaluation.monte_carlo", "evaluation", steps)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    t = tracer
    checks = t.count("solver.check")
    solves = t.count("solver.decide")
    decided = t.attr_sum("solver.decide", "decided")
    check_s = t.total("solver.check")
    values = t.attr_sum("evaluation.absorb", "values")
    selfs = t.self_times()
    out = {
        "model.parse_s": t.total("model.parse_game"),
        "model.arena_inits": t.count("model.arena_init"),
        "model.arena_init_s": t.total("model.arena_init"),
        "knowledge.build_s": t.total("knowledge.build"),
        "knowledge.kstates": t.attr_sum("knowledge.build", "kstates"),
        "knowledge.knowledges": t.attr_sum("knowledge.build", "knowledges"),
        "knowledge.edges": t.attr_sum("knowledge.build", "edges"),
        "knowledge.lower_s": t.total("knowledge.lower"),
        "knowledge.witness_memory": t.attr_sum("knowledge.lower", "memory"),
        "solver.candidates_checked": checks,
        "solver.decided_per_candidate": _ratio(decided, checks),
        "solver.decided_share": _ratio(decided, solves),
        "solver.fold_s": t.total("solver.fold"),
        "solver.check_s": check_s,
        "solver.candidates_per_s": _ratio(checks, check_s),
        "halfplayer.positive_s": t.total("halfplayer.positive"),
        "halfplayer.belief_graph_s": t.attr_sum("halfplayer.positive", "belief_graph_s"),
        "halfplayer.belief_nodes": t.attr_sum("halfplayer.positive", "belief_nodes"),
        "halfplayer.fixpoint_rounds": t.attr_sum("halfplayer.positive", "rounds"),
        "halfplayer.sure_beliefs": t.attr_sum("halfplayer.positive", "sure_beliefs"),
        "evaluation.chain_build_s": t.total("evaluation.build_chain"),
        "evaluation.chain_nodes": t.attr_sum("evaluation.build_chain", "nodes"),
        "evaluation.absorb_s": t.total("evaluation.absorb"),
        "evaluation.pinnable_share": _ratio(t.attr_sum("evaluation.absorb", "pinned"), values),
        "evaluation.max_denominator_digits": max(
            (s.attrs.get("digits", 0) for s in t.spans if s.name == "evaluation.absorb"), default=0
        ),
        "evaluation.best_response_s": t.total("evaluation.best_response"),
        "evaluation.mc_s": t.total("evaluation.monte_carlo"),
        "evaluation.mc_steps": t.attr_sum("evaluation.monte_carlo", "steps"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "model.self_s": "s",
    "model.parse_s": "s",
    "model.arena_inits": "count",
    "model.arena_init_s": "s",
    "knowledge.self_s": "s",
    "knowledge.build_s": "s",
    "knowledge.kstates": "count",
    "knowledge.knowledges": "count",
    "knowledge.edges": "count",
    "knowledge.lower_s": "s",
    "knowledge.witness_memory": "count",
    "solver.self_s": "s",
    "solver.candidates_checked": "count",
    "solver.decided_per_candidate": "ratio",
    "solver.decided_share": "ratio",
    "solver.fold_s": "s",
    "solver.check_s": "s",
    "solver.candidates_per_s": "1/s",
    "halfplayer.self_s": "s",
    "halfplayer.positive_s": "s",
    "halfplayer.belief_graph_s": "s",
    "halfplayer.belief_nodes": "count",
    "halfplayer.fixpoint_rounds": "count",
    "halfplayer.sure_beliefs": "count",
    "evaluation.self_s": "s",
    "evaluation.chain_build_s": "s",
    "evaluation.chain_nodes": "count",
    "evaluation.absorb_s": "s",
    "evaluation.pinnable_share": "ratio",
    "evaluation.max_denominator_digits": "count",
    "evaluation.best_response_s": "s",
    "evaluation.mc_s": "s",
    "evaluation.mc_steps": "count",
    "trace.overhead": "ratio",
}
