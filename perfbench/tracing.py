"""Per-layer counters and spans, recorded from outside the library.

`Tracer.install()` replaces public functions and methods of the osstar
modules with timing wrappers and `Tracer.uninstall()` puts the originals
back.  Every wrapped call adds to a count, a busy time and a self time
(busy time minus the time of wrapped calls made inside it).  Recursive
calls of one wrapped function are folded into the outermost call.  Each
`engine.run` call also leaves one span, kept in memory until the run ends.

Self times are also summed per region ("setup", "solve", "frozen") that
the benchmark sets around its own timed blocks, so the sum of self times
in a region can be compared with the region's measured duration.
"""

from __future__ import annotations

import functools
import time

from osstar import automaton, engine, graphical, ngram, piecewise

perf_counter = time.perf_counter

# (stat name, owner, attribute); the owner's attribute is replaced.
TARGETS = [
    ("engine.run", engine, "run"),
    ("engine.metrics", engine, "metrics"),
    ("ngram.load_arpa", ngram, "load_arpa"),
    ("ngram.build_lattice", ngram, "build_lattice"),
    ("ngram.tables_init", ngram.MaxBackoffTables, "__init__"),
    ("ngram.bound_value", ngram.MaxBackoffTables, "value"),
    ("ngram.cond_logprob", ngram.NGramLM, "cond_logprob"),
    ("automaton.build_q0", automaton, "build_q0"),
    ("automaton.draw", automaton, "sample_path"),
    ("automaton.viterbi", automaton, "viterbi"),
    ("automaton.refine", automaton, "refine"),
    ("automaton.target", automaton.HmmTarget, "__call__"),
    ("automaton.target_init", automaton.HmmTarget, "__init__"),
    ("graphical.argmax", graphical.SubspaceProposal, "argmax"),
    ("graphical.leaf_mass", graphical.SubspaceProposal, "mass_log"),
    ("graphical.leaf_mass", graphical.SubspaceProposal, "max_log"),
    ("graphical.build", graphical.SubspaceProposal, "__init__"),
    ("graphical.sample", graphical.SubspaceProposal, "sample"),
    ("graphical.log_p", graphical.PairwiseModel, "log_p"),
    ("piecewise.init", piecewise.PiecewiseProposal, "__init__"),
    # the table rebuild behind mass_log/max_log/draw/argmax
    ("piecewise.mass", piecewise.PiecewiseProposal, "_tables"),
    ("piecewise.leaf_of", piecewise.PiecewiseProposal, "leaf_of"),
    ("piecewise.draw", piecewise.PiecewiseProposal, "draw"),
    ("piecewise.argmax", piecewise.PiecewiseProposal, "argmax"),
    ("piecewise.condition", piecewise.PiecewiseProposal, "condition"),
    ("piecewise.select", piecewise, "select_refinement"),
    ("piecewise.refiner_init", piecewise.PolicyRefiner, "__init__"),
]


class Stat:
    __slots__ = ("calls", "busy", "self")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.region_self: dict[str, float] = {}
        self.region = "setup"
        self.instance = None
        self.spans: list[dict] = []
        self.beta_builds = {"sum": 0, "max": 0}
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, span: bool = False):
        stat = self.stats.setdefault(name, Stat())
        active = [0]
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                own = dur - stack.pop()
                active[0] = 0
                stat.calls += 1
                stat.busy += dur
                stat.self += own
                tracer.region_self[tracer.region] = \
                    tracer.region_self.get(tracer.region, 0.0) + own
                if stack:
                    stack[-1] += dur
                if span:
                    tracer.spans.append({
                        "name": name, "instance": tracer.instance,
                        "region": tracer.region, "start": t0, "end": t1,
                        "self_s": own})
        return wrapper

    def _wrap_beta(self, fn):
        """QAutomaton.beta, split by semiring; a build is a call that
        bumped the automaton's table_builds counter."""
        wrapped = {sr: self._wrap(f"automaton.beta.{sr}", fn)
                   for sr in ("sum", "max")}
        builds = self.beta_builds

        @functools.wraps(fn)
        def beta(q, semiring):
            before = q.table_builds
            out = wrapped[semiring](q, semiring)
            if q.table_builds > before:
                builds[semiring] += 1
            return out
        return beta

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in TARGETS:
            fn = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn,
                                            span=(name == "engine.run")))
        beta = automaton.QAutomaton.beta
        self._saved.append((automaton.QAutomaton, "beta", beta))
        automaton.QAutomaton.beta = self._wrap_beta(beta)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()
