"""The benchmark tracer wraps library functions by name: every name it
wraps must still exist, be called by a small run of each family, and be
put back when the tracer is removed."""

import importlib.util
from pathlib import Path

import numpy as np

from osstar import automaton, engine, ngram
from osstar.engine import Mode, StopConfig
from osstar.graphical import ising_grid
from osstar.piecewise import PiecewiseProposal, Policy, PolicyRefiner

from lm_fixtures import cluster_vocab, markov_corpus, train_arpa

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def original(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def sentence_runs():
    """One decode and one sampling run of a three-word sentence."""
    rng = np.random.default_rng(3)
    vocab = cluster_vocab(rng, 3, 3)
    corpus = markov_corpus(rng, vocab, 30, 3)
    lm = ngram.load_arpa(train_arpa(corpus, 3, vocab))
    tables = ngram.MaxBackoffTables(lm)
    lattice = ngram.build_lattice(
        [ngram.keypad_encode(w) for w in corpus[0]], vocab)
    target = automaton.HmmTarget(lm, lattice)
    engine.run(Mode.OPTIMIZATION, target, automaton.build_q0(lattice, tables),
               automaton.AutomatonRefiner(), StopConfig(max_trials=10_000), 1)
    q = automaton.build_q0(lattice, tables)
    res = engine.run(Mode.SAMPLING, target, q, automaton.AutomatonRefiner(),
                     StopConfig(ar_window=20, ar_threshold=0.5,
                                max_trials=10_000), 2)
    engine.metrics(res.history, q.mass_log())


def grid_runs():
    """One optimization and one sampling run of a 3x3 grid."""
    model = ising_grid(3, 3, sigma=0.8, seed=4)
    for mode, stop in [(Mode.OPTIMIZATION, StopConfig(max_trials=10_000)),
                       (Mode.SAMPLING, StopConfig(ar_window=20,
                                                  ar_threshold=0.5,
                                                  max_trials=10_000))]:
        pw = PiecewiseProposal(model)
        res = engine.run(mode, model.log_p, pw,
                         PolicyRefiner(pw, Policy.MAX_SLACK, seed=1), stop, 5)
        if mode is Mode.SAMPLING:
            engine.metrics(res.history, pw.mass_log())


def test_tracer_wraps_live_names_and_restores_them():
    tracing = load_tracing()
    for name, owner, attr in tracing.TARGETS:
        assert attr in vars(owner), f"{name}: {owner!r} has no {attr}"
    before = [(owner, attr, original(owner, attr))
              for _, owner, attr in tracing.TARGETS]
    before.append((automaton.QAutomaton, "beta", automaton.QAutomaton.beta))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sentence_runs()
        grid_runs()
    finally:
        tracer.uninstall()
    for owner, attr, fn in before:
        assert original(owner, attr) is fn, f"{attr} not restored"
    names = {name for name, _, _ in tracing.TARGETS}
    names |= {"automaton.beta.sum", "automaton.beta.max"}
    uncalled = sorted(n for n in names if tracer.stat(n).calls == 0)
    assert uncalled == []
