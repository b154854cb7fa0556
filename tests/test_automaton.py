"""Proposal-automaton tests against path enumeration oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osstar import automaton as am
from osstar import engine
from osstar.engine import Mode, StopConfig
from osstar.ngram import (MaxBackoffTables, build_lattice, load_arpa,
                          load_vocab)

from lm_fixtures import synthetic_instance
from test_ngram import DATA, TINY_ARPA


def make_instance(obs=("2", "2", "2"), order=None, eps=0.0):
    lm = load_arpa(TINY_ARPA)
    lattice = build_lattice(list(obs), ["a", "b"], noise_epsilon=eps)
    tables = MaxBackoffTables(lm, order=order)
    q = am.build_q0(lattice, tables)
    target = am.HmmTarget(lm, lattice, order=order)
    return lm, lattice, q, target


def all_scores(q):
    return {x: q.score_path(x) for x in am.enumerate_paths(q)}


def test_q0_dominates_every_path():
    _, _, q, target = make_instance()
    for x, s in all_scores(q).items():
        assert s >= target(x) - 1e-12


def test_mass_and_max_match_enumeration():
    _, _, q, _ = make_instance()
    scores = list(all_scores(q).values())
    assert math.isclose(q.mass_log(), np.logaddexp.reduce(scores),
                        rel_tol=0, abs_tol=1e-10)
    assert math.isclose(q.max_log(), max(scores), rel_tol=0, abs_tol=1e-12)


def test_viterbi_matches_enumeration_argmax():
    _, _, q, _ = make_instance()
    scores = all_scores(q)
    best = max(scores.values())
    winners = sorted(x for x, s in scores.items() if s >= best - 1e-12)
    words, log_q = am.viterbi(q)
    assert words == winners[0]
    assert math.isclose(log_q, best, rel_tol=0, abs_tol=1e-12)


def test_sample_frequencies_match_path_masses():
    _, _, q, _ = make_instance(obs=("2", "2"))
    scores = all_scores(q)
    z = np.logaddexp.reduce(list(scores.values()))
    rng = np.random.default_rng(11)
    n = 40_000
    freq = {x: 0 for x in scores}
    for _ in range(n):
        x, log_q = q.draw(rng)
        assert math.isclose(log_q, scores[x], rel_tol=0, abs_tol=1e-12)
        freq[x] += 1
    for x, s in scores.items():
        assert abs(freq[x] / n - math.exp(s - z)) < 0.015


def test_refinement_is_monotone_with_strict_drop_at_reject():
    _, _, q, target = make_instance()
    paths = list(am.enumerate_paths(q))
    prev = {x: q.score_path(x) for x in paths}
    seen = {"refines": 0}

    class AuditRefiner(am.AutomatonRefiner):
        def refine(self, proposal, config, log_p, log_q):
            self.last = config
            return super().refine(proposal, config, log_p, log_q)

    refiner = AuditRefiner()

    def audit(qq):
        seen["refines"] += 1
        old_reject = prev[refiner.last]
        for x in paths:
            s = qq.score_path(x)
            assert s <= prev[x] + 1e-9
            assert s >= target(x) - 1e-9
            prev[x] = s
        assert prev[refiner.last] < old_reject - 1e-15

    # run long enough to tighten the automaton all the way down
    stop = StopConfig(ar_window=20, ar_threshold=0.999, max_trials=4000)
    res = engine.run(Mode.SAMPLING, target, q, refiner, stop, seed=5,
                     on_refine=audit)
    assert seen["refines"] > 0
    assert res.history.refine_count == seen["refines"]
    # fully tightened: every path scores exactly its probability
    for x in paths:
        assert math.isclose(q.score_path(x), target(x),
                            rel_tol=0, abs_tol=1e-12)


def test_strict_drop_at_rejected_path():
    _, _, q, target = make_instance()
    rng = np.random.default_rng(3)
    for _ in range(30):
        x, log_q = q.draw(rng)
        if math.isclose(log_q, target(x), rel_tol=0, abs_tol=1e-12):
            continue
        before = q.score_path(x)
        am.refine(q, x)
        assert q.score_path(x) < before - 1e-15


def test_optimization_certifies_exact_argmax():
    lm, lattice, q, target = make_instance()
    scores = {x: target(x) for x in am.enumerate_paths(q)}
    best = max(scores.values())
    expect = sorted(x for x, s in scores.items() if s >= best)[0]
    res = engine.run(Mode.OPTIMIZATION, target, q, am.AutomatonRefiner(),
                     StopConfig(max_trials=500), 0)
    assert res.argmax == expect
    assert res.certificate_gap_log == 0.0


def test_fully_tightened_path_raises():
    _, _, q, target = make_instance(obs=("2", "2"))
    x = ("b", "b")
    while True:
        try:
            am.refine(q, x)
        except am.NoRefinementAvailable:
            break
    assert math.isclose(q.score_path(x), target(x), rel_tol=0, abs_tol=1e-12)
    with pytest.raises(am.NoRefinementAvailable):
        am.refine(q, x)


def test_deep_refinement_keeps_domination_everywhere():
    _, _, q, target = make_instance(obs=("2", "2", "2", "2"))
    paths = list(am.enumerate_paths(q))
    rng = np.random.default_rng(9)
    for _ in range(60):
        x = paths[int(rng.integers(len(paths)))]
        try:
            am.refine(q, x)
        except am.NoRefinementAvailable:
            continue
        for y in paths:
            assert q.score_path(y) >= target(y) - 1e-12
        scores = [q.score_path(y) for y in paths]
        assert math.isclose(q.mass_log(), np.logaddexp.reduce(scores),
                            rel_tol=0, abs_tol=1e-10)
    # deep states were created along the way
    assert any(len(ctx) >= 2 for layer in q.contexts for ctx in layer)


def test_clone_is_isolated_from_refinement():
    _, _, q, _ = make_instance()
    x = next(p for p in am.enumerate_paths(q)
             if am._slack_positions(q, p))
    mass_before = q.mass_log()
    score_before = q.score_path(x)
    c = q.clone()
    am.refine(c, x)
    assert c.score_path(x) < score_before - 1e-15
    assert q.score_path(x) == score_before
    assert q.mass_log() == mass_before


def test_norm_selection_matches_candidate_minimum():
    _, _, q, _ = make_instance()
    x = next(p for p in am.enumerate_paths(q)
             if len(am._slack_positions(q, p)) >= 2)
    cands = am._slack_positions(q, x)
    for norm, value_of in (("sum", am.QAutomaton.mass_log),
                           ("max", am.QAutomaton.max_log)):
        vals = []
        for i in cands:
            c = q.clone()
            am._deepen_at(c, x, i)
            vals.append(value_of(c))
        r = q.clone()
        am.refine(r, x, norm=norm)
        assert value_of(r) == pytest.approx(min(vals), abs=1e-12)
        assert r.score_path(x) < q.score_path(x) - 1e-15
        assert r.refinements == q.refinements + 1
    with pytest.raises(ValueError):
        am.refine(q.clone(), x, norm="l7")


def test_norm_selection_optimization_is_exact():
    _, _, q, target = make_instance()
    scores = {x: target(x) for x in am.enumerate_paths(q)}
    best = max(scores.values())
    expect = sorted(x for x, s in scores.items() if s >= best)[0]
    res = engine.run(Mode.OPTIMIZATION, target, q,
                     am.AutomatonRefiner(norm="max"),
                     StopConfig(max_trials=500), 0)
    assert res.argmax == expect
    assert res.certificate_gap_log == 0.0


def test_ngram_count_report():
    _, _, q, _ = make_instance()
    assert am.report_ngram_counts(q) == {1: 6, 2: 0, 3: 0}
    am.refine(q, ("b", "b", "b"))
    counts = am.report_ngram_counts(q)
    assert counts[1] == 6  # order-1 edges all still present on base states
    assert counts[2] + counts[3] == 1


def test_target_order_cap():
    lm, lattice, _, _ = make_instance()
    t2 = am.HmmTarget(lm, lattice, order=2)
    x = ("a", "a", "b")
    want = sum(lm.cond_logprob(w, tuple(x[max(0, i - 1):i]))
               for i, w in enumerate(x)) + 3 * math.log(0.5)
    assert math.isclose(t2(x), want, rel_tol=0, abs_tol=1e-12)


def test_order_cap_changes_proposal_tables():
    lm = load_arpa(TINY_ARPA)
    lattice = build_lattice(["2", "2", "2"], ["a", "b"])
    for cap in (1, 2, 3):
        tables = MaxBackoffTables(lm, order=cap)
        q = am.build_q0(lattice, tables)
        target = am.HmmTarget(lm, lattice, order=cap)
        for x in am.enumerate_paths(q):
            assert q.score_path(x) >= target(x) - 1e-12


def test_stop_rule_cuts_a_batch_short():
    # the window fills mid-batch: the rest of the batch is discarded and
    # nothing is refined after the cut
    _, _, q, target = make_instance()
    stop = StopConfig(ar_window=10, ar_threshold=0.0, max_trials=1000)
    res = engine.run(Mode.SAMPLING, target, q, am.AutomatonRefiner(), stop,
                     seed=7, batch=25)
    assert res.history.trial_count == 10
    assert res.history.refine_count == 0


def test_batch_reuses_tables_within_batch():
    _, _, q, target = make_instance()
    stop = StopConfig(ar_window=10, ar_threshold=1.1, max_trials=100)
    res = engine.run(Mode.SAMPLING, target, q, None, stop, seed=2, batch=25)
    assert res.history.trial_count == 100
    assert q.table_builds == 1

    _, _, q2, target2 = make_instance()
    res2 = engine.run(Mode.SAMPLING, target2, q2, am.AutomatonRefiner(),
                      stop, seed=2, batch=25)
    assert res2.history.trial_count == 100
    assert q2.table_builds <= 4  # at most one rebuild per batch


def test_batched_sampling_law_after_freeze():
    # tighten fully, then frozen batched sampling is exact lm sampling
    _, _, q, target = make_instance(obs=("2", "2"))
    for x in am.enumerate_paths(q):
        while True:
            try:
                am.refine(q, x)
            except am.NoRefinementAvailable:
                break
    scores = {x: target(x) for x in am.enumerate_paths(q)}
    z = np.logaddexp.reduce(list(scores.values()))
    stop = StopConfig(ar_window=10, ar_threshold=1.1, max_trials=20_000)
    res = engine.run(Mode.SAMPLING, target, q, None, stop, seed=4,
                     batch=500)
    assert res.history.accept_count == res.history.trial_count  # q == p
    freq = {x: 0 for x in scores}
    for s in res.samples:
        freq[s] += 1
    for x in scores:
        assert abs(freq[x] / len(res.samples) - math.exp(scores[x] - z)) < 0.02


@pytest.mark.parametrize("seed", [0, 1])
def test_random_instances_end_to_end(seed):
    vocab, arpa, truth, obs = synthetic_instance(
        seed, order=3, n_clusters=4, cluster_size=3, length=4,
        n_sentences=60)
    lm = load_arpa(arpa)
    lattice = build_lattice(obs, vocab)
    tables = MaxBackoffTables(lm)
    q = am.build_q0(lattice, tables)
    target = am.HmmTarget(lm, lattice)
    scores = {x: target(x) for x in am.enumerate_paths(q)}
    for x, s in scores.items():
        assert q.score_path(x) >= s - 1e-9
    best = max(scores.values())
    expect = sorted(x for x, s in scores.items() if s >= best)[0]
    res = engine.run(Mode.OPTIMIZATION, target, q, am.AutomatonRefiner(),
                     StopConfig(max_trials=5000), seed)
    assert res.argmax == expect
    assert res.certificate_gap_log == 0.0


def test_decode_builds_no_sum_tables():
    # optimization reads only the max semiring: the sum pass never runs
    lm = load_arpa((DATA / "sms24.arpa").read_text())
    vocab = load_vocab((DATA / "sms24.vocab").read_text())
    obs = (DATA / "sms24.obs").read_text().split()
    lattice = build_lattice(obs, vocab)
    q = am.build_q0(lattice, MaxBackoffTables(lm))
    res = engine.run(Mode.OPTIMIZATION, am.HmmTarget(lm, lattice), q,
                     am.AutomatonRefiner(), StopConfig(), 0)
    assert res.history.refine_count > 0
    assert res.certificate_gap_log == 0.0
    assert q._beta["sum"] is None
    assert q._beta["max"] is not None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 5),
       cluster_size=st.integers(2, 3), length=st.integers(2, 5))
def test_decode_certifies_the_smallest_enumerated_argmax(seed, order,
                                                        cluster_size,
                                                        length):
    vocab, arpa, _, obs = synthetic_instance(
        seed, order=order, n_clusters=3, cluster_size=cluster_size,
        length=length, n_sentences=30)
    lm = load_arpa(arpa)
    lattice = build_lattice(obs, vocab)
    tables = MaxBackoffTables(lm)
    target = am.HmmTarget(lm, lattice)
    scores = {x: target(x)
              for x in am.enumerate_paths(am.build_q0(lattice, tables))}
    best = max(scores.values())
    expect = min(x for x, s in scores.items() if s == best)
    for norm in (None, "sum", "max"):
        res = engine.run(Mode.OPTIMIZATION, target,
                         am.build_q0(lattice, tables),
                         am.AutomatonRefiner(norm=norm),
                         StopConfig(max_trials=10_000), seed)
        assert res.argmax == expect, norm
        assert res.certificate_gap_log == 0.0, norm
