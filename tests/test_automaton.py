"""Proposal-automaton tests against path enumeration oracles."""

import collections
import copy
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from osstar import automaton as am
from osstar import engine
from osstar.engine import Mode, StopConfig
from osstar.graphical import PairwiseModel, SubspaceProposal
from osstar.ngram import (MaxBackoffTables, OrderUnsupported, TokenLattice,
                          build_lattice, keypad_encode, load_arpa, load_vocab)
from osstar.piecewise import PiecewiseProposal

from conftest import lattice_paths
from lm_fixtures import (cluster_vocab, markov_corpus, synthetic_instance,
                         train_arpa)
from test_graphical import TopRng
from test_ngram import DATA, TINY_ARPA


def make_instance(obs=("2", "2", "2"), eps=0.0):
    lm = load_arpa(TINY_ARPA)
    lattice = build_lattice(list(obs), ["a", "b"], noise_epsilon=eps)
    q = am.build_q0(lattice, MaxBackoffTables(lm))
    target = am.HmmTarget(lm, lattice)
    return lm, lattice, q, target


def all_scores(q):
    return {x: q.score(x) for x in lattice_paths(q.lattice)}


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


def test_a_long_sampling_run_tightens_every_path():
    _, _, q, target = make_instance()
    # run long enough to tighten the automaton all the way down
    stop = StopConfig(ar_window=20, ar_threshold=0.999, max_trials=4000)
    res = engine.run(Mode.SAMPLING, target, q, am.AutomatonRefiner(), stop,
                     seed=5)
    assert res.history.refine_count > 0
    # fully tightened: every path scores exactly its probability
    for x in lattice_paths(q.lattice):
        assert math.isclose(q.score(x), target(x), rel_tol=0, abs_tol=1e-12)


def test_fully_tightened_path_raises():
    _, _, q, target = make_instance(obs=("2", "2"))
    x = ("b", "b")
    while True:
        try:
            am.refine(q, x)
        except am.NoRefinementAvailable:
            break
    assert math.isclose(q.score(x), target(x), rel_tol=0, abs_tol=1e-12)
    with pytest.raises(am.NoRefinementAvailable):
        am.refine(q, x)


def slack_positions(q, x, one_order=False):
    """Reference: positions whose edge on path x sits more than 1e-12
    above the deepest available bound, i.e. where deepening can drop x.
    With one_order, above the bound one order deeper instead: the loose
    sites that refine deepens on a drawn path."""
    rows = q.path_rows(x)
    out = []
    for i, w in enumerate(x):
        layer, full = q.contexts[i], q.full_len(i)
        j = layer.col[w]
        order = layer.order.item(rows[i], j)
        if order > full:
            continue
        k = order if one_order else full
        bound = q.tables.value(w, tuple(x[i - k:i]), full)
        if layer.weight.item(rows[i], j) - q.pobs[i][w] - bound > 1e-12:
            out.append(i)
    return out


def path_orders(q, x):
    """Sum over path x's edges of the order of each edge's bound."""
    return sum(order for _, order in path_cells(q, x))


def path_cells(q, x):
    """(weight, order) of each edge of path x."""
    return [(layer.weight.item(row, layer.col[w]),
             layer.order.item(row, layer.col[w]))
            for layer, w, row in zip(q.contexts, x, q.path_rows(x))]


def test_ngram_count_report():
    _, _, q, _ = make_instance()
    assert am.report_ngram_counts(q) == {1: 6, 2: 0, 3: 0}
    am.refine(q, ("b", "b", "b"))
    counts = am.report_ngram_counts(q)
    assert counts[1] == 6  # order-1 edges all still present on base states
    # one deeper bound per loose site: positions 1 and 2 of the path
    assert counts[2] + counts[3] == 2


def test_target_order_cap():
    lm, lattice, q, target = make_instance()
    # one observation table per lattice, read by the target and the bound
    assert q.pobs is target._pobs
    t2 = am.HmmTarget(lm.capped(2), lattice)
    x = ("a", "a", "b")
    want = sum(lm.cond_logprob(w, tuple(x[max(0, i - 1):i]))
               for i, w in enumerate(x)) + 3 * math.log(0.5)
    assert math.isclose(t2(x), want, rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("order", [0, -3])
def test_target_rejects_an_order_cap_below_one(order):
    # the cap lives on the LM, so a bad one fails before the target or the
    # tables that would read it can be built
    lm = load_arpa((DATA / "keypad4663.arpa").read_text())
    with pytest.raises(OrderUnsupported, match="order must be >= 1"):
        lm.capped(order)


def test_batched_sampling_law_after_freeze():
    # tighten fully, then frozen sampling is exact lm sampling
    _, _, q, target = make_instance(obs=("2", "2"))
    for x in lattice_paths(q.lattice):
        while True:
            try:
                am.refine(q, x)
            except am.NoRefinementAvailable:
                break
    scores = {x: target(x) for x in lattice_paths(q.lattice)}
    z = np.logaddexp.reduce(list(scores.values()))
    stop = StopConfig(ar_window=10, ar_threshold=1.1, max_trials=20_000)
    res = engine.run(Mode.SAMPLING, target, q, None, stop, seed=4)
    assert res.history.accept_count == res.history.trial_count  # q == p
    freq = {x: 0 for x in scores}
    for s in res.samples:
        freq[s] += 1
    for x in scores:
        assert abs(freq[x] / len(res.samples) - math.exp(scores[x] - z)) < 0.02


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
    assert q._passes["sum"] is None
    assert q._passes["max"] is not None


# -- the dict-walking oracle ---------------------------------------------
# The automaton as nested {ctx: {word: (weight, dest ctx)}} dicts and the
# per-state loops over them that the compiled layers replaced: the reference
# that beta, sample_path and viterbi must match bit for bit.

def dict_view(q):
    """Layer i as {ctx: {word: (weight, dest ctx)}}, words in column order."""
    view = []
    for layer, nxt in zip(q.contexts, q.contexts[1:]):
        view.append({
            ctx: {w: (layer.weight.item(r, j),
                      nxt.ctxs[layer.dest.item(r, j)])
                  for j, w in enumerate(layer.words)}
            for r, ctx in enumerate(layer.ctxs)})
    view.append({(): {}})
    return view


def oracle_beta(view, semiring):
    beta = [None] * (len(view) - 1) + [{(): 0.0}]
    for i in range(len(view) - 2, -1, -1):
        nxt = beta[i + 1]
        beta[i] = {}
        for ctx, edges in view[i].items():
            vals = [wt + nxt[dest] for wt, dest in edges.values()]
            beta[i][ctx] = (float(np.logaddexp.reduce(vals))
                            if semiring == "sum" else max(vals))
    return beta


def oracle_viterbi(view, beta):
    words, total, ctx = [], 0.0, ()
    for i in range(len(view) - 1):
        edges = view[i][ctx]
        best_word, best_val = None, -math.inf
        for w in sorted(edges):
            wt, dest = edges[w]
            if wt + beta[i + 1][dest] > best_val:
                best_word, best_val = w, wt + beta[i + 1][dest]
        words.append(best_word)
        wt, ctx = edges[best_word]
        total += wt
    return tuple(words), total


def oracle_sample_path(view, beta, rng):
    words, total, ctx = [], 0.0, ()
    for i in range(len(view) - 1):
        edges = view[i][ctx]
        order = sorted(edges)
        logits = [edges[w][0] + beta[i + 1][edges[w][1]] for w in order]
        m = max(logits)
        probs = [math.exp(l - m) for l in logits]
        # scaled by the left-to-right total, not the compensated sum() of
        # Python 3.12 on
        r = rng.random() * functools.reduce(operator.add, probs)
        acc = 0.0
        pick = len(order) - 1
        for j, p in enumerate(probs):
            acc += p
            if r < acc:
                pick = j
                break
        words.append(order[pick])
        wt, ctx = edges[order[pick]]
        total += wt
    return tuple(words), total


def assert_matches_oracle(q, draws=1000, seed=0):
    """Per-state sum and max beta, `draws` draws of one seed, and the
    Viterbi path with its score, all == the dict-walking oracle."""
    view = dict_view(q)
    want = {sr: oracle_beta(view, sr) for sr in ("sum", "max")}
    for sr in ("sum", "max"):
        got = q.beta(sr)
        for i, layer in enumerate(q.contexts):
            assert dict(zip(layer.ctxs, got[i].tolist())) == want[sr][i]
    assert am.viterbi(q) == oracle_viterbi(view, want["max"])
    rng_q, rng_o = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert q.draw(rng_q) == oracle_sample_path(view, want["sum"], rng_o)


def lm_and_lattice(name):
    if name == "sms24":
        lm = load_arpa((DATA / "sms24.arpa").read_text())
        vocab = load_vocab((DATA / "sms24.vocab").read_text())
        obs = (DATA / "sms24.obs").read_text().split()
    elif name == "keypad4663":
        lm = load_arpa((DATA / "keypad4663.arpa").read_text())
        vocab = load_vocab((DATA / "keypad4663.vocab").read_text())
        obs = ["4663"] * 4
    else:
        seed = int(name.removeprefix("random"))
        vocab, arpa, _, obs = synthetic_instance(
            seed, order=4, n_clusters=4, cluster_size=3, length=5,
            n_sentences=60)
        lm = load_arpa(arpa)
    return lm, build_lattice(obs, vocab)


ORACLE_INSTANCES = ["sms24", "keypad4663", "random0", "random1"]


@pytest.mark.parametrize("mode", [Mode.SAMPLING, Mode.OPTIMIZATION])
@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_compiled_layers_match_dict_oracle(name, mode):
    lm, lattice = lm_and_lattice(name)
    q = am.build_q0(lattice, MaxBackoffTables(lm))
    assert_matches_oracle(q)
    audits = []
    res = engine.run(mode, am.HmmTarget(lm, lattice), q,
                     am.AutomatonRefiner(), StopConfig(), 0,
                     on_refine=lambda qq: audits.append(
                         assert_matches_oracle(qq, seed=len(audits))))
    assert len(audits) == res.history.refine_count > 0


# -- the compiled arrays against a fresh compile --------------------------

def assert_fresh_compile(q):
    """Every layer equals one compiled from scratch out of its state list
    and edge orders alone: the candidates in sorted columns, weights from
    the bound tables, destinations by longest stored suffix, the row map
    and suffix index."""
    for i, layer in enumerate(q.contexts):
        cands = q.lattice.candidates[i] if i < q.length else []
        words = tuple(sorted(w for w, _ in cands))
        assert layer.words == words
        assert layer.col == {w: j for j, w in enumerate(words)}
        assert layer.ctxs[0] == ()
        assert layer.rows == {c: r for r, c in enumerate(layer.ctxs)}
        assert all(ctx[1:] in layer.rows for ctx in layer.ctxs[1:])
        ending = {}
        for r, ctx in enumerate(layer.ctxs):
            for k in range(len(ctx) + 1):
                ending.setdefault(ctx[k:], []).append(r)
        assert layer.ending == ending
        shape = (len(layer.ctxs), len(words))
        assert layer.weight.shape == layer.order.shape == shape
        assert layer.dest.shape == shape
        if i == q.length:
            continue
        full = q.full_len(i)
        nxt = q.contexts[i + 1].ctxs
        weight, dest = [], []
        for ctx, orders in zip(layer.ctxs, layer.order.tolist()):
            assert all(1 <= o <= full + 1 and o - 1 <= len(ctx)
                       for o in orders)
            weight.append([q.tables.value(w, ctx[len(ctx) - (o - 1):], full)
                           + q.pobs[i][w] for w, o in zip(words, orders)])
            dest.append([max((r for r, c in enumerate(nxt)
                              if (ctx + (w,))[len(ctx) + 1 - len(c):] == c),
                             key=lambda r: len(nxt[r])) for w in words])
        assert np.array_equal(layer.weight, np.array(weight))
        assert np.array_equal(layer.dest, np.array(dest))


@pytest.mark.fresh_seeds
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 5),
       cluster_size=st.integers(2, 3), length=st.integers(2, 5),
       mode=st.sampled_from([Mode.SAMPLING, Mode.OPTIMIZATION]))
# two of test_contract's pinned instances: refine's roundoff paths
@example(seed=404755, order=4, cluster_size=3, length=5, mode=Mode.SAMPLING)
@example(seed=4194305, order=3, cluster_size=2, length=4,
         mode=Mode.OPTIMIZATION)
# viterbi's near-tie fallback replaces the path its descent walked, so the
# bounds read on that path must not be handed to refine
@example(seed=2, order=2, cluster_size=3, length=3, mode=Mode.OPTIMIZATION)
def test_every_refinement_keeps_the_compiled_automaton_exact(
        seed, order, cluster_size, length, mode):
    """After every refinement each layer equals a fresh compile; the
    guarantees themselves are test_contract's.  Fresh seeds draw new LMs,
    lattices and modes; this is the property that sees a bound read for
    one path reused on another."""
    vocab, arpa, _, obs = synthetic_instance(
        seed, order=order, n_clusters=3, cluster_size=cluster_size,
        length=length, n_sentences=30)
    lm = load_arpa(arpa)
    lattice = build_lattice(obs, vocab)
    audits = []
    stop = StopConfig(ar_window=20, ar_threshold=0.999, max_trials=300)
    res = engine.run(mode, am.HmmTarget(lm, lattice),
                     am.build_q0(lattice, MaxBackoffTables(lm)),
                     am.AutomatonRefiner(), stop, seed,
                     on_refine=lambda qq: audits.append(
                         assert_fresh_compile(qq)))
    assert len(audits) == res.history.refine_count


@pytest.mark.fresh_seeds
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 5),
       cluster_size=st.integers(2, 3), length=st.integers(2, 8),
       mode=st.sampled_from([Mode.SAMPLING, Mode.OPTIMIZATION]))
@example(seed=404755, order=4, cluster_size=3, length=5, mode=Mode.SAMPLING)
@example(seed=4194305, order=3, cluster_size=2, length=4,
         mode=Mode.OPTIMIZATION)
# no loose site; the slack fallback's first deeper bound is lower by
# roundoff only (2.7e-15), so the deepening must go on past it
@example(seed=910, order=5, cluster_size=2, length=8, mode=Mode.SAMPLING)
def test_every_reject_reaches_a_refinement(seed, order, cluster_size,
                                           length, mode):
    """No reject reaches the engine as NoRefinementAvailable: a rejected
    path scores log q > log p, so some edge on it has slack, and refine
    raises the bound order of some edge on the path without raising its
    score, so refinement runs out only on a path scored exactly.  A reject
    with no loose site gets the slack fallback, whose deepening drops its
    edge by more than 1e-12 or lands on p's term there (full order).  The
    rate threshold above 1 keeps a sampling run refining to its trial
    budget, deep into full-order edges, past what enumeration reaches.
    Fresh seeds draw new LMs, lattices and modes."""
    vocab, arpa, _, obs = synthetic_instance(
        seed, order=order, n_clusters=3, cluster_size=cluster_size,
        length=length, n_sentences=30)
    lm = load_arpa(arpa)
    lattice = build_lattice(obs, vocab)
    target = am.HmmTarget(lm, lattice)
    q = am.build_q0(lattice, MaxBackoffTables(lm))

    class Checking(am.AutomatonRefiner):
        calls = 0

        def refine(self, proposal, config):
            before = proposal.score(config)
            orders = path_orders(proposal, config)
            fallback = not slack_positions(proposal, config, one_order=True)
            cells = path_cells(proposal, config)
            try:
                out = super().refine(proposal, config)
            except am.NoRefinementAvailable:
                pytest.fail(f"reject {config!r} scores log q {before} > "
                            f"log p {target(config)} but has no refinement")
            assert out.score(config) <= before
            assert path_orders(out, config) > orders
            if fallback:
                assert any(
                    w0 - w1 > 1e-12 or o1 > out.full_len(i)
                    for i, ((w0, o0), (w1, o1)) in enumerate(
                        zip(cells, path_cells(out, config))) if o1 > o0)
            self.calls += 1
            return out

    refiner = Checking()
    res = engine.run(mode, target, q, refiner,
                     StopConfig(ar_window=20, ar_threshold=1.1,
                                max_trials=300), seed)
    rejects = sum(not r.accepted for r in res.history.records)
    assert refiner.calls == res.history.refine_count == rejects


def bigram_chain(lm, lattice):
    """The order-2 target over a lattice as a chain pairwise model, and each
    node's words: node i ranges over position i's candidates in lattice
    order, its unary is obs(i, .) (plus the unigram at node 0), and edge
    (i-1, i) is cond_logprob(w_i | w_{i-1})."""
    words = [[w for w, _ in col] for col in lattice.candidates]
    log_psi = [[o + (lm.cond_logprob(w, ()) if i == 0 else 0.0)
                for w, o in col]
               for i, col in enumerate(lattice.candidates)]
    edges = [(i - 1, i, [[lm.cond_logprob(w, (u,)) for w in words[i]]
                         for u in words[i - 1]])
             for i in range(1, len(words))]
    return PairwiseModel([len(ws) for ws in words], log_psi, edges), words


@pytest.mark.parametrize("seed, length", [(0, 20), (1, 25), (2, 30)])
def test_order_two_automaton_matches_the_exact_chain(seed, length):
    """Beyond enumeration (3^20 paths and more), an order-2 target is a
    chain, its own spanning forest, so the forest's passes give the exact
    log Z and maximum.  The automaton's mass bound stays above log Z after
    every refinement, its frozen Z-hat lies within 5 standard errors of it,
    and its certified decode scores the chain's maximum and, when no
    runner-up comes within tie_tolerance, is the chain's argmax."""
    vocab, arpa, _, obs = synthetic_instance(
        seed, order=2, n_clusters=4, cluster_size=3, length=length,
        n_sentences=40)
    lm = load_arpa(arpa)
    lattice = build_lattice(obs, vocab)
    chain, words = bigram_chain(lm, lattice)
    assert math.prod(chain.domains) >= 3 ** 20
    exact = PiecewiseProposal(chain)
    log_z = exact.mass_log()
    best, best_log = exact.argmax()
    # every other path differs from best at some node i, so it scores at
    # most the maximum over paths with node i at another value
    runner_up = max(SubspaceProposal(chain, {i: v}).max_log()
                    for i, d in enumerate(chain.domains)
                    for v in range(d) if v != best[i])
    target = am.HmmTarget(lm, lattice)

    q = am.build_q0(lattice, MaxBackoffTables(lm))
    masses = [q.mass_log()]
    engine.run(Mode.SAMPLING, target, q, am.AutomatonRefiner(),
               StopConfig(ar_window=50, ar_threshold=0.5, max_trials=20_000),
               seed, on_refine=lambda qq: masses.append(qq.mass_log()))
    assert len(masses) > 1 and min(masses) >= log_z - 1e-9
    frozen = engine.run(Mode.SAMPLING, target, q, None,
                        StopConfig(ar_threshold=1.1, max_trials=2000),
                        seed + 1)
    r = np.array([math.exp(min(0.0, x.log_p - x.log_q))
                  for x in frozen.history.records])
    z_hat_log = engine.metrics(frozen.history, q.mass_log()).z_hat_log
    assert abs(z_hat_log - log_z) <= \
        5 * r.std(ddof=1) / (math.sqrt(len(r)) * r.mean())

    decode = engine.run(Mode.OPTIMIZATION, target,
                        am.build_q0(lattice, MaxBackoffTables(lm)),
                        am.AutomatonRefiner(), StopConfig(), seed)
    assert abs(target(decode.argmax) - best_log) <= 1e-9
    if best_log - runner_up > engine.tie_tolerance(chain.abs_log_sum):
        assert decode.argmax == tuple(words[i][v] for i, v in enumerate(best))


# -- mechanism ---------------------------------------------------------------

def refined_sms24(trials=60):
    """sms24 after a short sampling run, so layers hold deeper states."""
    lm, lattice = lm_and_lattice("sms24")
    q = am.build_q0(lattice, MaxBackoffTables(lm))
    target = am.HmmTarget(lm, lattice)
    engine.run(Mode.SAMPLING, target, q, am.AutomatonRefiner(),
               StopConfig(ar_threshold=1.1, max_trials=trials), 0)
    return q, target


# TINY_ARPA plus a word z of probability zero in every context
ZERO_Z_ARPA = (TINY_ARPA.replace("ngram 1=2", "ngram 1=3")
               .replace("-0.7\tb\t-0.1\n", "-0.7\tb\t-0.1\n-inf\tz\n"))


def test_top_uniform_draws_no_word_of_zero_probability():
    # z sorts last, so a uniform scaled past the CDF's last entry would
    # take it; drawn at q0 and after each of a few refinements
    lm = load_arpa(ZERO_Z_ARPA)
    lattice = TokenLattice(["2", "2", "9", "2"],
                           [[("a", -0.1), ("b", -0.2), ("z", 0.0)]] * 4)
    target = am.HmmTarget(lm, lattice)
    q = am.build_q0(lattice, MaxBackoffTables(lm))
    for _ in range(4):
        words, log_q = am.sample_path(q, TopRng())
        assert "z" not in words
        assert -math.inf < target(words) <= log_q
        try:
            am.refine(q, words)
        except am.NoRefinementAvailable:
            break


def test_refinement_at_i_keeps_every_layer_above_i():
    q, _ = refined_sms24()
    rng = np.random.default_rng(0)

    def snapshot():
        for sr in ("sum", "max"):
            q.beta(sr)
        for _ in range(50):
            q.draw(rng)
        q.argmax()
        return [(layer, layer.weight, layer.order, layer.dest)
                + tuple(q._passes[sr].beta[k] for sr in ("sum", "max"))
                + tuple(q._passes[sr].vals[k] if k < q.length else None
                        for sr in ("sum", "max"))
                + tuple(q._passes[sr].memo[k] if k < q.length else None
                        for sr in ("sum", "max"))
                for k, layer in enumerate(q.contexts)]

    i = 3
    x = next(p for p in lattice_paths(q.lattice)
             if q.contexts[i].order.item(q.path_rows(p)[i],
                                         q.contexts[i].col[p[i]])
             > len(q.contexts[i].ctxs[q.path_rows(p)[i]]))
    before = snapshot()
    states = len(q.contexts[i].ctxs)
    am._deepen_at(q, x, q.path_rows(x), i, 1e-15, {})
    assert len(q.contexts[i].ctxs) > states  # the deepening added a state
    after = snapshot()
    for k in range(len(q.contexts)):
        same = [a is b for a, b in zip(before[k], after[k])]
        if k > i:
            assert all(same), k
        else:
            # beta, vals and memos of both semirings were rebuilt
            assert not any(same[4:]), k


def test_frozen_run_builds_no_table_and_each_cdf_once(monkeypatch):
    refined, target = refined_sms24()
    # the refined layers with no tables yet; the frozen run writes no layer
    q = am.QAutomaton(refined.lattice, refined.tables)
    q.contexts = refined.contexts
    q.mass_log()
    builds = q.table_builds
    built = collections.Counter()
    draw_table = am.QAutomaton._draw_table

    def counting(self, i, row):
        built[i, row] += 1
        return draw_table(self, i, row)

    monkeypatch.setattr(am.QAutomaton, "_draw_table", counting)
    res = engine.run(Mode.SAMPLING, target, q, None,
                     StopConfig(ar_window=1000, ar_threshold=1.0,
                                max_trials=1000), 1)
    assert res.history.trial_count == 1000
    assert q.table_builds == builds
    visited = {(i, row) for rec in res.history.records
               for i, row in enumerate(q.path_rows(rec.config))}
    assert set(built) == visited and set(built.values()) == {1}


def test_add_state_reroutes_only_the_captured_edges():
    q, _ = refined_sms24()

    def extension(x, i):
        """The path's state at i, one word deeper, if the path already
        sits deep enough at i - 1 that nothing is added there first."""
        rows = q.path_rows(x)
        depth = len(q.contexts[i].ctxs[rows[i]]) + 1
        prev_depth = len(q.contexts[i - 1].ctxs[rows[i - 1]])
        if depth <= i and prev_depth >= depth - 1:
            return tuple(x[i - depth:i])
        return None

    i, x, ctx = next((i, x, extension(x, i)) for x in lattice_paths(q.lattice)
                     for i in range(2, q.length) if extension(x, i))
    layer, prev = q.contexts[i], q.contexts[i - 1]
    anc = layer.dest[layer.rows[ctx[1:]]].copy()
    before = prev.dest.copy()
    am._add_state(q, x, q.path_rows(x), i, ctx)
    # the new row is its ancestor's destination row; assert_fresh_compile
    # below recomputes every longest-suffix lookup
    assert np.array_equal(layer.dest[layer.rows[ctx]], anc)
    changed = np.argwhere(before != prev.dest).tolist()
    assert sorted(r for r, _ in changed) == prev.ending[ctx[:-1]]
    assert {c for _, c in changed} == {prev.col[ctx[-1]]}
    assert all(prev.dest[r, c] == layer.rows[ctx] for r, c in changed)
    assert_fresh_compile(q)


def test_layers_report_states_and_edges_for_the_size_record():
    # perfbench's size record reads len(layer) and layer.values()
    q, _ = refined_sms24()
    states = sum(len(layer) for layer in q.contexts)
    edges = sum(len(edges) for layer in q.contexts for edges in layer.values())
    assert states == sum(len(layer.ctxs) for layer in q.contexts)
    assert edges == sum(layer.weight.size for layer in q.contexts)


def test_refine_walks_the_rejected_path_once(monkeypatch):
    q, _ = refined_sms24()
    x = next(p for p in lattice_paths(q.lattice)
             if len(slack_positions(q, p)) >= 2)
    calls = []
    path_rows = am.QAutomaton.path_rows

    def counting(self, words):
        calls.append(words)
        return path_rows(self, words)

    monkeypatch.setattr(am.QAutomaton, "path_rows", counting)
    score = q.score(x)
    am.refine(q, x)
    assert calls == [x]
    assert q.score(x) < score - 1e-15


def test_refine_reads_each_bound_of_a_drawn_path_once(monkeypatch):
    # the scan reads each site's next-order bound; a deepening takes its
    # site's first step on that read and reads only for its later steps
    lm, lattice = lm_and_lattice("sms24")
    q = am.build_q0(lattice, MaxBackoffTables(lm))
    x, _ = am.sample_path(q, np.random.default_rng(0))
    before = [order for _, order in path_cells(q, x)]
    reads = []
    value = MaxBackoffTables.value

    def counting(self, word, context, full_len):
        reads.append((word, context, full_len))
        return value(self, word, context, full_len)

    monkeypatch.setattr(MaxBackoffTables, "value", counting)
    am.refine(q, x)
    after = [order for _, order in path_cells(q, x)]
    scanned = sum(order <= q.full_len(i) for i, order in enumerate(before))
    steps = [b - a for a, b in zip(before, after) if b != a]
    assert len(steps) >= 2
    assert len(reads) == scanned + sum(s - 1 for s in steps)


@pytest.mark.parametrize("mode, stop", [
    (Mode.OPTIMIZATION, StopConfig()),
    (Mode.SAMPLING, StopConfig(ar_threshold=1.1, max_trials=100))])
def test_a_trial_reads_each_bound_once(mode, stop, monkeypatch):
    # a trial's walk and its refinement read bounds through one map per
    # path: viterbi's certifiability test, refine's scan, its slack
    # fallback and the deepenings never read one bound twice
    lm, lattice = lm_and_lattice("sms24")
    q = am.build_q0(lattice, MaxBackoffTables(lm))
    trials = []
    value = MaxBackoffTables.value

    def counting(self, word, context, full_len):
        trials[-1].append((word, context, full_len))
        return value(self, word, context, full_len)

    def starting(walk):
        def started(*args):
            trials.append([])
            return walk(*args)
        return started

    monkeypatch.setattr(MaxBackoffTables, "value", counting)
    monkeypatch.setattr(am, "sample_path", starting(am.sample_path))
    monkeypatch.setattr(am, "viterbi", starting(am.viterbi))
    res = engine.run(mode, am.HmmTarget(lm, lattice), q,
                     am.AutomatonRefiner(), stop, 0)
    assert len(trials) == res.history.trial_count
    assert res.history.refine_count > 0 and any(trials)
    assert [t for t in trials if len(set(t)) < len(t)] == []


@pytest.mark.parametrize("mode", [Mode.SAMPLING, Mode.OPTIMIZATION])
def test_a_run_refines_on_the_rows_its_trials_walked(mode, monkeypatch):
    # each reject is the path its trial's draw or viterbi just walked, so
    # refine reads that walk's rows and never walks the path again
    lm, lattice = lm_and_lattice("sms24")
    calls = []
    path_rows = am.QAutomaton.path_rows

    def counting(self, words):
        calls.append(words)
        return path_rows(self, words)

    monkeypatch.setattr(am.QAutomaton, "path_rows", counting)
    res = engine.run(mode, am.HmmTarget(lm, lattice),
                     am.build_q0(lattice, MaxBackoffTables(lm)),
                     am.AutomatonRefiner(),
                     StopConfig(ar_threshold=1.1, max_trials=60), 0)
    assert res.history.refine_count > 0 and calls == []


def test_refine_reads_the_rows_viterbi_found(monkeypatch):
    # refining the path viterbi just returned reuses the descent's rows;
    # a change of structure drops them, so a second refine walks the path
    q, _ = refined_sms24()
    x, _ = am.viterbi(q)
    assert len(slack_positions(q, x)) >= 2
    want = q.path_rows(x)
    calls = []
    path_rows = am.QAutomaton.path_rows

    def counting(self, words):
        calls.append(words)
        return path_rows(self, words)

    monkeypatch.setattr(am.QAutomaton, "path_rows", counting)
    deepened = []
    deepen_at = am._deepen_at

    def recording(q, rejected, rows, i, *rest):
        deepened.append(list(rows))
        deepen_at(q, rejected, rows, i, *rest)

    monkeypatch.setattr(am, "_deepen_at", recording)
    am.refine(q, x)
    assert calls == [] and deepened == [want]
    am.refine(q, x)
    assert calls == [x]


def test_refine_deepens_every_loose_site_of_a_drawn_path(monkeypatch):
    q, _ = refined_sms24()
    rng = np.random.default_rng(0)
    x = next(x for x, _ in (q.draw(rng) for _ in range(1000))
             if len(slack_positions(q, x, one_order=True)) >= 2)
    loose = slack_positions(q, x, one_order=True)
    rows = q.path_rows(x)
    edges = [(i, q.contexts[i].col[x[i]]) for i in loose]
    before = [q.contexts[i].weight.item(rows[i], j) for i, j in edges]
    builds = q.table_builds
    calls, deepened = [], []
    path_rows, deepen_at = am.QAutomaton.path_rows, am._deepen_at

    def counting(self, words):
        calls.append(words)
        return path_rows(self, words)

    def recording(q, rejected, rows, i, *rest):
        deepened.append(i)
        deepen_at(q, rejected, rows, i, *rest)

    monkeypatch.setattr(am.QAutomaton, "path_rows", counting)
    monkeypatch.setattr(am, "_deepen_at", recording)
    am.refine(q, x)
    # right to left, on the rows of the draw's own walk, and one sum-table
    # rebuild
    assert deepened == loose[::-1] and calls == []
    q.beta("sum")
    assert q.table_builds == builds + 1
    rows = path_rows(q, x)
    for (i, j), weight in zip(edges, before):
        layer = q.contexts[i]
        assert (layer.weight.item(rows[i], j) < weight - 1e-15
                or layer.order.item(rows[i], j) > q.full_len(i)), i

    # the path viterbi just returned deepens one site; the same path,
    # rejected on a twin that never decoded, deepens every loose one
    lm, lattice = lm_and_lattice("sms24")
    decoded, drawn = (am.build_q0(lattice, MaxBackoffTables(lm))
                      for _ in range(2))
    y, _ = am.viterbi(decoded)
    loose = slack_positions(drawn, y, one_order=True)
    assert len(loose) >= 2
    deepened.clear()
    am.refine(decoded, y)
    assert len(deepened) == 1 and deepened[0] in loose
    deepened.clear()
    am.refine(drawn, y)
    assert deepened == loose[::-1]


def test_a_decode_deepens_one_site_per_reject_through_near_ties(
        monkeypatch):
    """On this 12-word decode (the sentence model of perfbench's
    hmm_decode instance 97 at seed 1) viterbi answers near ties with
    _smallest_argmax's path, not its descent's, and some of those paths
    are rejected.  Every reject, those included, deepens one site."""
    rng = np.random.default_rng([1, 12, 5])
    vocab = cluster_vocab(rng, 8, 8)
    corpus = markov_corpus(rng, vocab, 120, 12)
    lm = load_arpa(train_arpa(corpus, 5, vocab))
    lattice = build_lattice([keypad_encode(w) for w in corpus[7]], vocab)
    ties, deepened, counts = [], [], []
    smallest, deepen_at = am._smallest_argmax, am._deepen_at

    def tied(q, tol):
        got = smallest(q, tol)
        ties.append(got[0])
        return got

    def recording(q, rejected, rows, i, *rest):
        deepened.append(i)
        deepen_at(q, rejected, rows, i, *rest)

    class Counting(am.AutomatonRefiner):
        def refine(self, proposal, config):
            deepened.clear()
            out = super().refine(proposal, config)
            counts.append(len(deepened))
            return out

    monkeypatch.setattr(am, "_smallest_argmax", tied)
    monkeypatch.setattr(am, "_deepen_at", recording)
    res = engine.run(Mode.OPTIMIZATION, am.HmmTarget(lm, lattice),
                     am.build_q0(lattice, MaxBackoffTables(lm)), Counting(),
                     StopConfig(), 0)
    rejected = {r.config for r in res.history.records if not r.accepted}
    assert rejected & set(ties)
    assert set(counts) == {1}


def test_a_24_word_sentence_samples_within_a_one_site_budget():
    """Sentence scale: an order-5 LM over 64 words, sampled to windowed AR
    0.2.  Deepening one site per reject took 2,386 trials on this
    sentence, and trials grew as the square of its length; deepening
    every loose site takes 257, well inside the budget."""
    rng = np.random.default_rng(0)
    vocab = cluster_vocab(rng, 8, 8)
    corpus = markov_corpus(rng, vocab, 40, 24)
    lm = load_arpa(train_arpa(corpus, 5, vocab))
    lattice = build_lattice([keypad_encode(w) for w in corpus[0]], vocab)
    stop = StopConfig(ar_threshold=0.2, max_trials=1000)
    res = engine.run(Mode.SAMPLING, am.HmmTarget(lm, lattice),
                     am.build_q0(lattice, MaxBackoffTables(lm)),
                     am.AutomatonRefiner(), stop, 0)
    assert res.history.trial_count < stop.max_trials
    assert engine.should_stop(res.history, Mode.SAMPLING, stop)


def test_deepening_keeps_the_threaded_rows_current():
    q, _ = refined_sms24()
    rng = np.random.default_rng(3)
    added = collections.Counter()
    for _ in range(40):
        x, _ = q.draw(rng)
        for i in slack_positions(q, x):
            c = copy.deepcopy(q, {id(q.tables): q.tables})
            rows = c.path_rows(x)
            states = [len(layer.ctxs) for layer in c.contexts]
            am._deepen_at(c, x, rows, i, 1e-15, {})
            assert rows == c.path_rows(x)
            added[sum(len(layer.ctxs) > n
                      for layer, n in zip(c.contexts, states))] += 1
    # deepenings that added no state, one, and one per layer of a chain
    assert added[0] and added[1] and max(added) >= 2
