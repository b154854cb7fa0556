"""Acceptance checks: one test per shipped guarantee.

`pytest -v tests/test_acceptance.py` prints one PASSED/FAILED line per
criterion; add `-s` for the measured numbers behind each verdict.
"""

import itertools
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from osstar import engine
from osstar.engine import Mode, StopConfig
from osstar.ngram import (MaxBackoffTables, build_lattice, keypad_encode,
                          load_arpa)
from osstar.automaton import (AutomatonRefiner, HmmTarget, build_q0,
                              enumerate_paths, report_ngram_counts)
from osstar.graphical import ising_grid
from osstar.piecewise import (PiecewiseProposal, Policy, PolicyRefiner,
                              policy_bench)

from lm_fixtures import cluster_vocab, markov_corpus, train_arpa
from test_contract import Audit


def logsumexp(values) -> float:
    return float(np.logaddexp.reduce(np.asarray(values, dtype=float)))


def decode_instance(seed: int, *, order: int, n_clusters: int,
                    cluster_size: int, length: int, n_sentences: int,
                    sharpness: float):
    """Keypad decoding instance observing the corpus's modal sentence."""
    rng = np.random.default_rng(seed)
    vocab = cluster_vocab(rng, n_clusters, cluster_size)
    corpus = markov_corpus(rng, vocab, n_sentences, length,
                           sharpness=sharpness)
    arpa = train_arpa(corpus, order, vocab)
    freq = Counter(tuple(s) for s in corpus)
    truth = max(freq.items(), key=lambda kv: (kv[1], kv[0]))[0]
    obs = [keypad_encode(w) for w in truth]
    return vocab, load_arpa(arpa), list(truth), obs


def keypad_4663_instance():
    """Four words sharing the keypad code 4663, trigram model, 64 paths."""
    vocab = ["gone", "good", "home", "hood"]
    assert all(keypad_encode(w) == "4663" for w in vocab)
    rng = np.random.default_rng(7)
    corpus = markov_corpus(rng, vocab, 80, 3)
    lm = load_arpa(train_arpa(corpus, 3, vocab))
    lattice = build_lattice(["4663"] * 3, vocab)
    tables = MaxBackoffTables(lm)
    q = build_q0(lattice, tables)
    target = HmmTarget(lm, lattice)
    paths = [tuple(p) for p in enumerate_paths(q)]
    log_ps = np.array([target(p) for p in paths])
    return q, target, paths, log_ps


@pytest.fixture(scope="module")
def small_decode_runs():
    """100 brute-forceable decoding runs with per-step domination audits."""
    out = []
    for seed in range(100):
        vocab, lm, truth, obs = decode_instance(
            seed, order=3, n_clusters=2, cluster_size=8, length=3,
            n_sentences=300, sharpness=8.0)
        lattice = build_lattice(obs, vocab)
        q = build_q0(lattice, MaxBackoffTables(lm))
        target = HmmTarget(lm, lattice)
        paths = [tuple(p) for p in enumerate_paths(q)]
        assert len(paths) <= 10_000
        log_ps = np.array([target(p) for p in paths])
        audit = Audit(q, paths, log_ps)
        res = engine.run(Mode.OPTIMIZATION, target, q, AutomatonRefiner(),
                         StopConfig(max_trials=100_000), seed,
                         on_refine=audit)
        out.append((res, paths, log_ps, report_ngram_counts(q),
                    audit.steps))
    return out


@pytest.fixture(scope="module")
def sms_decode_runs():
    """20 six-token instances decoded at order caps 3, 4 and 5."""
    runs = {3: [], 4: [], 5: []}
    for seed in range(20):
        vocab, lm, truth, obs = decode_instance(
            seed, order=5, n_clusters=6, cluster_size=8, length=6,
            n_sentences=400, sharpness=12.0)
        assert len(vocab) <= 50
        lattice = build_lattice(obs, vocab)
        for n in (3, 4, 5):
            q = build_q0(lattice, MaxBackoffTables(lm, order=n))
            target = HmmTarget(lm, lattice, order=n)
            res = engine.run(Mode.OPTIMIZATION, target, q,
                             AutomatonRefiner(),
                             StopConfig(max_trials=100_000), seed)
            runs[n].append((res.history.trial_count,
                            report_ngram_counts(q)))
    return runs


def test_criterion_01_exact_hmm_sampling():
    t0 = time.monotonic()
    q, target, paths, log_ps = keypad_4663_instance()
    assert len(paths) == 64
    posterior = np.exp(log_ps - logsumexp(log_ps))
    audit = Audit(q, paths, log_ps)

    # one generator's stream: the adaptive run, then frozen runs of 20,000
    # trials, keeping the first 50,000 accepts overall
    rng = np.random.default_rng(11)
    res = engine.run(Mode.SAMPLING, target, q, AutomatonRefiner(),
                     StopConfig(ar_window=100, ar_threshold=0.6,
                                max_trials=10**6), rng, on_refine=audit)
    assert res.history.ar_window(100) >= 0.6
    kept = list(res.samples)
    while len(kept) < 50_000:
        kept += engine.run(Mode.SAMPLING, target, q, None,
                           StopConfig(ar_window=100, ar_threshold=1.1,
                                      max_trials=20_000), rng).samples
    samples = kept[:50_000]
    freq = Counter(samples)
    emp = np.array([freq.get(p, 0) for p in paths], dtype=float)
    emp /= len(samples)
    tv = 0.5 * float(np.abs(emp - posterior).sum())
    took = time.monotonic() - t0
    assert len(samples) == 50_000
    assert tv < 0.02
    assert took < 60.0
    print(f"\ncriterion 1 PASS: TV {tv:.4f} < 0.02 over 64 paths, "
          f"{len(samples)} accepts, {audit.steps} audited "
          f"refinements, {took:.1f}s")


def test_criterion_02_exact_hmm_decoding(small_decode_runs):
    wins = 0
    worst_gap = 0.0
    for res, paths, log_ps, _, _ in small_decode_runs:
        best = float(log_ps.max())
        argmax_set = {p for p, lp in zip(paths, log_ps) if lp >= best - 1e-12}
        assert res.argmax in argmax_set
        assert abs(res.certificate_gap_log) < 1e-9
        worst_gap = max(worst_gap, abs(res.certificate_gap_log))
        wins += 1
    assert wins == 100
    print(f"\ncriterion 2 PASS: 100/100 exact argmax, worst certificate "
          f"gap {worst_gap:.2e}")


def test_criterion_03_domination_and_monotone_mass(small_decode_runs):
    audited = sum(steps for *_, steps in small_decode_runs)

    q, target, paths, log_ps = keypad_4663_instance()
    audit = Audit(q, paths, log_ps)
    res = engine.run(Mode.SAMPLING, target, q, AutomatonRefiner(),
                     StopConfig(ar_window=50, ar_threshold=0.9,
                                max_trials=10**5), 3, on_refine=audit)
    assert res.history.ar_window(50) >= 0.9
    audited += audit.steps
    assert audit.steps > 0

    model = ising_grid(3, 3, sigma=0.8, seed=0)
    configs = np.array(list(itertools.product((0, 1), repeat=9)))
    assert len(configs) <= 10_000
    log_ps_gm = model.log_p_many(configs)
    for mode, stop in ((Mode.SAMPLING,
                        StopConfig(ar_window=100, ar_threshold=0.6,
                                   max_trials=10**5)),
                       (Mode.OPTIMIZATION,
                        StopConfig(max_trials=10**5))):
        pw = PiecewiseProposal(model)
        audit = Audit(pw, configs, log_ps_gm)
        engine.run(mode, model.log_p, pw,
                   PolicyRefiner(pw, Policy.MAX_SLACK, seed=5),
                   stop, 9, on_refine=audit)
        audited += audit.steps
        assert audit.steps > 0
    print(f"\ncriterion 3 PASS: {audited} refinement steps audited "
          f"exhaustively, both backends, both modes")


def test_criterion_04_acceptance_rate_law():
    # sentence backend: freeze a partially refined automaton, 1e5 trials
    q, target, paths, log_ps = keypad_4663_instance()
    rng = np.random.default_rng(21)
    adapt = engine.run(Mode.SAMPLING, target, q, AutomatonRefiner(),
                       StopConfig(ar_window=100, ar_threshold=0.5,
                                  max_trials=10**6), rng)
    assert adapt.history.ar_window(100) >= 0.5
    frozen = engine.run(Mode.SAMPLING, target, q, None,
                        StopConfig(ar_window=100, ar_threshold=1.1,
                                   max_trials=100_000), rng)
    ar_hmm = frozen.history.accept_count / 100_000
    want_hmm = float(np.exp(logsumexp(log_ps) - q.mass_log()))
    assert abs(ar_hmm - want_hmm) < 0.02

    # pairwise backend: freeze after a short adaptive phase, 1e5 trials
    model = ising_grid(3, 3, sigma=0.5, seed=2)
    configs = np.array(list(itertools.product((0, 1), repeat=9)))
    log_z = logsumexp(model.log_p_many(configs))
    pw = PiecewiseProposal(model)
    engine.run(Mode.SAMPLING, model.log_p, pw,
               PolicyRefiner(pw, Policy.MAX_SLACK, seed=4),
               StopConfig(ar_window=100, ar_threshold=0.5,
                          max_trials=10**5), 17)
    res = engine.run(Mode.SAMPLING, model.log_p, pw, None,
                     StopConfig(ar_window=100, ar_threshold=1.1,
                                max_trials=100_000), 33)
    ar_gm = res.history.accept_count / 100_000
    want_gm = float(np.exp(log_z - pw.mass_log()))
    assert abs(ar_gm - want_gm) < 0.02
    print(f"\ncriterion 4 PASS: frozen AR vs mass ratio, sentence "
          f"{ar_hmm:.4f} vs {want_hmm:.4f}, pairwise {ar_gm:.4f} vs "
          f"{want_gm:.4f}, 1e5 trials each")


def test_criterion_05_exact_ising_sampling():
    t0 = time.monotonic()
    model = ising_grid(3, 3, sigma=0.1, seed=0)
    configs = np.array(list(itertools.product((0, 1), repeat=9)))
    log_ps = model.log_p_many(configs)
    weights = np.exp(log_ps - logsumexp(log_ps))
    exact_marginals = weights @ configs

    pw = PiecewiseProposal(model)
    audit = Audit(pw, configs, log_ps)
    res = engine.run(Mode.SAMPLING, model.log_p, pw,
                     PolicyRefiner(pw, Policy.MAX_SLACK, seed=1),
                     StopConfig(ar_window=100, ar_threshold=0.2,
                                max_trials=10**6), 13, on_refine=audit)
    assert res.history.ar_window(100) >= 0.2

    # frozen runs of 20,000 trials continue one generator's stream
    rng = np.random.default_rng(19)
    kept = list(res.samples)
    while len(kept) < 50_000:
        kept += engine.run(Mode.SAMPLING, model.log_p, pw, None,
                           StopConfig(ar_window=100, ar_threshold=1.1,
                                      max_trials=20_000), rng).samples
    samples = np.array(kept[:50_000])
    marginals = samples.mean(axis=0)
    err = float(np.abs(marginals - exact_marginals).max())
    took = time.monotonic() - t0
    assert err < 0.01
    assert took < 120.0
    print(f"\ncriterion 5 PASS: 9 node marginals within {err:.4f} < 0.01 "
          f"of enumeration, 50000 accepts, {took:.1f}s")


def test_criterion_06_partition_estimate_unbiased():
    model = ising_grid(2, 2, sigma=0.5, seed=0)
    configs = np.array(list(itertools.product((0, 1), repeat=4)))
    log_ps = model.log_p_many(configs)
    z_true = float(np.exp(logsumexp(log_ps)))

    estimates = []
    for seed in range(200):
        pw = PiecewiseProposal(model)
        audit = Audit(pw, configs, log_ps)
        res = engine.run(Mode.SAMPLING, model.log_p, pw,
                         PolicyRefiner(pw, Policy.MAX_SLACK,
                                       seed=seed + 10_000),
                         StopConfig(ar_window=400, ar_threshold=1.1,
                                    max_trials=400), seed,
                         on_refine=audit)
        met = engine.metrics(res.history, pw.mass_log())
        estimates.append(float(np.exp(met.z_hat_log)))
    rel = abs(statistics.mean(estimates) - z_true) / z_true
    assert rel < 0.02
    print(f"\ncriterion 6 PASS: mean Z estimate over 200 runs of 400 "
          f"trials within {rel:.4f} < 0.02 of enumeration")


def test_criterion_07_policy_acceptance_ordering():
    ok = 0
    details = []
    for seed in range(10):
        model = ising_grid(4, 4, sigma=0.5, seed=seed)
        configs = np.array(list(itertools.product((0, 1), repeat=16)))
        log_z = logsumexp(model.log_p_many(configs))
        ar = {}
        for policy in Policy:
            _, pw = policy_bench(model, policy, refinements=40,
                                 trials_per_round=150, seed=seed)
            ar[policy.value] = float(np.exp(log_z - pw.mass_log()))
        if (ar["iv"] >= max(ar.values()) - 1e-12
                and ar["ii"] > ar["i"] and ar["ii"] > ar["iii"]):
            ok += 1
        details.append(ar)
    assert ok >= 8
    last = details[-1]
    print(f"\ncriterion 7 PASS: ordering holds in {ok}/10 seeds "
          f"(example ARs i={last['i']:.3f} ii={last['ii']:.3f} "
          f"iii={last['iii']:.3f} iv={last['iv']:.3f})")


def test_criterion_08_cost_tradeoff_minimum():
    ok = 0
    for seed in range(10):
        model = ising_grid(4, 4, sigma=1.2, seed=seed)
        taus = {}
        for policy in (Policy.MAX_SLACK, Policy.QUEUE):
            rows, _ = policy_bench(model, policy, refinements=40,
                                   trials_per_round=150, seed=seed)
            taus[policy.value] = [r.tau_tot_est for r in rows]
        t2 = taus["ii"]
        k = int(np.argmin(t2))
        interior = 0 < k < len(t2) - 1
        if interior and min(t2) < min(taus["iv"]):
            ok += 1
    assert ok >= 7
    print(f"\ncriterion 8 PASS: interior cost minimum for policy ii and "
          f"min(ii) < min(iv) in {ok}/10 seeds under unit build costs")


def test_criterion_09_sublinear_order_growth(sms_decode_runs):
    medians = {n: statistics.median([t for t, _ in sms_decode_runs[n]])
               for n in (3, 4, 5)}
    ratio = medians[5] / medians[3]
    assert ratio < 5 / 3
    print(f"\ncriterion 9 PASS: median decode iterations "
          f"{{3: {medians[3]}, 4: {medians[4]}, 5: {medians[5]}}}, "
          f"iter(5)/iter(3) = {ratio:.3f} < {5 / 3:.3f}")


def test_criterion_10_variable_order_sparsity(small_decode_runs,
                                              sms_decode_runs):
    checked = 0
    totals: Counter = Counter()
    all_counts = [c for *_, c, _ in small_decode_runs]
    all_counts += [c for n in (3, 4, 5) for _, c in sms_decode_runs[n]]
    for counts in all_counts:
        ks = sorted(counts)
        for a, b in zip(ks, ks[1:]):
            assert counts[a] >= counts[b], counts
        totals.update(counts)
        checked += 1
    assert checked == 160
    agg = {k: totals[k] for k in sorted(totals)}
    print(f"\ncriterion 10 PASS: bound counts non-increasing in order on "
          f"{checked} decoded automatons, aggregate {agg}")
