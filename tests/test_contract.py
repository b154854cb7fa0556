"""One guarantee contract for both proposal families, against enumeration.

The n-gram automaton over a sentence lattice and the piecewise
spanning-forest partition over a pairwise model make the same promises.
After every refinement of a seeded engine.run, on spaces small enough to
enumerate:

- q >= p at every configuration, exactly;
- the log mass never grows (within 1e-9), and no configuration's q grows
  where the family promises that: always for sentences, for grids without
  retree;
- mass_log() is the logsumexp of the scores (within 1e-10);
- each configuration's pick probability, read from the CDFs the draw itself
  uses, is q(x) / Q (within 1e-9);
- in decode runs, argmax() scores the largest q (within 1e-12) and, when
  it certifies (q = p there), is the smallest configuration that does;
- every trial's log q, from a draw or an argmax, is score(config) bit for
  bit, and a rejected sentence path drops by more than 1e-15 or lands on p;
- a certified argmax is the smallest enumerated maximizer of p, with a
  gap of exactly 0.0;
- a sentence refinement keeps all of this for any rejected path, also one
  that the proposal's last draw did not walk.

Beyond enumeration, grids of 24 to 64 nodes and sentences of 24 and 32
words are decoded and sampled against the benchmark's exact references
(perfbench/reference.py): a transfer matrix over grid rows, a lattice DP
over 4-word histories.

`python tests/mutants.py` breaks the code behind these promises one line at
a time and checks that a test here fails each time.
"""

import importlib.util
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from osstar import automaton as am
from osstar import engine
from osstar.engine import Mode, StopConfig
from osstar.graphical import PairwiseModel, ising_grid
from osstar.ngram import (MaxBackoffTables, build_lattice, keypad_encode,
                          load_arpa)
from osstar.piecewise import PiecewiseProposal, Policy, PolicyRefiner

from conftest import lattice_paths
from lm_fixtures import (cluster_vocab, markov_corpus, synthetic_instance,
                         train_arpa)
from test_graphical import preorder_tie


class Audit:
    """on_refine hook of engine.run: after every refinement q >= p at every
    configuration, exactly, the log mass is no larger than before (within
    1e-9) and, with pointwise, no configuration's q is larger than before.
    `steps` counts the refinements audited."""

    def __init__(self, proposal, configs, log_ps, pointwise=True):
        self.configs = list(configs)
        self.log_ps = np.asarray(log_ps, dtype=float)
        self.pointwise = pointwise
        self.steps = 0
        self.scores = self.dominated(proposal)
        self.mass = proposal.mass_log()

    def dominated(self, proposal) -> np.ndarray:
        scores = np.array([proposal.score(x) for x in self.configs])
        assert (scores >= self.log_ps).all(), "q fell below p"
        return scores

    def __call__(self, proposal) -> None:
        scores = self.dominated(proposal)
        if self.pointwise:
            assert (scores <= self.scores).all(), "q grew somewhere"
        mass = proposal.mass_log()
        assert mass <= self.mass + 1e-9, "the mass grew"
        self.scores, self.mass = scores, mass
        self.steps += 1


class Contract(Audit):
    """Audit plus the rest of the contract, checked at the start and after
    every refinement; check_run then replays the run's trials."""

    def __init__(self, proposal, configs, log_ps, mode, pick_probabilities,
                 pointwise=True):
        self.mode = mode
        self.pick_probabilities = pick_probabilities
        super().__init__(proposal, configs, log_ps, pointwise)
        self.index = {x: i for i, x in enumerate(self.configs)}
        self.snapshots = [self.scores]
        self.check(proposal)

    def __call__(self, proposal) -> None:
        super().__call__(proposal)
        self.snapshots.append(self.scores)
        self.check(proposal)

    def check(self, proposal) -> None:
        scores, mass = self.scores, self.mass
        assert abs(mass - np.logaddexp.reduce(scores)) <= 1e-10
        picks = self.pick_probabilities(proposal, self.configs, scores)
        for x, s, (prob, _) in zip(self.configs, scores, picks):
            assert abs(prob - math.exp(s - mass)) <= 1e-9, x
        # fed the midpoints of a configuration's pick intervals, the draw
        # returns it: one configuration per check, from the last one back
        i = -1 - self.steps % len(self.configs)
        if picks[i][0] > 1e-9:
            us = iter(picks[i][1])
            draw = proposal.draw(SimpleNamespace(random=us.__next__))
            assert draw == (self.configs[i], scores[i])
            assert next(us, None) is None
        if self.mode is Mode.OPTIMIZATION:
            # a sampling run never reads the argmax, and reading it there
            # would steer which sites a sentence refinement deepens
            x, log_q = proposal.argmax()
            assert log_q == proposal.score(x)
            assert abs(log_q - scores.max()) <= 1e-12
            if log_q == self.log_ps[self.index[x]]:
                # a certificate: ties are broken toward the smallest
                assert x == min(c for c, s in zip(self.configs, scores)
                                if s >= log_q)

    def check_run(self, res, strict_drop: bool) -> None:
        """Each trial's log q is its config's score under the proposal it
        was drawn from, bit for bit (a refinement follows each reject)."""
        step = 0
        for rec in res.history.records:
            i = self.index[rec.config]
            assert rec.log_q == self.snapshots[step][i], rec
            if rec.accepted:
                continue
            step += 1
            after = self.snapshots[step][i]
            # a difference of close floats is exact: this reads the drop
            # itself, and one ulp at |log q| in [8, 16) is 1.8e-15
            if strict_drop:
                assert (rec.log_q - after > 1e-15
                        or after == self.log_ps[i]), rec
        assert step == res.history.refine_count == len(self.snapshots) - 1
        if self.mode is Mode.OPTIMIZATION:
            best = self.log_ps.max()
            assert res.argmax == min(x for x, lp in zip(self.configs,
                                                        self.log_ps)
                                     if lp == best)
            assert res.certificate_gap_log == 0.0


def assert_contract(mode, target, proposal, refiner, stop, seed, configs,
                    pick_probabilities, *, pointwise=True,
                    strict_drop=False):
    log_ps = [target(x) for x in configs]
    audit = Contract(proposal, configs, log_ps, mode, pick_probabilities,
                     pointwise)
    res = engine.run(mode, target, proposal, refiner, stop, seed,
                     on_refine=audit)
    audit.check_run(res, strict_drop)


def cdf_pick(cdf, k) -> tuple[float, float]:
    """Probability that bisect_right(cdf, u * cdf[-1]), u uniform on [0, 1),
    returns k, and the u in the middle of the interval that does."""
    lo = cdf[k - 1] if k else 0.0
    return (cdf[k] - lo) / cdf[-1], (lo + cdf[k]) / 2 / cdf[-1]


# -- sentences ---------------------------------------------------------------

def sentence_pick_probabilities(q, paths, scores) -> list[tuple]:
    """Per path, the probability that sample_path's per-step picks produce
    it, and the uniforms in the middle of those picks' intervals."""
    q.beta("sum")
    out = []
    for x in paths:
        prob, us, row = 1.0, [], 0
        for i, w in enumerate(x):
            layer = q.contexts[i]
            cdf = q._memo["sum"][i].get(row) or q._draw_table(i, row)
            p, u = cdf_pick(cdf, layer.col[w])
            prob *= p
            us.append(u)
            row = layer.dest.item(row, layer.col[w])
        out.append((prob, us))
    return out


SENTENCE_RUNS = [
    (Mode.SAMPLING, StopConfig(ar_window=20, ar_threshold=0.999,
                               max_trials=300)),
    (Mode.OPTIMIZATION, StopConfig(max_trials=10_000)),
]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 5),
       cluster_size=st.integers(2, 3), length=st.integers(2, 5),
       cap=st.none() | st.integers(1, 4))
# two paths tie left to right under q and p, and their backward max sums
# differ by an ulp in favour of the lexicographically larger one
@example(seed=31, order=3, cluster_size=3, length=4, cap=None)
# the argmax's order-2 bound sits one ulp above p: q(x*) = p(x*) needs one
# more refinement, and the excess of one ulp is refined down to exactly p
@example(seed=4194305, order=3, cluster_size=2, length=4, cap=None)
# a one-order gap of roundoff at a site with no slack must not be picked
# over a zero gap at a site with slack, or the rejected path never drops
@example(seed=404755, order=4, cluster_size=3, length=5, cap=None)
# no loose site; the slack fallback's first deeper bound is lower by
# roundoff only, and the path's score drops by one ulp
@example(seed=910, order=5, cluster_size=2, length=8, cap=None)
# no loose site and no excess above 1e-12; two sites each an ulp of the
# path's total above p, so deepening one of them leaves its score unchanged
@example(seed=5663, order=3, cluster_size=2, length=4, cap=None)
def test_sentence_runs_keep_the_contract(seed, order, cluster_size, length,
                                         cap):
    """A synthetic order 2-5 LM over lattices of 2-8 positions, with or
    without an order cap on target and bound, sampled and decoded."""
    vocab, arpa, _, obs = synthetic_instance(
        seed, order=order, n_clusters=3, cluster_size=cluster_size,
        length=length, n_sentences=30)
    lm = load_arpa(arpa)
    if cap is not None:
        lm = lm.capped(cap)
    lattice = build_lattice(obs, vocab)
    tables = MaxBackoffTables(lm)
    target = am.HmmTarget(lm, lattice)
    paths = list(lattice_paths(lattice))
    for mode, stop in SENTENCE_RUNS:
        assert_contract(mode, target, am.build_q0(lattice, tables),
                        am.AutomatonRefiner(), stop, seed, paths,
                        sentence_pick_probabilities, strict_drop=True)
    # refine reads the rows of the path the last draw walked only when that
    # path is the rejected one: here each reject follows a draw of its own
    q = am.build_q0(lattice, tables)
    log_ps = [target(x) for x in paths]
    audit = Audit(q, paths, log_ps)
    rng = np.random.default_rng(seed)
    for k in rng.integers(len(paths), size=20).tolist():
        q.draw(rng)
        before = audit.scores[k]
        if before > log_ps[k]:
            am.refine(q, paths[k])
            audit(q)
            after = audit.scores[k]
            assert before - after > 1e-15 or after == log_ps[k]


# -- grids -------------------------------------------------------------------

def grid_pick_probabilities(pw, configs, scores) -> list[tuple]:
    """As sentence_pick_probabilities: x's leaf from the leaf CDF, then x
    node by node down the leaf's forest.  The leaves, each enumerated from
    its values, cover every configuration once; a leaf's pick is Q(leaf) /
    Q(X) and x's pick inside it q(x) / Q(leaf), each within 1e-9."""
    ids, masses, total, cdf = pw._tables()
    score = dict(zip(configs, scores))
    out = {}
    for k, lid in enumerate(ids):
        leaf_prob, leaf_u = cdf_pick(cdf, k)
        assert abs(leaf_prob - math.exp(masses[k] - total)) <= 1e-9
        leaf = pw.leaves[lid]
        order, parent = leaf.forest.order, leaf.forest.parent
        # (node, parent value) -> each value's pick probability
        node_picks = {}
        for x in itertools.product(*(
                [leaf.assigned[i]] if i in leaf.assigned else range(d)
                for i, d in enumerate(pw.model.domains))):
            prob, us = 1.0, [leaf_u]
            for j in order:
                key = None if parent[j] is None else x[parent[j]]
                picks = node_picks.get((j, key))
                if picks is None:
                    row = leaf._cdf(j, key)
                    picks = node_picks[j, key] = [
                        cdf_pick(row, v) for v in range(len(row))]
                p, u = picks[x[j]]
                prob *= p
                us.append(u)
            assert abs(prob - math.exp(score[x] - masses[k])) <= 1e-9
            assert x not in out, f"{x} in two leaves"
            out[x] = (leaf_prob * prob, us)
    assert len(out) == len(configs)
    return [out[x] for x in configs]


@st.composite
def models(draw):
    """2-7 nodes, domains 1-3 (at most 128 configurations) and integer log
    potentials in [-2, 2], so every sum and every tie is exact.  Half have
    no field, where ties are the rule; each node pair is an edge at odds 3
    to 1, so most have cycles and a loose bound, and any edge set occurs."""
    n = draw(st.integers(2, 7))
    domains = []
    for _ in range(n):
        room = 128 // math.prod(domains)
        domains.append(draw(st.integers(1, max(1, min(3, room)))))
    ints = st.integers(-2, 2)
    if draw(st.booleans()):
        log_psi = [[0] * d for d in domains]
    else:
        log_psi = [draw(st.lists(ints, min_size=d, max_size=d))
                   for d in domains]
    edges = [(u, v, [draw(st.lists(ints, min_size=domains[v],
                                   max_size=domains[v]))
                     for _ in range(domains[u])])
             for u in range(n) for v in range(u + 1, n)
             if draw(st.integers(0, 3))]
    return PairwiseModel(domains, log_psi, edges)


GRID_STOPS = {
    Mode.SAMPLING: StopConfig(ar_window=30, ar_threshold=1.0,
                              max_trials=300),
    Mode.OPTIMIZATION: StopConfig(),
}


@settings(max_examples=200, deadline=None)
@given(models(), st.integers(0, 2**16), st.sampled_from(list(Mode)))
# every maximizer of this tree ties at node 2 with its parent 0 set, where
# the descent's first maximum leads to (0, 1, 0), not the smallest (0, 0, 1)
@example(preorder_tie(), 0, Mode.OPTIMIZATION)
def test_grid_runs_keep_the_contract(model, seed, mode):
    """Each model sampled or decoded under every policy, with and without
    retree.  A fully assigned leaf scores exactly p, so no reject reaches
    one and NoUnassignedNode never escapes the refiner."""
    configs = list(itertools.product(*map(range, model.domains)))
    for policy, retree in itertools.product(Policy, (False, True)):
        pw = PiecewiseProposal(model, retree=retree)
        assert_contract(mode, model.log_p, pw,
                        PolicyRefiner(pw, policy, seed=seed),
                        GRID_STOPS[mode], seed, configs,
                        grid_pick_probabilities, pointwise=not retree)


# -- beyond enumeration -------------------------------------------------------

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference",
                                                  REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the trial budget of every run below: the largest needs 337 trials (the
# 8x8 MAP of seed 0), and a run whose refinements stall fails at the budget
# instead of running on
DP_TRIALS = 1000

# (rows, cols, model seed, policy, retree); sigma only rescales an Ising
# MAP, so one sigma serves.  The queue policy pays a lookahead per leaf and
# runs on one model per shape; 8x8 runs on the two seeds of under 0.2 s.
GRID_DP_CASES = [
    (rows, cols, seed, Policy.MAX_SLACK, retree)
    for rows, cols in ((6, 6), (4, 8), (7, 7)) for seed in range(3)
    for retree in (False, True)
] + [(6, 6, 0, Policy.QUEUE, False), (4, 8, 0, Policy.QUEUE, False),
     (8, 8, 0, Policy.MAX_SLACK, False), (8, 8, 2, Policy.MAX_SLACK, False)]


def frozen_z_hat(res) -> tuple[float, float]:
    """log Z-hat of a frozen run, Q times the mean acceptance ratio, and
    5 of its standard errors (the benchmark's _check_z rule)."""
    recs = res.history.records
    r = np.array([math.exp(min(0.0, x.log_p - x.log_q)) for x in recs])
    return (math.log(r.mean()) + recs[-1].proposal_mass_log,
            5 * r.std(ddof=1) / (math.sqrt(len(r)) * r.mean()))


def test_grid_maps_match_the_transfer_matrix_dp():
    """The certified argmax scores the reference's MAP within 1e-9 with a
    gap of exactly 0.0 inside the trial budget, and the log mass bounds the
    reference's log Z (within 1e-9) at the root and after every
    refinement."""
    reference = load_reference()
    for rows, cols, seed, policy, retree in GRID_DP_CASES:
        case = (rows, cols, seed, policy, retree)
        model = ising_grid(rows, cols, sigma=0.5, seed=seed)
        dp = reference.GridReference(model.to_dict(), rows, cols)
        top, log_z = dp.solve()
        pw = PiecewiseProposal(model, retree=retree)
        masses = [pw.mass_log()]
        res = engine.run(Mode.OPTIMIZATION, model.log_p, pw,
                         PolicyRefiner(pw, policy, seed=seed),
                         StopConfig(max_trials=DP_TRIALS), seed,
                         on_refine=lambda q: masses.append(q.mass_log()))
        assert abs(dp.score(res.argmax) - top) <= 1e-9, case
        assert res.certificate_gap_log == 0.0, case
        assert len(masses) == res.history.refine_count + 1, case
        assert min(masses) >= log_z - 1e-9, case


def transposed(data, rows, cols):
    """The grid model dict data with node r * cols + c renumbered
    c * rows + r: a cols x rows grid, whose DP runs over 2**rows row states
    instead of 2**cols.  Each node keeps data's log_psi list."""
    def at(i):
        return i % cols * rows + i // cols
    return {"nodes": [dict(n, id=at(n["id"])) for n in data["nodes"]],
            "edges": [dict(e, u=at(e["u"]), v=at(e["v"]))
                      for e in data["edges"]]}


# (rows, cols, sigma, model seed, policy, retree)
GRID_Z_CASES = [(6, 6, 0.5, 0, Policy.MAX_SLACK, False),
                (6, 6, 0.5, 0, Policy.MAX_SLACK, True),
                (4, 8, 0.5, 1, Policy.MAX_SLACK, False),
                (4, 8, 1.0, 1, Policy.MAX_SLACK, True),
                (7, 7, 0.5, 2, Policy.MAX_SLACK, False),
                (6, 6, 1.0, 2, Policy.MAX_SLACK, False),
                (5, 5, 0.5, 0, Policy.QUEUE, False),
                (4, 6, 0.5, 1, Policy.QUEUE, False)]

SUM_STOP = StopConfig(ar_threshold=0.3, max_trials=DP_TRIALS)
FROZEN_STOP = StopConfig(ar_window=4000, ar_threshold=1.0, max_trials=4000)


def test_grid_samples_match_the_transfer_matrix_dp():
    """Each model is refined to a windowed acceptance rate of 0.3 inside
    the trial budget, and the log mass bounds the reference's log Z
    (within 1e-9) at the root and after every refinement.  A frozen phase
    of 4,000 trials then reads log Z-hat within 5 standard errors of log
    Z, and each node takes value 0 in the accepted samples within 5
    binomial standard errors of its exact marginal: the log Z of the model
    with the node's value 1 ruled out, less log Z."""
    reference = load_reference()
    for rows, cols, sigma, seed, policy, retree in GRID_Z_CASES:
        case = (rows, cols, sigma, seed, policy, retree)
        model = ising_grid(rows, cols, sigma=sigma, seed=seed)
        data, shape = model.to_dict(), (rows, cols)
        if cols > rows:
            data, shape = transposed(data, rows, cols), (cols, rows)
        log_z = reference.GridReference(data, *shape).solve()[1]
        pw = PiecewiseProposal(model, retree=retree)
        masses = [pw.mass_log()]
        res = engine.run(Mode.SAMPLING, model.log_p, pw,
                         PolicyRefiner(pw, policy, seed=seed), SUM_STOP, seed,
                         on_refine=lambda q: masses.append(q.mass_log()))
        assert engine.should_stop(res.history, Mode.SAMPLING, SUM_STOP), case
        assert min(masses) >= log_z - 1e-9, case
        frozen = engine.run(Mode.SAMPLING, model.log_p, pw, None,
                            FROZEN_STOP, seed + 1)
        z_hat_log, tol = frozen_z_hat(frozen)
        assert abs(z_hat_log - log_z) <= tol, case
        samples = np.array(frozen.samples)
        for i, node in enumerate(data["nodes"]):
            node["log_psi"][1] = -1e300
            marginal = math.exp(reference.GridReference(
                data, *shape).solve()[1] - log_z)
            node["log_psi"][1] = model.log_psi(i)[1]
            se = math.sqrt(marginal * (1 - marginal) / len(samples))
            assert abs(np.mean(samples[:, i] == 0) - marginal) <= 5 * se, \
                (case, i)


# (words, decode trials, sampling trials), run seed 0: pinned, and each the
# run's budget, so a change that keeps the law but loosens the refinement
# fails here, and fails fast
SENTENCE_DP_CASES = [(24, 914, 418), (32, 1599, 427)]


def test_sentences_match_the_lattice_dp():
    """On an order-5 LM over 64 words (8 keypad codes of 8 words), trained
    on 40 sentences of L words, the first of them is decoded and sampled.
    The decode certifies the reference's maximum (within 1e-9) with a gap
    of exactly 0.0.  Sampling to a windowed acceptance rate of 0.3 keeps
    the log mass >= log Z (within 1e-9) at q0 and after every refinement,
    a frozen phase of 4,000 trials reads log Z-hat within 5 standard
    errors, and at four positions each candidate's frequency among the
    accepted samples is within 5 binomial standard errors of its exact
    marginal: log Z with every other candidate there at -1e300, less log
    Z (-inf would make the DP's all -inf slices nan)."""
    reference = load_reference()

    class Pinned(reference.SentenceReference):
        pin = None  # (position, candidate index) or None

        def _table(self, obs, i, c):
            table = super()._table(obs, i, c)
            if self.pin is not None and self.pin[0] == i:
                mask = np.full(table.shape[-1], -1e300)
                mask[self.pin[1]] = 0.0
                table = table + mask
            return table

    for length, decode_trials, sample_trials in SENTENCE_DP_CASES:
        rng = np.random.default_rng([1, length, 0])
        vocab = cluster_vocab(rng, 8, 8)
        corpus = markov_corpus(rng, vocab, 40, length)
        arpa = train_arpa(corpus, 5, vocab)
        obs = [keypad_encode(w) for w in corpus[0]]
        lm = load_arpa(arpa)
        tables = MaxBackoffTables(lm)
        lattice = build_lattice(obs, vocab)
        target = am.HmmTarget(lm, lattice)
        dp = Pinned(arpa, vocab)
        top, log_z = dp.solve(obs)
        res = engine.run(Mode.OPTIMIZATION, target,
                         am.build_q0(lattice, tables), am.AutomatonRefiner(),
                         StopConfig(max_trials=decode_trials), 0)
        assert res.history.trial_count == decode_trials, length
        assert abs(dp.score(obs, res.argmax) - top) <= 1e-9, length
        assert res.certificate_gap_log == 0.0, length
        q = am.build_q0(lattice, tables)
        masses = [q.mass_log()]
        stop = StopConfig(ar_threshold=0.3, max_trials=sample_trials)
        res = engine.run(Mode.SAMPLING, target, q, am.AutomatonRefiner(),
                         stop, 0,
                         on_refine=lambda q: masses.append(q.mass_log()))
        assert res.history.trial_count == sample_trials, length
        assert engine.should_stop(res.history, Mode.SAMPLING, stop), length
        assert min(masses) >= log_z - 1e-9, length
        frozen = engine.run(Mode.SAMPLING, target, res.final_proposal, None,
                            FROZEN_STOP, 1)
        z_hat_log, tol = frozen_z_hat(frozen)
        assert abs(z_hat_log - log_z) <= tol, length
        for i in (0, length // 3, 2 * length // 3, length - 1):
            words = [x[i] for x in frozen.samples]
            for k, word in enumerate(dp.by_code[obs[i]]):
                dp.pin = (i, k)
                marginal = math.exp(dp.solve(obs)[1] - log_z)
                dp.pin = None
                se = math.sqrt(marginal * (1 - marginal) / len(words))
                assert abs(words.count(word) / len(words) - marginal) \
                    <= 5 * se, (length, i, word)
