"""Partition-proposal tests: conditioning, policies, and the bench."""

import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osstar import engine, graphical, piecewise
from osstar.engine import Mode, StopConfig
from osstar.graphical import PairwiseModel, SubspaceProposal, ising_grid
from osstar.piecewise import (AlreadyConditioned, ImprovementQueue,
                              NoUnassignedNode, PiecewiseProposal, Policy,
                              PolicyRefiner, policy_bench,
                              select_refinement, write_bench_csv)

from test_graphical import all_configs, held


def logsumexp(vals):
    return float(np.logaddexp.reduce(np.asarray(vals, dtype=float)))


def test_condition_error_paths():
    m = ising_grid(2, 2, sigma=0.5, seed=1)
    pw = PiecewiseProposal(m)
    ids = pw.condition(0, 2)
    with pytest.raises(KeyError):
        pw.condition(0, 1)  # leaf 0 was replaced
    with pytest.raises(AlreadyConditioned):
        pw.condition(ids[0], 2)


def test_fully_conditioned_leaf_scores_exactly():
    m = ising_grid(2, 2, sigma=0.9, seed=7)
    pw = PiecewiseProposal(m)
    # condition nodes 0..3 along the leaf containing config (1, 0, 1, 1)
    x = (1, 0, 1, 1)
    for node in range(4):
        lid = pw.leaf_of(x)
        pw.condition(lid, node)
    lid = pw.leaf_of(x)
    assert pw.leaves[lid].assigned == dict(enumerate(x))
    assert pw.score(x) == m.log_p(x)


def test_bound_builds_counter():
    m = ising_grid(2, 2, sigma=0.5, seed=2)
    pw = PiecewiseProposal(m)
    assert pw.bound_builds == 1
    pw.condition(0, 0)
    assert pw.bound_builds == 3
    pw2 = PiecewiseProposal(m, retree=True)
    pw2.condition(0, 0)
    assert pw2.bound_builds == 5
    pw3 = PiecewiseProposal(m)
    ImprovementQueue(pw3)  # eager lookahead: 4 free nodes x 2 values
    assert pw3.bound_builds == 9


def test_policy_random_node_and_mass_leaf():
    m = ising_grid(2, 2, sigma=0.8, seed=9)
    pw = PiecewiseProposal(m)
    rng = np.random.default_rng(0)
    reject = (0, 1, 0, 1)
    lid, node = select_refinement(pw, Policy.RANDOM_NODE, reject, rng)
    assert lid == 0 and node in pw.leaves[0].free
    pw.condition(lid, node)
    # mass-leaf policy picks the heaviest refinable leaf
    masses = {l: pw.leaves[l].mass_log() for l in pw.leaves
              if pw.leaves[l].free}
    want = min(l for l in masses if masses[l] >= max(masses.values()))
    lid3, node3 = select_refinement(pw, Policy.MASS_LEAF, None, rng)
    assert lid3 == want
    assert node3 in pw.leaves[lid3].free


def test_policy_max_slack_matches_hand_computation():
    m = ising_grid(2, 2, sigma=1.1, seed=11)
    pw = PiecewiseProposal(m)
    reject = (1, 1, 0, 0)
    leaf = pw.leaves[0]
    slack = {j: 0.0 for j in leaf.free}
    for eid in leaf.offtree_ids:
        e = m.edges[eid]
        gap = m.phi_max_log[eid] - m.log_phi(eid)[reject[e.u]][reject[e.v]]
        slack[e.u] += gap
        slack[e.v] += gap
    want = max(sorted(slack), key=lambda j: slack[j])
    rng = np.random.default_rng(0)
    lid, node = select_refinement(pw, Policy.MAX_SLACK, reject, rng)
    assert (lid, node) == (0, want)


def enum_mass(model, proposal, cfgs):
    members = [x for x in cfgs
               if all(x[j] == v for j, v in proposal.assigned.items())]
    return logsumexp([proposal.score(x) for x in members])


def test_queue_policy_matches_brute_force_improvements():
    m = ising_grid(2, 2, sigma=1.0, seed=13)
    pw = PiecewiseProposal(m)
    pw.condition(0, 1)
    queue = ImprovementQueue(pw)
    cfgs = all_configs(m)
    best = None
    for lid in sorted(pw.leaves):
        leaf = pw.leaves[lid]
        for node in leaf.free:
            inherited = leaf.forest.without(node)
            child_masses = [
                enum_mass(m, SubspaceProposal(
                    m, {**leaf.assigned, node: v}, inherited), cfgs)
                for v in range(m.domains[node])]
            drop = math.exp(enum_mass(m, leaf, cfgs)) - \
                sum(math.exp(cm) for cm in child_masses)
            imp = math.log(drop) if drop > 0 else -math.inf
            key = (-imp, lid, node)
            if best is None or key < best:
                best = key
    got = queue.pop()
    assert got == (best[1], best[2])
    # the live entries left are every free node of every leaf, but the one
    # popped
    live = [(lid, node) for _, lid, node in queue.heap
            if lid in pw.leaves and node not in pw.leaves[lid].assigned]
    assert sorted(live) == sorted(
        (lid, node) for lid, leaf in pw.leaves.items() for node in leaf.free
        if (lid, node) != got)


def test_queue_skips_dead_leaves_and_raises_when_done():
    m = ising_grid(1, 2, sigma=0.6, seed=3)  # two nodes, one edge
    pw = PiecewiseProposal(m)
    queue = ImprovementQueue(pw)
    lid, node = queue.pop()
    children = pw.condition(lid, node)
    for cid in children:
        queue.add_leaf(cid)
    lid2, node2 = queue.pop()
    assert lid2 in children  # the root leaf died with the first conditioning
    children2 = pw.condition(lid2, node2)
    for cid in children2:
        queue.add_leaf(cid)
    lid3, node3 = queue.pop()
    pw.condition(lid3, node3)
    with pytest.raises(NoUnassignedNode):
        while True:
            lid, node = queue.pop()
            pw.condition(lid, node)


def test_sampling_law_after_conditioning():
    m = ising_grid(2, 2, sigma=0.9, seed=17)
    pw = PiecewiseProposal(m)
    pw.condition(0, 0)
    pw.condition(pw.leaf_of((0, 0, 0, 0)), 3)
    cfgs = np.array(all_configs(m))
    scores = np.array([pw.score(x) for x in cfgs])
    z = logsumexp(scores)
    rng = np.random.default_rng(5)
    n = 34_000
    freq = Counter()
    for _ in range(n):
        x, log_q = pw.draw(rng)
        assert log_q == pw.score(x)
        freq[x] += 1
    for x, s in zip(map(tuple, cfgs.tolist()), scores):
        assert abs(freq[x] / n - math.exp(s - z)) < 0.02


def test_engine_sampling_reaches_target_rate():
    m = ising_grid(2, 2, sigma=1.2, seed=23)
    pw = PiecewiseProposal(m)
    log_z = logsumexp(m.log_p_many(np.array(all_configs(m))))
    stop = StopConfig(ar_window=50, ar_threshold=0.7, max_trials=20_000)
    res = engine.run(Mode.SAMPLING, m.log_p, pw,
                     PolicyRefiner(pw, Policy.MAX_SLACK, seed=1), stop,
                     seed=42)
    assert res.history.refine_count > 0
    assert res.history.ar_window(50) >= 0.7
    met = engine.metrics(res.history, pw.mass_log())
    assert abs(met.z_hat_log - log_z) < 0.1


def test_certificate_gap_is_never_negative():
    # q is scored in p's summation order, so at the certified optimum the
    # two sums are the same floats (this grid once read a few ulps below 0)
    m = ising_grid(5, 5, sigma=0.5, seed=0)
    pw = PiecewiseProposal(m)
    res = engine.run(Mode.OPTIMIZATION, m.log_p, pw,
                     PolicyRefiner(pw, Policy.MAX_SLACK, seed=0),
                     StopConfig(), seed=0)
    last = res.history.records[-1]
    assert last.log_q == last.log_p
    assert res.certificate_gap_log == 0.0


def test_argmax_backtracks_without_clamped_passes(monkeypatch):
    calls = {"n": 0}
    clamped = SubspaceProposal._max_log_clamped

    def counting(self, clamps):
        calls["n"] += 1
        return clamped(self, clamps)

    monkeypatch.setattr(SubspaceProposal, "_max_log_clamped", counting)
    m = ising_grid(5, 5, sigma=0.5, seed=0)
    pw = PiecewiseProposal(m)
    res = engine.run(Mode.OPTIMIZATION, m.log_p, pw,
                     PolicyRefiner(pw, Policy.MAX_SLACK, seed=0),
                     StopConfig(), seed=0)
    assert res.history.trial_count > 1
    assert calls["n"] == 0
    # an exact tie takes the clamped search and its lexicographic rule
    anti = np.log(np.array([[1.0, 2.0], [2.0, 1.0]]))
    tie = PairwiseModel([2, 2], [np.zeros(2), np.zeros(2)], [(0, 1, anti)])
    config, _ = SubspaceProposal(tie, {}).argmax()
    assert calls["n"] >= 1
    assert config == (0, 1)


@pytest.mark.parametrize("policy", list(Policy))
def test_policy_bench_rows_and_csv(policy, tmp_path):
    m = ising_grid(3, 3, sigma=0.6, seed=8)
    rows, pw = policy_bench(m, policy, refinements=6, trials_per_round=80,
                            seed=3)
    assert rows[0].refinement_index == 0
    assert [r.refinement_index for r in rows] == list(range(len(rows)))
    masses = [r.q_mass_log for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(masses, masses[1:]))
    refs = [r.tau_ref for r in rows]
    assert all(b >= a for a, b in zip(refs, refs[1:]))
    assert rows[-1].trials == 80 * len(rows)
    out = tmp_path / "bench.csv"
    write_bench_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("refinement_index,ar_hat,z_hat_log,q_mass_log,"
                        "tau_ref,tau_samp,tau_tot_est")
    assert len(lines) == len(rows) + 1


@pytest.mark.parametrize("policy, leaves, assigned", [
    (Policy.RANDOM_NODE, 1, 0), (Policy.MAX_SLACK, 1, 0),
    (Policy.MASS_LEAF, 4, 2), (Policy.QUEUE, 4, 2)])
def test_policy_bench_stops_when_nothing_is_left_to_refine(policy, leaves,
                                                           assigned):
    # a tree's root bound is exact: I and II see no reject and stop at
    # once; III and IV condition until every leaf is fully assigned
    rows, pw = policy_bench(ising_grid(1, 2, sigma=1.0, seed=0), policy,
                            refinements=10, trials_per_round=50)
    assert len(rows) == leaves
    assert [len(leaf.assigned) for leaf in pw.leaves.values()] == \
        [assigned] * leaves


def test_queue_policy_pays_lookahead_in_tau_ref():
    m = ising_grid(3, 3, sigma=0.6, seed=8)
    rows_ii, _ = policy_bench(m, Policy.MAX_SLACK, refinements=4,
                              trials_per_round=50, seed=3)
    rows_iv, _ = policy_bench(m, Policy.QUEUE, refinements=4,
                              trials_per_round=50, seed=3)
    assert rows_iv[0].tau_ref > rows_ii[0].tau_ref
    assert rows_iv[-1].tau_ref > rows_ii[-1].tau_ref


def test_bench_is_deterministic():
    m = ising_grid(3, 3, sigma=0.7, seed=6)
    a, _ = policy_bench(m, Policy.RANDOM_NODE, refinements=5,
                        trials_per_round=60, seed=10)
    b, _ = policy_bench(m, Policy.RANDOM_NODE, refinements=5,
                        trials_per_round=60, seed=10)
    assert [(r.ar_hat, r.z_hat_log, r.q_mass_log) for r in a] == \
        [(r.ar_hat, r.z_hat_log, r.q_mass_log) for r in b]


def count_sum_passes(monkeypatch):
    """Count the leaf sum-semiring passes actually built from now on."""
    built = {"sum": 0}
    beta = SubspaceProposal.beta

    def counting(self, semiring):
        if semiring == "sum" and self._beta["sum"] is None:
            built["sum"] += 1
        return beta(self, semiring)

    monkeypatch.setattr(SubspaceProposal, "beta", counting)
    return built


@pytest.mark.parametrize("policy", [Policy.RANDOM_NODE, Policy.MAX_SLACK])
def test_map_run_builds_no_leaf_sum_pass(policy, monkeypatch):
    built = count_sum_passes(monkeypatch)
    m = ising_grid(4, 4, sigma=0.8, seed=1)
    pw = PiecewiseProposal(m)
    res = engine.run(Mode.OPTIMIZATION, m.log_p, pw,
                     PolicyRefiner(pw, policy, seed=0), StopConfig(), seed=0)
    assert res.history.refine_count > 0
    assert res.certificate_gap_log == 0.0
    assert built["sum"] == 0
    assert all(leaf._beta["sum"] is None for leaf in pw.leaves.values())
    assert pw._tables_cache is None


def test_queue_lookahead_shares_its_leaf_sum_pass(monkeypatch):
    # the queue reads a leaf's mass before it builds the leaf's would-be
    # children, so after the root every sum pass reads its split leaf's
    full = []
    passes = SubspaceProposal._pass

    def recording(self, semiring, eff, base):
        if semiring == "sum":
            full.append(base is None)
        return passes(self, semiring, eff, base)

    monkeypatch.setattr(SubspaceProposal, "_pass", recording)
    m = ising_grid(5, 5, sigma=0.5, seed=1)
    pw = PiecewiseProposal(m)
    res = engine.run(Mode.SAMPLING, m.log_p, pw,
                     PolicyRefiner(pw, Policy.QUEUE),
                     StopConfig(ar_window=50, ar_threshold=0.5), seed=0)
    assert res.history.refine_count > 0
    assert full[0] and len(full) > 1 and not any(full[1:])


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("retree", [False, True])
def test_cached_leaf_scalars_equal_a_fresh_build(mode, retree):
    # leaves cache mass_log()/max_log() once; after every refinement each
    # cached value must equal a rebuild of the same leaf, bit for bit, and
    # the piecewise total mass must equal a fresh reduction in sorted-id
    # order
    m = ising_grid(3, 3, sigma=1.0, seed=6)
    pw = PiecewiseProposal(m, retree=retree)
    audits = {"n": 0}

    def audit(proposal):
        audits["n"] += 1
        masses, maxes = [], []
        for lid in sorted(proposal.leaves):
            leaf = proposal.leaves[lid]
            # one fresh leaf per scalar, so neither is read off the other
            masses.append(
                SubspaceProposal(m, leaf.assigned, leaf.forest).mass_log())
            maxes.append(
                SubspaceProposal(m, leaf.assigned, leaf.forest).max_log())
            assert leaf.mass_log() == masses[-1]
            assert leaf.max_log() == maxes[-1]
        assert proposal.mass_log() == np.logaddexp.reduce(masses)

    stop = (StopConfig() if mode is Mode.OPTIMIZATION else
            StopConfig(ar_window=50, ar_threshold=0.6, max_trials=20_000))
    res = engine.run(mode, m.log_p, pw,
                     PolicyRefiner(pw, Policy.MAX_SLACK, seed=1), stop,
                     seed=3, on_refine=audit)
    assert audits["n"] == res.history.refine_count > 0


@pytest.mark.parametrize("policy", list(Policy))
def test_leaves_stay_in_increasing_id_order(policy):
    m = ising_grid(3, 3, sigma=1.0, seed=4)
    pw = PiecewiseProposal(m)
    refiner = PolicyRefiner(pw, policy, seed=1)
    res = engine.run(Mode.SAMPLING, m.log_p, pw, refiner,
                     StopConfig(ar_threshold=0.9, max_trials=3000), 0)
    assert res.history.refine_count >= 5
    assert list(pw.leaves) == sorted(pw.leaves)


@pytest.mark.parametrize("retree", [False, True])
def test_every_bound_build_is_counted(retree, monkeypatch):
    built = [0]
    init = SubspaceProposal.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SubspaceProposal, "__init__", counting)
    m = ising_grid(2, 3, sigma=0.8, seed=5)
    pw = PiecewiseProposal(m, retree=retree)
    assert built == [pw.bound_builds] == [1]

    def delta(step):
        built[0], before = 0, pw.bound_builds
        out = step()
        assert built[0] == pw.bound_builds - before > 0
        return out

    queue = delta(lambda: ImprovementQueue(pw))
    children = delta(lambda: pw.condition(0, 2))
    assert pw.bound_builds - 1 - 6 * 2 == 2 * (2 if retree else 1)
    for cid in children:
        delta(lambda: queue.add_leaf(cid))


def node_cdf(leaf, j, key):
    """The CDF over node j's values that SubspaceProposal.sample draws by,
    given its parent's value key (None at a root), computed afresh by
    numpy."""
    beta = leaf.beta("sum")
    logits = np.array(beta[j]) if key is None else \
        np.array(beta[j]) + np.array(leaf._edge_to_parent(j))[key]
    return np.cumsum(np.exp(logits - logits.max()))


def test_frozen_run_builds_no_bound_and_each_cdf_once(monkeypatch):
    # a split proposal with no CDF yet: conditioning draws nothing
    m = ising_grid(3, 3, sigma=0.8, seed=1)
    pw = PiecewiseProposal(m)
    pw.condition(0, 4)
    pw.condition(pw.leaf_of((0,) * 9), 0)
    pw.condition(pw.leaf_of((1,) * 9), 8)
    builds = pw.bound_builds
    built = Counter()
    logits = SubspaceProposal._logits

    def counting(self, beta, j, key):
        built[self, j, key] += 1
        return logits(self, beta, j, key)

    monkeypatch.setattr(SubspaceProposal, "_logits", counting)
    res = engine.run(Mode.SAMPLING, m.log_p, pw, None,
                     StopConfig(ar_window=1000, ar_threshold=1.1,
                                max_trials=1000), 1)
    assert res.history.trial_count == 1000
    assert pw.bound_builds == builds
    visited = set()
    for rec in res.history.records:
        leaf = pw.leaves[pw.leaf_of(rec.config)]
        for j in leaf.forest.order:
            p = leaf.forest.parent[j]
            visited.add((leaf, j, None if p is None else rec.config[p]))
    assert len({leaf for leaf, _, _ in visited}) == len(pw.leaves) == 4
    assert set(built) == visited and set(built.values()) == {1}


@pytest.mark.parametrize("retree", [False, True])
@pytest.mark.parametrize("policy", list(Policy))
def test_memoised_cdfs_equal_fresh_numpy_cdfs(policy, retree):
    """After every refinement of a sampling run, each CDF a leaf has kept
    for its draws is the fresh numpy CDF bit for bit."""
    m = ising_grid(4, 4, sigma=1.0, seed=1)
    pw = PiecewiseProposal(m, retree=retree)
    compared = []

    def audit(proposal):
        for leaf in proposal.leaves.values():
            for j, cdfs in held(leaf._memo["sum"] or []).items():
                for key, cdf in cdfs.items():
                    fresh = node_cdf(leaf, j, key).tolist()
                    assert list(map(float.hex, cdf)) == \
                        list(map(float.hex, fresh)), (j, key)
                    compared.append((j, key))

    engine.run(Mode.SAMPLING, m.log_p, pw, PolicyRefiner(pw, policy, seed=3),
               StopConfig(ar_window=30, ar_threshold=1.0, max_trials=300),
               5, on_refine=audit)
    assert compared


def numpy_pick(leaf, j, key):
    """The argmax pick of node j given its parent's value key (None at a
    root), by numpy: the first maximum, or None when the runner-up is
    within the tie tolerance."""
    beta = leaf.beta("max")
    logits = np.array(beta[j]) if key is None else \
        np.array(beta[j]) + np.array(leaf._edge_to_parent(j))[key]
    best = int(np.argmax(logits))
    tol = engine.tie_tolerance(leaf.model.abs_log_sum)
    if len(logits) > 1 and \
            np.partition(logits, -2)[-2] >= logits[best] - tol:
        return None
    return best


def assert_leaves_match_fresh_builds(m, proposal):
    """Every leaf's free list, constant (bit for bit), off-tree edges and
    unaries, every computed pass (beta and messages, node by node), its
    argmax and every draw CDF (bit for bit) and argmax pick it has
    memoised equal those of a full build of the same leaf."""
    for leaf in proposal.leaves.values():
        fresh = SubspaceProposal(m, leaf.assigned, leaf.forest)
        assert leaf.free == fresh.free
        assert leaf.const.hex() == fresh.const.hex()
        assert leaf.offtree_ids == fresh.offtree_ids
        assert held(leaf.eff).keys() == held(fresh.eff).keys()
        assert all(np.array_equal(leaf.eff[j], fresh.eff[j])
                   for j in held(fresh.eff))
        for semiring in ("sum", "max"):
            if leaf._beta[semiring] is None:
                continue
            want, msg, _ = map(held, fresh._pass(semiring, fresh.eff, None))
            got = held(leaf.beta(semiring))
            assert got.keys() == want.keys() and \
                held(leaf._msg[semiring]).keys() == msg.keys()
            assert all(np.array_equal(got[j], want[j]) for j in want)
            assert all(np.array_equal(leaf._msg[semiring][j], msg[j])
                       for j in msg)
        if leaf._memo["sum"] is not None:
            assert held(leaf._memo["sum"]).keys() == set(fresh.free)
            assert all(list(map(float.hex, cdf)) ==
                       list(map(float.hex, node_cdf(fresh, j, key).tolist()))
                       for j, cdfs in held(leaf._memo["sum"]).items()
                       for key, cdf in cdfs.items())
        assert leaf.argmax() == fresh.argmax()
        assert held(leaf._memo["max"]).keys() == \
            held(fresh._memo["max"]).keys()
        assert all(v == numpy_pick(fresh, j, key)
                   for j, picks in held(leaf._memo["max"]).items()
                   for key, v in picks.items())


@pytest.mark.parametrize("shape", [(3, 3), (4, 4)])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("retree", [False, True])
def test_split_children_match_fresh_builds(shape, mode, retree):
    # children share their parent's unchanged arrays and argmax picks;
    # after every refinement each leaf must still equal a full build
    m = ising_grid(*shape, sigma=0.5, seed=6)
    stop = (StopConfig() if mode is Mode.OPTIMIZATION else
            StopConfig(ar_window=50, ar_threshold=0.8, max_trials=3000))
    for policy in Policy:
        pw = PiecewiseProposal(m, retree=retree)
        audits = {"n": 0}

        def audit(proposal):
            audits["n"] += 1
            assert_leaves_match_fresh_builds(m, proposal)

        res = engine.run(mode, m.log_p, pw,
                         PolicyRefiner(pw, policy, seed=2), stop, seed=5,
                         on_refine=audit)
        assert audits["n"] == res.history.refine_count > 0, policy


@st.composite
def split_sequences(draw, values=st.integers(-2, 2)):
    """2-6 nodes, domains 1-3, any edge subset (so forests may be
    disconnected), log potentials drawn from values (integers by default),
    and a sequence of splits; before each split the leaf may or may not
    have computed each pass, its argmax and a few draws, so children meet
    every mix of shareable state."""
    n = draw(st.integers(2, 6))
    domains = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    log_psi = [draw(st.lists(values, min_size=d, max_size=d))
               for d in domains]
    edges = [(u, v, [draw(st.lists(values, min_size=domains[v],
                                   max_size=domains[v]))
                      for _ in range(domains[u])])
             for u in range(n) for v in range(u + 1, n)
             if draw(st.booleans())]
    steps = draw(st.lists(st.tuples(st.integers(0, 10**6),
                                    st.integers(0, 10**6),
                                    st.sets(st.sampled_from(
                                        ["sum", "max", "argmax", "draw"]))),
                          max_size=6))
    return PairwiseModel(domains, log_psi, edges), steps


@settings(max_examples=150, deadline=None)
@given(split_sequences(), st.booleans())
def test_shared_children_equal_fresh_builds_on_random_models(case, retree):
    # with retree a leaf on its parent's forest minus a node may be split
    # on a fresh forest, where nodes that are no neighbours of the split
    # node move too
    m, steps = case
    pw = PiecewiseProposal(m, retree=retree)
    for leaf_pick, node_pick, used in steps:
        open_ids = [lid for lid, leaf in pw.leaves.items() if leaf.free]
        if not open_ids:
            break
        lid = open_ids[leaf_pick % len(open_ids)]
        leaf = pw.leaves[lid]
        for what in sorted(used):
            if what == "draw":
                rng = np.random.default_rng(leaf_pick)
                for _ in range(3):
                    leaf.sample(rng)
            else:
                leaf.argmax() if what == "argmax" else leaf.beta(what)
        pw.condition(lid, leaf.free[node_pick % len(leaf.free)])
        for child in pw.leaves.values():
            fresh = SubspaceProposal(m, child.assigned, child.forest)
            assert child.mass_log() == fresh.mass_log()
            assert child.max_log() == fresh.max_log()
        assert_leaves_match_fresh_builds(m, pw)


@settings(max_examples=100, deadline=None)
@given(split_sequences(st.floats(-3, 3, allow_nan=False)), st.booleans())
def test_p_and_q_are_one_sum_bit_for_bit(case, retree):
    # non-integer potentials, so the order of the sums shows in the bits
    m, steps = case
    pw = PiecewiseProposal(m, retree=retree)
    for leaf_pick, node_pick, _ in steps:
        open_ids = [lid for lid, leaf in pw.leaves.items() if leaf.free]
        if not open_ids:
            break
        lid = open_ids[leaf_pick % len(open_ids)]
        leaf = pw.leaves[lid]
        pw.condition(lid, leaf.free[node_pick % len(leaf.free)])
    cfgs = np.array(all_configs(m))
    log_p = m.log_p_many(cfgs)
    assert log_p.tolist() == [m.log_p(x) for x in all_configs(m)]
    for leaf in pw.leaves.values():
        rows = [x for x in all_configs(m)
                if all(x[j] == v for j, v in leaf.assigned.items())]
        for x in rows:
            s = leaf.score(x)
            assert s >= m.log_p(x)
            if all(m.log_phi(e)[x[m.edges[e].u]][x[m.edges[e].v]]
                   == m.phi_max_log[e] for e in leaf.offtree_ids):
                assert s == m.log_p(x)


@pytest.mark.parametrize("policy", [Policy.MAX_SLACK, Policy.QUEUE])
def test_retree_split_builds_one_fresh_forest(policy, monkeypatch):
    # one maximum spanning forest for the root and one per retree split,
    # none for lookahead splits; the children of a split share one forest
    forests = []

    def recording(model, free):
        forests.append(prim(model, free))
        return forests[-1]

    prim = graphical.max_spanning_forest
    monkeypatch.setattr(graphical, "max_spanning_forest", recording)
    monkeypatch.setattr(piecewise, "max_spanning_forest", recording)
    splits = []
    split = PiecewiseProposal._split

    def recording_split(self, leaf, node, forest=None):
        splits.append((forest, split(self, leaf, node, forest)))
        return splits[-1][1]

    monkeypatch.setattr(PiecewiseProposal, "_split", recording_split)
    m = ising_grid(3, 3, sigma=0.8, seed=5)
    pw = PiecewiseProposal(m, retree=True)
    assert len(forests) == 1
    res = engine.run(Mode.SAMPLING, m.log_p, pw,
                     PolicyRefiner(pw, policy, seed=1),
                     StopConfig(ar_window=50, ar_threshold=0.6,
                                max_trials=20_000), seed=3)
    fresh = [f for f, _ in splits if f is not None]
    assert len(forests) == 1 + len(fresh) == 1 + res.history.refine_count
    assert [id(f) for f in fresh] == [id(f) for f in forests[1:]]
    for forest, children in splits:
        assert len({id(c.forest) for c in children}) == 1
        assert forest is None or children[0].forest is forest


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("policy", [Policy.MAX_SLACK, Policy.QUEUE])
def test_retree_run_builds_only_the_root_in_full(mode, policy, monkeypatch):
    # every other bound, on a fresh forest or its leaf's, is a child that
    # split derived
    full = []
    init = SubspaceProposal.__init__

    def recording(self, model, assigned, forest=None, _split=None):
        full.append(_split is None)
        init(self, model, assigned, forest, _split)

    monkeypatch.setattr(SubspaceProposal, "__init__", recording)
    m = ising_grid(4, 4, sigma=0.8, seed=1)
    pw = PiecewiseProposal(m, retree=True)
    stop = (StopConfig() if mode is Mode.OPTIMIZATION else
            StopConfig(ar_window=50, ar_threshold=0.6, max_trials=20_000))
    res = engine.run(mode, m.log_p, pw, PolicyRefiner(pw, policy, seed=1),
                     stop, seed=3)
    assert res.history.refine_count > 0
    assert full == [True] + [False] * (pw.bound_builds - 1)


def test_retree_run_reads_each_edge_row_once(monkeypatch):
    # the bounds of one partition, the children split derives on fresh
    # forests included, share one edge-row cache: an 8x8 retree MAP run,
    # seeded as `osstar gm optimize --grid 8x8 --retree` seeds it, reads
    # the model's rows of each (edge, end) at most once
    made = Counter()
    rows = PairwiseModel._rows

    def counting(self, eid, j):
        made[eid, j] += 1
        return rows(self, eid, j)

    monkeypatch.setattr(PairwiseModel, "_rows", counting)
    m = ising_grid(8, 8, sigma=0.5, seed=0)
    pw = PiecewiseProposal(m, retree=True)
    trial_seed, policy_seed = np.random.SeedSequence(0).spawn(2)
    res = engine.run(Mode.OPTIMIZATION, m.log_p, pw,
                     PolicyRefiner(pw, Policy.MAX_SLACK, seed=policy_seed),
                     StopConfig(), trial_seed)
    assert res.history.refine_count > 0
    assert made and set(made.values()) == {1}
    assert sum(made.values()) <= 2 * len(m.edges) == 224


def subtree(forest, j):
    """j's subtree in forest as nested (node, edge id, children) tuples."""
    return (j, forest.edge_of[j],
            tuple(subtree(forest, c) for c in forest.children[j]))


def below(forest, j):
    """j and its descendants in forest."""
    nodes, stack = set(), [j]
    while stack:
        j = stack.pop()
        nodes.add(j)
        stack.extend(forest.children[j])
    return nodes


def changed_set(parent, child, node):
    """The free nodes of child whose subtree in child's forest differs
    from their subtree in parent's (children lists and edges included), or
    holds a free neighbour of node."""
    touched = {v for _, v in child.model.adjacency[node]
               if v not in child.assigned}
    return {j for j in child.free
            if subtree(child.forest, j) != subtree(parent.forest, j)
            or touched & below(child.forest, j)}


def test_children_share_everything_outside_the_changed_set(monkeypatch):
    computed = []
    edge_to_parent = SubspaceProposal._edge_to_parent

    def counting(self, child):
        computed.append(child)
        return edge_to_parent(self, child)

    monkeypatch.setattr(SubspaceProposal, "_edge_to_parent", counting)
    m = ising_grid(5, 5, sigma=0.5, seed=0)
    for retree in (False, True):
        pw = PiecewiseProposal(m, retree=retree)
        root = pw.leaves[0]
        root.argmax()
        root_beta = root.beta("max")
        root.sample(np.random.default_rng(0))
        seen = {j: set(root._memo["max"][j]) for j in root.free}
        node = 12  # the centre: four free neighbours
        assert root.forest.parent[node] is not None and \
            root.forest.children[node]
        children = [pw.leaves[cid] for cid in pw.condition(0, node)]
        # with retree both children keep the fresh forest, on which nodes
        # that are no neighbours of node move too
        assert all((c.forest == root.forest.without(node)) != retree
                   for c in children)
        for child in children:
            changed = changed_set(root, child, node)
            assert 0 < len(changed) < len(child.free)
            beta = child.beta("max")
            child.beta("sum")
            for j in child.free:
                assert (beta[j] is root_beta[j]) == (j not in changed), j
                # a node outside the changed set reads the root's memo dicts
                for sr in ("sum", "max"):
                    assert (child._memo[sr][j] is root._memo[sr][j]) == \
                        (j not in changed), (sr, j)
            # a non-root pick is computed only in the changed set, or for a
            # parent value the root's descent never met
            computed.clear()
            config, _ = child.argmax()
            parent = child.forest.parent
            non_roots = [j for j in child.free if parent[j] is not None]
            assert sorted(computed) == [
                j for j in non_roots
                if j in changed or config[parent[j]] not in seen[j]]
            assert len(computed) < len(non_roots)
            assert config == SubspaceProposal(m, child.assigned,
                                              child.forest).argmax()[0]


def test_conditioned_away_leaf_is_freed():
    m = ising_grid(4, 4, sigma=0.5, seed=1)
    pw = PiecewiseProposal(m)
    pw.mass_log(), pw.argmax()
    dead = weakref.ref(pw.leaves[0])
    children = pw.condition(0, 5)
    gc.collect()
    assert dead() is None
    # the children still read the arrays they share with the freed leaf
    assert_leaves_match_fresh_builds(m, pw)
    pw.mass_log(), pw.argmax()
    dead = weakref.ref(pw.leaves[children[0]])
    pw.condition(children[0], 6)
    gc.collect()
    assert dead() is None
    assert_leaves_match_fresh_builds(m, pw)
