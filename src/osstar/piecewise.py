"""Piecewise proposal over a partition of assignment subspaces.

The proposal starts as one spanning-forest bound over the whole space.  A
refinement conditions one free node inside one subspace, replacing that
leaf by a child per value.  Children inherit the parent forest minus the
conditioned node, and every pairwise factor the node touched becomes exact
in the children, so the bound can only tighten: q_child(x) <= q_parent(x)
pointwise on each child subspace.

With retree=True each child also tries a maximum spanning forest of its
free nodes, computed once per split since siblings share their free set,
and keeps whichever bound has the smaller total mass.  Those children are
split from the leaf like the others, recomputing only what the new
forest changes, so no child is a full build.
That preserves mass monotonicity but not the pointwise guarantee, so it is
off by default.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Mode, log_sum
from .graphical import PairwiseModel, SubspaceProposal, max_spanning_forest

# a later reject displaces policy_bench's round pick only when its
# log q - log p is larger by more than this: roundoff ties go to the earliest
LOG_TOL = 1e-9


class AlreadyConditioned(ValueError):
    """The node is already assigned in that subspace."""


class NoUnassignedNode(RuntimeError):
    """No refinement is possible: every relevant subspace is fully assigned."""


class Policy(enum.Enum):
    """Refinement-site selection policies.

    I    random free node in the rejected configuration's leaf
    II   free node with the largest pointwise slack at the rejection
    III  random free node in the largest-mass refinable leaf
    IV   best (leaf, node) from a priority queue of exact mass improvements

    III and IV ignore the rejected configuration.  In a MAP run that makes
    IV tighten mass where the argmax may not be, so it can spend its trial
    budget without a certificate: on ising_grid(6, 6, sigma=0.5, seed=1)
    it is not certified after 400 refinements, where II certifies.
    """

    RANDOM_NODE = "i"
    MAX_SLACK = "ii"
    MASS_LEAF = "iii"
    QUEUE = "iv"


class PiecewiseProposal:
    """Leaf subspaces and their bounds.  A MAP run builds no leaf's sum pass
    unless retree is on: each child then keeps the forest of smaller mass,
    so every leaf computes its mass."""

    def __init__(self, model: PairwiseModel, retree: bool = False):
        self.model = model
        self.retree = retree
        root = SubspaceProposal(model, {})
        self.leaves: dict[int, SubspaceProposal] = {0: root}
        self._next_id = 1
        self.bound_builds = 1
        self._tables_cache = None

    # -- bookkeeping ---------------------------------------------------------

    def _tables(self):
        """Sum-semiring tables: (leaf ids, leaf log masses, log total,
        CDF over leaves), rebuilt after a conditioning on first use."""
        if self._tables_cache is None:
            ids = list(self.leaves)
            masses = np.array([self.leaves[i].mass_log() for i in ids])
            total = float(np.logaddexp.reduce(masses))
            probs = np.exp(masses - total)
            self._tables_cache = (ids, masses, total,
                                  np.cumsum(probs).tolist())
        return self._tables_cache

    def mass_log(self) -> float:
        return self._tables()[2]

    def leaf_of(self, config) -> int:
        for lid, leaf in self.leaves.items():
            if all(config[j] == v for j, v in leaf.assigned.items()):
                return lid
        raise KeyError(f"no leaf contains {config!r}")

    def score(self, config) -> float:
        return self.leaves[self.leaf_of(config)].score(config)

    # -- proposal interface --------------------------------------------------

    def draw(self, rng: np.random.Generator):
        ids, _, _, cdf = self._tables()
        lid = ids[engine.pick(cdf, rng)]
        return self.leaves[lid].sample(rng)

    def argmax(self):
        """Global maximizer; exact cross-leaf ties resolve to the
        lexicographically smallest configuration (leaves' configurations
        differ, so the comparison never reaches the scores).  Each leaf's
        max is read once."""
        maxes = [(leaf.max_log(), leaf) for leaf in self.leaves.values()]
        top = max(m for m, _ in maxes)
        return min(leaf.argmax() for m, leaf in maxes if m == top)

    # -- refinement ----------------------------------------------------------

    def _split(self, leaf: SubspaceProposal, node: int,
               forest=None) -> list[SubspaceProposal]:
        """leaf.split(node, forest), counting the builds."""
        children = leaf.split(node, forest)
        self.bound_builds += len(children)
        return children

    def condition(self, leaf_id: int, node: int) -> list[int]:
        """Split one leaf on one node; returns the new leaf ids."""
        leaf = self.leaves.get(leaf_id)
        if leaf is None:
            raise KeyError(f"no active subspace {leaf_id}")
        if node in leaf.assigned:
            raise AlreadyConditioned(f"node {node} already set in "
                                     f"subspace {leaf_id}")
        children = self._split(leaf, node)
        if self.retree:
            fresh = self._split(leaf, node, max_spanning_forest(
                self.model, children[0].free))
            children = [f if f.mass_log() < c.mass_log() else c
                        for c, f in zip(children, fresh)]
        child_ids = list(range(self._next_id, self._next_id + len(children)))
        self.leaves.update(zip(child_ids, children))
        self._next_id += len(children)
        del self.leaves[leaf_id]
        self._tables_cache = None
        return child_ids


class ImprovementQueue:
    """Eagerly scored (leaf, node) candidates for the queue policy.

    On every new leaf the exact mass drop of conditioning each free node is
    computed by building the would-be children, so this policy pays its
    lookahead in bound builds.  The children are built on the leaf's own
    forest minus the node even with retree, which may then keep a fresh
    forest of smaller mass: under retree the drop a conditioning realises
    can exceed its score.  Entries for dead leaves are skipped on pop.
    """

    def __init__(self, proposal: PiecewiseProposal):
        self.proposal = proposal
        self.heap: list[tuple[float, int, int]] = []
        for lid in proposal.leaves:
            self.add_leaf(lid)

    def _improvement_log(self, leaf: SubspaceProposal, node: int) -> float:
        mass = leaf.mass_log()  # first: the children share the leaf's pass
        masses = [c.mass_log() for c in self.proposal._split(leaf, node)]
        diff = log_sum(masses) - mass
        if diff >= -1e-15:
            return -math.inf
        return mass + math.log1p(-math.exp(diff))

    def add_leaf(self, leaf_id: int) -> None:
        leaf = self.proposal.leaves[leaf_id]
        for node in leaf.free:
            imp = self._improvement_log(leaf, node)
            heapq.heappush(self.heap, (-imp, leaf_id, node))

    def pop(self) -> tuple[int, int]:
        while self.heap:
            neg_imp, lid, node = heapq.heappop(self.heap)
            leaf = self.proposal.leaves.get(lid)
            if leaf is not None and node not in leaf.assigned:
                return lid, node
        raise NoUnassignedNode("improvement queue is empty")


def select_refinement(proposal: PiecewiseProposal, policy: Policy,
                      reject_config, rng: np.random.Generator | None,
                      queue: ImprovementQueue | None = None):
    """Pick the (leaf, node) to condition next under the given policy; only
    policies I and III draw from rng."""
    policy = Policy(policy)
    if policy is Policy.QUEUE:
        if queue is None:
            raise ValueError("queue policy needs an ImprovementQueue")
        return queue.pop()
    if policy is Policy.MASS_LEAF:
        # the first refinable leaf of largest mass in id order
        lid = max((lid for lid, leaf in proposal.leaves.items() if leaf.free),
                  key=lambda i: proposal.leaves[i].mass_log(), default=None)
        if lid is None:
            raise NoUnassignedNode("every subspace is fully assigned")
        free = proposal.leaves[lid].free
        return lid, free[int(rng.integers(len(free)))]
    lid = proposal.leaf_of(reject_config)
    leaf = proposal.leaves[lid]
    if not leaf.free:
        raise NoUnassignedNode(f"subspace {lid} is fully assigned")
    if policy is Policy.RANDOM_NODE:
        return lid, leaf.free[int(rng.integers(len(leaf.free)))]
    # MAX_SLACK: where does the bound overshoot this configuration most
    return lid, max(leaf.free, key=leaf.slack(reject_config).__getitem__)


class PolicyRefiner:
    """Engine adapter: one conditioning per rejected trial."""

    def __init__(self, proposal: PiecewiseProposal, policy: Policy, seed=0):
        self.policy = Policy(policy)
        self.rng = (np.random.default_rng(seed) if self.policy in
                    (Policy.RANDOM_NODE, Policy.MASS_LEAF) else None)
        self.queue = (ImprovementQueue(proposal)
                      if self.policy is Policy.QUEUE else None)

    def refine(self, proposal: PiecewiseProposal, config):
        lid, node = select_refinement(proposal, self.policy, config,
                                      self.rng, queue=self.queue)
        children = proposal.condition(lid, node)
        if self.queue is not None:
            for cid in children:
                self.queue.add_leaf(cid)
        return proposal


@dataclass
class BenchRow:
    refinement_index: int
    trials: int
    ar_hat: float
    z_hat_log: float
    pi_hat: float
    q_mass_log: float
    tau_samp: float
    tau_ref: float
    tau_tot_est: float


BENCH_COLUMNS = ["refinement_index", "ar_hat", "z_hat_log", "q_mass_log",
                 "tau_ref", "tau_samp", "tau_tot_est"]


def policy_bench(model: PairwiseModel, policy: Policy, *,
                 refinements: int = 40, trials_per_round: int = 200,
                 seed=0, retree: bool = False):
    """Refine under one policy, measuring estimators after each step.

    Each round runs the engine's trial trials_per_round times on the
    frozen proposal, logs one row, then applies one conditioning.
    Policies I and II refine at the round's reject with the largest
    log q - log p; III and IV ignore the rejections.  Costs are counted in
    trials, as in the engine, except that a refinement costs the number of
    bound builds beyond the root, which charges the queue policy for its
    lookahead.  Returns (rows, proposal).
    """
    if refinements < 0:
        raise ValueError(f"refinements must be >= 0, got {refinements}")
    if trials_per_round < 1:
        raise ValueError("trials_per_round must be >= 1, got "
                         f"{trials_per_round}")
    trial_seed, policy_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(trial_seed)
    policy = Policy(policy)
    pw = PiecewiseProposal(model, retree=retree)
    refiner = PolicyRefiner(pw, policy, seed=policy_seed)
    history = engine.History(window=trials_per_round)
    # the queue's lookahead on the root leaf is paid before any trial
    history.refine_cost_total = float(pw.bound_builds - 1)

    rows: list[BenchRow] = []
    for k in range(refinements + 1):
        worst = None
        for _ in range(trials_per_round):
            r = engine.trial(Mode.SAMPLING, model.log_p, pw, history, rng)
            if not r.accepted and (worst is None or r.log_q - r.log_p
                                   > worst.log_q - worst.log_p + LOG_TOL):
                worst = r
        mass = pw.mass_log()
        met = engine.metrics(history, mass)
        rows.append(BenchRow(
            refinement_index=k, trials=history.trial_count,
            ar_hat=met.ar_window, z_hat_log=met.z_hat_log,
            pi_hat=met.pi_hat, q_mass_log=mass, tau_samp=met.tau_samp,
            tau_ref=met.tau_ref, tau_tot_est=met.tau_tot_est))
        if k == refinements:
            break
        if worst is None and policy in (Policy.RANDOM_NODE,
                                        Policy.MAX_SLACK):
            break  # acceptance is saturated; refining is pointless
        config = worst.config if worst is not None else None
        builds = pw.bound_builds
        try:
            refiner.refine(pw, config)
        except NoUnassignedNode:
            break
        history.add_refinement(float(pw.bound_builds - builds))
    return rows, pw


def write_bench_csv(rows: list[BenchRow], path) -> None:
    """One CSV row per given bench row; `trials` and `pi_hat` stay API-only."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_COLUMNS)
        for r in rows:
            writer.writerow([
                r.refinement_index, repr(r.ar_hat), repr(r.z_hat_log),
                repr(r.q_mass_log), repr(r.tau_ref), repr(r.tau_samp),
                repr(r.tau_tot_est)])
