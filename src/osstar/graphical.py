"""Pairwise graphical models and spanning-forest proposal bounds.

A model is a product of unary potentials psi_i(x_i) and pairwise potentials
phi_uv(x_u, x_v), all stored in log space.  The proposal bound for a subset
of conditioned nodes keeps unary factors and the pairwise factors on a
spanning forest of the free nodes exactly, and replaces every remaining
pairwise factor by its maximum entry, so q(x) >= p(x) pointwise and both
the sum and the max of q over a subspace are exact tree computations.
One sum scores both: log q(x) is log p(x) summed in the same order with
the replaced factors at their maximum entry, so q >= p holds bit for bit.

Each forest comes from one heap-ordered Prim pass, max_spanning_forest.
SubspaceProposal.split, the one way to make a child bound, conditions one
more node k of a bound, its children on its own forest minus k or on a
given forest of the other free nodes (retree's fresh one), and derives
once for all of them what they share.  Only the free neighbours of k, the
nodes whose children list or forest edge differ from the bound's forest,
and their ancestors (the changed set, kept in pass order) can change: a
child builds the neighbours' unaries and, per semiring pass, the set's
beta rows, messages and memoised draw CDFs or argmax picks, and copies
every other node's from its parent.  Every bound, child or not, sums its
constant in one scan of the model's edges in id order.  On the forest
minus k the only nodes whose children or edge change are k's parent and
children, free neighbours of k, so that split compares no forests.  In a
partition only the root is a full build, which computes every node: the
same float additions, so a child and a full build agree bit for bit.

The potentials and every per-node row of a bound (unaries, beta rows,
messages, argmax logits) are Python floats: on small domains numpy's
per-call cost dwarfs the arithmetic.  They are the floats numpy would
give.  An IEEE sum or max of two doubles is exact per element, so rows
are added element by element in numpy's order, and both passes reduce
each row with one fold chosen by the semiring: the builtin max, or
engine.log_sum, np.logaddexp.reduce's left fold on Python floats with
the same libm exp and log1p.  The one difference is the sign of a zero
where a max ties -0.0 with +0.0, which no comparison and no later sum can
see.  A model whose largest magnitudes overflow when summed is rejected,
so no pass meets inf or nan, which the builtin max, unlike np.maximum,
would not carry.  Draw CDFs are engine.cdf's: libm's exp, not numpy's.
"""

from __future__ import annotations

import heapq
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import add
from typing import NamedTuple

import numpy as np

from .engine import cdf, log_sum, pick, tie_tolerance


class AlreadyConditioned(ValueError):
    """The node is already assigned in that subspace."""


class ModelEdge(NamedTuple):
    """Edge (u, v): phi(x_u, x_v) is the model's flat phi tuple at
    at + x_u * dv + x_v, dv being v's domain."""

    u: int
    v: int
    at: int
    dv: int


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class PairwiseModel:
    def __init__(self, domains: list[int], log_psi: list, edges: list):
        self.domains = [_integer(d, f"domain of node {i}")
                        for i, d in enumerate(domains)]
        if any(d < 1 for d in self.domains):
            raise ValueError("domains must be positive")
        n = len(self.domains)
        if len(log_psi) != n:
            raise ValueError("one log_psi per node required")
        # the potentials as Python floats in tuples, shared by reference:
        # one row per node, and every edge's matrix row-major in one run
        psis: list[tuple[float, ...]] = []
        for i, psi in enumerate(log_psi):
            arr = np.asarray(psi, dtype=float)
            if arr.shape != (self.domains[i],):
                raise ValueError(f"log_psi[{i}] must have shape "
                                 f"({self.domains[i]},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"log_psi[{i}] must be finite")
            psis.append(tuple(arr.tolist()))
        self._psi = tuple(psis)
        self.edges: list[ModelEdge] = []
        phi: list[float] = []
        seen = set()
        for u, v, log_phi in edges:
            u, v = _integer(u, "edge end u"), _integer(v, "edge end v")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u >= v:
                raise ValueError(f"edge ({u},{v}) must satisfy u < v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            arr = np.asarray(log_phi, dtype=float)
            if arr.shape != (self.domains[u], self.domains[v]):
                raise ValueError(f"log_phi for edge ({u},{v}) has wrong shape")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"log_phi for edge ({u},{v}) must be finite")
            self.edges.append(ModelEdge(u, v, len(phi), self.domains[v]))
            phi.extend(arr.ravel().tolist())
        self._phi = tuple(phi)
        self.adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, e in enumerate(self.edges):
            self.adjacency[e.u].append((eid, e.v))
            self.adjacency[e.v].append((eid, e.u))
        phis = [self._phi[e.at:e.at + self.domains[e.u] * e.dv]
                for e in self.edges]
        self.phi_max_log = [max(phi) for phi in phis]
        self.phi_range_log = [max(phi) - min(phi) for phi in phis]
        # bounds the magnitude of every partial sum of log p or log q
        self.abs_log_sum = float(
            sum(max(map(abs, psi)) for psi in self._psi)
            + sum(max(map(abs, phi)) for phi in phis))
        if not math.isfinite(self.abs_log_sum):
            raise ValueError("the largest magnitudes of the potentials sum "
                             "past the largest float")

    @property
    def n_nodes(self) -> int:
        return len(self.domains)

    def log_psi(self, i: int) -> list[float]:
        """Node i's unary log potential, one float per value."""
        return list(self._psi[i])

    def log_phi(self, eid: int) -> list[list[float]]:
        """Edge eid's log potential: a row over v's values per value of u."""
        return [list(row) for row in self._rows(eid, self.edges[eid].v)]

    def _rows(self, eid: int, j: int) -> list[tuple[float, ...]]:
        """Edge eid's log potential as rows over the values of j, one of
        its ends, one per value of its other end, in order."""
        u, v, at, dv = self.edges[eid]
        if j == v:
            return [self._phi[at + a * dv:at + a * dv + dv]
                    for a in range(self.domains[u])]
        return [self._phi[at + a:at + self.domains[u] * dv:dv]
                for a in range(dv)]

    def log_p(self, config) -> float:
        return self._log_sum(config)

    def log_p_many(self, configs: np.ndarray) -> np.ndarray:
        """log_p over the rows of configs, the same floats per row."""
        configs = np.asarray(configs)
        phi = np.array(self._phi)
        total = np.zeros(len(configs))
        for i, row in enumerate(self._psi):
            total += np.array(row)[configs[:, i]]
        for u, v, at, dv in self.edges:
            total += phi[at + configs[:, u] * dv + configs[:, v]]
        return total

    def _log_sum(self, config, capped: Sequence[int] = ()) -> float:
        """p's terms at config in p's order (nodes, then edges by id), with
        each edge in capped, sorted by id, at its max entry.  log p caps
        none and a bound caps its off-tree edges: float addition is
        monotone, so the bound is >= log p bit for bit."""
        psi, phi, cap = self._psi, self._phi, self.phi_max_log
        total = 0.0
        for row, x in zip(psi, config):
            total += row[x]
        capped = iter(capped)
        next_cap = next(capped, None)
        for eid, (u, v, at, dv) in enumerate(self.edges):
            if eid == next_cap:
                total += cap[eid]
                next_cap = next(capped, None)
            else:
                total += phi[at + config[u] * dv + config[v]]
        return total

    def to_dict(self) -> dict:
        return {
            "nodes": [{"id": i, "domain": d, "log_psi": self.log_psi(i)}
                      for i, d in enumerate(self.domains)],
            "edges": [{"u": e.u, "v": e.v, "log_phi": self.log_phi(eid)}
                      for eid, e in enumerate(self.edges)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_dict(cls, data: dict) -> "PairwiseModel":
        try:
            nodes = sorted(data["nodes"], key=lambda n: n["id"])
            if [n["id"] for n in nodes] != list(range(len(nodes))):
                raise ValueError("node ids must be 0..n-1")
            return cls(domains=[n["domain"] for n in nodes],
                       log_psi=[n["log_psi"] for n in nodes],
                       edges=[(e["u"], e["v"], e["log_phi"])
                              for e in data["edges"]])
        except KeyError as exc:
            raise ValueError(f"model has no {exc} key") from None
        except TypeError as exc:
            raise ValueError(f"malformed model: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "PairwiseModel":
        return cls.from_dict(json.loads(text))


def ising_grid(rows: int, cols: int, sigma: float = 0.5,
               seed=0) -> PairwiseModel:
    """Random-field Ising model on a grid, spins encoded as {0, 1}.

    Fields h_i and couplings J_e are N(0, sigma^2); psi_i = (-h_i, +h_i)
    and phi_e = [[J, -J], [-J, J]].  Nodes are numbered row-major; edges
    are emitted right-then-down per cell, so one seed fixes the model.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid must be at least 1x1")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    rng = np.random.default_rng(seed)
    n = rows * cols
    h = rng.normal(0.0, sigma, size=n)
    pairs = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                pairs.append((i, i + 1))
            if r + 1 < rows:
                pairs.append((i, i + cols))
    J = rng.normal(0.0, sigma, size=len(pairs))
    edges = [(u, v, [[j, -j], [-j, j]]) for (u, v), j in zip(pairs, J)]
    return PairwiseModel(domains=[2] * n,
                         log_psi=[[-hi, hi] for hi in h],
                         edges=edges)


@dataclass
class Forest:
    """Rooted spanning forest over a set of free nodes, its lists indexed
    by node, None off the forest.  An edge is on the forest iff it is the
    edge_of of one of its ends."""

    roots: list[int]
    parent: list[int | None]  # None at a root
    children: list[list[int] | None]
    edge_of: list[int | None]  # model edge id to the parent, None at a root
    order: list[int]  # preorder, roots first

    def without(self, node: int) -> "Forest":
        """The forest after deleting one node: its children become roots,
        and _rooted walks the preorder again from the sorted roots.  Of the
        children lists only that of node's parent changes; every other is
        shared, as a forest's structure never changes once built."""
        if node not in self.order:
            raise KeyError(f"node {node} not in forest")
        parent, children = list(self.parent), list(self.children)
        edge_of = list(self.edge_of)
        up, kids = parent[node], children[node]
        parent[node] = children[node] = edge_of[node] = None
        if up is not None:
            children[up] = [c for c in children[up] if c != node]
        for c in kids:
            parent[c] = edge_of[c] = None
        roots = sorted([r for r in self.roots if r != node] + kids)
        return _rooted(roots, parent, children, edge_of)


def _rooted(roots, parent, children, edge_of) -> Forest:
    order = []
    for r in roots:
        stack = [r]
        while stack:
            j = stack.pop()
            order.append(j)
            stack.extend(sorted(children[j], reverse=True))
    return Forest(roots=roots, parent=parent, children=children,
                  edge_of=edge_of, order=order)


def max_spanning_forest(model: PairwiseModel, free) -> Forest:
    """Per-component maximum spanning trees over the free nodes, by log
    range max phi / min phi: the forest keeps the potentials whose neglect
    would cost the most.

    Prim's algorithm with a heap: each tree grows from its smallest node by
    the crossing edge of largest range, ties to the smallest edge id (heap
    key (-range, edge id)), and each node is linked to its tree as it
    joins, so its parent's children list is in joining order.
    """
    roots, free = [], set(free)
    parent, children, edge_of = [[None] * model.n_nodes for _ in range(3)]
    for start in sorted(free):
        if children[start] is not None:
            continue
        roots.append(start)
        heap = [(0.0, None, None, start)]  # (-range, edge id, inside, node)
        while heap:
            _, eid, inside, j = heapq.heappop(heap)
            if children[j] is not None:
                continue
            parent[j], children[j], edge_of[j] = inside, [], eid
            if inside is not None:
                children[inside].append(j)
            for e, other in model.adjacency[j]:
                if other in free and children[other] is None:
                    heapq.heappush(
                        heap, (-model.phi_range_log[e], e, j, other))
    return _rooted(roots, parent, children, edge_of)


class _Pass(NamedTuple):
    """One semiring pass of a bound, lists indexed by node, None off it."""

    beta: list[Sequence[float] | None]
    msg: list[list[float] | None]  # to the forest parent, None at a root
    memo: list[dict | None]  # {parent value, None at a root -> CDF or pick}
    log: float  # const plus each root's folded beta, in root order


class _Split(NamedTuple):
    """What SubspaceProposal.split derives once for all the children, on
    the leaf's forest minus the split node or on a given one alike."""

    node: int
    free: list[int]
    eff: list[Sequence[float] | None]  # the leaf's unaries, None at node
    touched: list[int]  # node's free neighbours, whose unaries change
    # touched, the nodes whose children or forest edge differ from the
    # leaf's, and their ancestors in the children's forest, in pass order
    changed: list[int]
    base: dict[str, _Pass | None]  # the leaf's passes, as _base
    rows: dict[tuple[int, int], list]  # the partition's edge rows


_FOLDS = {"max": max, "sum": log_sum}  # a pass's row reduction


class SubspaceProposal:
    """Tree-exact upper bound on p restricted to one assignment subspace.

    Factors with both ends assigned fold into a constant, factors with one
    assigned end fold into the free end's unary, forest factors stay exact,
    and every other factor is replaced by its max entry (also a constant).
    """

    def __init__(self, model: PairwiseModel, assigned: dict[int, int],
                 forest: Forest | None = None, _split: _Split | None = None):
        """A bound on the subspace `assigned`, over `forest` or else a
        fresh maximum spanning forest of the free nodes: a full build,
        which builds every unary and passes over every node.  _split,
        passed only by split, makes the bound a child of the leaf split
        derived it from: it builds only the unaries of the split node's
        free neighbours, and its passes start from the leaf's (see _pass).
        Only the root of a partition is a full build.
        """
        self.model = model
        self.assigned = assigned = dict(assigned)
        if _split is None:
            self.free = [j for j in range(model.n_nodes)
                         if j not in assigned]
            if forest is None:
                forest = max_spanning_forest(model, self.free)
            touched = self.free
            self.eff: list[Sequence[float] | None] = [None] * model.n_nodes
            self._base: dict[str, _Pass | None] = {"sum": None, "max": None}
            self._rows: dict[tuple[int, int], list] = {}  # see _edge_rows
        else:
            self.free, touched = _split.free, _split.touched
            self.eff = list(_split.eff)
            self._base = dict(_split.base)
            self._rows = _split.rows
        # the split node and the changed set, for passes from _base; not
        # _split, whose base would keep the leaf's lists after the passes
        self._cut = None if _split is None else (_split.node, _split.changed)
        for j in touched:
            self.eff[j] = self._eff_row(j)
        self.forest = forest
        # const: the assigned unaries in node order, then in edge-id order
        # each edge with both ends assigned at its value and each edge with
        # both ends free and off the forest at its max
        psi, phi, edge_of = model._psi, model._phi, forest.edge_of
        const = 0.0
        for i in sorted(assigned):
            const += psi[i][assigned[i]]
        self.offtree_ids: list[int] = []
        for eid, (u, v, at, dv) in enumerate(model.edges):
            if u in assigned:
                if v in assigned:
                    const += phi[at + assigned[u] * dv + assigned[v]]
            elif v not in assigned and eid != edge_of[u] and eid != edge_of[v]:
                self.offtree_ids.append(eid)
                const += model.phi_max_log[eid]
        self.const = const
        # a leaf is never mutated once built, so each pass is computed at
        # most once
        self._passes: dict[str, _Pass | None] = {"sum": None, "max": None}

    def split(self, node: int, forest: Forest | None = None
              ) -> list[SubspaceProposal]:
        """The children of this bound on the free node `node`, one per
        value, on `forest`, a forest of the other free nodes, or else on
        this bound's forest minus node.  On either, split derives once
        what they share (see the module docstring).  Raises
        AlreadyConditioned when node is assigned here and ValueError when
        it is not a node of the model."""
        if node not in self.free:
            if node in self.assigned:
                raise AlreadyConditioned(
                    f"node {node} is already set in this subspace")
            raise ValueError(f"node {node} is not free in this subspace")
        old = self.forest
        adjacency = self.model.adjacency[node]
        if forest is None:
            # only node's parent and children change their children or
            # edge, and they are among node's free neighbours
            forest, moved = old.without(node), []
        else:
            moved = [j for j in forest.order
                     if forest.children[j] != old.children[j]
                     or forest.edge_of[j] != old.edge_of[j]]
        touched = [v for _, v in adjacency if forest.children[v] is not None]
        changed = set()
        for j in touched + moved:
            while j is not None and j not in changed:
                changed.add(j)
                j = forest.parent[j]
        eff = list(self.eff)
        eff[node] = None
        split = _Split(
            node, [j for j in self.free if j != node], eff, touched,
            [j for j in reversed(forest.order) if j in changed],
            dict(self._passes), self._rows)
        return [SubspaceProposal(self.model, {**self.assigned, node: v},
                                 forest, _split=split)
                for v in range(self.model.domains[node])]

    def _eff_row(self, j: int) -> Sequence[float]:
        """Free node j's unary: log psi_j plus the row of each factor to an
        assigned neighbour, added in edge-id order."""
        assigned = self.assigned
        b = self.model._psi[j]
        for eid, other in self.model.adjacency[j]:
            if other in assigned:
                b = list(map(add, b, self._edge_rows(eid, j)[assigned[other]]))
        return b

    def _edge_rows(self, eid: int, j: int) -> list[tuple[float, ...]]:
        """model._rows(eid, j), made once per partition: every bound split
        from the same root reads the root's dict."""
        rows = self._rows.get((eid, j))
        if rows is None:
            rows = self._rows[eid, j] = self.model._rows(eid, j)
        return rows

    # -- tree passes ---------------------------------------------------------

    def _edge_to_parent(self, child: int) -> list[tuple[float, ...]]:
        """phi of child's forest edge as rows over child's values, one per
        value of its parent."""
        return self._edge_rows(self.forest.edge_of[child], child)

    def _pass(self, semiring: str, eff: list[Sequence[float] | None],
              base: _Pass | None) -> _Pass:
        """Backward pass in the semiring over the unaries eff, computing
        every node, or with base, the split leaf's pass, copying its lists
        with the split node cleared and computing the changed set only,
        where a new root clears its message.  Computed memos start empty."""
        parent, children = self.forest.parent, self.forest.children
        fold = _FOLDS[semiring]
        if base is None:
            beta, msg, memo = [[None] * self.model.n_nodes for _ in range(3)]
            nodes = reversed(self.forest.order)
        else:
            node, nodes = self._cut
            beta, msg, memo = map(list, base[:3])
            beta[node] = msg[node] = memo[node] = None
        for j in nodes:
            memo[j] = {}
            b = eff[j]
            for c in children[j]:
                b = list(map(add, b, msg[c]))
            beta[j] = b
            if parent[j] is None:
                msg[j] = None
                continue
            msg[j] = [fold(map(add, b, row))
                      for row in self._edge_to_parent(j)]
        log = self.const
        for r in self.forest.roots:
            log += fold(beta[r])
        return _Pass(beta, msg, memo, log)

    def beta(self, semiring: str) -> list[Sequence[float] | None]:
        """The semiring pass's beta rows; the pass is built on first use."""
        if self._passes[semiring] is None:
            self._passes[semiring] = self._pass(
                semiring, self.eff, self._base[semiring])
            self._base[semiring] = None
        return self._passes[semiring].beta

    def mass_log(self) -> float:
        if self._passes["sum"] is None:
            self.beta("sum")
        return self._passes["sum"].log

    def max_log(self) -> float:
        if self._passes["max"] is None:
            self.beta("max")
        return self._passes["max"].log

    # -- scoring -------------------------------------------------------------

    def score(self, config) -> float:
        """log q(config) for a full configuration in this subspace: p's sum
        with each off-tree edge at its max entry, so score(x) >= log_p(x)
        bit for bit, with equality when every off-tree edge is at its max
        at x."""
        return self.model._log_sum(config, self.offtree_ids)

    def slack(self, config) -> dict[int, float]:
        """Per free node, the sum over its off-tree edges of how far each
        edge's max entry exceeds its value at config (all >= 0)."""
        edges, phi, cap = self.model.edges, self.model._phi, \
            self.model.phi_max_log
        slack = {j: 0.0 for j in self.free}
        for eid in self.offtree_ids:
            u, v, at, dv = edges[eid]
            gap = cap[eid] - phi[at + config[u] * dv + config[v]]
            slack[u] += gap
            slack[v] += gap
        return slack

    # -- draws ---------------------------------------------------------------

    def _full(self, values: dict[int, int]) -> tuple:
        return tuple(self.assigned.get(i, values.get(i))
                     for i in range(self.model.n_nodes))

    def _descend(self, pick) -> dict | None:
        """Preorder walk setting each node j to pick(j, key), key being the
        parent's value or None at a root; None as soon as pick returns
        None."""
        values = {}
        parent = self.forest.parent
        for j in self.forest.order:
            p = parent[j]
            v = pick(j, None if p is None else values[p])
            if v is None:
                return None
            values[j] = v
        return values

    def _logits(self, beta: list[Sequence[float] | None], j: int, key
                ) -> Sequence[float]:
        """beta[j] plus j's forest edge at its parent's value key, or
        beta[j] alone at a root (key None)."""
        if key is None:
            return beta[j]
        return list(map(add, beta[j], self._edge_to_parent(j)[key]))

    def _cdf(self, j: int, key) -> list[float]:
        """engine.cdf of node j's logits given its parent's value key (None
        at a root): the CDF sample draws by, kept in the sum pass's memo."""
        beta = self.beta("sum")
        memo = self._passes["sum"].memo[j]
        if key not in memo:
            memo[key] = cdf(self._logits(beta, j, key))
        return memo[key]

    def sample(self, rng: np.random.Generator):
        """Exact draw from q restricted to this subspace."""
        cdf_of = self._cdf
        config = self._full(self._descend(
            lambda j, key: pick(cdf_of(j, key), rng)))
        return config, self.score(config)

    def _max_log_clamped(self, clamps: dict[int, int]) -> float:
        """Forest max with some free nodes pinned to fixed values; serves
        only _argmax_clamped, the near-tie fallback of argmax.  A pinned
        node's unary is masked to its value before its children's messages
        are added: that only removes candidates from max reductions, so
        every surviving assignment accumulates exactly the floats of the
        unclamped pass, and equality against the unclamped max is exact."""
        eff = list(self.eff)
        for j, v in clamps.items():
            eff[j] = [x + (0.0 if i == v else -math.inf)
                      for i, x in enumerate(eff[j])]
        return self._pass("max", eff, None).log

    def _argmax_clamped(self) -> dict[int, int]:
        """Free-node values of the lexicographically smallest maximizer:
        one clamped pass per (free node, value) tried."""
        target = self._max_log_clamped({})
        values: dict[int, int] = {}
        for j in self.free:
            for v in range(self.model.domains[j]):
                values[j] = v
                if self._max_log_clamped(values) == target:
                    break
        return values

    def argmax(self):
        """Maximizing configuration; exact ties take the lexicographically
        smallest configuration (node index order, then value order).

        Backtracks the cached max-product pass beta("max") in preorder: a
        root takes its best value, every other node its best value given
        its parent's, O(nodes * domain^2) with the pass itself.  If at
        every step the runner-up trails the best by more than
        tie_tolerance(model.abs_log_sum), the maximizer is unique and
        equals what the clamped search returns.  Otherwise (exact ties, as
        in zero-field models) it falls back to _argmax_clamped, which
        applies the tie rule.  best keeps each pick in the max pass's memo,
        the way _cdf keeps its CDF in the sum pass's, near ties as None.
        """
        tol = tie_tolerance(self.model.abs_log_sum)
        beta = self.beta("max")
        memo = self._passes["max"].memo

        def best(j, key):
            picks = memo[j]
            if key not in picks:
                logits = self._logits(beta, j, key)
                top = max(logits)
                near_tie = len(logits) > 1 and sorted(logits)[-2] >= top - tol
                # the first maximum, None at a near tie
                picks[key] = None if near_tie else logits.index(top)
            return picks[key]
        values = self._descend(best)
        if values is None:
            values = self._argmax_clamped()
        config = self._full(values)
        return config, self.score(config)
