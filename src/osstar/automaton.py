"""Layered proposal automaton over a token lattice, with refinement.

States at layer i are context tuples (suffixes of the words emitted so far);
every layer keeps the empty context, so any path has a state to fall back
to.  An edge (i, c, w) emits word w at position i, carries an optimistic
weight for that word, and lands on the longest stored suffix of c + (w,).

Each edge remembers the order of the bound it currently uses: a freshly
built automaton scores every word with an order-1 bound, and one refinement
tightens exactly one edge by one order (adding deeper context states as
needed to route the offending path into the tightened edge).  Path weights
therefore never increase, and the tightened path strictly drops.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .ngram import MaxBackoffTables, NGramLM, NoCandidate, TokenLattice


class NoRefinementAvailable(RuntimeError):
    """The rejected path already scores exactly its target probability."""


class Edge:
    __slots__ = ("word", "order", "weight", "dest")

    def __init__(self, word: str, order: int, weight: float, dest: tuple):
        self.word = word
        self.order = order
        self.weight = weight
        self.dest = dest


class HmmTarget:
    """log p(x) = sum_i [ lm(x_i | preceding words) + obs(i, x_i) ]."""

    def __init__(self, lm: NGramLM, lattice: TokenLattice,
                 order: int | None = None):
        self.lm = lm
        self.lattice = lattice
        self.order = lm.order if order is None else min(order, lm.order)
        self._pobs = [dict(col) for col in lattice.candidates]

    def __call__(self, words: tuple) -> float:
        total = 0.0
        span = self.order - 1
        for i, w in enumerate(words):
            ctx = tuple(words[max(0, i - span):i])
            total += self.lm.cond_logprob(w, ctx) + self._pobs[i][w]
        return total


class QAutomaton:
    def __init__(self, lattice: TokenLattice, tables: MaxBackoffTables):
        self.lattice = lattice
        self.tables = tables
        self.order = tables.order
        self.length = lattice.length
        self.pobs = [dict(col) for col in lattice.candidates]
        # contexts[i]: ctx tuple -> {word: Edge}; layer `length` is final
        self.contexts: list[dict[tuple, dict[str, Edge]]] = []
        self.table_builds = 0
        self.refinements = 0
        self._beta: dict[str, list | None] = {"sum": None, "max": None}
        self._dirty: dict[str, int] = {"sum": -1, "max": -1}

    # -- structure ---------------------------------------------------------

    def full_len(self, i: int) -> int:
        """Longest usable context at position i (shorter near the start)."""
        return min(i, self.order - 1)

    def _dest(self, i: int, tup: tuple) -> tuple:
        """Longest suffix of tup stored at layer i."""
        layer = self.contexts[i]
        for k in range(len(tup), -1, -1):
            if tup[len(tup) - k:] in layer:
                return tup[len(tup) - k:]
        raise AssertionError("empty context missing")

    def _invalidate(self, layer: int) -> None:
        for semiring in ("sum", "max"):
            if self._beta[semiring] is not None:
                self._dirty[semiring] = max(self._dirty[semiring], layer)

    def beta(self, semiring: str) -> list:
        """Per-state downstream aggregates, recomputed only where dirty."""
        cached = self._beta[semiring]
        dirty = self._dirty[semiring]
        if cached is not None and dirty < 0:
            return cached
        agg = (np.logaddexp.reduce if semiring == "sum" else max)
        if cached is None:
            cached = [None] * (self.length + 1)
            cached[self.length] = {(): 0.0}
            dirty = self.length - 1
        for i in range(dirty, -1, -1):
            layer = {}
            nxt = cached[i + 1]
            for ctx, edges in self.contexts[i].items():
                vals = [e.weight + nxt[e.dest] for e in edges.values()]
                layer[ctx] = float(agg(vals)) if semiring == "sum" else max(vals)
            cached[i] = layer
        self._beta[semiring] = cached
        self._dirty[semiring] = -1
        self.table_builds += 1
        return cached

    # -- proposal interface (engine duck type) ------------------------------

    def mass_log(self) -> float:
        return self.beta("sum")[0][()]

    def max_log(self) -> float:
        return self.beta("max")[0][()]

    def draw(self, rng: np.random.Generator):
        return sample_path(self, rng)

    def argmax(self):
        return viterbi(self)

    # -- path utilities ------------------------------------------------------

    def path_states(self, words: tuple) -> list[tuple]:
        states = []
        ctx = ()
        for i, w in enumerate(words):
            states.append(ctx)
            ctx = self.contexts[i][ctx][w].dest
        return states

    def score_path(self, words: tuple) -> float:
        total = 0.0
        ctx = ()
        for i, w in enumerate(words):
            e = self.contexts[i][ctx][w]
            total += e.weight
            ctx = e.dest
        return total

    def clone(self) -> "QAutomaton":
        """Structural copy sharing the immutable lattice and bound tables."""
        c = QAutomaton(self.lattice, self.tables)
        for layer in self.contexts:
            c.contexts.append({ctx: {w: Edge(w, e.order, e.weight, e.dest)
                                     for w, e in edges.items()}
                               for ctx, edges in layer.items()})
        c.refinements = self.refinements
        return c


def build_q0(lattice: TokenLattice, tables: MaxBackoffTables) -> QAutomaton:
    """Initial automaton: every word scored by its order-1 bound.

    Raises NoCandidate when every candidate at some position has
    probability zero under the LM, so that no sentence has any mass.
    """
    q = QAutomaton(lattice, tables)
    for i in range(lattice.length):
        edges = {}
        for word, lp in lattice.candidates[i]:
            weight = tables.value(word, (), q.full_len(i)) + lp
            edges[word] = Edge(word, 1, weight, ())
        if all(e.weight == -math.inf for e in edges.values()):
            raise NoCandidate(f"position {i}: every candidate "
                              f"({', '.join(edges)}) has probability zero "
                              "under the LM")
        q.contexts.append({(): edges})
    q.contexts.append({(): {}})
    return q


def viterbi(q: QAutomaton):
    """Highest-weight path; ties pick the lexicographically smaller word."""
    beta = q.beta("max")
    words = []
    total = 0.0
    ctx = ()
    for i in range(q.length):
        edges = q.contexts[i][ctx]
        best_word, best_val, best_edge = None, -math.inf, None
        for w in sorted(edges):
            e = edges[w]
            val = e.weight + beta[i + 1][e.dest]
            if val > best_val:
                best_word, best_val, best_edge = w, val, e
        words.append(best_word)
        total += best_edge.weight
        ctx = best_edge.dest
    return tuple(words), total


def sample_path(q: QAutomaton, rng: np.random.Generator):
    """Exact draw x ~ q / Q(X): backward sums, forward edge sampling."""
    beta = q.beta("sum")
    words = []
    total = 0.0
    ctx = ()
    for i in range(q.length):
        edges = q.contexts[i][ctx]
        order = sorted(edges)
        logits = [edges[w].weight + beta[i + 1][edges[w].dest] for w in order]
        m = max(logits)
        probs = [math.exp(l - m) for l in logits]
        r = rng.random() * sum(probs)
        acc = 0.0
        pick = len(order) - 1
        for j, p in enumerate(probs):
            acc += p
            if r < acc:
                pick = j
                break
        e = edges[order[pick]]
        words.append(e.word)
        total += e.weight
        ctx = e.dest
    return tuple(words), total


def _add_state(q: QAutomaton, words: tuple, i: int, ctx: tuple) -> None:
    """Insert state (i, ctx) for a history suffix of the path `words`,
    recursively ensuring the path can route into it, and reroute layer i."""
    if ctx in q.contexts[i]:
        return
    if len(ctx) >= 2:
        prev = q.path_states(words)[i - 1]
        if len(prev) < len(ctx) - 1:
            _add_state(q, words, i - 1, tuple(words[i - len(ctx):i - 1]))
    # clone edges from the longest stored proper suffix
    anc = None
    for k in range(len(ctx) - 1, -1, -1):
        if ctx[len(ctx) - k:] in q.contexts[i]:
            anc = ctx[len(ctx) - k:]
            break
    new_edges = {}
    for w, e in q.contexts[i][anc].items():
        new_edges[w] = Edge(w, e.order, e.weight,
                            q._dest(i + 1, ctx + (w,)))
    q.contexts[i][ctx] = new_edges
    # adding a state can capture routes from the previous layer
    if i > 0:
        for src_ctx, edges in q.contexts[i - 1].items():
            for w, e in edges.items():
                e.dest = q._dest(i, src_ctx + (w,))
    q._invalidate(i)


def _deepen_at(q: QAutomaton, rejected: tuple, i: int) -> None:
    """Deepen the rejected path's edge at position i until its weight
    strictly drops (or the context order is exhausted)."""
    states = q.path_states(rejected)
    w = rejected[i]
    full = q.full_len(i)
    old_weight = q.contexts[i][states[i]][w].weight
    while True:
        e = q.contexts[i][states[i]][w]
        order = e.order
        new_ctx = tuple(rejected[i - order:i])
        if len(states[i]) < order:
            _add_state(q, rejected, i, new_ctx)
            states = q.path_states(rejected)
            e = q.contexts[i][states[i]][w]
        e.order = order + 1
        e.weight = q.tables.value(w, new_ctx, full) + q.pobs[i][w]
        if e.weight < old_weight - 1e-15 or e.order > full:
            break
    q._invalidate(i)


def _slack_positions(q: QAutomaton, rejected: tuple) -> list[int]:
    """Positions whose edge on the rejected path still sits strictly above
    the deepest available bound, i.e. where deepening can drop the path."""
    states = q.path_states(rejected)
    out = []
    for i, w in enumerate(rejected):
        e = q.contexts[i][states[i]][w]
        full = q.full_len(i)
        if e.order > full:
            continue
        exact = q.tables.value(w, tuple(rejected[i - full:i]), full)
        if e.weight - q.pobs[i][w] - exact > 1e-12:
            out.append(i)
    return out


def refine(q: QAutomaton, rejected: tuple, *,
           norm: str | None = None) -> QAutomaton:
    """Tighten the bound at the rejected path.

    Default selection picks the position with the largest one-order gap
    between the current edge bound and the next deeper bound (leftmost on
    ties), then deepens that edge until its weight strictly drops; in the
    common case that is a single new context weight.  If every one-order
    gap is zero, the leftmost position with any remaining slack against the
    exact conditional is deepened instead.

    norm="sum" or norm="max" replaces that cheap pointwise selection with
    the exhaustive criterion: every candidate position is deepened on a
    clone of the automaton and the one minimizing the resulting total mass
    (respectively global max) is applied, leftmost on near-ties.  Each
    candidate costs a full table rebuild, hence opt-in.

    Raises NoRefinementAvailable when the path already scores its exact
    probability.
    """
    if norm is not None:
        if norm not in ("sum", "max"):
            raise ValueError(f"norm must be 'sum' or 'max', got {norm!r}")
        cands = _slack_positions(q, rejected)
        if not cands:
            raise NoRefinementAvailable(
                "rejected path already scores its exact probability")
        best_i, best_val = None, math.inf
        for i in cands:
            c = q.clone()
            _deepen_at(c, rejected, i)
            val = c.mass_log() if norm == "sum" else c.max_log()
            if val < best_val - 1e-15:
                best_i, best_val = i, val
        _deepen_at(q, rejected, best_i)
        q.refinements += 1
        return q

    states = q.path_states(rejected)
    best_i, best_gap = None, 0.0
    for i, w in enumerate(rejected):
        e = q.contexts[i][states[i]][w]
        full = q.full_len(i)
        if e.order > full:
            continue
        vpart = e.weight - q.pobs[i][w]
        nxt = q.tables.value(w, tuple(rejected[i - e.order:i]), full)
        gap = vpart - nxt
        if gap > best_gap + 1e-15:
            best_i, best_gap = i, gap
    i = best_i
    if i is None:
        i = next(iter(_slack_positions(q, rejected)), None)
    if i is None:
        raise NoRefinementAvailable(
            "rejected path already scores its exact probability")
    _deepen_at(q, rejected, i)
    q.refinements += 1
    return q


class AutomatonRefiner:
    """Adapter giving the engine loop the one-step refinement.

    norm=None keeps the cheap largest-gap selection; "sum" or "max" picks
    the candidate position by exhaustive norm evaluation instead.
    """

    def __init__(self, norm: str | None = None):
        self.norm = norm

    def refine(self, proposal: QAutomaton, config, log_p, log_q):
        return refine(proposal, config, norm=self.norm)


def enumerate_paths(q: QAutomaton):
    """All word sequences the lattice admits (tests and audits)."""
    cols = [[w for w, _ in col] for col in q.lattice.candidates]
    return itertools.product(*cols)


def report_ngram_counts(q: QAutomaton) -> dict[int, int]:
    """Distinct (position, context-used, word) bounds per order.

    Cloned states share their ancestor's bound, so a weight is counted once
    per the context that actually parameterizes it.
    """
    seen: dict[int, set] = {k: set() for k in range(1, q.order + 1)}
    for i in range(q.length):
        for ctx, edges in q.contexts[i].items():
            for w, e in edges.items():
                used = ctx[len(ctx) - (e.order - 1):] if e.order > 1 else ()
                seen[e.order].add((i, used, w))
    return {k: len(v) for k, v in seen.items()}
