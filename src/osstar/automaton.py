"""Layered proposal automaton over a token lattice, with refinement.

States at layer i are context tuples (suffixes of the words emitted so far);
every layer keeps the empty context, so any path has a state to fall back
to.  An edge (i, c, w) emits word w at position i, carries an optimistic
weight for that word, and lands on the longest stored suffix of c + (w,).

Each edge remembers the order of the bound it currently uses: a freshly
built automaton scores every word with an order-1 bound.  A refinement
deepens edges of the rejected path (adding deeper context states as needed
to route the path into each tightened edge): every loose edge of a drawn
path, right to left, and one edge of the path viterbi just returned.  Path
weights therefore never increase, and the rejected path strictly drops.

Every state at layer i has one edge per candidate word of position i, so a
layer is compiled to a dense states x candidates block (`Layer`): edge
weights, edge orders and destination rows into layer i + 1, with an
append-only context -> row map (row 0 is the empty context).  Columns are
in sorted-word order, the order of draws and ties.  A refinement writes
these arrays in two places only: deepening an edge rewrites its weight and
order cell, and adding a state appends one row and reroutes the edges of
layer i - 1 whose longest stored suffix it now is.

One walk, `_walk`, follows every path (score, path_rows, sample_path,
viterbi, _smallest_argmax): a column per layer, edge weights added left to
right, so every sentence log q is that one sum.  sample_path and viterbi
record their walk until the structure changes: its words, rows and the
bounds read on it, each read once through `_bound`.  refine reads a
rejected path's rows and bounds from that record when it is the path
walked.  Each semiring's backward pass is cached in one `_Pass`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .engine import cdf, pick, tie_tolerance
from .ngram import MaxBackoffTables, NGramLM, NoCandidate, TokenLattice


class NoRefinementAvailable(RuntimeError):
    """The rejected path already scores exactly its target probability."""


class Layer:
    """One position of the automaton as dense arrays.

    Row r is the state ctxs[r]; column j is the candidate word words[j],
    words sorted.  weight[r, j], order[r, j] and dest[r, j] are that edge's
    log weight, the n-gram order of its bound and its destination row in
    the next layer.  `ending[s]` lists the rows whose context ends with s,
    every suffix s included.
    """

    def __init__(self, words, weights):
        self.words = tuple(words)
        self.col = {w: j for j, w in enumerate(self.words)}
        self.ctxs: list[tuple] = [()]
        self.rows: dict[tuple, int] = {(): 0}
        self.ending: dict[tuple, list[int]] = {(): [0]}
        n = len(self.words)
        self.weight = np.array(weights, dtype=np.float64).reshape(1, n)
        self.order = np.ones((1, n), dtype=np.int64)
        self.dest = np.zeros((1, n), dtype=np.intp)

    # perfbench's size record (workloads._record_size) counts states as
    # len(layer) and edges as the lengths of layer.values()
    def __len__(self) -> int:
        return len(self.ctxs)

    def values(self) -> np.ndarray:
        """The weight rows, one per state."""
        return self.weight

    def append(self, ctx: tuple, weight, order, dest) -> int:
        """Add state ctx with the given edge rows; returns its row."""
        row = len(self.ctxs)
        self.ctxs.append(ctx)
        self.rows[ctx] = row
        for k in range(len(ctx) + 1):
            self.ending.setdefault(ctx[k:], []).append(row)
        self.weight = np.vstack((self.weight, weight))
        self.order = np.vstack((self.order, order))
        self.dest = np.vstack((self.dest, dest))
        return row


@dataclasses.dataclass
class _Pass:
    """One semiring's cached backward pass ("sum" for sampling, "max" for
    the argmax), built by QAutomaton.beta only.  beta[i] is the downstream
    aggregate of every state of layer i, one numpy reduction over
    vals[i] = weight + beta[i + 1][dest]; vals[i] is kept for the readers,
    which compute a state's draw CDF (sum) or best edge (max) from its row
    on first visit and keep it in memo[i].  A deepening at position i marks
    layers 0..i dirty; the next read rebuilds beta and vals of exactly
    those layers, top down, and drops their memos.  `dirty` is the deepest
    layer marked (-1 for none), so a refinement that deepens several edges
    costs one rebuild."""

    beta: list
    vals: list
    memo: list[dict]
    dirty: int


class HmmTarget:
    """log p(x) = sum_i [ lm(x_i | preceding words) + obs(i, x_i) ], at the
    LM's order: the bound tables must read this same (capped) LM."""

    def __init__(self, lm: NGramLM, lattice: TokenLattice):
        self.lm = lm
        self.order = lm.order
        self._pobs = lattice.pobs

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
        self.pobs = lattice.pobs
        # contexts[i]: the compiled layer i; layer `length` is final
        self.contexts: list[Layer] = []
        self.table_builds = 0
        self._passes: dict[str, _Pass | None] = {"sum": None, "max": None}
        # (semiring, words, rows, reads) of the path sample_path or viterbi
        # last returned, for refine; dropped on any change of structure
        self._last: tuple | None = None

    # -- structure ---------------------------------------------------------

    def full_len(self, i: int) -> int:
        """Longest usable context at position i (shorter near the start)."""
        return min(i, self.order - 1)

    def _invalidate(self, layer: int) -> None:
        self._last = None
        for p in self._passes.values():
            if p is not None:
                p.dirty = max(p.dirty, layer)

    def beta(self, semiring: str) -> list:
        """Per-layer arrays of downstream aggregates, indexed by row, with
        only the dirty layers rebuilt: one numpy reduction per layer."""
        p = self._passes[semiring]
        if p is None:
            n = self.length
            p = self._passes[semiring] = _Pass(
                [None] * n + [np.zeros(1)], [None] * n,
                [{} for _ in range(n)], n - 1)
        elif p.dirty < 0:
            return p.beta
        for i in range(p.dirty, -1, -1):
            layer = self.contexts[i]
            v = layer.weight + p.beta[i + 1][layer.dest]
            p.beta[i] = (np.logaddexp.reduce(v, axis=1) if semiring == "sum"
                         else v.max(axis=1))
            p.vals[i] = v
            p.memo[i] = {}
        p.dirty = -1
        self.table_builds += 1
        return p.beta

    def _draw_table(self, i: int, row: int) -> list[float]:
        """engine.cdf of state `row`'s edges at layer i, memoised until that
        layer's sum beta is rebuilt.  Called on a memo miss only."""
        p = self._passes["sum"]
        got = p.memo[i][row] = cdf(p.vals[i][row].tolist())
        return got

    def _best_col(self, i: int, row: int) -> int:
        """Column of the first maximum of state `row`'s edges, memoised until
        that layer's max beta is rebuilt.  Called on a memo miss only."""
        p = self._passes["max"]
        vrow = p.vals[i][row].tolist()
        got = p.memo[i][row] = vrow.index(max(vrow))
        return got

    # -- proposal interface (engine duck type) ------------------------------

    def mass_log(self) -> float:
        return float(self.beta("sum")[0][0])

    def draw(self, rng: np.random.Generator):
        return sample_path(self, rng)

    def argmax(self):
        return viterbi(self)

    # -- path utilities ------------------------------------------------------

    def _follow(self, words: tuple):
        """The walk of a full-length path."""
        return _walk(self, lambda i, *_: self.contexts[i].col[words[i]])

    def path_rows(self, words: tuple) -> list[int]:
        """Row of the state the path occupies at each of its positions."""
        return self._follow(words)[1]

    def score(self, words: tuple) -> float:
        """log q(words): the path's edge weights added left to right."""
        return self._follow(words)[2]


def _walk(q: QAutomaton, choose):
    """Walk one path from row 0: at each layer i take column
    choose(i, row, total), where total is the sum of the weights taken so
    far.  Returns the words, the state row at each position and log q, the
    edge weights added left to right."""
    words, rows = [], []
    total = 0.0
    row = 0
    for i in range(q.length):
        layer = q.contexts[i]
        j = choose(i, row, total)
        words.append(layer.words[j])
        rows.append(row)
        total += layer.weight.item(row, j)
        row = layer.dest.item(row, j)
    return tuple(words), rows, total


def build_q0(lattice: TokenLattice, tables: MaxBackoffTables) -> QAutomaton:
    """Initial automaton: every word scored by its order-1 bound.

    Raises NoCandidate when every candidate at some position has
    probability zero under the LM, so that no sentence has any mass.
    """
    q = QAutomaton(lattice, tables)
    for i, cands in enumerate(map(sorted, lattice.candidates)):
        words = [word for word, _ in cands]
        weights = [tables.value(word, (), q.full_len(i)) + lp
                   for word, lp in cands]
        if all(wt == -math.inf for wt in weights):
            raise NoCandidate(f"position {i}: every candidate "
                              f"({', '.join(words)}) has probability zero "
                              "under the LM")
        q.contexts.append(Layer(words, weights))
    q.contexts.append(Layer((), ()))
    return q


def viterbi(q: QAutomaton):
    """Highest-weight path; when it could be certified, ties pick the
    lexicographically smaller path.

    The descent takes at each state the first maximum, in sorted-word
    order, of its edges' backward max sums.  Those sums can rank two paths
    whose left-to-right totals (p's order of summation) are equal an ulp
    apart, so when some pick of the descent was a near tie and the path is
    one the engine could certify, the answer is _smallest_argmax's instead.
    The bounds the certifiability test reads are recorded with the walk for
    refine; an answer that replaces the path starts a record of its own.
    """
    q.beta("max")
    maxes = q._passes["max"]

    def best(i, row, total):
        j = maxes.memo[i].get(row)
        return q._best_col(i, row) if j is None else j

    words, rows, total = _walk(q, best)
    # whether some edge below full order is above p's term by more than
    # 1e-12: the engine cannot certify such a path
    reads = {}
    loose = any(layer.order.item(row, j) <= q.full_len(i)
                and _excess(q, words, i, layer.weight.item(row, j),
                            reads) > 1e-12
                for i, (layer, row) in enumerate(zip(q.contexts, rows))
                for j in (layer.col[words[i]],))
    if not loose:
        # a near tie: a runner-up within tol of a pick on the path
        tol = _tie_tol(q)
        if any(np.count_nonzero(v >= v.max() - tol) > 1
               for v in (maxes.vals[i][row] for i, row in enumerate(rows))):
            words, rows, total = _smallest_argmax(q, tol)
            reads = {}
    q._last = ("max", words, rows, reads)
    return words, total


def _tie_tol(q: QAutomaton) -> float:
    """tie_tolerance scaled by the sum over positions of the largest
    finite |edge weight|, a bound on any path's sum of |weights|."""
    return tie_tolerance(sum(
        float(np.abs(layer.weight[np.isfinite(layer.weight)]).max(
            initial=0.0)) for layer in q.contexts[:q.length]))


def _forward_max(q: QAutomaton, i: int, row: int, total: float) -> float:
    """Largest left-to-right total of a path whose words before position i
    sum to `total` and lead to state `row` of layer i: one forward
    max-plus pass.  Float addition is monotone, so the pass is exact."""
    alpha = np.full(len(q.contexts[i].ctxs), -np.inf)
    alpha[row] = total
    for layer, nxt in zip(q.contexts[i:q.length], q.contexts[i + 1:]):
        out = np.full(len(nxt.ctxs), -np.inf)
        np.maximum.at(out, layer.dest, alpha[:, None] + layer.weight)
        alpha = out
    return float(alpha[0])


def _smallest_argmax(q: QAutomaton, tol: float):
    """The lexicographically smallest of the paths with the largest
    left-to-right total, walked: its words, state rows and total.  Word by
    word, each of the state's top columns (backward max sum within tol of
    its best) but the last is tried with one forward pass.  A column
    outside the top trails by more than summation roundoff, so it cannot
    reach the largest total, and the last top column must reach it."""
    target = _forward_max(q, 0, 0, 0.0)
    vals = q._passes["max"].vals

    def first_reaching(i, row, total):
        layer = q.contexts[i]
        vrow = vals[i][row]
        top = np.flatnonzero(vrow >= vrow.max() - tol).tolist()
        return next((j for j in top[:-1] if _forward_max(
            q, i + 1, layer.dest.item(row, j),
            total + layer.weight.item(row, j)) == target), top[-1])

    return _walk(q, first_reaching)


def sample_path(q: QAutomaton, rng: np.random.Generator):
    """Exact draw x ~ q / Q(X): backward sums, forward edge sampling."""
    q.beta("sum")
    memo = q._passes["sum"].memo

    def draw(i, row, total):
        return pick(memo[i].get(row) or q._draw_table(i, row), rng)

    words, rows, total = _walk(q, draw)
    q._last = ("sum", words, rows, {})
    return words, total


def _add_state(q: QAutomaton, words: tuple, rows: list[int], i: int,
               ctx: tuple) -> None:
    """Insert state (i, ctx), the history suffix of the path `words` one
    word longer than the path's state rows[i], reroute the layer i - 1
    edges it captures and set rows[i] to the new row.

    Layers stay suffix-closed: a state is added only once its suffix one
    word shorter is stored (first, recursively, at layer i - 1 for the
    path's own history).  So ctx[1:] is stored and is the ancestor whose
    edges the new state copies, and no stored context ends in ctx yet:
    every edge (c, w) of layer i - 1 with c + (w,) ending in ctx lands on
    a shorter suffix until now, and on ctx from now on.  No context of
    layer i + 1 is ctx plus a word (a state's prefix is stored one layer
    up before it is added), so the longest stored suffix of ctx + (w,) is
    that of ctx[1:] + (w,): the new row copies its ancestor's destination
    row too, and the path's rows past i do not move."""
    layer, prev = q.contexts[i], q.contexts[i - 1]
    if len(ctx) - 1 > len(prev.ctxs[rows[i - 1]]):
        _add_state(q, words, rows, i - 1, tuple(words[i - len(ctx):i - 1]))
    anc = layer.rows[ctx[1:]]
    row = layer.append(ctx, layer.weight[anc], layer.order[anc],
                       layer.dest[anc])
    prev.dest[prev.ending[ctx[:-1]], prev.col[ctx[-1]]] = row
    rows[i] = row
    q._invalidate(i)


def _deepen_at(q: QAutomaton, rejected: tuple, rows: list[int], i: int,
               floor: float, reads: dict) -> None:
    """Deepen the rejected path's edge at position i until its weight drops
    by more than floor (or the context order is exhausted).  rows is the
    path's state rows, kept current as states are added, and reads its map
    of bounds read (see _bound), which the deepening reads through."""
    layer = q.contexts[i]
    w = rejected[i]
    j = layer.col[w]
    full = q.full_len(i)
    old_weight = layer.weight.item(rows[i], j)
    while True:
        order = layer.order.item(rows[i], j)
        if len(layer.ctxs[rows[i]]) < order:
            _add_state(q, rejected, rows, i, tuple(rejected[i - order:i]))
        weight = _bound(q, rejected, i, order, reads) + q.pobs[i][w]
        layer.order[rows[i], j] = order + 1
        layer.weight[rows[i], j] = weight
        if weight < old_weight - floor or order + 1 > full:
            break
    q._invalidate(i)


def refine(q: QAutomaton, rejected: tuple) -> QAutomaton:
    """Tighten the bound at the rejected path.

    A site counts as loose when the one-order gap between its current edge
    bound and the next deeper bound is above 1e-12: a smaller gap is
    roundoff, and the edge may have no slack at all.  A drawn path has
    every loose site deepened, right to left, in this one refinement.  The
    path viterbi just returned has only the site with the largest gap
    deepened (leftmost on ties): deepening every loose site there spends
    deeper bounds a decode does not need, and the count of bounds then
    grows with their order.  Each deepening runs until that edge's weight
    strictly drops (by more than 1e-15) or its context order is exhausted;
    in the common case that is a single new context weight.  If no gap
    counts, the leftmost position with slack (an edge weight above p's
    term by more than 1e-12) is deepened instead, until its weight drops
    by more than 1e-12 or its order is exhausted: a smaller drop is
    roundoff, not worth a refinement.  When no such position is left,
    every position with any slack is deepened to full order, right to
    left: one site's drop can be below an ulp of the path's total, while
    at full order each edge weight is p's own term, so the path then
    scores exactly p.  Each bound is read once per path, through _bound.

    Raises NoRefinementAvailable when the path already scores p term by
    term.
    """
    # the rows and bounds read of the last walk, when the path it returned
    # is the one rejected; a path viterbi returned gets the one-site rule
    last = q._last
    walked = last is not None and last[1] == rejected
    rows, reads = (last[2], last[3]) if walked else (q.path_rows(rejected), {})
    decoded = walked and last[0] == "max"
    # one scan of the positions whose edge on the path is below full order:
    # each such edge's weight and next-order bound, the loose sites and the
    # largest gap among them (leftmost on ties)
    sites, loose = [], []
    best_i, best_gap = None, 1e-12
    for i, (w, row) in enumerate(zip(rejected, rows)):
        layer = q.contexts[i]
        j = layer.col[w]
        order = layer.order.item(row, j)
        if order > q.full_len(i):
            continue
        weight = layer.weight.item(row, j)
        sites.append((i, weight))
        gap = weight - q.pobs[i][w] - _bound(q, rejected, i, order, reads)
        if gap > 1e-12:
            loose.append(i)
        if gap > best_gap + 1e-15:
            best_i, best_gap = i, gap
    # a drawn path's loose sites right to left: a deepening adds states at
    # its own layer and below, each copying its ancestor's weight and
    # order rows, so the gaps scanned at the sites still to come hold
    if loose and not decoded:
        deepen, floor = loose[::-1], 1e-15
    elif best_i is not None:
        deepen, floor = (best_i,), 1e-15
    else:
        excess = [(i, _excess(q, rejected, i, weight, reads))
                  for i, weight in sites]
        best_i = next((i for i, e in excess if e > 1e-12), None)
        if best_i is not None:
            deepen, floor = (best_i,), 1e-12
        else:
            # only roundoff is left: every site with an excess goes to
            # full order
            deepen = [i for i, e in reversed(excess) if e > 0]
            floor = math.inf
            if not deepen:
                raise NoRefinementAvailable(
                    "rejected path already scores its exact probability")
    for i in deepen:
        _deepen_at(q, rejected, rows, i, floor, reads)
    return q


def _excess(q: QAutomaton, words, i: int, weight: float, reads: dict) -> float:
    """How far `weight`, the weight of the path's edge at position i, is
    above p's term there: the weight of the edge's full-context bound."""
    return weight - (_bound(q, words, i, q.full_len(i), reads)
                     + q.pobs[i][words[i]])


def _bound(q: QAutomaton, words, i: int, n: int, reads: dict) -> float:
    """The bound of words[i] given the n words before it, cached in the
    path's map `reads` at (i, n).  The tables never change and a bound
    depends only on the word, its context and the full length, so a read
    holds across every refinement of that path, and for no other path."""
    got = reads.get((i, n))
    if got is None:
        got = reads[i, n] = q.tables.value(
            words[i], tuple(words[i - n:i]), q.full_len(i))
    return got


class AutomatonRefiner:
    """Adapter giving the engine loop the one-step refinement."""

    def refine(self, proposal: QAutomaton, config):
        return refine(proposal, config)


def report_ngram_counts(q: QAutomaton) -> dict[int, int]:
    """Distinct (position, context-used, word) bounds per order.

    Cloned states share their ancestor's bound, so a weight is counted once
    per the context that actually parameterizes it.
    """
    seen: dict[int, set] = {k: set() for k in range(1, q.order + 1)}
    for i in range(q.length):
        layer = q.contexts[i]
        for ctx, orders in zip(layer.ctxs, layer.order.tolist()):
            for w, order in zip(layer.words, orders):
                used = ctx[len(ctx) - (order - 1):] if order > 1 else ()
                seen[order].add((i, used, w))
    return {k: len(v) for k, v in seen.items()}
