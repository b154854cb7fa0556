"""Backoff n-gram language models, optimistic context bounds, keypad lattices.

An ARPA model stores explicit conditionals for the n-grams seen in training
and a backoff weight per context; everything else is evaluated through the
backoff recursion  p(w|c) = bow(c) * p(w|c minus oldest word).

The "max-backoff" of a word w given a short context c at level k is the max
of the true conditional over every way of extending c with older words up to
the full context length.  These quantities upper-bound each factor of the
sentence probability and are exactly the edge weights the proposal automaton
needs; they shrink monotonically as the context grows.  MaxBackoffTables
builds all of them when the LM is loaded, in one pass over its contexts,
level by level: the row of a (context, full context length) holds the bound
of every word, so memory grows as rows x words.

An order cap belongs to the LM (NGramLM.capped): the tables and the target
both read the order of the LM they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN10 = math.log(10.0)

# tokens that may appear in an ARPA file but never inside a typed sentence
PSEUDO_TOKENS = frozenset({"<s>", "</s>", "<unk>", "<UNK>"})


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OrderUnsupported(ValueError):
    pass


class NoCandidate(ValueError):
    pass


class NGramLM:
    """Backoff language model over word tuples, all weights in natural log."""

    def __init__(self, order: int, logprob: dict[tuple, float],
                 backoff: dict[tuple, float]):
        if order < 1:
            raise OrderUnsupported("order must be >= 1")
        if order > 5:
            raise OrderUnsupported(f"order {order} not supported (max 5)")
        self.order = order
        self.logprob = logprob
        self.backoff = backoff
        self.vocab = sorted(g[0] for g in logprob if len(g) == 1)
        # words that can occur inside a sentence
        self.words = [w for w in self.vocab if w not in PSEUDO_TOKENS]
        self._cond_cache: dict[tuple, float] = {}

    def capped(self, order: int) -> NGramLM:
        """The same model (shared dicts) at order min(order, self.order)."""
        return NGramLM(min(order, self.order), self.logprob, self.backoff)

    def cond_logprob(self, word: str, context: tuple) -> float:
        """log p(word | context) via the backoff recursion.

        `context` lists the preceding words, most recent last; it is clipped
        to the model order.  Words without a unigram score -inf.
        """
        context = tuple(context[-(self.order - 1):]) if self.order > 1 else ()
        key = context + (word,)
        hit = self._cond_cache.get(key)
        if hit is not None:
            return hit
        acc = 0.0
        value = -math.inf
        for j in range(len(context) + 1):
            tail = context[j:]
            explicit = self.logprob.get(tail + (word,))
            if explicit is not None:
                value = acc + explicit
                break
            acc += self.backoff.get(tail, 0.0)
        self._cond_cache[key] = value
        return value


def load_arpa(text: str) -> NGramLM:
    """Parse ARPA-format text (log10 weights) into an NGramLM (natural log)."""
    lines = text.splitlines()
    counts: dict[int, int] = {}
    logprob: dict[tuple, float] = {}
    backoff: dict[tuple, float] = {}
    state = "preamble"
    current = 0
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if state == "preamble":
            if line == "\\data\\":
                state = "counts"
            continue
        if state == "counts":
            if line.startswith("ngram"):
                body = line[len("ngram"):].strip()
                try:
                    k_str, n_str = body.split("=")
                    counts[int(k_str)] = int(n_str)
                except ValueError:
                    raise ParseError(f"bad count declaration {line!r}", lineno)
                continue
            if line.endswith("-grams:") and line.startswith("\\"):
                state = "grams"
            else:
                raise ParseError(f"expected n-gram section, got {line!r}",
                                 lineno)
        if state == "grams":
            if line.endswith("-grams:") and line.startswith("\\"):
                try:
                    current = int(line[1:].split("-")[0])
                except ValueError:
                    raise ParseError(f"bad section header {line!r}", lineno)
                if current not in counts:
                    raise ParseError(f"section order {current} not declared",
                                     lineno)
                seen.setdefault(current, 0)
                continue
            if line == "\\end\\":
                state = "done"
                continue
            fields = line.split()
            if len(fields) == current + 1:
                has_bow = False
            elif len(fields) == current + 2:
                has_bow = True
            else:
                raise ParseError(
                    f"expected {current + 1} or {current + 2} fields, "
                    f"got {len(fields)}", lineno)
            try:
                prob = float(fields[0]) * LN10
                bow = float(fields[-1]) * LN10 if has_bow else 0.0
            except ValueError:
                raise ParseError(f"bad float in {line!r}", lineno)
            if not (prob < math.inf and bow < math.inf):
                raise ParseError(f"NaN or +inf number in {line!r}", lineno)
            gram = tuple(fields[1:current + 1])
            if gram in logprob:
                raise ParseError(
                    f"duplicate {current}-gram {' '.join(gram)!r}", lineno)
            logprob[gram] = prob
            if has_bow:
                backoff[gram] = bow
            seen[current] += 1
            continue
        if state == "done":
            raise ParseError(f"content after \\end\\: {line!r}", lineno)
    if state == "preamble":
        raise ParseError("missing \\data\\ header", max(len(lines), 1))
    if state != "done":
        raise ParseError("missing \\end\\ marker", len(lines))
    for k, n in counts.items():
        if seen.get(k, 0) != n:
            raise ParseError(
                f"declared {n} {k}-grams, found {seen.get(k, 0)}", len(lines))
    return NGramLM(max(counts), logprob, backoff)


@dataclass
class _Contexts:
    """The contexts the tables hold, one row each, shortest first.

    Level k, the contexts of k words, is rows bounds[k]:bounds[k+1].  In a
    level the contexts whose oldest word is a sentence word come first:
    they are the extensions their parent's max ranges over.
    """

    index: dict[tuple, int]   # context -> row
    bounds: list[int]
    kids: list[int]           # per level, how many lead with a sentence word
    parent: np.ndarray        # row of c[1:]
    bow: np.ndarray           # backoff weight of c, 0.0 where none is stored
    # the stored successors (c, w) of row c, in CSR layout: entries
    # start[c]:start[c+1] of col (w's column) and lp (log p(w | c))
    start: np.ndarray
    col: np.ndarray
    lp: np.ndarray
    open: np.ndarray          # some sentence word u leaves (u,) + c unheld


def _held_contexts(lm: NGramLM, n: int, col: dict) -> _Contexts:
    """The suffixes of at most n-1 words of the stored grams, of their
    context parts and of the backoff keys: the contexts whose extensions
    can differ from the plain backoff."""
    grams = list(lm.logprob)
    heads = [gram[:-1] for gram in grams]
    held = new = set(grams).union(heads, lm.backoff)
    while new:   # close under dropping the oldest word
        new = {c[1:] for c in new} - held
        held |= new
    levels: list[list[tuple]] = [[] for _ in range(n)]
    for c in held:
        if len(c) < n:
            levels[len(c)].append(c)
    words = set(lm.words)
    index = {(): 0}
    bounds, kids, parent = [0, 1], [0], [0]
    for ctxs in levels[1:]:
        led = [c for c in ctxs if c[0] in words]
        ctxs = led + [c for c in ctxs if c[0] not in words]
        parent.extend(index[c[1:]] for c in ctxs)
        index.update(zip(ctxs, range(bounds[-1], bounds[-1] + len(ctxs))))
        kids.append(len(led))
        bounds.append(bounds[-1] + len(ctxs))
    rows = len(index)
    parent = np.array(parent, dtype=np.intp)
    # the row of each gram's head; a head of n or more words (-1) is never read
    at = np.fromiter((index.get(h, -1) for h in heads), np.intp, len(heads))
    cols = np.fromiter((col[gram[-1]] for gram in grams), np.intp, len(grams))
    lps = np.fromiter(lm.logprob.values(), float, len(grams))
    order = np.flatnonzero(at >= 0)
    order = order[np.argsort(at[order], kind="stable")]
    start = np.zeros(rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(at[order], minlength=rows), out=start[1:])
    led = np.concatenate([np.arange(b, b + m) for b, m in zip(bounds, kids)])
    return _Contexts(
        index, bounds, kids, parent,
        np.fromiter((lm.backoff.get(c, 0.0) for c in index), float, rows),
        start, cols[order], lps[order],
        np.bincount(parent[led], minlength=rows) < len(words))


def _cond_rows(cx: _Contexts, width: int) -> np.ndarray:
    """log p(. | c) of every held context c, as cond_logprob adds it."""
    rows = len(cx.parent)
    t = np.arange(rows)
    acc = np.zeros(rows)
    # step j reads the tail c[j:] of every context of more than j words,
    # with the left-to-right sum of the backoffs of the longer tails
    reads = []
    for lo in cx.bounds[1:-1]:
        reads.append((lo, t[lo:].copy(), acc[lo:].copy()))
        acc[lo:] += cx.bow[t[lo:]]
        t[lo:] = cx.parent[t[lo:]]
    # shortest tail first, so the longest stored tail is written last.
    # Every context ends at (), with the sum of all its backoffs: one
    # masked broadcast writes the unigrams, most of the entries
    unigram = np.zeros(width)
    stored = np.zeros(width, dtype=bool)
    unigram[cx.col[:cx.start[1]]] = cx.lp[:cx.start[1]]
    stored[cx.col[:cx.start[1]]] = True
    out = np.full((rows, width), -math.inf)
    np.add(acc[:, None], unigram, out=out, where=stored)
    for lo, tail, acc in reversed(reads):
        # who: the context of each entry; k: its tail's CSR entries in turn
        count = cx.start[tail + 1] - cx.start[tail]
        who = np.repeat(np.arange(lo, rows), count)
        k = np.repeat(cx.start[tail] - np.cumsum(count) + count, count)
        k += np.arange(len(k))
        out[who, cx.col[k]] = acc[who - lo] + cx.lp[k]
    return out


def _max_rows(cx: _Contexts, cond: np.ndarray, full_len: int) -> np.ndarray:
    """The rows at full_len of every context of at most full_len words."""
    rows = cond[:cx.bounds[full_len + 1]].copy()
    # a shorter context starts from its conditional row, the value every
    # unheld extension (u,) + c shares, or from -inf when it has none
    short = cx.bounds[full_len]
    rows[:short][~cx.open[:short]] = -math.inf
    flat = rows.reshape(-1)
    width = rows.shape[1]
    # level k into level k-1, top down, so each level is final when read;
    # maximum.at, unlike reduceat, needs no grouping and is faster here
    for k in range(full_len, 0, -1):
        lo = cx.bounds[k]
        hi = lo + cx.kids[k]
        into = cx.parent[lo:hi, None] * width + np.arange(width)
        np.maximum.at(flat, into.reshape(-1), rows[lo:hi].reshape(-1))
    return rows


class MaxBackoffTables:
    """Max-backoff rows for one LM, at its order (cap it with lm.capped),
    all built when the LM is loaded.

    value(w, c, L) is the max of p(w | e + c) over all extensions e of the
    context c by older vocabulary words, up to total context length L.  The
    enumeration only branches on extension words u for which (u,) + c is the
    suffix of some stored n-gram: every other u yields the shared backoff
    value p(w | c), so one representative covers them all.

    The tables hold one row per (context, L) for every such suffix c: the
    bound of every word at once, one column per word that ends a stored
    n-gram plus a last column of -inf for every other word.  The constructor
    builds them level by level, one context length at a time, with a few
    numpy calls per level: first the conditional rows, then, for each L,
    every shorter context's row as the elementwise max of its children's
    rows.  Memory grows as rows x words.  Every entry equals that
    enumeration over cond_logprob values bit for bit: a conditional is the
    same float adds as in cond_logprob, and max is exact.
    """

    def __init__(self, lm: NGramLM):
        self.lm = lm
        self.order = n = lm.order
        ends = sorted({gram[-1] for gram in lm.logprob})
        self._col = {w: j for j, w in enumerate(ends)}
        self._width = len(ends) + 1
        cx = _held_contexts(lm, n, self._col)
        self._index = cx.index
        cond = _cond_rows(cx, self._width)
        # self._rows[L][i]: the row at full length L of the context in row i
        self._rows = [_max_rows(cx, cond, L) for L in range(n)]
        # rows that value() has read, as lists, one dict per full_len
        self._lists: list[dict[tuple, list[float]]] = [{} for _ in range(n)]

    def value(self, word: str, context: tuple, full_len: int) -> float:
        """Max of p(word | extension + context) over length-full_len contexts."""
        full_len = min(full_len, self.order - 1)
        if len(context) > full_len:
            context = context[len(context) - full_len:]
        lists = self._lists[full_len]
        row = lists.get(context)
        if row is None:
            i = self._index.get(context)
            if i is not None:
                got = self._rows[full_len][i]
            elif self.lm.words or len(context) == full_len:
                # an unheld context has no held extension, so at every
                # full_len its row is its conditional row.  It and its tails
                # down to the longest held one store no gram and no backoff:
                # their 0.0 backoffs leave that tail's conditional row as is
                tail = context[1:]
                while (i := self._index.get(tail)) is None:
                    tail = tail[1:]
                got = self._rows[len(tail)][i]
            else:   # no sentence word extends context
                got = np.full(self._width, -math.inf)
            row = lists[context] = got.tolist()
        return row[self._col.get(word, -1)]


# ---------------------------------------------------------------------------
# ITU E.161 keypad observation model

KEYPAD_LETTERS = {
    "2": "abc", "3": "def", "4": "ghi", "5": "jkl",
    "6": "mno", "7": "pqrs", "8": "tuv", "9": "wxyz",
}
LETTER_TO_DIGIT = {ch: d for d, letters in KEYPAD_LETTERS.items()
                   for ch in letters}

# orthogonal neighbours on the physical 123/456/789/*0# grid
KEY_NEIGHBORS = {
    "1": "24", "2": "135", "3": "26", "4": "157", "5": "2468",
    "6": "359", "7": "48", "8": "5790", "9": "68", "0": "8",
}


def keypad_encode(word: str) -> str:
    try:
        return "".join(LETTER_TO_DIGIT[ch] for ch in word)
    except KeyError as exc:
        raise ValueError(f"word {word!r} has no keypad encoding") from exc


@dataclass
class TokenLattice:
    """Per-position word candidates with observation log-probabilities."""

    observations: list[str]
    candidates: list[list[tuple[str, float]]]

    @property
    def length(self) -> int:
        return len(self.candidates)


def build_lattice(observations: list[str], vocab: list[str],
                  noise_epsilon: float = 0.0) -> TokenLattice:
    """Candidate words per observed digit string.

    A word matching the observation exactly carries mass 1 - epsilon; a word
    whose encoding differs in exactly one digit by an adjacent key carries
    epsilon / #neighbours(true digit).  Words sharing one digit string split
    that mass uniformly.
    """
    if not 0.0 <= noise_epsilon < 1.0:
        raise ValueError("noise_epsilon must be in [0, 1)")
    vocab = sorted(set(vocab))
    enc = {w: keypad_encode(w) for w in vocab}
    multiplicity: dict[str, int] = {}
    for w in vocab:
        multiplicity[enc[w]] = multiplicity.get(enc[w], 0) + 1

    columns = []
    for pos, obs in enumerate(observations):
        if not obs or not all(ch in KEY_NEIGHBORS for ch in obs):
            raise NoCandidate(f"position {pos}: bad digit string {obs!r}")
        col = []
        for w in vocab:
            e = enc[w]
            if e == obs:
                weight = math.log1p(-noise_epsilon) if noise_epsilon else 0.0
                col.append((w, weight - math.log(multiplicity[e])))
            elif noise_epsilon and len(e) == len(obs):
                diff = [j for j in range(len(e)) if e[j] != obs[j]]
                if len(diff) == 1 and obs[diff[0]] in KEY_NEIGHBORS[e[diff[0]]]:
                    slip = (math.log(noise_epsilon)
                            - math.log(len(KEY_NEIGHBORS[e[diff[0]]])))
                    col.append((w, slip - math.log(multiplicity[e])))
        if not col:
            raise NoCandidate(f"position {pos}: no vocab word matches {obs!r}")
        columns.append(col)
    return TokenLattice(observations=list(observations), candidates=columns)


def load_vocab(text: str) -> list[str]:
    """One lowercase word per line; blank lines ignored."""
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        w = raw.strip()
        if not w:
            continue
        if not w.isascii() or not w.islower() or not w.isalpha():
            raise ValueError(f"vocab line {lineno}: bad word {w!r}")
        words.append(w)
    return sorted(set(words))
