"""Backoff n-gram language models, optimistic context bounds, keypad lattices.

An ARPA model stores explicit conditionals for the n-grams seen in training
and a backoff weight per context; everything else is evaluated through the
backoff recursion  p(w|c) = bow(c) * p(w|c minus oldest word).

The "max-backoff" of a word w given a short context c at level k is the max
of the true conditional over every way of extending c with older words up to
the full context length.  These quantities upper-bound each factor of the
sentence probability and are exactly the edge weights the proposal automaton
needs; they shrink monotonically as the context grows.  MaxBackoffTables
computes them a row at a time: the row of a (context, full context length)
holds the bound of every word, so memory grows as rows x words.
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

    def conditional_mass(self, context: tuple) -> float:
        """Sum of p(w|context) over the full vocabulary (validity check)."""
        return sum(math.exp(self.cond_logprob(w, context)) for w in self.vocab)


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
            logprob[gram] = prob
            if has_bow:
                backoff[gram] = bow
            seen[current] += 1
            continue
        if state == "done":
            raise ParseError(f"content after \\end\\: {line!r}", lineno)
    if state == "preamble":
        raise ParseError("missing \\data\\ header", len(lines))
    if state != "done":
        raise ParseError("missing \\end\\ marker", len(lines))
    if not counts:
        raise ParseError("no ngram counts declared", 1)
    order = max(counts)
    if order > 5:
        raise OrderUnsupported(f"order {order} not supported (max 5)")
    for k, n in counts.items():
        if seen.get(k, 0) != n:
            raise ParseError(
                f"declared {n} {k}-grams, found {seen.get(k, 0)}", len(lines))
    return NGramLM(order, logprob, backoff)


class MaxBackoffTables:
    """Memoised max-backoff rows for one LM.

    value(w, c, L) is the max of p(w | e + c) over all extensions e of the
    context c by older vocabulary words, up to total context length L.  The
    enumeration only branches on extension words u for which (u,) + c is the
    suffix of some stored n-gram: every other u yields the shared backoff
    value p(w | c), so one representative covers them all.

    The tables hold one row per (context, L): the bound of every word at
    once, one column per word that ends a stored n-gram plus a last column
    of -inf for every other word.  A row is built once, from its children's
    rows by an elementwise max, and kept, so memory grows as rows x words.
    Every entry equals that enumeration over cond_logprob values bit for
    bit: a conditional is the same single float add as in cond_logprob,
    and max is exact.
    """

    def __init__(self, lm: NGramLM, order: int | None = None):
        self.lm = lm
        n = lm.order if order is None else min(order, lm.order)
        if n < 1:
            raise OrderUnsupported("order cap must be >= 1")
        self.order = n
        ends = sorted({gram[-1] for gram in lm.logprob})
        self._col = {w: j for j, w in enumerate(ends)}
        self._width = len(ends) + 1
        # explicit successors of each stored context: (columns, log-probs)
        succ: dict[tuple, tuple[list, list]] = {}
        for gram, lp in lm.logprob.items():
            cols, lps = succ.setdefault(gram[:-1], ([], []))
            cols.append(self._col[gram[-1]])
            lps.append(lp)
        self._succ = {ctx: (np.array(cols, dtype=np.intp), np.array(lps))
                      for ctx, (cols, lps) in succ.items()}
        # suffixes of stored grams and of their context parts
        suf = set()
        for gram in lm.logprob:
            for j in range(len(gram)):
                suf.add(gram[j:])
            ctx = gram[:-1]
            for j in range(len(ctx)):
                suf.add(ctx[j:])
        for gram in lm.backoff:
            for j in range(len(gram)):
                suf.add(gram[j:])
        # interesting extension words of each context, in lm.words order
        rank = {w: j for j, w in enumerate(lm.words)}
        ext: dict[tuple, list[str]] = {}
        for s in suf:
            if s[0] in rank:
                ext.setdefault(s[1:], []).append(s[0])
        for words in ext.values():
            words.sort(key=rank.__getitem__)
        self._ext = ext
        self._rows: dict[tuple, np.ndarray] = {}
        # rows that value() has read, as lists, one dict per full_len
        self._lists: list[dict[tuple, list[float]]] = [{} for _ in range(n)]

    def _cond_row(self, context: tuple) -> np.ndarray:
        """log p(. | context) for every column, as cond_logprob adds it."""
        accs = [0.0]
        for j in range(len(context)):
            accs.append(accs[-1] + self.lm.backoff.get(context[j:], 0.0))
        row = np.full(self._width, -math.inf)
        # shortest tail first, so the longest stored tail is written last
        for j in range(len(context), -1, -1):
            got = self._succ.get(context[j:])
            if got is not None:
                row[got[0]] = accs[j] + got[1]
        return row

    def _row(self, context: tuple, full_len: int) -> np.ndarray:
        key = (context, full_len)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self._build_row(context, full_len)
        return row

    def _build_row(self, context: tuple, full_len: int) -> np.ndarray:
        if len(context) == full_len:
            return self._cond_row(context)
        ext = self._ext.get(context, [])
        rows = [self._row((u,) + context, full_len) for u in ext]
        # all uninteresting extensions collapse to the plain backoff row
        if len(ext) < len(self.lm.words):
            rows.append(self._row(context, len(context)))
        if not rows:   # an LM without sentence words
            return np.full(self._width, -math.inf)
        return rows[0] if len(rows) == 1 else np.maximum.reduce(rows)

    def value(self, word: str, context: tuple, full_len: int) -> float:
        """Max of p(word | extension + context) over length-full_len contexts."""
        full_len = min(full_len, self.order - 1)
        if len(context) > full_len:
            context = context[len(context) - full_len:]
        lists = self._lists[full_len]
        row = lists.get(context)
        if row is None:
            row = lists[context] = self._row(context, full_len).tolist()
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
