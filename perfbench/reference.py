"""Exact references the benchmark checks every answer against.

Both references read only the generated inputs (ARPA text plus digit
strings, or a model dict), never the objects under test, so a defect in
the library cannot hide in its own reference.

- Sentence models: a dynamic program over (order - 1)-word histories of
  the keypad lattice gives the best sentence score and log Z.
- Grid models: a row-by-row transfer-matrix pass over 2**cols row states
  gives the MAP score and log Z.
"""

from __future__ import annotations

import math

import numpy as np

LN10 = math.log(10.0)

KEYPAD = {"2": "abc", "3": "def", "4": "ghi", "5": "jkl",
          "6": "mno", "7": "pqrs", "8": "tuv", "9": "wxyz"}
LETTER_DIGIT = {ch: d for d, letters in KEYPAD.items() for ch in letters}


def keypad_code(word: str) -> str:
    return "".join(LETTER_DIGIT[ch] for ch in word)


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else out.item()


class SentenceReference:
    """Backoff LM read straight from ARPA text, with exact lattice DPs.

    The lattice has no keypad noise: at each position the candidates are
    the vocabulary words whose code equals the observed digits, each with
    observation log-probability -log(#candidates).
    """

    def __init__(self, arpa_text: str, vocab: list[str]):
        self.logprob: dict[tuple, float] = {}
        self.backoff: dict[tuple, float] = {}
        section = 0
        for raw in arpa_text.splitlines():
            line = raw.strip()
            if line.startswith("\\") and line.endswith("-grams:"):
                section = int(line[1:line.index("-")])
                continue
            if line == "\\end\\":
                section = 0
            if not line or not section:
                continue
            fields = line.split()
            gram = tuple(fields[1:section + 1])
            self.logprob[gram] = float(fields[0]) * LN10
            if len(fields) == section + 2:
                self.backoff[gram] = float(fields[-1]) * LN10
        self.order = max(len(g) for g in self.logprob)
        self.by_code: dict[str, list[str]] = {}
        for w in sorted(set(vocab)):
            self.by_code.setdefault(keypad_code(w), []).append(w)
        # explicit grams and backoff contexts indexed by their digit codes
        self._grams: dict[tuple, list[tuple[tuple, float]]] = {}
        self._bows: dict[tuple, list[tuple[tuple, float]]] = {}
        for gram, lp in self.logprob.items():
            key = tuple(keypad_code(w) for w in gram)
            self._grams.setdefault(key, []).append((gram, lp))
        for ctx, bow in self.backoff.items():
            key = tuple(keypad_code(w) for w in ctx)
            self._bows.setdefault(key, []).append((ctx, bow))

    def cond(self, word: str, context: tuple) -> float:
        context = context[len(context) - (self.order - 1):] \
            if len(context) > self.order - 1 else context
        acc = 0.0
        for j in range(len(context) + 1):
            tail = context[j:]
            lp = self.logprob.get(tail + (word,))
            if lp is not None:
                return acc + lp
            acc += self.backoff.get(tail, 0.0)
        return -math.inf

    def score(self, obs: list[str], words: tuple) -> float:
        """log p(words, obs) for one sentence, factor by factor."""
        span = self.order - 1
        total = 0.0
        for i, w in enumerate(words):
            cands = self.by_code[obs[i]]
            if w not in cands:
                return -math.inf
            total += self.cond(w, tuple(words[max(0, i - span):i]))
            total -= math.log(len(cands))
        return total

    def _table(self, obs: list[str], i: int, c: int) -> np.ndarray:
        """log p(x_i | x_{i-c..i-1}) over all candidate tuples, shape
        (n_{i-c}, ..., n_i), built from explicit grams plus backoffs."""
        cands = [self.by_code[obs[j]] for j in range(i - c, i + 1)]
        index = [{w: k for k, w in enumerate(col)} for col in cands]
        shape = tuple(len(col) for col in cands)
        table = np.full(shape[-1], -np.inf)
        for gram, lp in self._grams.get((obs[i],), []):
            table[index[-1][gram[0]]] = lp
        for k in range(1, c + 1):
            # context of the last k words: positions i-k .. i-1
            sub_index = index[c - k:]
            sub_shape = shape[c - k:]
            bows = np.zeros(sub_shape[:-1])
            for ctx, bow in self._bows.get(tuple(obs[i - k:i]), []):
                bows[tuple(sub_index[j][w] for j, w in enumerate(ctx))] = bow
            table = bows[..., None] + table[None, ...]
            for gram, lp in self._grams.get(tuple(obs[i - k:i + 1]), []):
                table[tuple(sub_index[j][w] for j, w in enumerate(gram))] = lp
        return table - math.log(shape[-1])

    def solve(self, obs: list[str]) -> tuple[float, float]:
        """(max over sentences of log p, log Z) by a forward pass whose
        state is the last order - 1 words."""
        span = self.order - 1
        alpha = {"max": None, "sum": None}
        for i in range(len(obs)):
            c = min(i, span)
            table = self._table(obs, i, c)
            for sr in alpha:
                full = table if alpha[sr] is None else alpha[sr][..., None] + table
                if c == span and span > 0:
                    full = full.max(axis=0) if sr == "max" \
                        else _logsumexp(full, axis=0)
                alpha[sr] = full
        return float(alpha["max"].max()), float(_logsumexp(alpha["sum"]))


class GridReference:
    """Transfer-matrix DP for a pairwise model on a rows x cols grid of
    binary nodes numbered row-major, given as `PairwiseModel.to_dict()`."""

    def __init__(self, model: dict, rows: int, cols: int):
        self.rows, self.cols = rows, cols
        self.psi = [np.asarray(n["log_psi"], dtype=float)
                    for n in sorted(model["nodes"], key=lambda n: n["id"])]
        self.phi = {(e["u"], e["v"]): np.asarray(e["log_phi"], dtype=float)
                    for e in model["edges"]}
        if len(self.psi) != rows * cols or \
                any(len(p) != 2 for p in self.psi):
            raise ValueError("grid reference needs binary nodes")
        for u, v in self.phi:
            if not (v == u + 1 and v % cols) and v != u + cols:
                raise ValueError(f"edge ({u},{v}) is not a grid edge")

    def score(self, config) -> float:
        total = sum(float(self.psi[i][x]) for i, x in enumerate(config))
        for (u, v), phi in self.phi.items():
            total += float(phi[config[u], config[v]])
        return total

    def solve(self) -> tuple[float, float]:
        """(MAP log score, log Z)."""
        cols = self.cols
        states = np.arange(2 ** cols)
        bits = (states[:, None] >> np.arange(cols)[None, :]) & 1

        def row_term(r: int) -> np.ndarray:
            base = r * cols
            out = np.zeros(len(states))
            for c in range(cols):
                out += self.psi[base + c][bits[:, c]]
                phi = self.phi.get((base + c, base + c + 1))
                if phi is not None:
                    out += phi[bits[:, c], bits[:, c + 1]]
            return out

        def link(r: int) -> np.ndarray:
            out = np.zeros((len(states), len(states)))
            for c in range(cols):
                phi = self.phi.get(((r - 1) * cols + c, r * cols + c))
                if phi is not None:
                    out += phi[bits[:, c][:, None], bits[:, c][None, :]]
            return out

        a_max = a_sum = row_term(0)
        for r in range(1, self.rows):
            trans = link(r)
            u = row_term(r)
            a_max = (a_max[:, None] + trans).max(axis=0) + u
            a_sum = _logsumexp(a_sum[:, None] + trans, axis=0) + u
        return float(a_max.max()), float(_logsumexp(a_sum))
