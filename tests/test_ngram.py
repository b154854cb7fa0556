"""ARPA parsing, backoff evaluation, max-backoff bounds, keypad lattices."""

from __future__ import annotations

import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osstar import automaton as am
from osstar.ngram import (
    MaxBackoffTables, NGramLM, NoCandidate, OrderUnsupported, ParseError,
    build_lattice, keypad_encode, load_arpa, load_vocab,
)

from lm_fixtures import markov_corpus, train_arpa

LN10 = math.log(10.0)
DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"

# Hand-written trigram over {a, b}: probabilities are powers of ten so the
# log10 -> ln conversion is exact.
TINY_ARPA = """
\\data\\
ngram 1=2
ngram 2=2
ngram 3=1

\\1-grams:
-0.3	a	-0.2
-0.7	b	-0.1

\\2-grams:
-0.4	a a	-0.3
-0.5	a b

\\3-grams:
-0.6	a a b

\\end\\
"""


def oracle_cond(lm: NGramLM, word: str, context: tuple) -> float:
    """Independent backoff recursion used to cross-check the library."""
    context = tuple(context[-(lm.order - 1):]) if lm.order > 1 else ()
    if context + (word,) in lm.logprob:
        return lm.logprob[context + (word,)]
    if not context:
        return -math.inf
    return lm.backoff.get(context, 0.0) + oracle_cond(lm, word, context[1:])


def test_tiny_arpa_parsing_and_backoff_chain():
    lm = load_arpa(TINY_ARPA)
    assert lm.order == 3
    assert lm.vocab == ["a", "b"]
    assert math.isclose(lm.cond_logprob("a", ()), -0.3 * LN10)
    # explicit trigram
    assert math.isclose(lm.cond_logprob("b", ("a", "a")), -0.6 * LN10)
    # backoff once: bow(a a) + p(a | a)
    assert math.isclose(lm.cond_logprob("a", ("a", "a")),
                        (-0.3 - 0.4) * LN10)
    # backoff twice: bow(b a)=absent -> bow applies only for listed contexts
    assert math.isclose(lm.cond_logprob("b", ("b", "a")),
                        -0.5 * LN10)
    # context clipped to order - 1
    assert math.isclose(lm.cond_logprob("b", ("b", "a", "a")),
                        lm.cond_logprob("b", ("a", "a")))


def test_parse_error_reports_line_number():
    bad = TINY_ARPA.replace("-0.5\ta b", "-0.5\ta b c d")
    with pytest.raises(ParseError) as err:
        load_arpa(bad)
    assert err.value.line == 13
    with pytest.raises(ParseError):
        load_arpa(TINY_ARPA.replace("\\end\\", ""))
    with pytest.raises(ParseError):
        load_arpa(TINY_ARPA.replace("-0.4", "oops"))
    with pytest.raises(ParseError):
        load_arpa(TINY_ARPA.replace("ngram 2=2", "ngram 2=3"))


@pytest.mark.parametrize("old, line", [("-0.5\ta b", 13), ("-0.2", 8),
                                       ("-0.6\ta a b", 16)])
@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "+inf", "1e308"])
def test_nan_or_positive_infinite_numbers_are_parse_errors(old, line, bad):
    # "-0.2" is the backoff of unigram a; 1e308 overflows once scaled to ln
    text = TINY_ARPA.replace(old, old.replace(old.split("\t")[0], bad))
    with pytest.raises(ParseError, match="NaN or \\+inf") as err:
        load_arpa(text)
    assert err.value.line == line


def test_negative_infinity_is_log_zero():
    lm = load_arpa(TINY_ARPA.replace("-0.5\ta b", "-inf\ta b")
                   .replace("-0.2", "-inf"))
    assert lm.logprob[("a", "b")] == -math.inf
    assert lm.backoff[("a",)] == -math.inf


def test_order_above_five_rejected():
    with pytest.raises(OrderUnsupported):
        NGramLM(6, {}, {})


@pytest.fixture(scope="module")
def trained_lm():
    rng = np.random.default_rng(10)
    vocab = ["dog", "fog", "gone", "good"]
    corpus = markov_corpus(rng, vocab, 60, 6)
    return load_arpa(train_arpa(corpus, 3, vocab))


def test_trained_lm_matches_oracle(trained_lm):
    lm = trained_lm
    for ctx_len in range(3):
        for ctx in itertools.product(lm.vocab, repeat=ctx_len):
            for w in lm.vocab:
                assert math.isclose(lm.cond_logprob(w, ctx),
                                    oracle_cond(lm, w, ctx),
                                    rel_tol=0, abs_tol=1e-12)


def test_trained_lm_conditionals_normalized(trained_lm):
    lm = trained_lm
    for ctx_len in range(3):
        for ctx in itertools.product(lm.vocab, repeat=ctx_len):
            assert lm.conditional_mass(ctx) <= 1.0 + 1e-6
            assert lm.conditional_mass(ctx) > 0.99


def brute_force_max(lm: NGramLM, word: str, context: tuple,
                    full_len: int) -> float:
    """Enumerate every context extension, the oracle for max-backoffs."""
    need = full_len - len(context)
    best = -math.inf
    for ext in itertools.product(lm.words, repeat=need):
        best = max(best, oracle_cond(lm, word, ext + context))
    return best


def test_max_backoff_matches_brute_force(trained_lm):
    lm = trained_lm
    tables = MaxBackoffTables(lm)
    for full_len in range(3):
        for clen in range(full_len + 1):
            for ctx in itertools.product(lm.words, repeat=clen):
                for w in lm.words:
                    got = tables.value(w, ctx, full_len)
                    want = brute_force_max(lm, w, ctx, full_len)
                    assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12), \
                        (w, ctx, full_len)


def test_max_backoff_monotone_in_context(trained_lm):
    # Extending a context can only lower the bound; the full context is exact.
    lm = trained_lm
    tables = MaxBackoffTables(lm)
    full = lm.order - 1
    for ctx in itertools.product(lm.words, repeat=full):
        for w in lm.words:
            chain = [tables.value(w, ctx[len(ctx) - k:], full)
                     for k in range(full + 1)]
            for shallow, deep in zip(chain, chain[1:]):
                assert shallow >= deep - 1e-12
            assert chain[-1] == lm.cond_logprob(w, ctx)


def test_max_backoff_order_cap(trained_lm):
    # A cap of 2 turns the trigram into a bigram model.
    lm = trained_lm
    tables = MaxBackoffTables(lm, order=2)
    for w in lm.words:
        got = tables.value(w, (), 2)
        want = max(oracle_cond(lm, w, (u,)) for u in lm.words)
        assert math.isclose(got, want, abs_tol=1e-12)


class ScalarMaxBackoff:
    """The max-backoff as one recursive call per (word, context, full_len):
    the reference the row tables must match bit for bit."""

    def __init__(self, lm: NGramLM, order: int | None = None):
        self.lm = lm
        self.order = lm.order if order is None else min(order, lm.order)
        self._cache: dict[tuple, float] = {}
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
        self._suffixes = suf

    def value(self, word: str, context: tuple, full_len: int) -> float:
        full_len = min(full_len, self.order - 1)
        if len(context) > full_len:
            context = context[len(context) - full_len:]
        key = (word, context, full_len)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if len(context) == full_len:
            best = self.lm.cond_logprob(word, context)
        else:
            interesting = [u for u in self.lm.words
                           if ((u,) + context) in self._suffixes]
            best = (self.lm.cond_logprob(word, context)
                    if len(interesting) < len(self.lm.words) else -math.inf)
            for u in interesting:
                best = max(best, self.value(word, (u,) + context, full_len))
        self._cache[key] = best
        return best


def contexts_up_to(lm: NGramLM, full_len: int, exhaustive: int = 2):
    """Every context of at most `exhaustive` words, plus every longer one
    that is a stored context or a stored context with one older word."""
    out = set()
    for k in range(min(full_len, exhaustive) + 1):
        out.update(itertools.product(lm.words, repeat=k))
    words = set(lm.words)
    stored = {g[j:-1] for g in lm.logprob for j in range(len(g) - 1)}
    for c in stored:
        if words.issuperset(c) and len(c) <= full_len:
            out.add(c)
            if len(c) < full_len:
                out.update((u,) + c for u in lm.words)
    return sorted(out)


def assert_rows_match_scalar(lm: NGramLM, exhaustive: int = 2) -> int:
    """Every word plus one out-of-LM word, every context up to full_len,
    every order cap: the tables equal the scalar recursion exactly."""
    checked = 0
    for cap in range(2, lm.order + 1):
        tables = MaxBackoffTables(lm, order=cap)
        oracle = ScalarMaxBackoff(lm, order=cap)
        for full_len in range(cap):
            for ctx in contexts_up_to(lm, full_len, exhaustive):
                for w in lm.words + ["zzzz"]:
                    got = tables.value(w, ctx, full_len)
                    assert type(got) is float
                    assert got == oracle.value(w, ctx, full_len), \
                        (cap, w, ctx, full_len)
                    checked += 1
    return checked


@pytest.mark.parametrize("source", ["trained", "sms24.arpa",
                                    "keypad4663.arpa"])
def test_max_backoff_rows_equal_scalar_recursion(trained_lm, source):
    lm = (trained_lm if source == "trained"
          else load_arpa((DATA / source).read_text()))
    assert assert_rows_match_scalar(lm) > 0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 5),
       n_words=st.integers(2, 3), n_sentences=st.integers(2, 30),
       length=st.integers(2, 7))
def test_max_backoff_rows_equal_scalar_on_random_lms(seed, order, n_words,
                                                     n_sentences, length):
    rng = np.random.default_rng(seed)
    vocab = ["dog", "fog", "gone"][:n_words]
    corpus = markov_corpus(rng, vocab, n_sentences, length)
    lm = load_arpa(train_arpa(corpus, order, vocab))
    assert assert_rows_match_scalar(lm, exhaustive=order - 1) > 0


def test_build_q0_reads_rows_not_conditionals(trained_lm, monkeypatch):
    # q0 comes from whole rows: no scalar conditional is evaluated, and a
    # (context, full_len) row is built at most once, even across sentences.
    built = []
    build_row = MaxBackoffTables._build_row
    cond_calls = []
    cond = NGramLM.cond_logprob

    def counting_build(self, context, full_len):
        built.append((context, full_len))
        return build_row(self, context, full_len)

    def counting_cond(self, word, context):
        cond_calls.append((word, context))
        return cond(self, word, context)

    monkeypatch.setattr(MaxBackoffTables, "_build_row", counting_build)
    monkeypatch.setattr(NGramLM, "cond_logprob", counting_cond)
    tables = MaxBackoffTables(trained_lm)
    for obs in (["364", "4663", "364", "4663", "364"],
                ["4663", "4663", "364", "364"]):
        lattice = build_lattice(obs, trained_lm.words)
        am.build_q0(lattice, tables)
    assert cond_calls == []
    assert built and len(built) == len(set(built))
    assert {((), k) for k in range(trained_lm.order)} <= set(built)


def test_keypad_encoding():
    assert keypad_encode("dog") == "364"
    assert keypad_encode("fog") == "364"
    assert keypad_encode("gone") == "4663"
    with pytest.raises(ValueError):
        keypad_encode("naïve")


def test_lattice_exact_match_splits_mass():
    lattice = build_lattice(["364"], ["dog", "fog", "dig", "fig"])
    col = dict(lattice.candidates[0])
    assert set(col) == {"dog", "fog"}
    for w in col:
        assert math.isclose(col[w], math.log(0.5))


def test_lattice_unique_match_is_certain():
    lattice = build_lattice(["4663"], ["gone", "dog"])
    assert lattice.candidates[0] == [("gone", 0.0)]


def test_lattice_adjacent_key_noise():
    # bog encodes 264; observing 364 flips digit 0 from 2 to its neighbour 3.
    lattice = build_lattice(["364"], ["dog", "fog", "bog"],
                            noise_epsilon=0.1)
    col = dict(lattice.candidates[0])
    assert math.isclose(col["dog"], math.log(0.9 / 2))
    assert math.isclose(col["fog"], math.log(0.9 / 2))
    assert math.isclose(col["bog"], math.log(0.1 / 3))
    # 464 differs from 364 by a non-adjacent flip (4 vs 3): excluded
    lattice = build_lattice(["364"], ["dog", "gog"], noise_epsilon=0.1)
    assert "gog" not in dict(lattice.candidates[0])


def test_lattice_no_candidate():
    with pytest.raises(NoCandidate):
        build_lattice(["999"], ["dog", "fog"])
    with pytest.raises(NoCandidate):
        build_lattice(["36a"], ["dog"])


def test_lattice_pobs_nonpositive():
    lattice = build_lattice(["364", "4663"], ["dog", "fog", "gone", "good"],
                            noise_epsilon=0.2)
    for col in lattice.candidates:
        for _, lp in col:
            assert lp <= 0.0


def test_load_vocab():
    assert load_vocab("dog\nfog\n\ndog\n") == ["dog", "fog"]
    with pytest.raises(ValueError):
        load_vocab("Dog\n")
    with pytest.raises(ValueError):
        load_vocab("d0g\n")
