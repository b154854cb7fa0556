"""ARPA parsing, backoff evaluation, max-backoff bounds, keypad lattices."""

from __future__ import annotations

import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osstar import automaton as am
from osstar import ngram
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

# TINY_ARPA with a second unigram a on line 10, declared in the count
DUPLICATE_ARPA = (TINY_ARPA.replace("ngram 1=2", "ngram 1=3")
                  .replace("-0.7\tb\t-0.1\n", "-0.7\tb\t-0.1\n-0.9\ta\n"))

# Only pseudo tokens: no word a typed sentence can contain.
NO_WORDS_ARPA = """
\\data\\
ngram 1=3
ngram 2=2
ngram 3=1

\\1-grams:
-0.5	<s>	-0.3
-0.4	</s>
-0.6	<unk>	-0.2

\\2-grams:
-0.2	<s> <unk>	-0.1
-0.1	<unk> </s>

\\3-grams:
-0.3	<s> <unk> </s>

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
    head = "\\data\\\nngram 1=1\n"
    for text, line, match in [
            (TINY_ARPA.replace("-0.5\ta b", "-0.5\ta b c d"), 13,
             "expected 3 or 4 fields, got 5"),
            (TINY_ARPA.replace("\\end\\", ""), 18, r"missing \\end\\"),
            (TINY_ARPA.replace("-0.4", "oops"), 12, "bad float"),
            (TINY_ARPA.replace("ngram 2=2", "ngram 2=3"), 18,
             "declared 3 2-grams, found 2"),
            ("\\data\\\nngram 1=x\n", 2, "bad count declaration"),
            (head + "1-grams:\n", 3, "expected n-gram section"),
            (head + "\\x-grams:\n", 3, "bad section header"),
            (head + "\\2-grams:\n", 3, "section order 2 not declared"),
            (head + "\\1-grams:\n-0.1 a\n\\end\\\nmore\n", 6,
             r"content after \\end\\"),
            ("hello\n", 1, r"missing \\data\\ header"),
            # an empty text has one line, as an editor shows it
            ("", 1, r"missing \\data\\ header"),
            # a \data\ block without counts fails at its next line
            ("\\data\\\n\\end\\\n", 2, "expected n-gram section")]:
        with pytest.raises(ParseError, match=match) as err:
            load_arpa(text)
        assert err.value.line == line, text


@pytest.mark.parametrize("old, line", [("-0.5\ta b", 13), ("-0.2", 8),
                                       ("-0.6\ta a b", 16)])
@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "+inf", "1e308"])
def test_nan_or_positive_infinite_numbers_are_parse_errors(old, line, bad):
    # "-0.2" is the backoff of unigram a; 1e308 overflows once scaled to ln
    text = TINY_ARPA.replace(old, old.replace(old.split("\t")[0], bad))
    with pytest.raises(ParseError, match="NaN or \\+inf") as err:
        load_arpa(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, line, gram", [
    (DUPLICATE_ARPA, 10, "1-gram 'a'"),
    (TINY_ARPA.replace("ngram 2=2", "ngram 2=3")
     .replace("-0.5\ta b\n", "-0.5\ta b\n-0.1\ta a\n"), 14, "2-gram 'a a'"),
], ids=["unigram", "bigram"])
def test_duplicate_ngram_is_a_parse_error(text, line, gram):
    with pytest.raises(ParseError, match=f"duplicate {gram}") as err:
        load_arpa(text)
    assert err.value.line == line


def test_negative_infinity_is_log_zero():
    lm = load_arpa(TINY_ARPA.replace("-0.5\ta b", "-inf\ta b")
                   .replace("-0.2", "-inf"))
    assert lm.logprob[("a", "b")] == -math.inf
    assert lm.backoff[("a",)] == -math.inf


def test_order_above_five_rejected():
    with pytest.raises(OrderUnsupported, match="order 6 not supported"):
        NGramLM(6, {}, {})
    with pytest.raises(OrderUnsupported, match="order 6 not supported"):
        load_arpa("\\data\\\nngram 6=0\n\\6-grams:\n\\end\\\n")
    with pytest.raises(OrderUnsupported, match="order must be >= 1"):
        NGramLM(0, {}, {})


def test_capped_lm_reads_the_same_model_at_the_lower_order():
    lm = load_arpa((DATA / "sms24.arpa").read_text())
    sentence = ("mgz", "gvt", "wqq", "gvu", "xhp", "qxc")
    assert lm.order == 5
    for cap in (0, -3):
        with pytest.raises(OrderUnsupported, match="order must be >= 1"):
            lm.capped(cap)
    for cap in range(1, 8):
        capped = lm.capped(cap)
        assert capped.order == min(cap, lm.order)
        assert capped.logprob is lm.logprob and capped.backoff is lm.backoff
        for i in range(len(sentence)):
            ctx = sentence[:i]
            clipped = ctx[max(0, i - (capped.order - 1)):]
            for w in lm.words:
                assert capped.cond_logprob(w, ctx) == \
                    lm.cond_logprob(w, clipped), (cap, w, ctx)


@pytest.fixture(scope="module")
def trained_lm():
    rng = np.random.default_rng(10)
    vocab = ["dog", "fog", "gone", "good"]
    corpus = markov_corpus(rng, vocab, 60, 6)
    return load_arpa(train_arpa(corpus, 3, vocab))


@pytest.fixture(scope="module")
def pseudo_tokens_lm():
    # sentences wrapped in <s> ... </s>, some words typed as <unk>: the LM
    # has <s> w and w </s> grams and pseudo tokens inside contexts
    rng = np.random.default_rng(11)
    vocab = ["dog", "fog", "gone", "good"]
    corpus = [["<s>"] + [w if rng.random() > 0.15 else "<unk>" for w in s]
              + ["</s>"] for s in markov_corpus(rng, vocab, 40, 5)]
    return load_arpa(train_arpa(corpus, 3, vocab + ["<s>", "</s>", "<unk>"]))


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
            mass = sum(math.exp(lm.cond_logprob(w, ctx)) for w in lm.vocab)
            assert 0.99 < mass <= 1.0 + 1e-6


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
    tables = MaxBackoffTables(lm.capped(2))
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
    """Every token plus one out-of-LM word, every order cap, every context
    up to full_len and every row the tables hold: the tables equal the
    scalar recursion exactly."""
    checked = 0
    for cap in range(1, lm.order + 1):
        tables = MaxBackoffTables(lm.capped(cap))
        oracle = ScalarMaxBackoff(lm, order=cap)
        for full_len in range(cap):
            held = {c for c in tables._index if len(c) <= full_len}
            for ctx in sorted(held.union(
                    contexts_up_to(lm, full_len, exhaustive))):
                for w in lm.vocab + ["zzzz"]:
                    got = tables.value(w, ctx, full_len)
                    assert type(got) is float
                    assert got == oracle.value(w, ctx, full_len), \
                        (cap, w, ctx, full_len)
                    checked += 1
    return checked


@pytest.mark.parametrize("source", ["trained", "pseudo_tokens", "sms24.arpa",
                                    "keypad4663.arpa"])
def test_max_backoff_rows_equal_scalar_recursion(request, source):
    lm = (load_arpa((DATA / source).read_text()) if source.endswith(".arpa")
          else request.getfixturevalue(f"{source}_lm"))
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


_TOKENS = ["dog", "fog", "gone", "<s>", "</s>", "<unk>"]
_GRAMS = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4).map(tuple)


@settings(max_examples=50, deadline=None)
@given(order=st.integers(1, 4),
       logprob=st.dictionaries(_GRAMS, st.floats(-5, 0) | st.just(-math.inf),
                               max_size=25),
       backoff=st.dictionaries(_GRAMS, st.floats(-3, 3) | st.just(-math.inf),
                               max_size=8))
def test_max_backoff_rows_equal_scalar_on_arbitrary_lms(order, logprob,
                                                        backoff):
    # grams and backoff keys drawn at random: not closed under suffixes or
    # prefixes, pseudo tokens anywhere, positive backoffs, perhaps no
    # sentence word at all, as a pruned or hand-edited ARPA file may be
    lm = NGramLM(order, {g: lp for g, lp in logprob.items()
                         if len(g) <= order}, backoff)
    assert assert_rows_match_scalar(lm, exhaustive=order - 1) > 0


def test_build_q0_reads_rows_not_conditionals(trained_lm, monkeypatch):
    # The tables build every row when the LM is loaded, each once, from the
    # stored grams: no scalar conditional is evaluated.  q0 then reads whole
    # rows and computes none, even across sentences.
    cond_calls, cond_builds, max_builds = [], [], []
    cond = NGramLM.cond_logprob
    cond_rows, max_rows = ngram._cond_rows, ngram._max_rows

    def counting_cond(self, word, context):
        cond_calls.append((word, context))
        return cond(self, word, context)

    def counting_cond_rows(cx, width):
        cond_builds.append(width)
        return cond_rows(cx, width)

    def counting_max_rows(cx, cond, full_len):
        max_builds.append(full_len)
        return max_rows(cx, cond, full_len)

    monkeypatch.setattr(NGramLM, "cond_logprob", counting_cond)
    monkeypatch.setattr(ngram, "_cond_rows", counting_cond_rows)
    monkeypatch.setattr(ngram, "_max_rows", counting_max_rows)
    tables = MaxBackoffTables(trained_lm)
    order = trained_lm.order
    assert cond_calls == []
    # one pass builds every conditional row, one per full length the rest;
    # each holds one row per context of at most full_len words
    assert len(cond_builds) == 1 and max_builds == list(range(order))
    for k in range(order):
        assert len(tables._rows[k]) == sum(len(c) <= k for c in tables._index)
        assert tables._rows[k][tables._index[()]].shape == (tables._width,)

    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(np, name)

    monkeypatch.setattr(ngram, "np", CountingNumpy())
    for obs in (["364", "4663", "364", "4663", "364"],
                ["4663", "4663", "364", "364"]):
        lattice = build_lattice(obs, trained_lm.words)
        am.build_q0(lattice, tables)
    assert calls == [] and cond_calls == []
    assert len(cond_builds) == 1 and len(max_builds) == order


def test_lm_without_sentence_words():
    # No sentence word has a probability, and no context has an extension:
    # every bound of a sentence word, and every bound over a longer context,
    # is -inf; q0 is a clean NoCandidate.
    lm = load_arpa(NO_WORDS_ARPA)
    assert lm.words == [] and lm.order == 3
    tables = MaxBackoffTables(lm)
    for full_len in range(lm.order):
        for ctx in [(), ("dog",), ("<s>",), ("<unk>",), ("dog", "<s>"),
                    ("<s>", "<unk>")]:
            if len(ctx) > full_len:
                continue
            for w in lm.vocab + ["dog"]:
                if w == "dog" or len(ctx) < full_len:
                    assert tables.value(w, ctx, full_len) == -math.inf
    assert assert_rows_match_scalar(lm) > 0
    with pytest.raises(NoCandidate, match="position 0"):
        am.build_q0(build_lattice(["364"], ["dog"]), tables)


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
    with pytest.raises(ValueError, match=r"noise_epsilon must be in \[0, 1\)"):
        build_lattice(["364"], ["dog"], noise_epsilon=1.0)


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
