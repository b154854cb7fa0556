"""Exact posterior sampling over sentences.

Same machinery as decoding, run in sum mode: paths are drawn from the
bound automaton and accepted with probability p/q. Every reject tightens
every loose context on its path, and the beta table is rebuilt only after
a refinement. Every accepted sentence is an exact draw from the posterior,
no burn-in, no correlation.
"""

import os
from collections import Counter

from osstar import engine
from osstar.engine import Mode, StopConfig
from osstar.ngram import MaxBackoffTables, build_lattice, load_arpa, \
    load_vocab
from osstar.automaton import AutomatonRefiner, HmmTarget, build_q0

DATA = os.path.join(os.path.dirname(__file__), "data")


def read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


lm = load_arpa(read("sms24.arpa"))
vocab = load_vocab(read("sms24.vocab"))
obs = read("sms24.obs").split()

lattice = build_lattice(obs, vocab)
q = build_q0(lattice, MaxBackoffTables(lm))
target = HmmTarget(lm, lattice)

n_paths = 1
for col in lattice.candidates:
    n_paths *= len(col)
print(f"observations: {' '.join(obs)}")
print(f"{n_paths} candidate sentences, initial bound mass "
      f"{q.mass_log():.3f} (log)")

stop = StopConfig(ar_window=100, ar_threshold=0.5, max_trials=50_000)
res = engine.run(Mode.SAMPLING, target, q, AutomatonRefiner(), stop,
                 seed=0)
hist = res.history

print(f"\nstopped at windowed acceptance rate "
      f"{hist.ar_window(100):.2f} >= 0.5")
print(f"trials: {hist.trial_count}, accepts: {hist.accept_count}, "
      f"refinements: {hist.refine_count}, beta tables built: "
      f"{q.table_builds}")

met = engine.metrics(hist, q.mass_log())
print(f"posterior mass estimate (log): {met.z_hat_log:.3f}, "
      f"final bound mass (log): {q.mass_log():.3f}")

# acceptance-rate trajectory, one line per twenty trials
print("\nacceptance rate by trial block:")
for start in range(0, hist.trial_count, 20):
    block = hist.records[start:start + 20]
    if block:
        rate = sum(r.accepted for r in block) / len(block)
        print(f"  trials {start:>5}-{start + len(block):>5}: {rate:.2f}")

print("\nmost frequent exact samples:")
freq = Counter(res.samples)
for words, n in freq.most_common(5):
    print(f"  {n / len(res.samples):.3f}  {' '.join(words)}")
