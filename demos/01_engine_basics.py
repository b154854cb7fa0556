"""The rejection engine on a five-point toy target.

A proposal here is just a table of per-point upper bounds. Each rejected
trial triggers a one-step refinement that snaps the bound at the rejected
point down to the target, so the proposal mass shrinks toward the true
total and the acceptance rate climbs toward one.
"""

import math

import numpy as np

from osstar import engine
from osstar.engine import Mode, StopConfig

# target over five labelled points, unnormalized
TARGET = {"a": 0.30, "b": 0.05, "c": 0.22, "d": 0.01, "e": 0.10}
# optimistic starting bounds, one per point
BOUNDS = {"a": 0.60, "b": 0.40, "c": 0.25, "d": 0.35, "e": 0.30}


class TableProposal:
    """Categorical proposal proportional to a table of bounds."""

    def __init__(self, bounds):
        self.bounds = dict(bounds)

    def mass_log(self):
        return math.log(sum(self.bounds.values()))

    def draw(self, rng):
        keys = sorted(self.bounds)
        weights = np.array([self.bounds[k] for k in keys])
        k = keys[rng.choice(len(keys), p=weights / weights.sum())]
        return k, math.log(self.bounds[k])

    def argmax(self):
        k = max(sorted(self.bounds), key=self.bounds.get)
        return k, math.log(self.bounds[k])


class SnapRefiner:
    """One-step refinement: make the bound exact at the rejected point."""

    def refine(self, proposal, config):
        proposal.bounds[config] = TARGET[config]
        return proposal


def target(config):
    return math.log(TARGET[config])


# --- sampling: run until the last-500 acceptance rate reaches 0.9 ---------

stop = StopConfig(ar_window=500, ar_threshold=0.9, max_trials=10_000)
res = engine.run(Mode.SAMPLING, target, TableProposal(BOUNDS),
                 SnapRefiner(), stop, seed=0)
hist = res.history
print(f"sampling: {hist.trial_count} trials, {hist.accept_count} accepts, "
      f"{hist.refine_count} refinements")
print(f"final acceptance rate (last 500): {hist.ar_window(500):.2f}")

met = engine.metrics(hist, res.final_proposal.mass_log())
print(f"true total mass {sum(TARGET.values()):.3f}, "
      f"estimated {math.exp(met.z_hat_log):.3f}")

freq = {k: 0 for k in TARGET}
for s in res.samples:
    freq[s] += 1
print("sample frequencies vs target probabilities:")
z = sum(TARGET.values())
for k in sorted(TARGET):
    print(f"  {k}: {freq[k] / len(res.samples):.3f} vs {TARGET[k] / z:.3f}")

# --- optimization: same loop, max-mode draws, stops with a certificate ----

res = engine.run(Mode.OPTIMIZATION, target, TableProposal(BOUNDS),
                 SnapRefiner(), StopConfig(max_trials=100), seed=0)
print(f"\noptimization: argmax {res.argmax!r} after "
      f"{res.history.trial_count} trials")
print(f"certificate gap (log): {res.certificate_gap_log}")
assert res.argmax == "a"
