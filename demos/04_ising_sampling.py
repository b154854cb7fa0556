"""Exact sampling and MAP on a small Ising grid.

The proposal partitions the configuration space into subspaces, each
bounded by a spanning-tree relaxation: tree edges keep their exact
potentials, off-tree edges are replaced by their row maxima. Rejections
split the subspace with the most pointwise slack by conditioning on one
node. Small grids are enumerable, so everything is checked against the
exact answer at the end.
"""

import itertools

import numpy as np

from osstar import engine
from osstar.engine import Mode, StopConfig
from osstar.graphical import ising_grid
from osstar.piecewise import PiecewiseProposal, Policy, PolicyRefiner

model = ising_grid(3, 3, sigma=0.8, seed=5)
configs = np.array(list(itertools.product((0, 1), repeat=9)))
log_ps = model.log_p_many(configs)
log_z = float(np.logaddexp.reduce(log_ps))
print(f"3x3 grid, sigma 0.8: exact log Z = {log_z:.4f}")

# --- sampling ------------------------------------------------------------

pw = PiecewiseProposal(model)
print(f"root tree bound mass (log): {pw.mass_log():.4f}, "
      f"acceptance rate at the root: {np.exp(log_z - pw.mass_log()):.3f}")

res = engine.run(Mode.SAMPLING, model.log_p, pw,
                 PolicyRefiner(pw, Policy.MAX_SLACK, seed=1),
                 StopConfig(ar_window=100, ar_threshold=0.7,
                            max_trials=100_000), seed=2)
hist = res.history
print(f"refined to AR {hist.ar_window(100):.2f} with "
      f"{hist.refine_count} conditionings, {len(pw.leaves)} subspaces, "
      f"{pw.bound_builds} bounds built")

met = engine.metrics(hist, pw.mass_log())
print(f"log Z estimate from all trials: {met.z_hat_log:.4f} "
      f"(exact {log_z:.4f})")

# keep drawing from the frozen proposal (no refiner) until 20000 exact
# samples; each run of 10000 trials continues one generator's stream
rng = np.random.default_rng(8)
kept = list(res.samples)
while len(kept) < 20_000:
    kept += engine.run(Mode.SAMPLING, model.log_p, pw, None,
                       StopConfig(ar_threshold=1.1, max_trials=10_000),
                       rng).samples
samples = np.array(kept)
exact = np.exp(log_ps - log_z) @ configs
err = np.abs(samples.mean(axis=0) - exact).max()
print(f"node marginals from {len(samples)} exact samples are within "
      f"{err:.4f} of enumeration")

# --- optimization --------------------------------------------------------

pw = PiecewiseProposal(model)
res = engine.run(Mode.OPTIMIZATION, model.log_p, pw,
                 PolicyRefiner(pw, Policy.MAX_SLACK, seed=1),
                 StopConfig(max_trials=100_000), seed=2)
brute = configs[int(np.argmax(log_ps))]
print(f"\nMAP configuration: {''.join(map(str, res.argmax))}, "
      f"certificate gap {res.certificate_gap_log:.2e}")
print(f"brute force agrees: {''.join(map(str, brute))}")
assert tuple(brute) == res.argmax
