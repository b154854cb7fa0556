"""Comparing the four refinement policies on one grid.

Each policy gets the same refinement budget on the same 4x4 Ising model.
After every conditioning a round of trials measures the acceptance rate
and the running partition estimate; costs are deterministic units (one
per trial, one per bound build), so the numbers are reproducible.

  i    condition a random free node in the rejected leaf
  ii   condition the node with the largest pointwise slack at the reject
  iii  condition a random free node in the heaviest refinable leaf
  iv   greedy best-first: always the split with the largest exact
       mass improvement, paid for by eager lookahead bound builds

The last column is the estimated cost to produce one exact sample if
refinement stopped at that row: trials-per-accept plus bounds built.
Policy iv reaches the best acceptance rate but its lookahead makes each
refinement expensive, so its total cost never drops as low as policy ii.
"""

import itertools

import numpy as np

from osstar.graphical import ising_grid
from osstar.piecewise import Policy, policy_bench

model = ising_grid(4, 4, sigma=1.2, seed=3)
configs = np.array(list(itertools.product((0, 1), repeat=16)))
log_z = float(np.logaddexp.reduce(model.log_p_many(configs)))
print(f"4x4 grid, sigma 1.2: exact log Z = {log_z:.3f}\n")

for policy in Policy:
    rows, pw = policy_bench(model, policy, refinements=30,
                            trials_per_round=300, seed=0)
    ar_exact = float(np.exp(log_z - pw.mass_log()))
    best = min(rows, key=lambda r: r.tau_tot_est)
    print(f"policy {policy.value:>3}: exact AR after 30 refinements "
          f"{ar_exact:.3f}, cheapest row at refinement "
          f"{best.refinement_index} with estimated cost "
          f"{best.tau_tot_est:.1f}")

print("\npolicy ii, cost trajectory (every 5th refinement):")
rows, _ = policy_bench(model, Policy.MAX_SLACK, refinements=30,
                       trials_per_round=300, seed=0)
print(f"{'refinement':>10} {'AR':>6} {'bounds':>7} {'cost/sample':>12}")
for r in rows[::5]:
    print(f"{r.refinement_index:>10} {r.ar_hat:>6.3f} "
          f"{r.tau_ref:>7.0f} {r.tau_tot_est:>12.1f}")
