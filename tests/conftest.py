"""Shared toy fixtures and the hypothesis profile of tests/mutants.py."""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import Phase, settings


class TableProposal:
    """Proposal over a finite space given as {config: log_q}.

    The smallest config wins argmax ties, matching the library-wide rule.
    """

    def __init__(self, table: dict):
        self.table = dict(table)

    def draw(self, rng: np.random.Generator):
        configs = sorted(self.table)
        logs = np.array([self.table[c] for c in configs])
        probs = np.exp(logs - logs.max())
        probs /= probs.sum()
        idx = rng.choice(len(configs), p=probs)
        return configs[idx], self.table[configs[idx]]

    def argmax(self):
        best = max(sorted(self.table), key=lambda c: self.table[c])
        return best, self.table[best]

    def mass_log(self) -> float:
        return float(np.logaddexp.reduce(sorted(self.table.values())))


class TableTarget:
    def __init__(self, table: dict):
        self.table = dict(table)

    def __call__(self, config) -> float:
        return self.table[config]


class SnapToTargetRefiner:
    """Refiner that sets q(x) = p(x) at the rejected point."""

    def __init__(self, target: TableTarget):
        self.target = target

    def refine(self, proposal: TableProposal, config):
        proposal.table[config] = self.target.table[config]
        return proposal


def lattice_paths(lattice):
    """Every word sequence the lattice admits, as tuples."""
    return itertools.product(*([w for w, _ in col]
                               for col in lattice.candidates))


def two_point():
    """X = {a, b} with p = (1, 3) and q = (2, 4)."""
    target = TableTarget({("a",): math.log(1.0), ("b",): math.log(3.0)})
    proposal = TableProposal({("a",): math.log(2.0), ("b",): math.log(4.0)})
    return target, proposal


# tests/mutants.py runs its tests under this profile, stopping at the first
# failure with nothing saved; it passes --hypothesis-seed=0, which fixes the
# examples, where derandomize would derive them from each test's source
settings.register_profile("mutants", database=None,
                          phases=[Phase.explicit, Phase.generate])
