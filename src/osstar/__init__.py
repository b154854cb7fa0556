"""Exact sampling and optimization by adaptive rejection on refinable
upper bounds, with sentence-lattice and pairwise-model backends."""

from .engine import (CSV_COLUMNS, DominationViolated, EmptyHistory, History,
                     Metrics, Mode, RefinementExhausted, RunResult,
                     StopConfig, TrialRecord, metrics, run, should_stop, trial,
                     write_trial_csv)
from .ngram import (MaxBackoffTables, NGramLM, NoCandidate, OrderUnsupported,
                    ParseError, TokenLattice, build_lattice, keypad_encode,
                    load_arpa, load_vocab)
from .automaton import (AutomatonRefiner, HmmTarget, NoRefinementAvailable,
                        QAutomaton, build_q0, refine, report_ngram_counts,
                        sample_path, viterbi)
from .graphical import (AlreadyConditioned, Forest, PairwiseModel,
                        SubspaceProposal, ising_grid, max_spanning_forest)
from .piecewise import (BenchRow, ImprovementQueue, NoUnassignedNode,
                        PiecewiseProposal, Policy, PolicyRefiner,
                        policy_bench, select_refinement, write_bench_csv)

__version__ = "0.1.0"

__all__ = [
    "AlreadyConditioned", "AutomatonRefiner", "BenchRow", "CSV_COLUMNS",
    "DominationViolated", "EmptyHistory", "Forest",
    "History", "HmmTarget", "ImprovementQueue", "MaxBackoffTables",
    "Metrics", "Mode", "NGramLM", "NoCandidate", "NoRefinementAvailable",
    "NoUnassignedNode", "OrderUnsupported", "PairwiseModel", "ParseError",
    "PiecewiseProposal", "Policy", "PolicyRefiner", "QAutomaton",
    "RefinementExhausted", "RunResult", "StopConfig", "SubspaceProposal",
    "TokenLattice", "TrialRecord", "build_lattice", "build_q0",
    "ising_grid", "keypad_encode", "load_arpa", "load_vocab",
    "max_spanning_forest", "metrics", "policy_bench", "refine",
    "report_ngram_counts", "run", "sample_path", "select_refinement",
    "should_stop", "trial", "viterbi", "write_bench_csv", "write_trial_csv",
]
