"""The four benchmark workloads: inputs from a seed, timed solves, checks.

Every workload is a closed loop in one single-threaded process: instance k
is set up and solved only after instance k-1 has finished.  The instance
count K is fixed by --seconds and the workload's nominal rate, so one
(seed, seconds) pair always solves the same instances and the per-instance
counts repeat exactly.

A sentence run trains several language models and decodes a block of
sentences with each, loading each LM once as a user decoding many
sentences would.  One LM per run made the run's speed a property of that
one LM: trials per sentence moved by 20% from seed to seed.  Grid
workloads build a fresh model per instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from lm_fixtures import cluster_vocab, markov_corpus, train_arpa
from osstar import automaton, engine, graphical, ngram, piecewise
from osstar.engine import Mode, StopConfig

from cpu import CpuPicker
from reference import GridReference, SentenceReference

perf_counter = time.perf_counter

GAP_TOL = 1e-9        # certificate tolerance, as in `osstar selftest`
SCORE_TOL = 1e-9      # optimum score vs the exact reference
Z_SIGMAS = 5.0        # log Z-hat within this many standard errors
AR_WINDOW = 100       # the engine's default stop-rule window
MAX_TRIALS = 200_000  # an instance that needs more has failed

HMM_SENTENCES = 120   # training sentences per LM; instances are among them


@dataclass(frozen=True)
class Workload:
    name: str
    family: str            # "hmm" or "gm"
    mode: Mode
    rate: float            # nominal instances per second, sets K
    size: int              # sentence length, or grid side
    lms: int = 0           # LMs per sentence run
    ar_threshold: float = 0.0
    frozen_trials: int = 0

    def instances(self, seconds: float) -> int:
        k = max(1, round(self.rate * seconds))
        if self.family == "gm":
            return k
        per_lm = min(HMM_SENTENCES, max(1, round(k / self.lms)))
        return per_lm * self.lms


GRID_SIGMA = 0.5

WORKLOADS = {w.name: w for w in [
    Workload("hmm_decode", "hmm", Mode.OPTIMIZATION, rate=3.2, size=12,
             lms=8),
    Workload("hmm_sample", "hmm", Mode.SAMPLING, rate=2.9, size=8, lms=32,
             ar_threshold=0.2, frozen_trials=1000),
    Workload("gm_optimize", "gm", Mode.OPTIMIZATION, rate=15.0, size=5),
    Workload("gm_sample", "gm", Mode.SAMPLING, rate=6.5, size=5,
             ar_threshold=0.7, frozen_trials=200),
]}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Instance:
    """One solved instance: timings, counts and check outcome."""

    k: int
    input_sha: str = ""
    cold: bool = True          # set-up built everything from the inputs
    setup_s: float = 0.0
    solve_s: float = 0.0
    frozen_s: float = 0.0
    trials: int = 0
    refinements: int = 0
    accepts: int = 0
    builds: int = 0
    frozen_trials: int = 0
    frozen_accepts: int = 0
    size: dict = field(default_factory=dict)
    config_sha: str = ""
    frozen_sha: str = ""
    gap: float | None = None
    checks: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


# -- inputs ----------------------------------------------------------------

class SentenceModel:
    """One order-5 LM over 64 words (8 keypad codes x 8 homographs),
    trained with tests/lm_fixtures on HMM_SENTENCES sentences."""

    def __init__(self, seed: int, length: int, j: int):
        rng = np.random.default_rng([seed, length, j])
        self.vocab = cluster_vocab(rng, 8, 8)
        corpus = markov_corpus(rng, self.vocab, HMM_SENTENCES, length)
        self.arpa = train_arpa(corpus, 5, self.vocab)
        self.obs = [[ngram.keypad_encode(w) for w in s] for s in corpus]
        self.reference = SentenceReference(self.arpa, self.vocab)


class HmmInputs:
    """Instance k decodes sentence k % per_lm of LM k // per_lm.

    Only the current block's LM is held: it is trained when its block
    starts and dropped when the next one starts, so the run's peak RSS is
    the solver's plus one LM's inputs rather than every LM's."""

    def __init__(self, seed: int, length: int, lms: int, count: int):
        self.seed, self.length = seed, length
        self.per_lm = count // lms
        self.lm_shas: list[str | None] = [None] * lms
        self.gen_s = 0.0
        self._current: tuple[int, SentenceModel | None] = (-1, None)

    def model(self, j: int) -> SentenceModel:
        if self._current[0] != j:
            self._current = (-1, None)
            t0 = perf_counter()
            lm = SentenceModel(self.seed, self.length, j)
            self.gen_s += perf_counter() - t0
            self.lm_shas[j] = sha(lm.arpa)
            self._current = (j, lm)
        return self._current[1]

    @property
    def sha(self) -> str:
        """Hash of every LM's ARPA text, once a run has made them all."""
        return sha("".join(self.lm_shas))

    def locate(self, k: int) -> tuple[SentenceModel, list[str]]:
        lm = self.model(k // self.per_lm)
        return lm, lm.obs[k % self.per_lm]

    def instance_sha(self, k: int) -> str:
        lm, obs = self.locate(k)
        return sha(self.lm_shas[k // self.per_lm] + " ".join(obs))


class GmInputs:
    """Random-field Ising grids; instance k is ising_grid(seed=[seed, k])."""

    def __init__(self, seed: int, side: int, count: int):
        t0 = perf_counter()
        self.models = [graphical.ising_grid(side, side, sigma=GRID_SIGMA,
                                            seed=[seed, k])
                       for k in range(count)]
        self.dicts = [m.to_dict() for m in self.models]
        self.shas = [sha(json.dumps(d, sort_keys=True)) for d in self.dicts]
        self.sha = sha("".join(self.shas))
        self.seeds = [np.random.SeedSequence([seed, k]).spawn(3)
                      for k in range(count)]
        self.gen_s = perf_counter() - t0

    def instance_sha(self, k: int) -> str:
        return self.shas[k]


# -- one instance ----------------------------------------------------------

def _configs_sha(configs) -> str:
    return sha(repr([tuple(v if isinstance(v, str) else int(v) for v in c)
                     for c in configs]))


def _stop(w: Workload) -> StopConfig:
    if w.mode is Mode.OPTIMIZATION:
        return StopConfig(max_trials=MAX_TRIALS)
    return StopConfig(ar_window=AR_WINDOW, ar_threshold=w.ar_threshold,
                      max_trials=MAX_TRIALS)


def _frozen_stop(w: Workload) -> StopConfig:
    # the window equals the budget, so only the budget ends the phase
    return StopConfig(ar_window=w.frozen_trials, ar_threshold=1.0,
                      max_trials=w.frozen_trials)


def region(tracer, name: str) -> None:
    if tracer is not None:
        tracer.region = name


def _solve(w: Workload, inst: Instance, target, proposal, refiner,
           seeds, tracer) -> tuple:
    """Timed region: engine.run until certified or the AR rule fires (plus
    the closing engine.metrics in sum mode), then the frozen phase."""
    region(tracer, "solve")
    t0 = perf_counter()
    res = engine.run(w.mode, target, proposal, refiner, _stop(w), seeds[0])
    if w.mode is Mode.SAMPLING:
        met = engine.metrics(res.history, res.final_proposal.mass_log())
    inst.solve_s = perf_counter() - t0
    region(tracer, "setup")
    hist = res.history
    inst.trials = hist.trial_count
    inst.refinements = hist.refine_count
    inst.accepts = hist.accept_count
    if w.mode is Mode.OPTIMIZATION:
        inst.gap = res.certificate_gap_log
        inst.config_sha = _configs_sha([res.argmax])
        return res, None
    inst.config_sha = _configs_sha(res.samples)
    inst.checks["adaptive_z_hat_log"] = met.z_hat_log
    if hist.ar_window(AR_WINDOW) < w.ar_threshold:
        raise engine.RefinementExhausted(
            f"trial budget {MAX_TRIALS} exhausted at windowed AR "
            f"{hist.ar_window(AR_WINDOW):.3f}")
    region(tracer, "frozen")
    t0 = perf_counter()
    frozen = engine.run(Mode.SAMPLING, target, res.final_proposal, None,
                        _frozen_stop(w), seeds[1])
    inst.frozen_s = perf_counter() - t0
    region(tracer, "setup")
    inst.frozen_trials = frozen.history.trial_count
    inst.frozen_accepts = frozen.history.accept_count
    inst.frozen_sha = _configs_sha(frozen.samples)
    return res, frozen


def _check_optimum(inst: Instance, res, ref_score: float,
                   ref_max: float) -> None:
    last = res.history.records[-1]
    inst.checks.update(ref_max=ref_max, ref_score=ref_score,
                       log_p=last.log_p)
    if abs(ref_score - ref_max) > SCORE_TOL:
        raise AssertionError(f"returned score {ref_score!r} is not the "
                             f"optimum {ref_max!r}")
    if abs(ref_score - last.log_p) > SCORE_TOL:
        raise AssertionError(f"target says {last.log_p!r}, reference "
                             f"says {ref_score!r}")
    if abs(inst.gap) > GAP_TOL:
        raise AssertionError(f"certificate gap {inst.gap!r}")


def _check_z(inst: Instance, frozen, log_z: float) -> None:
    """log Z-hat of the frozen phase, Q * mean(r), within Z_SIGMAS
    standard errors of the exact log Z."""
    recs = frozen.history.records
    r = np.array([math.exp(min(0.0, x.log_p - x.log_q)) for x in recs])
    mean = float(r.mean())
    if mean <= 0:
        raise AssertionError("no trial of the frozen phase has ratio > 0")
    z_hat_log = math.log(mean) + recs[-1].proposal_mass_log
    tol = Z_SIGMAS * float(r.std(ddof=1)) / (math.sqrt(len(r)) * mean)
    inst.checks.update(log_z=log_z, z_hat_log=z_hat_log, z_tol=tol)
    if not abs(z_hat_log - log_z) <= tol:
        raise AssertionError(f"log Z-hat {z_hat_log!r} vs log Z "
                             f"{log_z!r}, tolerance {tol:.3g}")


def _record_size(w: Workload, inst: Instance, proposal) -> None:
    if w.family == "hmm":
        inst.builds = proposal.table_builds
        inst.size = {
            "states": sum(len(layer) for layer in proposal.contexts),
            "edges": sum(len(edges) for layer in proposal.contexts
                         for edges in layer.values())}
    else:
        inst.builds = proposal.bound_builds
        inst.size = {"leaves": len(proposal.leaves)}


# -- the loop ----------------------------------------------------------------

class Runner:
    """Solves K instances of one workload in a closed loop."""

    def __init__(self, w: Workload, seed: int, seconds: float):
        self.w = w
        self.seed = seed
        self.count = w.instances(seconds)
        if w.family == "hmm":
            self.inputs = HmmInputs(seed, w.size, w.lms, self.count)
        else:
            self.inputs = GmInputs(seed, w.size, self.count)
        self.rss_before_mb = math.nan
        self._refs: dict[int, tuple] = {}
        self.cpu = CpuPicker()

    def reference(self, k: int) -> tuple[float, float]:
        """(optimum log score, log Z), once per instance, outside timers."""
        if k not in self._refs:
            if self.w.family == "hmm":
                lm, obs = self.inputs.locate(k)
                self._refs[k] = lm.reference.solve(obs)
            else:
                self._refs[k] = GridReference(
                    self.inputs.dicts[k], self.w.size, self.w.size).solve()
        return self._refs[k]

    def ref_score(self, k: int, config) -> float:
        if self.w.family == "hmm":
            lm, obs = self.inputs.locate(k)
            return lm.reference.score(obs, config)
        return GridReference(self.inputs.dicts[k], self.w.size,
                             self.w.size).score(config)

    def _setup(self, k: int, loaded: dict):
        """Proposal, refiner, target and seeds of instance k.  A sentence
        instance loads its LM only when it is the first of its block."""
        if self.w.family == "gm":
            model = self.inputs.models[k]
            seeds = self.inputs.seeds[k]
            proposal = piecewise.PiecewiseProposal(model)
            refiner = piecewise.PolicyRefiner(
                proposal, piecewise.Policy.MAX_SLACK, seed=seeds[2])
            return proposal, refiner, model.log_p, seeds, True
        src, obs = self.inputs.locate(k)
        cold = loaded.get("src") is not src
        if cold:
            loaded.clear()
            lm = ngram.load_arpa(src.arpa)
            loaded.update(src=src, lm=lm, tables=ngram.MaxBackoffTables(lm))
        lattice = ngram.build_lattice(obs, src.vocab)
        q = automaton.build_q0(lattice, loaded["tables"])
        target = automaton.HmmTarget(loaded["lm"], lattice)
        seeds = [np.random.SeedSequence([self.seed, k, j]) for j in range(2)]
        return q, automaton.AutomatonRefiner(), target, seeds, cold

    def run(self, tracer=None) -> list[Instance]:
        """All K instances, each checked against the exact reference.
        With a tracer, counters run throughout."""
        w = self.w
        out = []
        loaded: dict = {}
        for k in range(self.count):
            if w.family == "hmm" and k % self.inputs.per_lm == 0:
                loaded.clear()   # free the last LM before the next is made
            inst = Instance(k=k, input_sha=self.inputs.instance_sha(k))
            if k == 0:
                # inputs of the first instance are built; nothing solved
                self.rss_before_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.cpu.maybe_repin()
            if tracer is not None:
                tracer.instance = k
            region(tracer, "setup")
            try:
                t0 = perf_counter()
                proposal, refiner, target, seeds, inst.cold = \
                    self._setup(k, loaded)
                inst.setup_s = perf_counter() - t0
                res, frozen = _solve(w, inst, target, proposal, refiner,
                                     seeds, tracer)
                _record_size(w, inst, res.final_proposal)
                ref_max, log_z = self.reference(k)
                if w.mode is Mode.OPTIMIZATION:
                    _check_optimum(inst, res, self.ref_score(k, res.argmax),
                                   ref_max)
                else:
                    _check_z(inst, frozen, log_z)
            except Exception as exc:  # an instance failure is a result
                region(tracer, "setup")
                inst.error = f"{type(exc).__name__}: {exc}"
            out.append(inst)
        return out
