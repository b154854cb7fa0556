"""Backend-agnostic trial loop for exact sampling / exact optimization.

The loop draws candidate configurations from a proposal q that dominates the
target p (q >= p pointwise), accepts with probability p/q (sampling) or iff
log q <= log p, which certifies the maximum (optimization), and hands each
rejected configuration to a refiner that must tighten q at that point.

Domination is exact on the returned logs: every trial needs
log p(x) <= log q(x) as floats, with no tolerance, and a finite log q(x), as
q draws no point of zero mass.  A nan on either side is a violation too.
Each raises DominationViolated, so an optimization trial accepts only at
log p(x) == log q(x) and certifies a gap of exactly 0; a point of finite
log q and log p = -inf is a plain reject.

Costs are counted in trials: each trial costs 1 and each refinement made by
run() costs 1, so tau_samp is 1 and tau_ref is the refinement count.  A
driver that charges refinements otherwise (policy_bench charges bound
builds) passes its own cost to History.add_refinement.

A proposal object must provide:
    draw(rng)   -> (config, log_q_of_config)     used in sampling mode
    argmax()    -> (config, log_q_of_config)     used in optimization mode
    mass_log()  -> float   log of the total proposal mass Q(X), needed in
                           sampling mode only, read once per trial
An optimization trial reads only argmax(): a certificate is q(x*) = p(x*)
at the argmax, so the loop never asks for the mass (nor for the sum tables
behind it) in that mode.  Both proposal families also answer
    score(config) -> float   log q(config), the log q that draw and argmax
                             return with it
which the loop never calls: it is the hook through which an audit compares
q with p at every configuration of an enumerable space.

A refiner must provide:
    refine(proposal, config) -> proposal
It may mutate the proposal in place and return it.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


def tie_tolerance(scale: float) -> float:
    """How close a runner-up may come to the best candidate of an argmax
    descent before the pick counts as a near tie.  scale bounds the sum of
    the magnitudes of a configuration's log terms, so the tolerance is far
    above the roundoff by which two orders of summation can disagree."""
    return 1e-9 * max(1.0, scale)


class Mode(enum.Enum):
    SAMPLING = "sampling"
    OPTIMIZATION = "optimization"


class DominationViolated(RuntimeError):
    """A trial saw log p(x) > log q(x), a nan on either side or a log q(x)
    that is not finite: the bound is not a bound."""


class RefinementExhausted(RuntimeError):
    """The trial budget ran out before the stop rule was met or the optimum
    was certified."""


class EmptyHistory(ValueError):
    """Metrics were requested before any trial was recorded."""


@dataclass
class TrialRecord:
    """One trial.  `proposal_mass_log` is log Q(X) of the proposal the
    trial was drawn from; optimization trials record no mass and store
    nan, so their Z-hat, pi-hat and cost estimates read nan too."""

    config: tuple
    log_p: float
    log_q: float
    accepted: bool
    proposal_mass_log: float


@dataclass
class History:
    """Per-trial records, refinement cost bookkeeping and the running
    totals behind the estimators.  Counts are updated as each trial is
    committed; the Z-hat sum catches up on its next read.

    `window` is the length of the windowed acceptance rate that metrics()
    reports; a run takes it from its StopConfig.
    """

    records: list[TrialRecord] = field(default_factory=list)
    refine_count: int = 0
    refine_cost_total: float = 0.0
    # cumulative refinement cost at the moment each trial was committed
    refine_cost_at_trial: list[float] = field(default_factory=list)
    window: int = 100
    accept_count: int = 0
    window_accepts: int = 0
    # log of the sum of r_t * Q_t(X) over the first _z_count trials
    _z_sum_log: float = -math.inf
    _z_count: int = 0

    def __post_init__(self):
        # append() keeps window_accepts for this window, and a window
        # below 1 would subtract the trial it has just added
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def trial_count(self) -> int:
        return len(self.records)

    def append(self, record: TrialRecord) -> None:
        self.records.append(record)
        self.refine_cost_at_trial.append(self.refine_cost_total)
        self.accept_count += record.accepted
        self.window_accepts += record.accepted
        if len(self.records) > self.window:
            self.window_accepts -= self.records[-self.window - 1].accepted

    def z_sum_log(self) -> float:
        """log of the sum of r_t * Q_t(X) over all trials, added in trial
        order; each trial is folded in once, on the first call after it.
        A trial without a mass (nan) makes the sum nan."""
        with np.errstate(invalid="ignore"):
            for r in itertools.islice(self.records, self._z_count, None):
                self._z_sum_log = np.logaddexp(
                    self._z_sum_log,
                    min(0.0, r.log_p - r.log_q) + r.proposal_mass_log)
        self._z_count = len(self.records)
        return float(self._z_sum_log)

    def add_refinement(self, cost: float) -> None:
        self.refine_count += 1
        self.refine_cost_total += cost

    def ar_cumulative(self) -> float:
        if not self.records:
            return 0.0
        return self.accept_count / self.trial_count

    def ar_window(self, window: int) -> float:
        if window == self.window and self.records:
            return self.window_accepts / min(window, self.trial_count)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        tail = self.records[-window:]
        return sum(1 for r in tail if r.accepted) / len(tail) if tail else 0.0


@dataclass
class StopConfig:
    ar_window: int = 100
    ar_threshold: float = 0.2
    max_trials: int = 1_000_000

    def __post_init__(self):
        # above 1 is valid (never stops on the rate); NaN would never stop
        if math.isnan(self.ar_threshold):
            raise ValueError("ar_threshold must be a number, got nan")
        if self.ar_window < 1:
            raise ValueError(f"ar_window must be >= 1, got {self.ar_window}")
        if self.max_trials < 0:
            raise ValueError(f"max_trials must be >= 0, got {self.max_trials}")


@dataclass
class Metrics:
    z_hat_log: float
    pi_hat: float
    tau_samp: float
    tau_ref: float
    ar_cumulative: float
    ar_window: float
    tau_tot_est: float


@dataclass
class RunResult:
    samples: list[tuple]
    argmax: tuple | None
    final_proposal: object
    history: History
    certificate_gap_log: float | None


def should_stop(history: History, mode: Mode, stop: StopConfig) -> bool:
    if mode is Mode.OPTIMIZATION:
        return bool(history.records) and history.records[-1].accepted
    if history.trial_count < stop.ar_window:
        return False
    return history.ar_window(stop.ar_window) >= stop.ar_threshold


def metrics(history: History, current_mass_log: float) -> Metrics:
    """Estimators over all trials so far, read off the history's totals.

    Z_hat averages r_t * Q_t(X) over trials (unbiased for the target mass);
    pi_hat = Z_hat / Q_now(X) predicts the acceptance rate of the current
    proposal; tau_tot_est = tau_samp / pi_hat + tau_ref estimates the total
    cost of obtaining one more exact sample if refinement stops now.  Costs
    are in trials, so tau_samp is 1.
    """
    if not history.records:
        raise EmptyHistory("no trials recorded")
    z_hat_log = history.z_sum_log() - math.log(history.trial_count)
    pi_hat = math.exp(z_hat_log - current_mass_log)
    tau_samp = 1.0
    tau_ref = history.refine_cost_total
    # nan when a trial recorded no mass
    tau_tot = math.inf if pi_hat == 0 else tau_samp / pi_hat + tau_ref
    return Metrics(
        z_hat_log=z_hat_log,
        pi_hat=pi_hat,
        tau_samp=tau_samp,
        tau_ref=tau_ref,
        ar_cumulative=history.ar_cumulative(),
        ar_window=history.ar_window(history.window),
        tau_tot_est=tau_tot,
    )


def trial(mode: Mode, target, proposal, history: History,
          rng: np.random.Generator) -> TrialRecord:
    """Run one trial and record it: the argmax (optimization) or one draw
    (sampling), the target, the domination check and accept-or-reject.
    Returns the record.  Raises DominationViolated unless log p <= log q
    holds exactly with log q finite, and ValueError when the proposal's
    mass (in optimization, its maximum) is not finite: nothing can be
    drawn from it.
    """
    if mode is Mode.OPTIMIZATION:
        # the argmax's log q is the log max, finite iff the mass is
        mass = math.nan
        config, log_q = proposal.argmax()
        if not math.isfinite(log_q):
            raise ValueError(f"proposal log max is {log_q}, so its log mass "
                             "is too: there is nothing to draw from")
    else:
        mass = proposal.mass_log()
        if not math.isfinite(mass):
            raise ValueError(f"proposal log mass is {mass}: there is "
                             "nothing to draw from")
        config, log_q = proposal.draw(rng)
    log_p = target(config)
    # the comparison is also false when either side is nan
    if not (log_p <= log_q and math.isfinite(log_q)):
        what = ("log p is nan" if math.isnan(log_p) else
                f"log q is {log_q}" if not math.isfinite(log_q) else
                "log p > log q")
        raise DominationViolated(
            f"{what}: log p {log_p}, log q {log_q} at {config!r}")
    if mode is Mode.OPTIMIZATION:
        # the logs are equal: q(x) = p(x) certifies the maximum
        accepted = log_p >= log_q
    else:
        accepted = rng.random() < math.exp(min(0.0, log_p - log_q))
    record = TrialRecord(
        config=config, log_p=log_p, log_q=log_q, accepted=accepted,
        proposal_mass_log=mass)
    history.append(record)
    return record


def run(mode: Mode, target, proposal, refiner, stop: StopConfig, seed,
        *, on_refine=None) -> RunResult:
    """Adaptive rejection loop: trials, accept-or-reject, refine on reject.

    `target` is a callable returning log p(config). `refiner` may be None to
    freeze the proposal (rejects are then recorded but trigger nothing);
    otherwise each reject is refined at its config before the next trial.
    `on_refine(proposal)` runs after every refinement; tests use it to audit
    domination and mass monotonicity exhaustively.  Raises
    RefinementExhausted when the trial budget allows no trial at all or
    ends an optimization run before a certificate.
    """
    rng = np.random.default_rng(seed)
    history = History(window=stop.ar_window)

    while (history.trial_count < stop.max_trials
           and not should_stop(history, mode, stop)):
        record = trial(mode, target, proposal, history, rng)
        if not record.accepted and refiner is not None:
            proposal = refiner.refine(proposal, record.config)
            history.add_refinement(1.0)
            if on_refine is not None:
                on_refine(proposal)

    if not history.records:
        raise RefinementExhausted(f"trial budget of {stop.max_trials} ran "
                                  "out before any trial")
    samples = [r.config for r in history.records if r.accepted]
    argmax = None
    certificate = None
    if mode is Mode.OPTIMIZATION:
        if not history.records[-1].accepted:
            raise RefinementExhausted(
                "trial budget exhausted before the optimum was certified")
        last = history.records[-1]
        argmax = last.config
        certificate = last.log_q - last.log_p
    return RunResult(samples=samples, argmax=argmax,
                     final_proposal=proposal, history=history,
                     certificate_gap_log=certificate)


CSV_COLUMNS = ["trial", "accepted", "log_p", "log_q", "q_mass_log",
               "ar_cum", "ar_window", "z_hat_log", "pi_hat", "tau_tot_est"]


def write_trial_csv(history: History, path) -> None:
    """One row per trial with the acceptance rates and estimators as they
    stood once that trial was committed."""
    replay = History(window=history.window)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec, tau_ref in zip(history.records,
                                history.refine_cost_at_trial):
            replay.refine_cost_total = tau_ref
            replay.append(rec)
            met = metrics(replay, rec.proposal_mass_log)
            writer.writerow([
                replay.trial_count, int(rec.accepted), repr(rec.log_p),
                repr(rec.log_q), repr(rec.proposal_mass_log),
                repr(met.ar_cumulative), repr(met.ar_window),
                repr(met.z_hat_log), repr(met.pi_hat),
                repr(met.tau_tot_est),
            ])
