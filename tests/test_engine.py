"""Core loop: accept/reject law, stop rules, estimators, determinism."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import osstar
from osstar import engine
from osstar.engine import (
    DominationViolated, EmptyHistory, History, Metrics, Mode,
    RefinementExhausted, StopConfig, TrialRecord, metrics, run, should_stop,
    trial,
)
from osstar.graphical import ising_grid
from osstar.piecewise import (LOG_TOL, PiecewiseProposal, Policy,
                              PolicyRefiner, policy_bench)

from conftest import SnapToTargetRefiner, TableProposal, TableTarget, two_point


def frozen_run(trials: int, seed: int = 0):
    target, proposal = two_point()
    stop = StopConfig(ar_threshold=1.1, max_trials=trials)
    return run(Mode.SAMPLING, target, proposal, None, stop, seed)


def test_every_public_name_resolves():
    # a stale __all__ entry still lets `import osstar` succeed; only
    # `from osstar import *` would fail on it
    assert len(set(osstar.__all__)) == len(osstar.__all__)
    assert [n for n in osstar.__all__ if not hasattr(osstar, n)] == []


def test_two_point_long_run_acceptance_rate():
    # P(X)/Q(X) = (1+3)/(2+4) = 2/3; cumulative AR converges there.
    result = frozen_run(100_000, seed=7)
    ar = result.history.ar_cumulative()
    assert abs(ar - 4.0 / 6.0) < 0.02


def test_two_point_accepted_sample_law():
    # Accepted configs are exact draws from p-bar = (1/4, 3/4).
    result = frozen_run(50_000, seed=3)
    n_b = sum(1 for s in result.samples if s == ("b",))
    assert abs(n_b / len(result.samples) - 0.75) < 0.02


def test_uniform_equal_target_stops_immediately():
    # p = q = (1, 1): first trial accepts; window of 1 stops the run.
    target = TableTarget({("a",): 0.0, ("b",): 0.0})
    proposal = TableProposal({("a",): 0.0, ("b",): 0.0})
    stop = StopConfig(ar_window=1, ar_threshold=0.5)
    result = run(Mode.SAMPLING, target, proposal, None, stop, seed=0)
    assert result.history.trial_count == 1
    assert result.history.records[0].accepted
    assert result.history.ar_cumulative() == 1.0


def test_optimization_snap_refiner_certificate():
    # argmax q is b (4); rejected once (3/4 < 1), then q(b) = 3 certifies b.
    target, proposal = two_point()
    refiner = SnapToTargetRefiner(target)
    result = run(Mode.OPTIMIZATION, target, proposal, refiner,
                 StopConfig(), seed=0)
    assert result.argmax == ("b",)
    assert result.certificate_gap_log == 0.0
    assert result.history.trial_count == 2
    assert result.history.refine_count == 1
    # only the final record is accepted
    assert [r.accepted for r in result.history.records] == [False, True]


def test_optimization_rejects_q_one_ulp_above_p_near_log_one():
    # for |log q| < 0.5, exp of minus one ulp of log q rounds to 1, so only
    # a comparison of the logs sees that q(x) is above p(x)
    log_p = -0.3
    log_q = math.nextafter(log_p, math.inf)
    assert math.exp(log_p - log_q) == 1.0
    target = TableTarget({("a",): log_p})
    history = History()
    record = trial(Mode.OPTIMIZATION, target, TableProposal({("a",): log_q}),
                   history, np.random.default_rng(0))
    assert not record.accepted
    assert record is history.records[0]
    result = run(Mode.OPTIMIZATION, target, TableProposal({("a",): log_q}),
                 SnapToTargetRefiner(target), StopConfig(), seed=0)
    assert [r.accepted for r in result.history.records] == [False, True]
    assert result.certificate_gap_log == 0.0


class FixedDraw:
    """Every draw and the argmax are `config` with the same log q."""

    def __init__(self, config, log_q):
        self.config, self.log_q = config, log_q

    def draw(self, rng):
        return self.config, self.log_q

    def argmax(self):
        return self.config, self.log_q

    def mass_log(self) -> float:
        return 0.0


class KeepRefiner:
    """Hands back the proposal unchanged."""

    def refine(self, proposal, config):
        return proposal


def test_sampling_accept_probability_matches_ratio():
    n = 200_000
    history = run(Mode.SAMPLING, TableTarget({("a",): math.log(0.3)}),
                  FixedDraw(("a",), 0.0), None,
                  StopConfig(ar_threshold=1.1, max_trials=n), 42).history
    assert history.trial_count == n
    assert abs(history.accept_count / n - 0.3) < 0.01


def test_domination_violation_detected():
    target = TableTarget({("a",): 0.0})
    proposal = TableProposal({("a",): -1.0})
    with pytest.raises(engine.DominationViolated):
        run(Mode.SAMPLING, target, proposal, None,
            StopConfig(max_trials=10), seed=0)


ONE_ULP_ABOVE = math.nextafter(-0.3, math.inf)


@pytest.mark.parametrize("mode, log_p, log_q, what", [
    (Mode.SAMPLING, math.nan, 0.0, "log p is nan"),
    (Mode.OPTIMIZATION, math.nan, 0.0, "log p is nan"),
    (Mode.SAMPLING, 0.0, math.nan, "log q is nan"),
    (Mode.SAMPLING, ONE_ULP_ABOVE, -0.3, "log p > log q"),
    (Mode.OPTIMIZATION, ONE_ULP_ABOVE, -0.3, "log p > log q"),
    # a point of zero q mass: exp(min(0, -inf - -inf)) would be a ratio of 1
    (Mode.SAMPLING, -math.inf, -math.inf, "log q is -inf"),
])
def test_domination_is_exact_and_nan_violates_it(mode, log_p, log_q, what):
    # A p one ulp above q is neither an exact sample nor a certified
    # maximum.  Every comparison with a nan is false, so a check of
    # log p > log q would pass a nan: exp(min(0, nan)) is a ratio of 1, and
    # in optimization a nan log p rejects until the trial budget runs out.
    stop = StopConfig(ar_threshold=1.1, max_trials=50)
    with pytest.raises(DominationViolated, match=what):
        run(mode, TableTarget({("a",): log_p}), FixedDraw(("a",), log_q),
            KeepRefiner(), stop, seed=0)


def test_zero_p_draw_of_finite_q_rejects():
    res = run(Mode.SAMPLING, TableTarget({("a",): -math.inf}),
              FixedDraw(("a",), 0.0), None,
              StopConfig(ar_threshold=1.1, max_trials=20), seed=0)
    assert res.history.trial_count == 20
    assert res.history.accept_count == 0


def test_should_stop_windowed_rule():
    stop = StopConfig(ar_window=4, ar_threshold=0.5)
    h = History()
    for accepted in [True, True, False]:
        h.append(TrialRecord(("x",), 0.0, 0.0, accepted, 0.0))
    # only 3 trials exist: window not yet full
    assert not should_stop(h, Mode.SAMPLING, stop)
    h.append(TrialRecord(("x",), 0.0, 0.0, False, 0.0))
    # window AR = 2/4 >= 0.5
    assert should_stop(h, Mode.SAMPLING, stop)
    h.append(TrialRecord(("x",), 0.0, 0.0, False, 0.0))
    # window AR = 1/4 < 0.5
    assert not should_stop(h, Mode.SAMPLING, stop)


def test_ar_window_rejects_a_window_below_one():
    h = History(window=4)
    for accepted in [True, False, False, False]:
        h.append(TrialRecord(("x",), 0.0, 0.0, accepted, 0.0))
    assert h.ar_window(4) == 0.25 and h.ar_window(3) == 0.0
    # records[-0:] is the whole list and records[-1:] the last trial, so a
    # window of 0 or -1 would read a rate over the wrong trials
    for bad in (0, -1):
        with pytest.raises(ValueError, match="window must be >= 1"):
            h.ar_window(bad)
        with pytest.raises(ValueError):
            History().ar_window(bad)
    assert History().ar_window(5) == 0.0


@pytest.mark.parametrize("bad", [0, -1])
def test_history_rejects_a_window_below_one(bad):
    # window 0 divided by zero on the rate's fast path, and append()
    # subtracted the trial it had just added from the window count
    with pytest.raises(ValueError, match=f"window must be >= 1, got {bad}"):
        History(window=bad)
    assert History(window=1).window == 1


def test_accepts_never_trigger_refinement():
    calls = []

    class CountingRefiner:
        def refine(self, proposal, config):
            calls.append(config)
            return proposal

    target = TableTarget({("a",): 0.0})
    proposal = TableProposal({("a",): 0.0})
    run(Mode.SAMPLING, target, proposal, CountingRefiner(),
        StopConfig(ar_threshold=1.1, max_trials=100), seed=0)
    assert calls == []


def test_single_trial_z_hat():
    # One trial with r = 0.5 and Q(X) = 4 gives Z_hat = 2.
    h = History()
    h.append(TrialRecord(("x",), math.log(0.5), 0.0, True, math.log(4.0)))
    m = metrics(h, math.log(4.0))
    assert math.isclose(math.exp(m.z_hat_log), 2.0, rel_tol=1e-12)
    assert math.isclose(m.pi_hat, 0.5, rel_tol=1e-12)


def test_tau_tot_arithmetic():
    # one more sample: tau_samp=1 trial, pi_hat=0.1, tau_ref=3 -> 13 trials.
    h = History()
    # one trial with ratio 0.1 against mass 1.0 => pi_hat = 0.1
    h.append(TrialRecord(("x",), math.log(0.1), 0.0, False, 0.0))
    h.add_refinement(3.0)
    m = metrics(h, 0.0)
    assert math.isclose(m.pi_hat, 0.1, rel_tol=1e-12)
    assert m.tau_samp == 1.0
    assert math.isclose(m.tau_tot_est, 13.0, rel_tol=1e-12)


def test_metrics_report_the_run_window():
    target, proposal = two_point()
    result = run(Mode.SAMPLING, target, proposal, None,
                 StopConfig(ar_window=50, ar_threshold=1.1, max_trials=300),
                 seed=4)
    h = result.history
    assert h.window == 50
    tail = h.records[-50:]
    want = sum(r.accepted for r in tail) / 50
    assert metrics(h, 0.0).ar_window == want == h.ar_window(50)
    assert h.ar_window(100) == sum(r.accepted for r in h.records[-100:]) / 100


def test_running_totals_match_a_pass_over_the_records():
    h = frozen_run(300, seed=9).history
    z = -math.inf
    for r in h.records:
        z = np.logaddexp(z, min(0.0, r.log_p - r.log_q) + r.proposal_mass_log)
    assert h.z_sum_log() == z
    assert h.accept_count == sum(r.accepted for r in h.records)


class UnreadableRecords(list):
    """Records that can be counted but not read."""

    def __iter__(self):
        raise AssertionError("the records were iterated")

    def __getitem__(self, index):
        raise AssertionError("the records were indexed")


def test_metrics_read_only_the_running_totals():
    result = frozen_run(300, seed=9)
    h, mass = result.history, result.final_proposal.mass_log()
    z = -math.inf
    for r in h.records:
        z = np.logaddexp(z, min(0.0, r.log_p - r.log_q) + r.proposal_mass_log)
    accepts = [r.accepted for r in h.records]
    h.records = UnreadableRecords(h.records)
    m = metrics(h, mass)
    assert h.z_sum_log() == z
    assert m.z_hat_log == z - math.log(300)
    assert m.pi_hat == math.exp(m.z_hat_log - mass)
    assert m.ar_cumulative == sum(accepts) / 300
    assert m.ar_window == sum(accepts[-h.window:]) / h.window


def bits(value) -> str:
    """A float's bits as text; every nan reads "nan"."""
    return float(value).hex()


# logs with infinities, nans, near-overflow magnitudes and repeats
LOGS = st.one_of(st.floats(), st.floats(-40.0, 40.0),
                 st.sampled_from([-math.inf, math.inf, math.nan, 1e308,
                                  -1e308, 0.0, -0.0, 1.5]))


@settings(max_examples=500, deadline=None)
@given(pair=st.one_of(st.tuples(LOGS, LOGS), LOGS.map(lambda v: (v, v))),
       values=st.lists(LOGS, min_size=1, max_size=8))
@example(pair=(-math.inf, -math.inf), values=[-math.inf, -math.inf])
@example(pair=(math.inf, math.inf), values=[math.inf, math.inf])
@example(pair=(math.inf, -math.inf), values=[math.inf, -math.inf])
@example(pair=(math.nan, 0.0), values=[math.nan, 0.0])
def test_log_sums_equal_numpys_bit_for_bit(pair, values):
    # numpy's logaddexp and these call the same libm exp and log1p; numpy
    # warns on the nans and overflowing differences Python passes silently
    with np.errstate(all="ignore"):
        want = np.logaddexp(*pair), np.logaddexp.reduce(np.array(values))
    got = engine.logaddexp(*pair), engine.log_sum(values)
    assert list(map(bits, got)) == list(map(bits, want))


@pytest.mark.parametrize("bad", [{"ar_window": 0}, {"max_trials": -1},
                                 {"ar_window": -1},
                                 {"ar_threshold": math.nan}])
def test_stop_config_rejects_bad_numbers(bad):
    with pytest.raises(ValueError):
        StopConfig(**bad)
    StopConfig(ar_threshold=1.1)  # never stops on the rate: still valid


def test_every_sampling_reject_is_refined_before_the_next_trial():
    seen = []

    class Recorder:
        def refine(self, proposal, config):
            seen.append(config)
            return proposal

    target, proposal = two_point()
    result = run(Mode.SAMPLING, target, proposal, Recorder(),
                 StopConfig(ar_threshold=1.1, max_trials=40), 1)
    recs = result.history.records
    assert 0 < len(seen) < 40
    assert seen == [r.config for r in recs if not r.accepted]
    assert result.history.refine_cost_at_trial == [
        sum(not r.accepted for r in recs[:t]) for t in range(40)]
    # costs are counted in trials: one per trial, one per refinement
    met = metrics(result.history, proposal.mass_log())
    assert met.tau_samp == 1.0
    assert met.tau_ref == result.history.refine_count == len(seen)


# policy_bench runs the engine's trial on the frozen grid proposal for each
# trial of a round and refines at the round's worst reject; a reject's gap
# is log q - log p
def test_policy_bench_draws_each_trial_and_refines_at_the_worst_reject(
        monkeypatch):
    draws, records, refined = [], [], []

    def recording_draw(self, rng):
        draws.append(draw(self, rng))
        return draws[-1]

    def recording_trial(*args):
        records.append(trial(*args))
        return records[-1]

    def recording_refine(self, pw, config):
        refined.append((len(records), config))
        return refine(self, pw, config)

    draw, refine = PiecewiseProposal.draw, PolicyRefiner.refine
    monkeypatch.setattr(PiecewiseProposal, "draw", recording_draw)
    monkeypatch.setattr(engine, "trial", recording_trial)
    monkeypatch.setattr(PolicyRefiner, "refine", recording_refine)
    rows, _ = policy_bench(ising_grid(3, 3, sigma=0.8, seed=1),
                           Policy.MAX_SLACK, refinements=3,
                           trials_per_round=20, seed=2)
    assert [r.trials for r in rows] == [20, 40, 60, 80]
    assert len(records) == 80 and len(refined) == 3
    assert [(r.config, r.log_q) for r in records] == draws
    for k, (done, config) in enumerate(refined):
        assert done == 20 * (k + 1)
        rejects = [r for r in records[20 * k:done] if not r.accepted]
        gap = {r.config: r.log_q - r.log_p for r in rejects}
        assert gap[config] >= max(gap.values()) - LOG_TOL


@pytest.mark.parametrize("later_excess, pick", [
    (0.0, (0, 0)), (0.5 * LOG_TOL, (0, 0)), (2 * LOG_TOL, (1, 0))])
def test_refine_pick_breaks_roundoff_ties_toward_the_earliest_reject(
        later_excess, pick, monkeypatch):
    # Both draws of the round reject (ratio e^-50); the later gap is one
    # ulp larger, plus `later_excess`.  Only an excess beyond LOG_TOL moves
    # the pick.
    log_p_b = np.nextafter(-50.0, -math.inf) - later_excess
    model = ising_grid(1, 2, seed=0)
    model.log_p = TableTarget({(0, 0): -50.0, (1, 0): float(log_p_b)})
    assert 0.0 - model.log_p((1, 0)) > 0.0 - model.log_p((0, 0))
    refined, draws = [], itertools.cycle([((0, 0), 0.0), ((1, 0), 0.0)])
    monkeypatch.setattr(PiecewiseProposal, "draw",
                        lambda self, rng: next(draws))
    monkeypatch.setattr(PolicyRefiner, "refine",
                        lambda self, pw, config: refined.append(config))
    policy_bench(model, Policy.MAX_SLACK, refinements=1, trials_per_round=2)
    assert refined == [pick]


@pytest.mark.parametrize("mode", list(Mode))
def test_zero_mass_proposal_raises(mode):
    # every entry -inf: Q(X) = 0, so there is nothing to draw from
    target = TableTarget({("a",): -1.0, ("b",): -1.0})
    proposal = TableProposal({("a",): -math.inf, ("b",): -math.inf})
    with pytest.raises(ValueError, match="log mass"):
        run(mode, target, proposal, None, StopConfig(max_trials=10), 0)


def test_metrics_empty_history_raises():
    with pytest.raises(EmptyHistory):
        metrics(History(), 0.0)


def test_z_hat_unbiased_on_toy():
    # Frozen two-point proposal: E[Z_hat] = P(X) = 4.
    target, proposal = two_point()
    z_vals = []
    for seed in range(50):
        result = run(Mode.SAMPLING, target, proposal, None,
                     StopConfig(ar_threshold=1.1, max_trials=400), seed=seed)
        m = metrics(result.history, proposal.mass_log())
        z_vals.append(math.exp(m.z_hat_log))
    assert abs(np.mean(z_vals) - 4.0) < 0.1


def test_history_bit_identical_across_reruns():
    a = frozen_run(500, seed=11).history
    b = frozen_run(500, seed=11).history
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


def test_trial_csv_deterministic(tmp_path):
    result = frozen_run(200, seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    engine.write_trial_csv(result.history, p1)
    engine.write_trial_csv(result.history, p2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = p1.read_text().splitlines()
    assert rows[0] == ("trial,accepted,log_p,log_q,q_mass_log,ar_cum,"
                       "ar_window,z_hat_log,pi_hat,tau_tot_est")
    assert len(rows) == 201
    for row in rows[1:]:
        for cell in row.split(","):
            float(cell)


def test_optimization_reads_only_the_argmax():
    # a certificate is q(x*) = p(x*) at the argmax: no trial needs Q(X)
    class NoMassProposal(TableProposal):
        def mass_log(self):
            raise AssertionError("optimization asked for the mass")

    target, _ = two_point()
    proposal = NoMassProposal({("a",): math.log(2.0), ("b",): math.log(4.0)})
    result = run(Mode.OPTIMIZATION, target, proposal,
                 SnapToTargetRefiner(target), StopConfig(), seed=0)
    assert result.argmax == ("b",)
    assert result.certificate_gap_log == 0.0
    assert result.history.trial_count == 2
    assert all(math.isnan(r.proposal_mass_log)
               for r in result.history.records)


def test_optimization_trial_csv_has_nan_estimators(tmp_path):
    target, proposal = two_point()
    result = run(Mode.OPTIMIZATION, target, proposal,
                 SnapToTargetRefiner(target), StopConfig(), seed=0)
    out = tmp_path / "opt.csv"
    engine.write_trial_csv(result.history, out)
    rows = [line.split(",") for line in out.read_text().splitlines()]
    head = rows[0]
    assert len(rows) == 3
    for row in rows[1:]:
        cells = dict(zip(head, map(float, row)))
        for name in ("q_mass_log", "z_hat_log", "pi_hat", "tau_tot_est"):
            assert math.isnan(cells[name]), name
        assert cells["ar_cum"] in (0.0, 0.5)


@pytest.mark.parametrize("mode", list(Mode))
def test_zero_trial_budget_raises(mode):
    target, proposal = two_point()
    with pytest.raises(RefinementExhausted,
                       match="budget of 0 ran out before any trial"):
        run(mode, target, proposal, None, StopConfig(max_trials=0), 0)


def test_optimization_budget_ends_before_a_certificate():
    # every argmax rejects, so each trial is refined and none certifies
    refined = []
    with pytest.raises(RefinementExhausted, match="^trial budget exhausted "
                       "before the optimum was certified$"):
        run(Mode.OPTIMIZATION, TableTarget({("a",): -1.0}),
            FixedDraw(("a",), 0.0), KeepRefiner(), StopConfig(max_trials=5),
            0, on_refine=refined.append)
    assert len(refined) == 5
