"""Command line front end.

Subcommands:
    hmm decode    exact most-probable sentence for keypad observations
    hmm sample    exact posterior sentence sampling
    gm sample     exact sampling from a pairwise model
    gm optimize   exact MAP configuration of a pairwise model
    gm bench      refinement-policy comparison, one CSV per policy
    gen ising     write a random grid model as JSON
    selftest      quick end-to-end checks against enumeration

All runs are deterministic for a fixed seed: costs are unit-based, so the
per-trial CSV written by --metrics-out is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from . import automaton as am
from . import engine
from .engine import Mode, StopConfig
from .graphical import PairwiseModel, ising_grid
from .ngram import MaxBackoffTables, build_lattice, load_arpa, load_vocab
from .piecewise import (PiecewiseProposal, Policy, PolicyRefiner,
                        policy_bench, write_bench_csv)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _hmm_setup(args):
    lm = load_arpa(_read(args.arpa))
    vocab = load_vocab(_read(args.vocab))
    lattice = build_lattice(args.obs, vocab,
                            noise_epsilon=args.noise_epsilon)
    tables = MaxBackoffTables(lm, order=args.order)
    q = am.build_q0(lattice, tables)
    target = am.HmmTarget(lm, lattice, order=args.order)
    return q, target


def _print_counts(q) -> None:
    counts = am.report_ngram_counts(q)
    parts = [f"order-{k}: {counts[k]}" for k in sorted(counts)]
    print("bound contexts  " + "  ".join(parts))


def _print_run_stats(history, mass_log, stop: StopConfig) -> None:
    met = engine.metrics(history, mass_log)
    print(f"trials: {history.trial_count}  accepts: {history.accept_count}"
          f"  refinements: {history.refine_count}")
    print(f"acceptance rate: {met.ar_cumulative:.4f} cumulative"
          f"  {met.ar_window:.4f} last-{history.window}")
    if not engine.should_stop(history, Mode.SAMPLING, stop):
        print(f"trial budget of {stop.max_trials} ran out before the stop "
              f"rule (last-{stop.ar_window} rate >= {stop.ar_threshold:g})")
    print(f"log Z-hat: {met.z_hat_log:.6f}  pi-hat: {met.pi_hat:.4f}"
          f"  est. cost per sample: {met.tau_tot_est:.1f}")


def cmd_hmm_decode(args) -> int:
    q, target = _hmm_setup(args)
    stop = StopConfig(max_trials=args.max_trials)
    res = engine.run(Mode.OPTIMIZATION, target, q, am.AutomatonRefiner(),
                     stop, args.seed)
    print("decoded:", " ".join(res.argmax))
    print(f"log p: {res.history.records[-1].log_p:.6f}")
    print(f"certificate gap (log): {res.certificate_gap_log:.6g}")
    print(f"trials: {res.history.trial_count}"
          f"  refinements: {res.history.refine_count}")
    _print_counts(q)
    if args.metrics_out:
        engine.write_trial_csv(res.history, args.metrics_out)
    return 0


def cmd_hmm_sample(args) -> int:
    q, target = _hmm_setup(args)
    stop = StopConfig(ar_window=args.ar_window,
                      ar_threshold=args.ar_threshold,
                      max_trials=args.max_trials)
    res = engine.run(Mode.SAMPLING, target, q, am.AutomatonRefiner(), stop,
                     args.seed)
    _print_run_stats(res.history, q.mass_log(), stop)
    print(f"table builds: {q.table_builds}")
    _print_counts(q)
    freq: dict[tuple, int] = {}
    for s in res.samples:
        freq[s] = freq.get(s, 0) + 1
    top = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    if top:
        print("top samples:")
        for words, n in top:
            print(f"  {n / len(res.samples):.3f}  {' '.join(words)}")
    if args.metrics_out:
        engine.write_trial_csv(res.history, args.metrics_out)
    return 0


def _gm_model(args) -> PairwiseModel:
    if args.model and args.grid:
        raise ValueError("pass either --model or --grid, not both")
    if args.model:
        return PairwiseModel.from_json(_read(args.model))
    if args.grid:
        rows, cols = _parse_grid(args.grid)
        return ising_grid(rows, cols, sigma=args.sigma,
                          seed=args.model_seed)
    raise ValueError("a model is required: --model FILE or --grid RxC")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = map(int, text.lower().split("x"))
    except ValueError:
        raise ValueError(
            f"bad grid spec {text!r}, expected ROWSxCOLS") from None
    return rows, cols


def _gm_setup(args):
    model = _gm_model(args)
    pw = PiecewiseProposal(model, retree=args.retree)
    trial_seed, policy_seed = np.random.SeedSequence(args.seed).spawn(2)
    refiner = PolicyRefiner(pw, Policy(args.policy), seed=policy_seed)
    return model, pw, refiner, trial_seed


def cmd_gm_sample(args) -> int:
    model, pw, refiner, trial_seed = _gm_setup(args)
    stop = StopConfig(ar_window=args.ar_window,
                      ar_threshold=args.ar_threshold,
                      max_trials=args.max_trials)
    res = engine.run(Mode.SAMPLING, model.log_p, pw, refiner, stop,
                     trial_seed)
    _print_run_stats(res.history, pw.mass_log(), stop)
    print(f"subspaces: {len(pw.leaves)}  bound builds: {pw.bound_builds}")
    if args.metrics_out:
        engine.write_trial_csv(res.history, args.metrics_out)
    return 0


def cmd_gm_optimize(args) -> int:
    model, pw, refiner, trial_seed = _gm_setup(args)
    stop = StopConfig(max_trials=args.max_trials)
    res = engine.run(Mode.OPTIMIZATION, model.log_p, pw, refiner, stop,
                     trial_seed)
    print("argmax:", "".join(str(v) for v in res.argmax))
    print(f"log p: {model.log_p(res.argmax):.6f}")
    print(f"certificate gap (log): {res.certificate_gap_log:.6g}")
    print(f"trials: {res.history.trial_count}"
          f"  refinements: {res.history.refine_count}"
          f"  subspaces: {len(pw.leaves)}")
    if args.metrics_out:
        engine.write_trial_csv(res.history, args.metrics_out)
    return 0


def cmd_gm_bench(args) -> int:
    model = _gm_model(args)
    policies = [Policy(args.policy)] if args.policy else list(Policy)
    # run every policy first: a bad count fails before the table starts
    runs = [(policy, policy_bench(model, policy,
                                  refinements=args.refinements,
                                  trials_per_round=args.trials_per_round,
                                  seed=args.seed, retree=args.retree)[0])
            for policy in policies]
    print("policy  rounds  ar_hat  pi_hat  tau_ref  tau_tot_est")
    for policy, rows in runs:
        last = rows[-1]
        print(f"{policy.value:>6}  {len(rows):>6}  {last.ar_hat:.4f}"
              f"  {last.pi_hat:.4f}  {last.tau_ref:>8.0f}"
              f"  {last.tau_tot_est:.1f}")
        if args.out:
            path = args.out if args.policy else \
                _suffixed(args.out, policy.value)
            # one row per refinement; the pre-refinement baseline row
            # stays in the Python API only
            write_bench_csv(rows[1:], path)
            print(f"wrote {path}")
    return 0


def _suffixed(path: str, label: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{label}{ext or '.csv'}"


def cmd_gen_ising(args) -> int:
    rows, cols = _parse_grid(args.grid)
    model = ising_grid(rows, cols, sigma=args.sigma, seed=args.seed)
    text = model.to_json()
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    return 0


SELFTEST_ARPA = """\
\\data\\
ngram 1=2
ngram 2=2
ngram 3=1

\\1-grams:
-0.3\ta\t-0.2
-0.7\tb\t-0.1

\\2-grams:
-0.4\ta a\t-0.3
-0.5\ta b

\\3-grams:
-0.6\ta a b

\\end\\
"""


def _selftest_checks():
    lm = load_arpa(SELFTEST_ARPA)
    lattice = build_lattice(["2", "2", "2"], ["a", "b"])
    tables = MaxBackoffTables(lm)
    target = am.HmmTarget(lm, lattice)

    def paths():
        return itertools.product("ab", repeat=3)

    def check_bounds():
        # at the full context a bound is the conditional itself, and it
        # never increases as the context deepens
        for full in range(lm.order):
            for ctx in itertools.product(lm.words, repeat=full):
                for w in lm.words:
                    chain = [tables.value(w, ctx[full - k:], full)
                             for k in range(full + 1)]
                    assert chain[-1] == lm.cond_logprob(w, ctx), (w, ctx)
                    assert all(a >= b for a, b in zip(chain, chain[1:])), \
                        (w, ctx, chain)

    def check_decode():
        q = am.build_q0(lattice, tables)
        res = engine.run(Mode.OPTIMIZATION, target, q, am.AutomatonRefiner(),
                         StopConfig(max_trials=500), 0)
        scores = {tuple(x): target(tuple(x)) for x in paths()}
        best = max(scores.values())
        expect = sorted(x for x, s in scores.items() if s >= best)[0]
        assert res.argmax == expect, f"{res.argmax} != {expect}"
        assert res.certificate_gap_log == 0.0

    def check_sentence_sampler():
        q = am.build_q0(lattice, tables)
        stop = StopConfig(ar_window=50, ar_threshold=0.9, max_trials=5000)
        res = engine.run(Mode.SAMPLING, target, q, am.AutomatonRefiner(),
                         stop, 1)
        assert res.history.ar_window(50) >= 0.9
        scores = {tuple(x): target(tuple(x)) for x in paths()}
        z = float(np.logaddexp.reduce(list(scores.values())))
        met = engine.metrics(res.history, q.mass_log())
        assert abs(met.z_hat_log - z) < 0.25, met.z_hat_log

    def check_gm_optimize():
        model = ising_grid(3, 3, sigma=0.8, seed=0)
        cfgs = list(itertools.product((0, 1), repeat=9))
        expect = max(cfgs, key=model.log_p)
        pw = PiecewiseProposal(model)
        res = engine.run(Mode.OPTIMIZATION, model.log_p, pw,
                         PolicyRefiner(pw, Policy.MAX_SLACK, seed=0),
                         StopConfig(max_trials=4000), 0)
        assert res.argmax == expect, f"{res.argmax} != {expect}"
        assert res.certificate_gap_log == 0.0

    def check_gm_sampler():
        model = ising_grid(2, 2, sigma=1.0, seed=1)
        cfgs = np.array(list(itertools.product((0, 1), repeat=4)))
        log_z = float(np.logaddexp.reduce(model.log_p_many(cfgs)))
        pw = PiecewiseProposal(model)
        stop = StopConfig(ar_window=50, ar_threshold=0.6, max_trials=20000)
        res = engine.run(Mode.SAMPLING, model.log_p, pw,
                         PolicyRefiner(pw, Policy.MAX_SLACK, seed=1),
                         stop, 3)
        assert pw.mass_log() >= log_z - 1e-9  # bound mass dominates Z
        met = engine.metrics(res.history, pw.mass_log())
        assert abs(met.z_hat_log - log_z) < 0.25, met.z_hat_log

    return [("bounds are exact at full context and monotone",
             check_bounds),
            ("keypad decode is exact", check_decode),
            ("sentence sampler hits rate and mass", check_sentence_sampler),
            ("grid MAP matches enumeration", check_gm_optimize),
            ("grid sampler estimates the partition sum", check_gm_sampler)]


def cmd_selftest(args) -> int:
    failed = 0
    for name, check in _selftest_checks():
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"PASS  {name}")
    print(f"{'all checks passed' if not failed else f'{failed} failed'}")
    return 1 if failed else 0


def _add_common(p, *, ar: bool) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=1_000_000)
    p.add_argument("--metrics-out", metavar="CSV",
                   help="write one row per trial to this file")
    if ar:
        p.add_argument("--ar-threshold", type=float, default=0.2,
                       help="stop once the windowed acceptance rate "
                            "reaches this value")
        p.add_argument("--ar-window", type=int, default=100)


def _add_hmm_io(p) -> None:
    p.add_argument("--arpa", required=True, help="language model file")
    p.add_argument("--vocab", required=True, help="one word per line")
    p.add_argument("--obs", required=True, nargs="+",
                   help="observed keypad digit strings, one per word")
    p.add_argument("--order", type=int, default=None,
                   help="cap the model order used for scoring and bounds")
    p.add_argument("--noise-epsilon", type=float, default=0.0,
                   help="probability mass for one-key slips")


def _add_gm_io(p, default_policy) -> None:
    p.add_argument("--model", help="pairwise model JSON file")
    p.add_argument("--grid", help="generate an Ising grid, e.g. 4x4")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--model-seed", type=int, default=0)
    p.add_argument("--policy", choices=[p.value for p in Policy],
                   default=default_policy)
    p.add_argument("--retree", action="store_true",
                   help="recompute child forests, keeping the smaller mass")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osstar",
        description="Exact sampling and optimization by adaptive "
                    "rejection on refinable upper bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    hmm = sub.add_parser("hmm", help="sentence models over keypad input")
    hsub = hmm.add_subparsers(dest="subcommand", required=True)
    hd = hsub.add_parser("decode", help="exact most-probable sentence")
    _add_hmm_io(hd)
    _add_common(hd, ar=False)
    hd.set_defaults(func=cmd_hmm_decode)
    hs = hsub.add_parser("sample", help="exact posterior sampling")
    _add_hmm_io(hs)
    _add_common(hs, ar=True)
    hs.set_defaults(func=cmd_hmm_sample)

    gm = sub.add_parser("gm", help="pairwise graphical models")
    gsub = gm.add_subparsers(dest="subcommand", required=True)
    gs = gsub.add_parser("sample", help="exact sampling")
    _add_gm_io(gs, default_policy="ii")
    _add_common(gs, ar=True)
    gs.set_defaults(func=cmd_gm_sample)
    go = gsub.add_parser("optimize", help="exact MAP with certificate")
    _add_gm_io(go, default_policy="ii")
    _add_common(go, ar=False)
    go.set_defaults(func=cmd_gm_optimize)
    gb = gsub.add_parser("bench", help="compare refinement policies")
    _add_gm_io(gb, default_policy=None)
    gb.add_argument("--seed", type=int, default=0)
    gb.add_argument("--refinements", type=int, default=40)
    gb.add_argument("--trials-per-round", type=int, default=200)
    gb.add_argument("--out", help="CSV path; per-policy suffix added "
                                  "when --policy is not given")
    gb.set_defaults(func=cmd_gm_bench)

    gen = sub.add_parser("gen", help="write synthetic inputs")
    gensub = gen.add_subparsers(dest="subcommand", required=True)
    gi = gensub.add_parser("ising", help="random grid model JSON")
    gi.add_argument("--grid", required=True)
    gi.add_argument("--sigma", type=float, default=0.5)
    gi.add_argument("--seed", type=int, default=0)
    gi.add_argument("--out", default="-", help="file path or - for stdout")
    gi.set_defaults(func=cmd_gen_ising)

    st = sub.add_parser("selftest", help="run curated end-to-end checks")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
