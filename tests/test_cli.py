"""Command line interface tests."""

import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest

from osstar.cli import main
from osstar.engine import CSV_COLUMNS
from osstar.graphical import PairwiseModel, ising_grid

from test_ngram import DATA, DUPLICATE_ARPA, NO_WORDS_ARPA, TINY_ARPA


@pytest.fixture
def hmm_files(tmp_path):
    arpa = tmp_path / "lm.arpa"
    arpa.write_text(TINY_ARPA)
    vocab = tmp_path / "words.txt"
    vocab.write_text("a\nb\n")
    return str(arpa), str(vocab)


def test_usage_and_help_exit_codes():
    assert main(["--help"]) == 0
    assert main([]) == 2
    assert main(["hmm"]) == 2
    assert main(["gm", "sample", "--policy", "nope"]) == 2


def test_hmm_decode_prints_exact_argmax(hmm_files, capsys):
    arpa, vocab = hmm_files
    rc = main(["hmm", "decode", "--arpa", arpa, "--vocab", vocab,
               "--obs", "2", "2", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "decoded: a b a" in out
    assert "certificate gap (log): 0" in out
    assert "bound contexts" in out


def test_hmm_sample_metrics_csv_is_deterministic(hmm_files, tmp_path):
    arpa, vocab = hmm_files
    args = ["hmm", "sample", "--arpa", arpa, "--vocab", vocab,
            "--obs", "2", "2", "--ar-threshold", "0.8",
            "--ar-window", "20", "--seed", "5"]
    f1, f2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(args + ["--metrics-out", str(f1)]) == 0
    assert main(args + ["--metrics-out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_hmm_error_paths(hmm_files, tmp_path, capsys):
    arpa, vocab = hmm_files
    assert main(["hmm", "decode", "--arpa", str(tmp_path / "no.arpa"),
                 "--vocab", vocab, "--obs", "2"]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.arpa"
    bad.write_text(TINY_ARPA.replace("\\end\\", ""))
    assert main(["hmm", "decode", "--arpa", str(bad), "--vocab", vocab,
                 "--obs", "2"]) == 1
    assert "error:" in capsys.readouterr().err
    # no candidate word for a digit string outside the vocabulary codes
    assert main(["hmm", "decode", "--arpa", arpa, "--vocab", vocab,
                 "--obs", "99"]) == 1


@pytest.mark.parametrize("command", ["decode", "sample"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_hmm_nan_or_infinite_arpa_is_a_clean_error(hmm_files, tmp_path,
                                                    capsys, command, bad):
    _, vocab = hmm_files
    arpa = tmp_path / "bad.arpa"
    arpa.write_text(TINY_ARPA.replace("-0.5\ta b", f"{bad}\ta b"))
    assert main(["hmm", command, "--arpa", str(arpa), "--vocab", vocab,
                 "--obs", "2", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: line 13: NaN or +inf")


@pytest.mark.parametrize("command", ["decode", "sample"])
def test_hmm_duplicate_ngram_is_a_clean_error(hmm_files, tmp_path, capsys,
                                              command):
    _, vocab = hmm_files
    arpa = tmp_path / "dup.arpa"
    arpa.write_text(DUPLICATE_ARPA)
    assert main(["hmm", command, "--arpa", str(arpa), "--vocab", vocab,
                 "--obs", "2", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: line 10: duplicate 1-gram 'a'\n"


def test_hmm_lm_without_sentence_words_is_a_clean_error(tmp_path, capsys):
    arpa = tmp_path / "lm.arpa"
    arpa.write_text(NO_WORDS_ARPA)
    vocab = tmp_path / "words.txt"
    vocab.write_text("dog\nfog\n")
    assert main(["hmm", "decode", "--arpa", str(arpa), "--vocab", str(vocab),
                 "--obs", "364", "364"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: position 0:")


KEYPAD_ARPA = str(DATA / "keypad4663.arpa")


@pytest.mark.parametrize("command", ["decode", "sample"])
def test_hmm_zero_mass_lattice_is_a_clean_error(tmp_path, capsys, command):
    # wxy types 999 but is not in the LM: position 1 has no possible word
    vocab = tmp_path / "words.txt"
    vocab.write_text("gone\ngood\nhome\nhood\nwxy\n")
    rc = main(["hmm", command, "--arpa", KEYPAD_ARPA, "--vocab", str(vocab),
               "--obs", "4663", "999", "4663"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "position 1" in err


@pytest.mark.parametrize("command", ["decode", "sample"])
def test_hmm_words_outside_the_lm_are_never_output(tmp_path, capsys,
                                                   command):
    # hoof types 4663 like home but is not in the LM: it gets probability
    # zero while its position keeps four possible words
    vocab = tmp_path / "words.txt"
    vocab.write_text("gone\ngood\nhome\nhood\nhoof\n")
    rc = main(["hmm", command, "--arpa", KEYPAD_ARPA, "--vocab", str(vocab),
               "--obs", "4663", "4663", "4663"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hoof" not in out and ("decoded:" in out or "top samples:" in out)


@pytest.mark.parametrize("bad", [["--ar-window", "0"],
                                 ["--max-trials", "-1"],
                                 ["--order", "0"]])
def test_hmm_sample_rejects_bad_numbers(hmm_files, capsys, bad):
    arpa, vocab = hmm_files
    rc = main(["hmm", "sample", "--arpa", arpa, "--vocab", vocab,
               "--obs", "2", "2"] + bad)
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_hmm_sample_has_no_batch_option(hmm_files, capsys):
    arpa, vocab = hmm_files
    rc = main(["hmm", "sample", "--arpa", arpa, "--vocab", vocab,
               "--obs", "2", "2", "--batch", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "unrecognized arguments: --batch 10" in err
    assert "Traceback" not in err


def test_hmm_sample_reports_the_run_window(hmm_files, tmp_path, capsys):
    arpa, vocab = hmm_files
    f = tmp_path / "m.csv"
    assert main(["hmm", "sample", "--arpa", arpa, "--vocab", vocab,
                 "--obs", "2", "2", "--ar-threshold", "0.8",
                 "--ar-window", "50", "--metrics-out", str(f)]) == 0
    assert "last-50" in capsys.readouterr().out
    rows = f.read_text().splitlines()[1:]
    accepted = [int(r.split(",")[1]) for r in rows]
    want = sum(accepted[-50:]) / 50
    assert float(rows[-1].split(",")[6]) == want >= 0.8


@pytest.mark.parametrize("command", [["hmm", "sample", "--obs", "2", "2"],
                                     ["gm", "sample", "--grid", "2x2"]])
def test_sample_says_when_the_trial_budget_ended_the_run(hmm_files, capsys,
                                                         command):
    arpa, vocab = hmm_files
    io = ["--arpa", arpa, "--vocab", vocab] if command[0] == "hmm" else []
    assert main(command + io + ["--ar-window", "100000",
                                "--max-trials", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("trials: 50 ")
    assert out[1].startswith("acceptance rate: ")
    assert out[2] == ("trial budget of 50 ran out before the stop rule "
                      "(last-100000 rate >= 0.2)")
    # a run that the stop rule ends prints no such line
    assert main(command + io + ["--ar-window", "20"]) == 0
    assert "trial budget" not in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["hmm", "decode", "--arpa", KEYPAD_ARPA,
     "--vocab", str(DATA / "keypad4663.vocab"), "--obs", "4663", "4663",
     "4663"],
    ["gm", "optimize", "--grid", "4x4"]], ids=["hmm", "gm"])
def test_optimize_budget_without_a_certificate_is_a_clean_error(capsys,
                                                                command):
    assert main(command + ["--max-trials", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: trial budget exhausted before the optimum was "
                   "certified\n")


def test_gm_optimize_matches_enumeration(capsys):
    rc = main(["gm", "optimize", "--grid", "3x3", "--sigma", "0.8",
               "--model-seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    model = ising_grid(3, 3, sigma=0.8, seed=0)
    cfgs = list(itertools.product((0, 1), repeat=9))
    expect = "".join(str(v) for v in max(cfgs, key=model.log_p))
    assert f"argmax: {expect}" in out
    assert "certificate gap" in out


def test_gm_sample_runs_and_writes_metrics(tmp_path, capsys):
    f = tmp_path / "gm.csv"
    rc = main(["gm", "sample", "--grid", "2x2", "--sigma", "1.0",
               "--ar-threshold", "0.5", "--ar-window", "30",
               "--metrics-out", str(f)])
    assert rc == 0
    assert "acceptance rate" in capsys.readouterr().out
    assert f.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_gm_refinements_alias(hmm_files, capsys):
    # a run's one budget is --max-trials: no run command takes
    # --max-refinements, nor gm sample and gm optimize --refinements
    # (gm bench has rounds)
    arpa, vocab = hmm_files
    hmm_io = ["--arpa", arpa, "--vocab", vocab, "--obs", "2", "2"]
    runs = [["hmm", command] + hmm_io for command in ("decode", "sample")]
    runs += [["gm", command, "--grid", "2x2"]
             for command in ("sample", "optimize")]
    cases = [(run, ["--max-refinements", "5"]) for run in runs]
    cases += [(run, ["--refinements", "50"]) for run in runs[2:]]
    for run, flag in cases:
        assert main(run + flag) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert "Traceback" not in err


def test_gm_model_file_and_arg_validation(tmp_path, capsys):
    assert main(["gm", "optimize"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["gm", "optimize", "--grid", "4"]) == 1
    model_file = tmp_path / "m.json"
    model_file.write_text(ising_grid(2, 2, sigma=0.6, seed=1).to_json())
    assert main(["gm", "optimize", "--model", str(model_file)]) == 0
    assert main(["gm", "optimize", "--model", str(model_file),
                 "--grid", "2x2"]) == 1


@pytest.mark.parametrize("command", [["gm", "optimize"], ["gen", "ising"]])
@pytest.mark.parametrize("spec", ["4", "3x", "x3", "ax2", "2x2x2"])
def test_bad_grid_spec_is_a_clean_error(capsys, command, spec):
    assert main(command + ["--grid", spec]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad grid spec '{spec}', expected ROWSxCOLS\n"


@pytest.mark.parametrize("message, want", [
    ("Unable to allocate 74.5 GiB for an array with shape (10000000000,)",
     "error: out of memory: Unable to allocate 74.5 GiB for an array with "
     "shape (10000000000,)\n"),
    ("", "error: out of memory\n")])
def test_a_grid_too_large_for_memory_is_a_clean_error(monkeypatch, capsys,
                                                      message, want):
    # the model builder raises as numpy does on a 100000x100000 grid, so no
    # test allocates one
    def no_memory(rows, cols, sigma, seed):
        assert (rows, cols) == (100_000, 100_000)
        raise MemoryError(message)

    monkeypatch.setattr("osstar.cli.ising_grid", no_memory)
    assert main(["gm", "optimize", "--grid", "100000x100000"]) == 1
    assert capsys.readouterr() == ("", want)


@pytest.mark.parametrize("text", [
    '{"nodes": [{"id": 0, "domain": 2, "log_psi": [0, 0]}]}',
    '{"nodes": [{"id": 0, "log_psi": [0, 0]}], "edges": []}',
    '{"nodes": 5, "edges": []}', '[1, 2]',
    '{"nodes": [{"id": 0, "domain": 2.5, "log_psi": [0, 0]}], "edges": []}',
])
def test_gm_malformed_model_file_is_a_clean_error(tmp_path, capsys, text):
    model_file = tmp_path / "m.json"
    model_file.write_text(text)
    assert main(["gm", "optimize", "--model", str(model_file)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_gm_bench_per_policy_csvs(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["gm", "bench", "--grid", "3x3", "--sigma", "0.6",
               "--refinements", "4", "--trials-per-round", "40",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "policy" in text and "tau_tot_est" in text
    # the rounds column counts the baseline row and one per refinement
    rounds = {line.split()[0]: int(line.split()[1])
              for line in text.splitlines()[1::2]}
    assert list(rounds) == ["i", "ii", "iii", "iv"]
    # policies iii and iv ignore rejects, so they never stop early
    assert rounds["iii"] == rounds["iv"] == 1 + 4
    for label, n in rounds.items():
        f = tmp_path / f"bench_{label}.csv"
        lines = f.read_text().splitlines()
        assert lines[0].startswith("refinement_index,")
        # the header, then one row per refinement performed
        assert len(lines) == 1 + (n - 1)


def test_gm_bench_single_policy_keeps_path(tmp_path):
    out = tmp_path / "one.csv"
    rc = main(["gm", "bench", "--grid", "2x2", "--policy", "ii",
               "--refinements", "3", "--trials-per-round", "30",
               "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert not (tmp_path / "one_ii.csv").exists()


def test_gen_ising_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["gen", "ising", "--grid", "2x3", "--sigma", "0.4",
                 "--seed", "9", "--out", str(out)]) == 0
    model = PairwiseModel.from_json(out.read_text())
    assert model.n_nodes == 6
    capsys.readouterr()
    assert main(["gen", "ising", "--grid", "1x2", "--out", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["nodes"]) == 2


@pytest.mark.parametrize("command", [["gm", "sample", "--grid", "3x3"],
                                     ["gen", "ising", "--grid", "3x3"]])
@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_bad_sigma_is_a_clean_error(capsys, command, sigma):
    assert main(command + ["--sigma", sigma]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: sigma must be finite")


@pytest.mark.parametrize("command, flag, seed", [
    (["gm", "optimize"], "--model-seed", "-1"),
    (["gen", "ising"], "--seed", "-3")])
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, command,
                                                        flag, seed):
    assert main(command + ["--grid", "2x2", flag, seed]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:")
    assert f"error: argument {flag}: expected a non-negative integer" in err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


@pytest.mark.parametrize("command", [
    ["hmm", "sample", "--obs", "2", "2"],
    ["hmm", "decode", "--obs", "2", "2"],
    ["gm", "sample", "--grid", "3x3"],
    ["gm", "optimize", "--grid", "3x3"]])
def test_zero_trial_budget_is_a_clean_error(hmm_files, capsys, command):
    arpa, vocab = hmm_files
    io = ["--arpa", arpa, "--vocab", vocab] if command[0] == "hmm" else []
    assert main(command + io + ["--max-trials", "0"]) == 1
    err = capsys.readouterr().err
    assert err == "error: trial budget of 0 ran out before any trial\n"


def test_optimization_trial_csv_has_no_mass_estimators(hmm_files, tmp_path):
    # a MAP run reads only the max semiring, so there is no Q(X) to report
    arpa, vocab = hmm_files
    runs = {"decode": ["hmm", "decode", "--arpa", arpa, "--vocab", vocab,
                       "--obs", "2", "2", "2"],
            "optimize": ["gm", "optimize", "--grid", "3x3"]}
    for name, args in runs.items():
        f = tmp_path / f"{name}.csv"
        assert main(args + ["--metrics-out", str(f)]) == 0
        rows = [line.split(",") for line in f.read_text().splitlines()]
        assert rows[0] == CSV_COLUMNS and len(rows) > 2
        for row in rows[1:]:
            cells = dict(zip(CSV_COLUMNS, map(float, row)))
            for col in ("q_mass_log", "z_hat_log", "pi_hat", "tau_tot_est"):
                assert np.isnan(cells[col]), (name, col)
            assert np.isfinite(cells["log_q"])


SMS24 = ["--arpa", str(DATA / "sms24.arpa"),
         "--vocab", str(DATA / "sms24.vocab"),
         "--obs", *(DATA / "sms24.obs").read_text().split(), "--seed", "0"]

# stdout and the sha256 of the --metrics-out CSV on demos/data/sms24 at seed
# 0, pinned byte for byte: the draw and refinement streams must not change
GOLDEN = {
    "sample-batch-1": (["sample"], """\
trials: 100  accepts: 72  refinements: 28
acceptance rate: 0.7200 cumulative  0.7200 last-100
log Z-hat: -10.883686  pi-hat: 1.2680  est. cost per sample: 28.8
table builds: 29
bound contexts  order-1: 24  order-2: 68  order-3: 16  order-4: 0  order-5: 0
top samples:
  0.972  mgz gvt wqq gvu xhp qxc
  0.028  mgy gvt wqq gvu xhp qxc
""", "ddd27e3bdf866d52964147a028988a280c7623d9ff130be3e25ab54a6fb9f05f"),
    "decode": (["decode"], """\
decoded: mgz gvt wqq gvu xhp qxc
log p: -11.184072
certificate gap (log): 0
trials: 7  refinements: 6
bound contexts  order-1: 24  order-2: 6  order-3: 2  order-4: 2  order-5: 1
""", "6f3c7b64c76f99c5e7a75651421aa0c1e4819666eee747ff77c00f0c48f7fd4c"),
    # --order caps the LM that both the bound and the target read
    "decode-order-3": (["decode", "--order", "3"], """\
decoded: mgz gvt wqq gvu xhp qxc
log p: -11.182470
certificate gap (log): 0
trials: 6  refinements: 5
bound contexts  order-1: 24  order-2: 5  order-3: 0
""", "87da9d1cc7b96531c64352818505291829b18a1f4bd765867de94d10548360fd"),
    "sample-order-2": (["sample", "--order", "2", "--ar-threshold", "0.5"],
                       """\
trials: 100  accepts: 78  refinements: 22
acceptance rate: 0.7800 cumulative  0.7800 last-100
log Z-hat: -11.647133  pi-hat: 1.1084  est. cost per sample: 22.9
table builds: 23
bound contexts  order-1: 24  order-2: 63
top samples:
  0.936  mgz gvt wqq gvu xhp qxc
  0.026  mgy gvt wqq gvu xhp qxc
  0.013  mgz gvt wqq gtt wis pxa
  0.013  mgz gvt wqq gvu xhp pxa
  0.013  mgz gvt wqq gvu xhp qyc
""", "aa94158d9df8b89c6b5d275fff57cfe267c343cbc67735cc83c31066fa78d040"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sms24_streams_are_pinned(name, tmp_path, capsys):
    command, stdout, csv_sha = GOLDEN[name]
    f = tmp_path / "m.csv"
    assert main(["hmm", *command, *SMS24, "--metrics-out", str(f)]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(f.read_bytes()).hexdigest() == csv_sha


KEYPAD = ["--arpa", KEYPAD_ARPA, "--vocab", str(DATA / "keypad4663.vocab"),
          "--obs", "4663", "4663", "4663"]


@pytest.mark.parametrize("command", ["decode", "sample"])
def test_order_cap_above_the_lm_order_changes_nothing(tmp_path, capsys,
                                                      command):
    # keypad4663 is an order-3 LM
    outs = []
    for cap in ([], ["--order", "9"]):
        f = tmp_path / "m.csv"
        assert main(["hmm", command, *KEYPAD, *cap,
                     "--metrics-out", str(f)]) == 0
        outs.append((capsys.readouterr().out, f.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("bad", [["--refinements", "-1"],
                                 ["--trials-per-round", "0"]])
def test_gm_bench_rejects_bad_counts_before_printing(capsys, bad):
    assert main(["gm", "bench", "--grid", "3x3"] + bad) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", ["optimize", "sample"])
def test_gm_overflowing_potentials_are_a_clean_error(command, capsys):
    # the largest magnitudes of a 2x2 grid at sigma 1e308 sum past the
    # largest float: rejected as the model is built, before any float
    # operation can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gm", command, "--grid", "2x2",
                     "--sigma", "1e308"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    assert "Warning" not in err


def test_gm_sample_rejects_a_nan_threshold(capsys):
    assert main(["gm", "sample", "--grid", "2x2",
                 "--ar-threshold", "nan"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


# stdout and the sha256 of the --metrics-out CSV of the grid commands, pinned
# byte for byte: forest passes, draws, argmax tie search and refinement
# streams must not change (the 3x3 zero-field grid ties at every node)
GM_GOLDEN = {
    "sample-ising-iv": (
        ["sample", "--model", str(DATA / "ising_4x4.json"), "--policy", "iv"],
        """\
trials: 100  accepts: 90  refinements: 10
acceptance rate: 0.9000 cumulative  0.9000 last-100
log Z-hat: 31.926890  pi-hat: 0.9696  est. cost per sample: 11.0
subspaces: 11  bound builds: 557
""", "fa7e985245c0e7d114f09c41426064f75bd365fc2982ba58cac0b05e0641966c"),
    "sample-ii-retree": (
        ["sample", "--grid", "4x4", "--policy", "ii", "--retree"], """\
trials: 100  accepts: 87  refinements: 13
acceptance rate: 0.8700 cumulative  0.8700 last-100
log Z-hat: 14.107341  pi-hat: 0.9476  est. cost per sample: 14.1
subspaces: 14  bound builds: 53
""", "42755cf3ca573e2e704e4e050862962168e71101ae7e80773e3abae8ba33a00f"),
    "optimize-iii": (
        ["optimize", "--grid", "5x5", "--sigma", "1.0", "--model-seed", "3",
         "--policy", "iii"], """\
argmax: 1000110101100000001101110
log p: 41.909787
certificate gap (log): 0
trials: 50  refinements: 49  subspaces: 50
""", "a3e46b39ecc978e0eb52ddc272df0f946e30648fe770e8228ab590ee8005dff7"),
    "optimize-zero-field": (
        ["optimize", "--grid", "3x3", "--sigma", "0"], """\
argmax: 000000000
log p: 0.000000
certificate gap (log): 0
trials: 1  refinements: 0  subspaces: 1
""", "ae154a77df6ad102a6fb89220504f5c0d59d7b42a05f0ddc7bb76df635f74a6d"),
}

GM_BENCH_GOLDEN = {
    "i": ("     i      31  0.5250  0.5202        60  61.9",
          "cab417f3a2bc11ad043d84c6f7410de6a27bc2bcfbe92a09e5878ae5f48a048e"),
    "ii": ("    ii      28  1.0000  0.9972        54  55.0",
           "2770373bc8db53d70230be2115a42fa383d79ce7ab37cbad01005acdd8a9f3fe"),
    "iii": ("   iii      31  0.5950  0.6089        60  61.6",
            "df16abcdca16b673bd9b310c5cd6e02866b6735c746717da14d3a4ce3f1f08d6"),
    "iv": ("    iv      31  1.0000  1.0046      1480  1481.0",
           "697bc22adddaac4fd400e031fa86dbecb8124d1bc148f1eb3e6a78b066eed683"),
}


@pytest.mark.parametrize("name", sorted(GM_GOLDEN))
def test_gm_streams_are_pinned(name, tmp_path, capsys):
    command, stdout, csv_sha = GM_GOLDEN[name]
    f = tmp_path / "m.csv"
    assert main(["gm", *command, "--metrics-out", str(f)]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(f.read_bytes()).hexdigest() == csv_sha


def test_gm_bench_csvs_are_pinned(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["gm", "bench", "--grid", "4x4", "--sigma", "1.2",
                 "--refinements", "30", "--out", str(out)]) == 0
    lines = ["policy  rounds  ar_hat  pi_hat  tau_ref  tau_tot_est"]
    for label, (row, csv_sha) in GM_BENCH_GOLDEN.items():
        f = tmp_path / f"bench_{label}.csv"
        lines += [row, f"wrote {f}"]
        assert hashlib.sha256(f.read_bytes()).hexdigest() == csv_sha, label
    assert capsys.readouterr().out.splitlines() == lines
