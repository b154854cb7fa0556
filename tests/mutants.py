"""Mutation check of the guarantee contract in tests/test_contract.py
(and of the mechanism properties named below, from the other test files).

Run from anywhere as `python tests/mutants.py` (pytest does not collect this
file).  Each mutant below replaces one exact piece of text in src/osstar by
a broken version, in a fresh temporary copy of src/, and runs only the
tests it names against that copy, under the hypothesis profile "mutants"
(no shrinking, nothing saved; see conftest.py) and hypothesis seed 0, so
each property draws the same examples whatever its source text.  Every
named test must fail; a name without a [id] fails when any of its
parametrizations does.  The script first runs every named test on an
unbroken copy, where all must pass, and exits non-zero if a mutant
survives or its text does not occur exactly once.

`python tests/mutants.py NAME...` runs only the mutants of those names.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SENTENCE = "tests/test_contract.py::test_sentence_runs_keep_the_contract"
GRID = "tests/test_contract.py::test_grid_runs_keep_the_contract"
GRID_DP = "tests/test_contract.py::test_grid_maps_match_the_transfer_matrix_dp"
GRID_Z = "tests/test_contract.py::test_grid_samples_match_the_transfer_matrix_dp"
SENTENCE_DP = "tests/test_contract.py::test_sentences_match_the_lattice_dp"
FRESH = ("tests/test_piecewise.py::"
         "test_shared_children_equal_fresh_builds_on_random_models")
SPLIT = "tests/test_graphical.py::test_split_rejects_a_node_that_is_not_free"
REJECTS = "tests/test_automaton.py::test_every_reject_reaches_a_refinement"
LAYERS = ("tests/test_automaton.py::"
          "test_every_refinement_keeps_the_compiled_automaton_exact")
LOGS = "tests/test_engine.py::test_log_sums_equal_numpys_bit_for_bit"
ROWS = ("tests/test_graphical.py::"
        "test_rows_equal_the_numpy_pass_bit_for_bit[mixed]")

# name: (file under src/osstar, exact old text, new text, tests that fail)
MUTANTS = {
    "log_sum_cap": (
        "graphical.py",
        "                total += cap[eid]\n",
        "                total += phi[at + config[u] * dv + config[v]]\n",
        [GRID, GRID_DP, GRID_Z]),
    "log_sum_cap_cursor_stuck": (
        "graphical.py",
        "                next_cap = next(capped, None)\n",
        "",
        [GRID, GRID_DP, GRID_Z]),
    "const_keeps_forest_edges": (
        "graphical.py",
        " and eid != edge_of[v]:",
        ":",
        [GRID, GRID_DP, GRID_Z]),
    "forest_without_cut": (
        "graphical.py",
        "        roots = sorted([r for r in self.roots if r != node] + kids)",
        "        roots = sorted(r for r in self.roots if r != node)",
        [GRID, GRID_DP, GRID_Z]),
    "cdf_memo_without_parent_value": (
        "graphical.py",
        "        if key not in memo:\n"
        "            memo[key] = cdf(self._logits(beta, j, key))\n"
        "        return memo[key]\n",
        "        if None not in memo:\n"
        "            memo[None] = cdf(self._logits(beta, j, key))\n"
        "        return memo[None]\n",
        [GRID, GRID_Z]),
    "child_reads_base_in_changed_set": (
        "graphical.py",
        "                j = forest.parent[j]\n",
        "                j = None\n",
        [GRID, GRID_DP, GRID_Z]),
    "fresh_split_ignores_moved_nodes": (
        "graphical.py",
        "        for j in touched + moved:\n",
        "        for j in touched:\n",
        [FRESH, GRID, GRID_DP, GRID_Z]),
    "split_node_kept_in_copies": (
        "graphical.py",
        "            beta[node] = msg[node] = memo[node] = None\n",
        "",
        [FRESH]),
    "new_root_keeps_message": (
        "graphical.py",
        "                msg[j] = None\n",
        "",
        [FRESH]),
    "edge_rows_keyed_by_edge_only": (
        "graphical.py",
        "        rows = self._rows.get((eid, j))\n"
        "        if rows is None:\n"
        "            rows = self._rows[eid, j] = ",
        "        rows = self._rows.get(eid)\n"
        "        if rows is None:\n"
        "            rows = self._rows[eid] = ",
        [FRESH, GRID]),
    "memo_read_from_base_in_changed_set": (
        "graphical.py",
        "            memo[j] = {}\n",
        "            memo[j] = {} if base is None else base[2][j]\n",
        [GRID, GRID_Z]),
    "split_accepts_a_node_that_is_not_free": (
        "graphical.py",
        "        if node not in self.free:\n",
        "        if False:\n",
        [SPLIT]),
    "argmax_clamped_fallback_skipped": (
        "graphical.py",
        "                near_tie = len(logits) > 1 and "
        "sorted(logits)[-2] >= top - tol\n",
        "                near_tie = False\n",
        [GRID]),
    "argmax_tie_max": (
        "piecewise.py",
        "        return min(leaf.argmax() for m, leaf in maxes if m == top)",
        "        return max(leaf.argmax() for m, leaf in maxes if m == top)",
        [GRID]),
    "leaf_of_routes_to_the_next_leaf": (
        "piecewise.py",
        "            lid = children[config[node]]\n",
        "            lid = children[(config[node] + 1) % len(children)]\n",
        [GRID, GRID_DP, GRID_Z]),
    "leaf_cdf_reversed": (
        "piecewise.py",
        "                                  np.cumsum(probs).tolist())",
        "                                  np.cumsum(probs[::-1]).tolist())",
        [GRID, GRID_Z]),
    "add_state_reroutes_path_only": (
        "automaton.py",
        "    prev.dest[prev.ending[ctx[:-1]], prev.col[ctx[-1]]] = row",
        "    prev.dest[rows[i - 1], prev.col[ctx[-1]]] = row",
        [SENTENCE, SENTENCE_DP]),
    "dirty_mark_keeps_the_latest_layer": (
        "automaton.py",
        "                p.dirty = max(p.dirty, layer)",
        "                p.dirty = layer",
        [SENTENCE, SENTENCE_DP]),
    "rebuild_keeps_the_draw_memo": (
        "automaton.py",
        "            p.vals[i] = v\n            p.memo[i] = {}\n",
        "            p.vals[i] = v\n",
        [SENTENCE, SENTENCE_DP]),
    "refine_picks_roundoff_gap": (
        "automaton.py",
        "    best_i, best_gap = None, 1e-12",
        "    best_i, best_gap = None, 0.0",
        [SENTENCE]),
    "deepen_one_order_only": (
        "automaton.py",
        "        if weight < old_weight - floor or order + 1 > full:",
        "        if True:",
        [SENTENCE, SENTENCE_DP]),
    "refine_reads_an_unwalked_record": (
        "automaton.py",
        "    walked = last is not None and last[1] == rejected\n",
        "    walked = last is not None\n",
        [SENTENCE]),
    "fallback_floor_roundoff": (
        "automaton.py",
        "            deepen, floor = (best_i,), 1e-12\n",
        "            deepen, floor = (best_i,), 1e-15\n",
        [REJECTS]),
    "fallback_deepens_one_site": (
        "automaton.py",
        "            deepen = [i for i, e in reversed(excess) if e > 0]\n",
        "            deepen = [i for i, e in excess if e > 0][:1]\n",
        [SENTENCE]),
    "viterbi_keeps_reads_of_the_replaced_path": (
        "automaton.py",
        "            words, rows, total = _smallest_argmax(q, tol)\n"
        "            reads = {}\n",
        "            words, rows, total = _smallest_argmax(q, tol)\n",
        [LAYERS]),
    "viterbi_near_tie_fallback_skipped": (
        "automaton.py",
        "    if not loose:\n        # a near tie",
        "    if False:\n        # a near tie",
        [SENTENCE]),
    "pick_unscaled": (
        "engine.py",
        "    return bisect.bisect_right(cdf, rng.random() * cdf[-1])",
        "    return bisect.bisect_right(cdf, rng.random())",
        [SENTENCE, SENTENCE_DP, GRID, GRID_Z]),
    "trial_equality_is_a_violation": (
        "engine.py",
        "    if not (log_p <= log_q and math.isfinite(log_q)):",
        "    if not (log_p < log_q and math.isfinite(log_q)):",
        [SENTENCE, SENTENCE_DP, GRID, GRID_Z]),
    "certificate_within_roundoff": (
        "engine.py",
        "        accepted = log_p >= log_q\n",
        "        accepted = log_p >= log_q - 1e-12\n",
        [SENTENCE]),
    "run_refines_accepted_trials": (
        "engine.py",
        "        if not record.accepted and refiner is not None:",
        "        if refiner is not None:",
        [SENTENCE, SENTENCE_DP, GRID]),
    "cdf_inverts_weights": (
        "engine.py",
        "math.exp(l - m)",
        "math.exp(m - l)",
        [SENTENCE, GRID]),
    "logaddexp_drops_equal_case": (
        "engine.py",
        "    if x == y:  # also equal infinities, whose difference is nan\n"
        "        return x + 0.6931471805599453  # log 2, numpy's NPY_LOGE2\n",
        "",
        [LOGS]),
    "log_sum_folds_right_to_left": (
        "engine.py",
        "    return functools.reduce(logaddexp, values, -math.inf)",
        "    return functools.reduce(logaddexp, list(values)[::-1], -math.inf)",
        [LOGS, ROWS]),
    "run_skips_on_refine": (
        "engine.py",
        "            if on_refine is not None:\n"
        "                on_refine(proposal)\n",
        "",
        [SENTENCE, GRID]),
}


def failed_tests(src: Path, tests: list[str]) -> tuple[set[str], float, str]:
    """Run the tests against the osstar package under src: the node ids
    that failed, the wall time and pytest's output."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", "--hypothesis-profile=mutants",
             "--hypothesis-seed=0", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        # a hang is not a failing test: the mutant counts as surviving
        return set(), time.monotonic() - start, "timed out after 600 s"
    text = out.stdout + out.stderr
    return (set(re.findall(r"^FAILED (\S+)", text, re.M)),
            time.monotonic() - start, text)


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"no mutant named {', '.join(unknown)}")
        return 2
    chosen = {n: MUTANTS[n] for n in names or MUTANTS}
    bad = 0
    for name, (file, old, _, _) in chosen.items():
        count = (ROOT / "src" / "osstar" / file).read_text().count(old)
        if count != 1:
            print(f"{name}: its text occurs {count} times in {file}, not once")
            bad += 1
    if bad:
        return 1
    tests = sorted({t for *_, named in chosen.values() for t in named})
    with tempfile.TemporaryDirectory() as tmp:
        failed, took, text = failed_tests(copy_src(Path(tmp) / "clean"), tests)
        if failed or " passed" not in text:
            print(text)
            print(f"the unbroken copy fails {sorted(failed)}: fix it first")
            return 1
        print(f"unbroken copy: {len(tests)} tests pass ({took:.1f}s)")
        for name, (file, old, new, named) in chosen.items():
            src = copy_src(Path(tmp) / name)
            path = src / "osstar" / file
            path.write_text(path.read_text().replace(old, new))
            failed, took, text = failed_tests(src, named)
            alive = [t for t in named if not any(
                f == t or f.startswith(t + "[") for f in failed)]
            verdict = "SURVIVED" if alive else "killed"
            print(f"{verdict:8} {name} ({file}, {took:.1f}s)")
            if alive:
                print(f"         still passing: {', '.join(alive)}")
                bad += 1
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
