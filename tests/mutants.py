"""Mutation check of the guarantee contract in tests/test_contract.py.

Run from anywhere as `python tests/mutants.py` (pytest does not collect this
file).  Each mutant below replaces one exact piece of text in src/osstar by
a broken version, in a fresh temporary copy of src/, and runs only the
tests it names against that copy, under the hypothesis profile "mutants"
(fixed examples, no shrinking, nothing saved; see conftest.py).  Every
named test must fail.  The script first runs every named test on an
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

# name: (file under src/osstar, exact old text, new text, tests that fail)
MUTANTS = {
    "log_sum_cap": (
        "graphical.py",
        "            total += (cap[eid] if eid in capped\n"
        "                      else phi[at + config[u] * dv + config[v]])\n",
        "            total += phi[at + config[u] * dv + config[v]]\n",
        [GRID]),
    "const_ids_retest": (
        "graphical.py",
        "            retest = [eid for eid, _ in model.adjacency[k]]\n",
        "            retest = []\n",
        [GRID]),
    "forest_without_cut": (
        "graphical.py",
        "        while end < len(order) and self.parent[order[end]] in inside:",
        "        while end < len(order) and self.parent[order[end]] == node:",
        [GRID]),
    "cdf_memo_without_parent_value": (
        "graphical.py",
        "        cdf = self._cdfs.get((j, key))\n"
        "        if cdf is None:\n"
        "            logits = np.array(self._logits(self.beta(\"sum\"), j, key))\n"
        "            cdf = self._cdfs[j, key] = np.cumsum(",
        "        cdf = self._cdfs.get(j)\n"
        "        if cdf is None:\n"
        "            logits = np.array(self._logits(self.beta(\"sum\"), j, key))\n"
        "            cdf = self._cdfs[j] = np.cumsum(",
        [GRID]),
    "child_reads_base_in_changed_set": (
        "graphical.py",
        "            if base is not None and j not in self._changed:",
        "            if base is not None:",
        [GRID]),
    "argmax_clamped_fallback_skipped": (
        "graphical.py",
        "            if len(logits) > 1 and sorted(logits)[-2] >= top - tol:\n"
        "                return None\n",
        "",
        [GRID]),
    "leaf_draw_unscaled": (
        "graphical.py",
        "            return bisect.bisect_right(cdf, rng.random() * cdf[-1])",
        "            return bisect.bisect_right(cdf, rng.random())",
        [GRID]),
    "argmax_tie_max": (
        "piecewise.py",
        "        return min(leaf.argmax() for m, leaf in maxes if m == top)",
        "        return max(leaf.argmax() for m, leaf in maxes if m == top)",
        [GRID]),
    "leaf_cdf_reversed": (
        "piecewise.py",
        "                                  np.cumsum(probs).tolist())",
        "                                  np.cumsum(probs[::-1]).tolist())",
        [GRID]),
    "add_state_reroutes_path_only": (
        "automaton.py",
        "    prev.dest[prev.ending[ctx[:-1]], prev.col[ctx[-1]]] = row",
        "    prev.dest[rows[i - 1], prev.col[ctx[-1]]] = row",
        [SENTENCE]),
    "dirty_mark_keeps_the_latest_layer": (
        "automaton.py",
        "                self._dirty[semiring] = max(self._dirty[semiring], layer)",
        "                self._dirty[semiring] = layer",
        [SENTENCE]),
    "rebuild_keeps_the_draw_memo": (
        "automaton.py",
        "            vals[i] = v\n            memo[i] = {}\n",
        "            vals[i] = v\n",
        [SENTENCE]),
    "refine_picks_roundoff_gap": (
        "automaton.py",
        "    best_i, best_gap = None, 1e-12",
        "    best_i, best_gap = None, 0.0",
        [SENTENCE]),
    "deepen_one_order_only": (
        "automaton.py",
        "        if weight < old_weight - 1e-15 or order + 1 > full:",
        "        if True:",
        [SENTENCE]),
    "sample_path_unscaled": (
        "automaton.py",
        "        j = layer.perm[bisect.bisect_right(cdf, rng.random() * cdf[-1])]",
        "        j = layer.perm[bisect.bisect_right(cdf, rng.random())]",
        [SENTENCE]),
    "viterbi_near_tie_fallback_skipped": (
        "automaton.py",
        "    if not loose:\n        # a near tie",
        "    if False:\n        # a near tie",
        [SENTENCE]),
    "trial_equality_is_a_violation": (
        "engine.py",
        "    if not (log_p <= log_q and math.isfinite(log_q)):",
        "    if not (log_p < log_q and math.isfinite(log_q)):",
        [SENTENCE, GRID]),
    "certificate_within_roundoff": (
        "engine.py",
        "        accepted = log_p >= log_q\n",
        "        accepted = log_p >= log_q - 1e-12\n",
        [SENTENCE]),
    "run_refines_accepted_trials": (
        "engine.py",
        "        if not record.accepted and refiner is not None:",
        "        if refiner is not None:",
        [SENTENCE, GRID]),
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
             "no:cacheprovider", "--hypothesis-profile=mutants", *tests],
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
            alive = [t for t in named if t not in failed]
            verdict = "SURVIVED" if alive else "killed"
            print(f"{verdict:8} {name} ({file}, {took:.1f}s)")
            if alive:
                print(f"         still passing: {', '.join(alive)}")
                bad += 1
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
