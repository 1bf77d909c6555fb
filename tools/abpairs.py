"""Alternating A/B pairs of benchmark runs: a git ref against the checkout.

Usage: python tools/abpairs.py REF [--pairs N] [--workload NAME] [--seed S]
                               [--seconds S]

REF (a commit, branch or tag) is exported with ``git archive`` into a
temporary directory, and the checkout is copied into another: its working
tree, uncommitted and untracked files included, less what ``.gitignore``
names (caches, results, build outputs), with no ``.git``.  So both sides run
from fresh directories made the same way; run in place, a long-used checkout
read ``setup_s`` 13-14% lower than an export of its own commit.  Each pair runs
``perfbench/run.py --trace 0`` once in each copy, each in a new process, and
alternates which side runs first.  ``REF`` = ``HEAD`` with a clean checkout
gives pairs of one tree against itself, the spread of the method.

For every end-to-end metric of ``BENCHMARK.json`` and for the unscaled pass
median (the ``unscaled:`` line of a run), it prints each side's median
[q1-q3], the change of the checkout's median from the ref's in percent, and
in how many pairs the checkout was better.  A second table does the same for
each op's scaled time, the median over a run's untraced passes, which it
reads from ``op_scaled_s`` in the result file the run writes under
``perfbench/out/``.  It exits 1 if a run fails or prints
``"correct": false``, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASS_MEDIAN = "pass_median_s"  # the unscaled pass median, lower is better
_UNSCALED = re.compile(r"^unscaled: .*pass median (\S+) s", re.MULTILINE)


def parse_run(stdout: str) -> tuple[bool, dict]:
    """(correct, metrics) of one ``run.py --trace 0`` output: the metrics of
    its last line, the JSON result, plus the unscaled pass median."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    found = _UNSCALED.search(stdout)
    if found:
        metrics[PASS_MEDIAN] = float(found.group(1))
    return result["correct"] is True, metrics


def op_times(record: dict) -> dict:
    """``"op NAME"`` -> the op's median scaled time over the untraced
    passes of one run's result file (``record``, its parsed JSON)."""
    passes = [p for p in record["passes"] if not p["traced"]]
    return {f"op {name}": statistics.median(p["op_scaled_s"][i]
                                            for p in passes)
            for i, name in enumerate(passes[0]["ops"])}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def summarize(ref_runs: list, new_runs: list, better: dict) -> list:
    """One row per metric of ``better`` (name -> "lower" or "higher") that
    every run has: name, the ref's and the checkout's (median, q1, q3), the
    change of the medians in percent and the pairs the checkout won (run i
    of one side against run i of the other)."""
    rows = []
    for name, direction in better.items():
        if not all(name in run for run in ref_runs + new_runs):
            continue
        ref = [run[name] for run in ref_runs]
        new = [run[name] for run in new_runs]
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (b - a) < 0 for a, b in zip(ref, new))
        ref_q, new_q = _quartiles(ref), _quartiles(new)
        change = (100.0 * (new_q[0] - ref_q[0]) / ref_q[0] if ref_q[0]
                  else float("nan"))
        rows.append({"metric": name, "ref": ref_q, "new": new_q,
                     "change_pct": change, "won": won,
                     "pairs": min(len(ref), len(new))})
    return rows


def format_rows(rows: list, ref_name: str) -> str:
    def cell(q):
        return f"{q[0]:.4g} [{q[1]:.4g}-{q[2]:.4g}]"

    out = [f"| metric | {ref_name} | checkout | change | checkout better |",
           "|---|---|---|---|---|"]
    for row in rows:
        out.append(f"| {row['metric']} | {cell(row['ref'])} | "
                   f"{cell(row['new'])} | {row['change_pct']:+.1f}% | "
                   f"{row['won']}/{row['pairs']} |")
    return "\n".join(out)


def directions() -> dict:
    """Metric name -> "lower"/"higher" for the end-to-end metrics of the
    checkout's BENCHMARK.json, then the unscaled pass median."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out[PASS_MEDIAN] = "lower"
    return out


def export(ref: str, into: Path):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                              "--format=tar", ref], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def checkout_files(root: Path) -> list:
    """The checkout's files relative to ``root``: tracked and untracked,
    less the ignored ones and tracked files deleted from the tree."""
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "-co",
                             "--exclude-standard"], check=True,
                            stdout=subprocess.PIPE).stdout.decode()
    return sorted({name for name in listed.split("\0")
                   if name and (root / name).is_file()})


def copy_checkout(root: Path, into: Path):
    for name in checkout_files(root):
        (into / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(root / name, into / name)


def run_bench(tree: Path, args) -> tuple[bool, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: run in {tree} exited {proc.returncode}",
              file=sys.stderr)
        return False, {}
    ok, metrics = parse_run(proc.stdout)
    result = (tree / "perfbench" / "out"
              / f"BENCH_{args.workload}_seed{args.seed}_trace0.json")
    metrics.update(op_times(json.loads(result.read_text())))
    return ok, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("ref", help="git ref to compare the checkout against")
    p.add_argument("--pairs", type=int, default=6)
    p.add_argument("--workload", default="regression_adjoint")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)

    better = directions()
    runs = {"ref": [], "new": []}
    correct = True
    with tempfile.TemporaryDirectory(prefix="abpairs-") as tmp:
        trees = {"ref": Path(tmp) / "ref", "new": Path(tmp) / "checkout"}
        for tree in trees.values():
            tree.mkdir()
        export(args.ref, trees["ref"])
        copy_checkout(ROOT, trees["new"])
        for i in range(args.pairs):
            order = ("ref", "new") if i % 2 == 0 else ("new", "ref")
            for side in order:
                ok, metrics = run_bench(trees[side], args)
                correct &= ok
                runs[side].append(metrics)
            print(f"pair {i + 1}: " + ", ".join(
                f"{side} {runs[side][-1].get('wall_s', float('nan')):.4g} s"
                for side in order), flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"--seconds {args.seconds:g} runs, {args.ref} against the checkout")
    print(format_rows(summarize(runs["ref"], runs["new"], better), args.ref))
    ops = {name: "lower" for run in runs["new"][:1] for name in run
           if name.startswith("op ")}
    print("\nper op, seconds at the reference speed")
    print(format_rows(summarize(runs["ref"], runs["new"], ops), args.ref))
    if not correct:
        print("error: a run failed or printed \"correct\": false",
              file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
