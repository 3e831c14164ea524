"""Alternating pairs of benchmark runs: a base commit against the working tree.

Usage, from the repository root:

    python3 tools/pairs.py --workload param_elim --seed 3000 --pairs 10 \\
        --seconds 6 --metric peak_rss_mb --out BENCH_<n>.json
    python3 tools/pairs.py --aa --workload param_elim --seed 1 --pairs 1 \\
        --seconds 2 --metric wall_s --out /tmp/aa.json

The base (--base, default HEAD) is unpacked into a temporary directory
with git archive; the working tree's src/ and perfbench/ are copied into
another, without bytecode caches or perfbench/work.  With --aa both
sides are git archives of HEAD, as a control.  Pair i runs

    python3 perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0

in each directory, the base first in even-numbered pairs and the change
first in odd-numbered ones.  Every run must read correct: true.  Before
the first pair each directory gets one untimed run (--seconds 0): the
first run in a fresh copy byte-compiles the sources and reads a higher
peak_rss_mb (BENCH_14.json, warmup_artifact).

The output file holds the command, the Python version, nproc, every
run, and per end-to-end metric each side's values, median and quartiles
and the pairs the change reads better or worse in.  For the named
metric it holds the claim verdict of alternating pairs: over at least
ten pairs, the change is better in at least nine tenths of them (ties
count for neither), and the medians differ, in the better direction,
by more than the distance between the base's quartiles.  The exit code is 1 when a run
was not correct, else 0; timings are never gated.

Standard library only; it reads BENCHMARK.json for the metrics.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "perfbench")


def log(line):
    print(line, file=sys.stderr, flush=True)


def git(*args) -> bytes:
    return subprocess.run(("git",) + args, cwd=str(ROOT), check=True, stdout=subprocess.PIPE).stdout


def unpack(rev: str, dest: Path) -> None:
    """The benchmark's trees at rev, by git archive."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, *TREES))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(str(dest), filter="data")
        else:
            tar.extractall(str(dest))


def copy_working_tree(dest: Path) -> None:
    for tree in TREES:
        shutil.copytree(str(ROOT / tree), str(dest / tree), ignore=shutil.ignore_patterns("__pycache__", "work"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its JSON result, or correct: false with the reason."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(tree), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3


def summarize(base, change, lower_is_better=True):
    """Each side's median and quartiles of one metric over the pairs, the
    pairs the change is better and worse in, and the claim verdict."""
    sign = 1 if lower_is_better else -1
    better = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    worse = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq, cq = quartiles(base), quartiles(change)
    gap = sign * (bq[1] - cq[1])  # positive when the change's median is better
    iqr = bq[2] - bq[0]
    return {
        "base_median": bq[1],
        "change_median": cq[1],
        "change_over_base": cq[1] / bq[1] if bq[1] else None,
        "base_quartiles": bq,
        "change_quartiles": cq,
        "change_better_pairs": better,
        "change_worse_pairs": worse,
        "median_gap_in_better_direction": gap,
        "base_iqr": iqr,
        "claim_met": len(base) >= 10 and 10 * better >= 9 * len(base) and gap > iqr,
        "pairs_base_change": [[b, c] for b, c in zip(base, change)],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("param_elim", "pts_bmc", "ground_equisat"))
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--metric", required=True, help="the end-to-end metric the verdict is for")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--base", default="HEAD", help="the base revision (default HEAD)")
    parser.add_argument("--aa", action="store_true", help="run HEAD against itself")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.metric not in metrics:
        parser.error("--metric must be one of %s" % ", ".join(metrics))
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base_rev = "HEAD" if args.aa else args.base
    base_sha = git("rev-parse", base_rev).decode().strip()
    work = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = {"base": work / "base", "change": work / "change"}
        for tree in trees.values():
            tree.mkdir()
        unpack(base_sha, trees["base"])
        if args.aa:
            unpack(base_sha, trees["change"])
        else:
            copy_working_tree(trees["change"])
        runs = []
        for side, tree in trees.items():
            warmup = run_once(tree, args.workload, args.seed, 0)
            log("warm-up %-6s correct=%s" % (side, warmup.get("correct") is True))
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for position, side in enumerate(order):
                result = run_once(trees[side], args.workload, seed, args.seconds)
                values = {k: m["value"] for k, m in result.get("metrics", {}).items()}
                runs.append({"pair": i, "seed": seed, "side": side, "position": position,
                             "correct": result.get("correct") is True, "failed": result.get("failed"),
                             "metrics": values, **({"error": result["error"]} if "error" in result else {})})
                log("pair %d seed %d %-6s correct=%s %s" % (
                    i, seed, side, runs[-1]["correct"], " ".join("%s=%.4g" % kv for kv in values.items())))
    finally:
        shutil.rmtree(str(work), ignore_errors=True)
    correct = all(r["correct"] for r in runs)
    summary = {}
    if correct:
        for name, m in metrics.items():
            side = {s: [r["metrics"][name] for r in runs if r["side"] == s] for s in ("base", "change")}
            summary[name] = dict(unit=m["unit"], better=m["better"], bound=m["bound"],
                                 **summarize(side["base"], side["change"], m["better"] == "lower"))
    report = {
        "command": " ".join(["python3", "tools/pairs.py"] + (sys.argv[1:] if argv is None else list(argv))),
        "run_command": "python3 perfbench/run.py --workload %s --seed {%d..%d} --seconds %g --trace 0"
        % (args.workload, args.seed, args.seed + args.pairs - 1, args.seconds),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "base": base_sha,
        "change": "HEAD (A/A control)" if args.aa else "working tree",
        "workload": args.workload,
        "pairs": args.pairs,
        "first_in_pair": "base in even-numbered pairs (from 0), change in odd-numbered ones",
        "correct_all_runs": correct,
        "failed_all_runs": sum(r["failed"] or 0 for r in runs),
        "runs": runs,
        "metrics": summary,
        "claim": {"metric": args.metric, "workload": args.workload,
                  "met": summary[args.metric]["claim_met"] if correct else False},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    verdict = "met" if report["claim"]["met"] else "not met"
    print("%s %s over %d pairs: claim %s; every run correct: %s" % (
        args.workload, args.metric, args.pairs, verdict, correct))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
