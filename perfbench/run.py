"""paramverify benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is param_elim, pts_bmc, ground_equisat, or all (one row per
workload).  The seed picks the workload's inputs.  For S seconds the
benchmark runs the workload again and again, each time in a fresh
child process (child.py), and checks every output.  wall_s and cpu_s
are means over the children, the other metrics medians.  The sources
are byte-compiled before the first child, as an installed package
would be.

With --trace 0 it reports the end-to-end metrics: wall_s (process
start to last verdict, including import), cpu_s (user+sys of the
child), setup_s (process start until the input is parsed), peak_rss_mb.
With --trace 1 it alternates untraced and traced children and reports
per-layer metrics: self time and counters of the public functions of
each module, the traced and untraced wall time, and their difference,
the tracing overhead.  Traced children alternate two PYTHONHASHSEED
values and every counter must agree between them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An obligation (a task, or a
ground instance) fails on an engine error, a traceback, a report block
that differs from the stored one, a wrong verdict, or a satisfying
assignment that does not satisfy its formulas.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import check
import workloads
from spans import TRACED, inclusive_time, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150
# no child starts once the run would likely pass this, so a run ends in time
RUN_BUDGET_S = 160
HASH_SEEDS = ("0", "12345")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer counters reported (the tracer keeps more for the determinism check)
LAYER_COUNTERS = (
    "linear.is_sat.calls",
    "linear.is_sat.max_atoms",
    "linear.decide.calls",
    "linear.decide.sat",
    "linear.eliminate.calls",
    "linear.eliminate.conjuncts_in",
    "linear.eliminate.conjuncts_out",
    "linear.simplify.conjuncts_in",
    "linear.simplify.conjuncts_out",
    "linear.to_linear.conjuncts_out",
    "reduction.reduce_chain.calls",
    "reduction.reduce_chain.instances",
    "reduction.reduce_chain.ground_out",
    "hybrid.vcs_invariant.vcs",
    "hybrid.vcs_chatterfree.vcs",
)
SELF_TIMES = tuple(TRACED) + ("bench.startup", "bench.import", "bench.main")


class Workload:
    """A workload's input, written to the work directory, and the check
    of one child's outputs against the expected ones."""

    def __init__(self, name, seed, work):
        if name == "ground_equisat":
            instances = workloads.ground_equisat(seed)
            self.expected = [inst["sat"] for inst in instances]
            self.obligations = len(instances)
            path = work / "instances.json"
            path.write_text(json.dumps([{"clauses": i["clauses"], "goal": i["goal"]} for i in instances]))
            self.spec = {"kind": "library", "input": str(path), "seed_terms": workloads.SEED_TERMS}
        else:
            make = workloads.param_elim if name == "param_elim" else workloads.pts_bmc
            self.names, text = make(seed)
            self.blocks = check.expected_blocks(name)
            self.known_answer = workloads.known_answer if name == "pts_bmc" else None
            self.obligations = len(self.names)
            path = work / "tasks.yaml"
            path.write_text(text)
            self.spec = {"kind": "cli", "input": str(path)}

    def failures(self, result, report):
        """Failed obligations of one child, with a note per failure."""
        if result is None or result.get("error"):
            return self.obligations, [result["error"] if result else "child wrote no result"]
        if self.spec["kind"] == "cli":
            if result["exit_code"] != 0:
                return self.obligations, ["exit code %s: %s" % (result["exit_code"], result["stderr"])]
            notes = check.failed_tasks(self.names, report, self.blocks, self.known_answer)
        else:
            notes = [
                "instance %d: sat=%s, expected %s" % (k, got, want)
                for k, (got, want) in enumerate(zip(result["verdicts"], self.expected))
                if got != want
            ]
        bad = len(notes) + result["bad_witnesses"]
        if result["bad_witnesses"]:
            notes.append("%d of %d witnesses fail their formulas" % (result["bad_witnesses"], result["witnesses"]))
        return min(self.obligations, bad), notes


def run_child(workload, work, index, traced, hash_seed):
    """Run one repetition; returns (result dict or None, report text, trace or None)."""
    stem = work / ("child%03d" % index)
    spec = dict(
        workload.spec,
        trace=traced,
        result_out=str(stem) + ".result.json",
        trace_out=str(stem) + ".trace.json",
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    spec_path = str(stem) + ".spec.json"
    with open(str(stem) + ".out", "w+b") as out, open(str(stem) + ".err", "w+b") as err:
        spec["t_spawn"] = perf_counter()
        Path(spec_path).write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), spec_path], cwd=str(ROOT), env=env, stdout=out, stderr=err
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        out.seek(0)
        report = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    try:
        result = json.loads(Path(spec["result_out"]).read_text())
    except (OSError, ValueError):
        return None, report, None
    result["stderr"] = stderr
    trace = None
    if traced and Path(spec["trace_out"]).exists():
        trace = json.loads(Path(spec["trace_out"]).read_text())
    return result, report, trace


def log(line):
    print(line, file=sys.stderr)


def measure(name, seed, seconds, trace):
    """Run one workload for the given time; returns the JSON result."""
    started = perf_counter()
    work = Path(tempfile.mkdtemp(prefix="run-", dir=str(HERE / "work")))
    try:
        workload = Workload(name, seed, work)
        attempted = failed = 0
        plain, traced, traces = [], [], []
        index = 0

        def one(is_traced, hash_seed):
            nonlocal attempted, failed, index
            t0 = perf_counter()
            result, report, tr = run_child(workload, work, index, is_traced, hash_seed)
            index += 1
            bad, notes = workload.failures(result, report)
            if is_traced and tr is None:
                bad, notes = workload.obligations, notes + ["traced child wrote no trace"]
            attempted += workload.obligations
            failed += bad
            for note in notes:
                log("FAILED %s: %s" % (name, note.strip().splitlines()[-1] if note.strip() else note))
            if not bad:
                (traced if is_traced else plain).append(result)
                if is_traced:
                    traces.append(tr)
            return perf_counter() - t0

        last = 0.0
        while not failed:
            elapsed = perf_counter() - started
            enough = len(plain) >= MIN_CHILDREN and (not trace or len(traced) >= 2)
            # stop at the repetition boundary nearest to the requested time
            if (elapsed + last / 2 >= seconds and enough) or elapsed + 1.5 * last > RUN_BUDGET_S:
                break
            last = one(False, HASH_SEEDS[0])
            if trace:
                last += one(True, HASH_SEEDS[len(traced) % 2])
        metrics = layer_metrics(plain, traced, traces) if trace else end_to_end(plain)
        correct = failed == 0 and metrics is not None
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics or {},
            "children": len(plain) + len(traced),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _wall(result):
    m = result["marks"]
    return m["done"] - m["spawn"]


def end_to_end(results):
    """wall_s and cpu_s are means over the children, the others medians.
    The machine's slow phases outlast a child, so a run's children are
    not independent draws around one value; the mean uses every child's
    time and spreads less from run to run than the median does."""
    if not results:
        return None
    values = {
        "wall_s": [_wall(r) for r in results],
        "cpu_s": [r["cpu_s"] for r in results],
        "setup_s": [r["marks"]["setup"] - r["marks"]["spawn"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    log("wall_s of %d children: %s" % (len(results), " ".join("%.3f" % v for v in values["wall_s"])))
    average = {"wall_s": statistics.fmean, "cpu_s": statistics.fmean}
    return {
        key: {"value": average.get(key, statistics.median)(values[key]), "unit": unit}
        for key, unit in END_TO_END
    }


def layer_metrics(plain, traced, traces):
    """Per-layer medians over the traced children; None when a counter
    differs between two traced children."""
    if not plain or not traces:
        return None
    counts = traces[0]["counts"]
    for other in traces[1:]:
        diff = sorted(k for k in counts if counts[k] != other["counts"].get(k))
        if diff:
            log("FAILED counters differ between traced children: %s" % ", ".join(diff))
            return None
    selfs = [self_times(t) for t in traces]
    metrics = {}
    for name in SELF_TIMES:
        metrics[name + ".self_s"] = (statistics.median(s.get(name, 0.0) for s in selfs), "s")
    metrics["runner.run_task_file.s"] = (
        statistics.median(inclusive_time(t, "runner.run_task_file") for t in traces),
        "s",
    )
    for key in LAYER_COUNTERS:
        metrics[key] = (counts[key], "count")
    calls = counts["linear.is_sat.calls"]
    metrics["linear.is_sat.repeat_frac"] = (counts["linear.is_sat.repeats"] / calls if calls else 0.0, "ratio")
    traced_wall = statistics.median(_wall(r) for r in traced)
    plain_wall = statistics.median(_wall(r) for r in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.self_sum_s"] = (statistics.median(sum(s.values()) for s in selfs), "s")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def print_rows(rows, trace):
    """One row per workload: every metric with its unit."""
    print("python %s, nproc %d" % (platform.python_version(), os.cpu_count() or 0))
    for name, res in rows:
        frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        cells = ["%s=%.6g %s" % (key, m["value"], m["unit"]) for key, m in res["metrics"].items()]
        if not trace:
            print("%-15s %s failed_frac=%.6g (%d/%d) children=%d" % (
                name, " ".join(cells), frac, res["failed"], res["attempted"], res["children"]))
        else:
            print("%s: failed_frac=%.6g (%d/%d) children=%d" % (
                name, frac, res["failed"], res["attempted"], res["children"]))
            for cell in cells:
                print("    " + cell)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paramverify" / "__init__.py").is_file():
        print("perfbench: %s holds no paramverify sources" % SRC, file=sys.stderr)
        return 2
    (HERE / "work").mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC / "paramverify"), quiet=1)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    rows = [(n, measure(n, args.seed, args.seconds, args.trace)) for n in names]
    print_rows(rows, args.trace)
    if len(rows) == 1:
        metrics = rows[0][1]["metrics"]
    else:
        metrics = {"%s.%s" % (n, k): m for n, r in rows for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for _, r in rows),
                "attempted": sum(r["attempted"] for _, r in rows),
                "failed": sum(r["failed"] for _, r in rows),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
