"""One timed repetition of a workload, run as a fresh process.

Usage: python3 child.py SPEC.json, where the spec names the workload
kind, its input, the parent's clock reading when it started this
process, whether to trace, and where to write the result.  A fresh
process per repetition starts with paramverify's process-global caches
empty, as every CLI user does.

For a CLI workload the child runs ``paramverify.cli.main`` on the task
file and the report goes to this process's standard output.  For the
library workload it calls ``reduce_chain`` and ``decide`` per instance.
The result file holds the clock readings, the CPU time and peak memory
at the last verdict, and the outcome of the witness checks.
"""

import json
import resource
import sys
import traceback
from time import perf_counter

T_START = perf_counter()


def run_cli(spec, marks):
    import paramverify.cli
    import paramverify.runner

    marks["import"] = perf_counter()
    tracer, recorder = instrument(spec, marks)
    parse = paramverify.runner.parse_task_file

    def parse_then_mark(text):
        parsed = parse(text)
        marks["setup"] = perf_counter()
        return parsed

    paramverify.runner.parse_task_file = parse_then_mark
    code = paramverify.cli.main([spec["input"]])
    sys.stdout.flush()
    return {"exit_code": code}, tracer, recorder


def run_library(spec, marks):
    import paramverify.linear
    import paramverify.parsing
    import paramverify.reduction
    from paramverify.terms import Signature

    marks["import"] = perf_counter()
    tracer, recorder = instrument(spec, marks)
    with open(spec["input"], encoding="utf-8") as fh:
        instances = json.load(fh)
    problems = []
    for inst in instances:
        sig = Signature()
        sig.extension_functions["f"] = (1, 1)
        for c in ("u", "v", "w"):
            sig.declare_constant(c)
        statements = paramverify.parsing.parse_statements(inst["clauses"] + " " + inst["goal"], sig)
        seeds = [paramverify.parsing.parse_term_string(t, sig) for t in spec["seed_terms"]]
        problems.append((sig, statements, seeds))
    marks["setup"] = perf_counter()
    verdicts = []
    for sig, statements, seeds in problems:
        reduced = paramverify.reduction.reduce_chain(sig.copy(), statements, seeds)
        verdicts.append(paramverify.linear.decide(reduced.ground) is not None)
    return {"verdicts": verdicts}, tracer, recorder


def instrument(spec, marks):
    from spans import DecideRecorder, Tracer

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    recorder = DecideRecorder()
    recorder.install()
    marks["instrumented"] = perf_counter()
    if tracer is not None:
        tracer.begin("bench.main")
    return tracer, recorder


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    marks = {"spawn": spec["t_spawn"], "start": T_START}
    run = run_cli if spec["kind"] == "cli" else run_library
    result, tracer, recorder, error = {}, None, None, None
    try:
        result, tracer, recorder = run(spec, marks)
    except Exception:
        error = traceback.format_exc()
    marks["done"] = perf_counter()
    if tracer is not None:
        tracer.end()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        marks=marks,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        error=error,
    )
    if recorder is not None:
        from check import witness_ok

        result["witnesses"] = len(recorder.witnesses)
        result["bad_witnesses"] = sum(not witness_ok(*w) for w in recorder.witnesses)
    if tracer is not None:
        tracer.add_span("bench.startup", marks["spawn"], marks["start"])
        tracer.add_span("bench.import", marks["start"], marks["instrumented"])
        tracer.dump(spec["trace_out"])
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
