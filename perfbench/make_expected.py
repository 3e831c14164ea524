"""Regenerate the benchmark's stored inputs and expected outputs.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_expected.py

It writes three files under perfbench/data:

- corpus.yaml: the five tests/data task files merged into one, each
  task renamed after its file and the strengthening task given its
  file-wide print_steps option;
- expected_reports.json: the masked report block of every task a seed
  can put into the param_elim or pts_bmc task file, checked against the
  pts_bmc known answers;
- equisat_pool.json: guarded-definition instances in the shape of
  tests/test_reduction.py::random_definitional_instance, each with the
  verdict of the brute-force full-instantiation oracle in
  tests/oracles.py, its is_sat call count on the reduce_chain path and
  its reduce_chain + decide time (the best of three), sorted by that
  time.  The benchmark draws one instance per time stratum, so the
  order keeps two seeds' inputs close in cost; it is the only part of
  the data that depends on the machine.

The benchmark only reads these files.  Regenerate them only when a
change to the program is meant to change its output.
"""

import json
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import workloads  # noqa: E402
from check import mask_report, report_blocks  # noqa: E402
from oracles import all_terms_to_depth, brute_force_ground  # noqa: E402
from paramverify import linear  # noqa: E402
from paramverify.parsing import parse_statements, parse_term_string  # noqa: E402
from paramverify.reduction import reduce_chain  # noqa: E402
from paramverify.runner import run_task_file  # noqa: E402
from paramverify.terms import Signature  # noqa: E402

POOL_SEED = 20231018
POOL_SIZE = 240


def merged_corpus():
    parts = []
    for name in workloads.CORPUS_NAMES:
        text = (ROOT / "tests" / "data" / ("%s.yaml" % name)).read_text()
        body = text.split("tasks:\n", 1)[1]
        header, rest = body.split("\n", 1)
        if "print_steps: true" in text.split("tasks:\n", 1)[0]:
            rest = rest.replace("        options:\n", "        options:\n            print_steps: true\n", 1)
        assert header.startswith("    ") and header.endswith(":")
        parts.append("    %s:\n%s" % (name, rest))
    return "tasks:\n" + "".join(parts)


def blocks_of(tasks):
    names = [name for name, _ in tasks]
    report, code, _ = run_task_file("tasks:\n" + "".join(text for _, text in tasks))
    assert code == 0
    blocks = report_blocks(mask_report(report))
    assert sorted(blocks) == sorted(names)
    return blocks


def expected_reports():
    corpus = workloads.corpus_tasks()
    report, code, _ = run_task_file("tasks:\n" + corpus)
    assert code == 0
    param_elim = report_blocks(mask_report(report))
    for members in workloads.param_elim_family().values():
        param_elim.update(blocks_of(members))
    pts = {}
    for members in workloads.pts_bmc_family().values():
        pts.update(blocks_of(members))
    for name, block in pts.items():
        assert workloads.known_answer(name) in block.splitlines(), name
    return {"param_elim": param_elim, "pts_bmc": pts}


def definitional_instance(rng):
    """Statement texts of random_definitional_instance's shape."""
    pivot, q1, q2 = rng.randint(-2, 2), rng.randint(-3, 3), rng.randint(-3, 3)
    clauses = "(FORALL x). x <= _%d --> f(x) = x + _%d; (FORALL x). x > _%d --> f(x) = x - _%d;" % (
        pivot,
        q1,
        pivot,
        q2,
    )
    pool = ["f(u)", "f(v)", "f(f(u))", "u", "v", "w", "_1"]
    goal = []
    for _ in range(rng.randint(1, 4)):
        lhs, rhs = rng.sample(pool, 2)
        rel = rng.choice(["<=", "<", "=", ">=", ">"])
        goal.append("%s %s %s + _%d;" % (lhs, rel, rhs, rng.randint(-2, 2)))
    return clauses, " ".join(goal)


def instance_sig():
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    for c in ("u", "v", "w"):
        sig.declare_constant(c)
    return sig


def equisat_pool():
    rng = random.Random(POOL_SEED)
    original = linear.is_sat
    calls = [0]

    def counted(atoms):
        calls[0] += 1
        return original(atoms)

    instances = []
    for _ in range(POOL_SIZE):
        clauses_text, goal_text = definitional_instance(rng)
        sig = instance_sig()
        clauses = parse_statements(clauses_text, sig)
        goal = parse_statements(goal_text, sig)
        oracle = brute_force_ground(clauses, goal, "f", all_terms_to_depth("f", ["u", "v", "w"], 2))
        linear._SAT_CACHE.clear()
        expected = linear.decide(oracle) is not None
        seeds = [parse_term_string(t, sig) for t in workloads.SEED_TERMS]
        linear._SAT_CACHE.clear()
        calls[0] = 0
        linear.is_sat = counted
        try:
            fast = linear.decide(reduce_chain(sig.copy(), clauses + goal, seeds).ground) is not None
        finally:
            linear.is_sat = original
        assert fast == expected
        instances.append(
            {
                "clauses": clauses_text,
                "goal": goal_text,
                "sat": expected,
                "is_sat_calls": calls[0],
                "decide_ms": round(min(decide_time(sig, clauses + goal, seeds) for _ in range(3)) * 1000, 1),
            }
        )
    instances.sort(key=lambda inst: (inst["decide_ms"], inst["goal"]))
    return {"generator_seed": POOL_SEED, "instances": instances}


def decide_time(sig, statements, seeds):
    linear._SAT_CACHE.clear()
    start = perf_counter()
    linear.decide(reduce_chain(sig.copy(), statements, seeds).ground)
    return perf_counter() - start


def main():
    data = workloads.DATA
    (data / "corpus.yaml").write_text(merged_corpus())
    (data / "expected_reports.json").write_text(json.dumps(expected_reports(), indent=1, sort_keys=True) + "\n")
    (data / "equisat_pool.json").write_text(json.dumps(equisat_pool(), indent=1) + "\n")


if __name__ == "__main__":
    main()
