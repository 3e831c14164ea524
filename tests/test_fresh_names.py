"""Every symbol the engine introduces differs from every symbol of the
task: Skolem constants, BMC state copies, a flow's duration and the
arguments of the guard-disjointness check.  A task whose own symbols
carry the names the engine would pick first gets the verdict of the same
task with neutral names."""

import random

import pytest

from paramverify.parsing import parse_statements
from paramverify.runner import run_task_file
from paramverify.symelim import definitional_shapes_ok
from paramverify.terms import Signature

PTS_TASK = """\
    {name}:
        mode: {mode}
        options: {{{options}}}
        specification_type: PTS
        specification:
            extension_functions: "{{(a, 1, 1), (ap, 1, 2)}}"
            init: "{init}"
            update: "{update}"
            query: "{query}"
            update_vars: {{{update_vars}}}
"""

LHA_TASK = """\
    {name}:
        mode: CHECK_INVARIANT
        options: {{candidate: "{candidate}"}}
        specification_type: LHA
        specification:
            file: |
                variables: x;
                mode 1:
                    inv: {inv}
                    flow: d(x) = _{rate};
                    init: x = _0;
"""


def results(text):
    """Each task's Result line, by task name."""
    report, code, _ = run_task_file(text)
    assert code == 0
    names = [l[:-1] for l in report.splitlines() if not l.startswith(" ") and l.endswith(":")][1:]
    verdicts = [l.strip() for l in report.splitlines() if l.startswith("    Result:")]
    return dict(zip(names, verdicts))


# a symbol of the task that the engine would pick, the verdict, and a task
# in which @ stands for that symbol or for the neutral u
COLLISIONS = [
    (
        "sk_i",
        "InitFails",
        PTS_TASK,
        dict(
            mode="CHECK_INVARIANT",
            options="",
            init="@ = _0;",
            update="(FORALL j). ap(j) = a(j);",
            query="(FORALL i, i_2). a(i) <= a(i_2);",
            update_vars="a: ap",
        ),
    ),
    (
        "x_1",
        "counterexample at depth 1",
        PTS_TASK,
        dict(
            mode="BMC",
            options="bmc_k: 2",
            init="x = _0; @ = _5;",
            update="xp = x + _1;",
            query="x <= _0;",
            update_vars="x: xp",
        ),
    ),
    (
        "t_vc",
        "ConsecutionFails (F_flow_1)",
        LHA_TASK,
        dict(candidate="x <= _1;", rate=1, inv="x <= _2; t >= _0; @ <= _0;"),
    ),
]


@pytest.mark.parametrize("symbol, verdict, template, fields", COLLISIONS, ids=[c[0] for c in COLLISIONS])
def test_introduced_names_avoid_task_symbols(symbol, verdict, template, fields):
    """Skolem constants, BMC copies and the duration: the task gets the
    verdict of its copy with u in place of symbol."""
    text = "tasks:\n"
    for name in (symbol, "u"):
        text += template.format(name="with_" + name, **{k: str(v).replace("@", name) for k, v in fields.items()})
    assert results(text) == {"with_" + symbol: "Result: " + verdict, "with_u": "Result: " + verdict}


@pytest.mark.parametrize("bound", ["g_v_0", "u"])
def test_guard_constants_avoid_task_symbols(bound):
    """i >= bound and i < 0 overlap, so the two definitions of f have no
    weakest-constraint guarantee."""
    sig = Signature()
    sig.extension_functions["f"] = (1, 1)
    text = "(FORALL i). OR(i >= %s, f(i) = _1); (FORALL i). OR(i < _0, f(i) = _2);" % bound
    assert not definitional_shapes_ok(sig, parse_statements(text, sig))


# ---------------------------------------------------------------------------
# Renaming invariance

# a name each kind of introduced symbol takes first, or on a collision
STEMS = ("sk_i", "sk_i_2", "x_0", "x_1", "t", "t_vc", "t_2", "g_v_0", "c_a_1")
NEUTRAL = ("n0", "n1", "n2", "n3")
TASKS_PER_KIND = 40


def pts_task(rng, mode, name, symbols):
    """A counter x and an array a, with four task constants under the
    given names."""
    init = ["x = _%d;" % rng.randint(0, 1)] + ["%s = _%d;" % (s, rng.randint(0, 5)) for s in symbols]
    init.append(rng.choice(["", "(FORALL i). a(i) = %s;" % symbols[3], "(FORALL i). a(i) <= a(i + _1);"]))
    query = rng.choice(
        [
            "x <= _%d;" % rng.randint(0, 2),
            "x <= %s;" % symbols[0],
            "(FORALL i, i_2). a(i) <= a(i_2);",
            "(FORALL i). a(i) <= %s;" % symbols[1],
            "(FORALL i). a(i) <= a(i + _1);",
        ]
    )
    return PTS_TASK.format(
        name=name,
        mode=mode,
        options="bmc_k: %d" % rng.randint(1, 2) if mode == "BMC" else "",
        init=" ".join(init),
        update="(FORALL j). ap(j) = a(j) + _%d; xp = x + _%d;" % (rng.randint(0, 1), rng.randint(0, 1)),
        query=query,
        update_vars="a: ap, x: xp",
    )


def lha_task(rng, mode, name, symbols):
    """One mode whose invariant bounds the four task constants."""
    inv = ["x <= _2;"] + ["%s <= _%d;" % (s, rng.randint(-1, 1)) for s in symbols]
    candidate = rng.choice(["x <= _1;", "x <= _2;", "x <= %s;" % symbols[0]])
    return LHA_TASK.format(name=name, candidate=candidate, inv=" ".join(inv), rate=rng.randint(0, 1))


KINDS = [("BMC", pts_task), ("CHECK_INVARIANT", pts_task), ("CHECK_INVARIANT", lha_task)]


@pytest.mark.parametrize("mode, make", KINDS, ids=["PTS-BMC", "PTS-CHECK_INVARIANT", "LHA-CHECK_INVARIANT"])
def test_verdicts_do_not_depend_on_the_names_of_task_symbols(mode, make):
    """Seeded tasks whose constants take engine stems give the verdicts
    of copies whose constants take neutral names."""
    rng = random.Random(2023)
    stemmed, neutral = [], []
    for k in range(TASKS_PER_KIND):
        symbols = rng.sample(STEMS, 4)
        state = rng.getstate()
        stemmed.append(make(rng, mode, "task%d" % k, symbols))
        rng.setstate(state)
        neutral.append(make(rng, mode, "task%d" % k, list(NEUTRAL)))
    assert results("tasks:\n" + "".join(stemmed)) == results("tasks:\n" + "".join(neutral))
