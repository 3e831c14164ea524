"""Seeded inputs for the benchmark workloads.

Every workload draws its inputs from a finite family whose expected
outputs are stored in ``data/``, so any seed yields inputs with a known
answer.  The seed picks one member per slot; the slots are fixed, so
different seeds give inputs of nearly the same cost and the figures of
different seeds can be compared.
"""

import json
import random
import textwrap
from pathlib import Path

DATA = Path(__file__).parent / "data"

WORKLOADS = ("param_elim", "pts_bmc", "ground_equisat")

# ---------------------------------------------------------------------------
# param_elim: one CLI task file of parametric constraint generation

# chemical-plant automaton; mode 1's flow rates are the seeded constants
PLANT_LHA = """
variables: x1, x2, x3;
mode 1:
    inv: (x1 + x2) + x3 <= lf; x1 >= _0; x2 >= _0; x3 >= _0;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 <= min;
    flow: d(x1) >= _{lo}; d(x1) <= _{hi}; d(x2) >= _{lo}; d(x2) <= _{hi}; d(x3) = _0;
          d(x1) - d(x2) <= _1; d(x2) - d(x1) <= _1;
    init: x1 = _0; x2 = _0; x3 = _0;
    inenv: (x1 + x2) + x3 <= lsafe; x1 >= _0; x2 >= _0; x3 >= _0;
           x1 - x2 <= esafe; x2 - x1 <= esafe; x3 <= min;
mode 2:
    inv: (x1 + x2) + x3 >= lf; (x1 + x2) + x3 <= lover; x1 >= _0; x2 >= _0; x3 >= _0;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 <= max;
    flow: d(x1) <= -_1; d(x2) <= -_1; d(x3) >= _1; d(x1) = d(x2);
          (d(x3) + d(x1)) + d(x2) = _0;
mode 3:
    inv: (x1 + x2) + x3 <= lover; x1 >= _0; x2 >= _0; x3 >= _0;
         x1 - x2 <= ea; x2 - x1 <= ea; x3 >= min;
    flow: d(x1) = _0; d(x2) = _0; d(x3) <= -_1;
mode 4:
    inv: x1 = _0; x2 = _0; x3 = _0;
    flow: d(x1) = _0; d(x2) = _0; d(x3) = _0;
edge 1 -> 2:
    guard: (x1 + x2) + x3 >= lf;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 2 -> 3:
    guard: x1 + x2 <= min;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 3 -> 1:
    guard: x1 - x2 <= ea; x2 - x1 <= ea; x3 >= _0; x3 <= min;
    jump: x1p = x1; x2p = x2; x3p = x3;
edge 1 -> 4:
    guard: x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 1 -> 4:
    guard: x2 - x1 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 2 -> 4:
    guard: x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 2 -> 4:
    guard: x2 - x1 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 3 -> 4:
    guard: x3 <= min; x1 - x2 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
edge 3 -> 4:
    guard: x3 <= min; x2 - x1 >= ea;
    jump: x1p = _0; x2p = _0; x3p = _0;
"""

# the chatter_e14 dwelling problem with numeric rates; da is the one rate
# parameter left symbolic, with or without a sign assumption
E14_QUERY = """
Base_functions := {{(+,2), (-,2), (*,2)}}
Extension_functions :=  {{}}
Relations := {{(<=,2), (<,2), (>=,2), (>,2)}}

Query :=
         (x1 + x2) + x3 <= lsafe;
         _0 <= x1;  _0 <= x2;  _0 <= x3; x3 <= min;
         -esafe <= x1 - x2;  x1 - x2 <= esafe;

         _0 < lsafe; lsafe < lf; _0 < esafe; esafe < ea;

         _0 < t;  x3p = x3;
         _{lo} * t <= x1p - x1; x1p - x1 <= _{hi} * t;
         _{lo} * t <= x2p - x2; x2p - x2 <= _{hi} * t;
         (x1p - x2p) - (x1 - x2) <= da * t;
         (x2p - x1p) - (x2 - x1) <= da * t;

         ea <= x1p - x2p;

         t <= epsilon;
"""

RATES = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
CHATTER_EDGES = ("1_2_1", "1_4_1", "1_4_2")
PLANT_ASSUMPTIONS = "[min >= _0, lsafe > _0, lf > lsafe, esafe > _0, ea > esafe, epsilon > _0]"


def _rate_tag(rates):
    return "r%d%d" % rates


def _lha_task(name, mode, options, body):
    return "    %s:\n        mode: %s\n        options:\n%s\n" % (
        name,
        mode,
        textwrap.indent(options.strip("\n"), " " * 12),
    ) + (
        "        specification_type: LHA\n"
        "        specification_theory: REAL_CLOSED_FIELDS\n"
        "        specification:\n"
        "            file: |\n%s\n" % textwrap.indent(body.strip("\n"), " " * 16)
    )


def plant_flow(rates):
    lo, hi = rates
    name = "plant_flow_%s" % _rate_tag(rates)
    return name, _lha_task(
        name,
        "GENERATE_CONSTRAINTS",
        'candidate: "(x1 + x2) + x3 <= lsafe;"\nvcs: [F_flow_1]\n'
        "eliminate: [x1, x2, x3, x1p, x2p, x3p, t]\nslfq_query: true",
        PLANT_LHA.format(lo=lo, hi=hi),
    )


def plant_all(rates):
    lo, hi = rates
    name = "plant_all_%s" % _rate_tag(rates)
    return name, _lha_task(
        name,
        "GENERATE_CONSTRAINTS",
        'candidate: "(x1 + x2) + x3 <= lsafe;"\nslfq_query: true',
        PLANT_LHA.format(lo=lo, hi=hi),
    )


def plant_chatter(edge, rates):
    lo, hi = rates
    name = "plant_cf_%s_%s" % (edge, _rate_tag(rates))
    return name, _lha_task(
        name,
        "CHATTER_FREE",
        'epsilon: epsilon\nvcs: ["%s"]\nslfq_query: true\nassumptions: %s' % (edge, PLANT_ASSUMPTIONS),
        PLANT_LHA.format(lo=lo, hi=hi),
    )


def e14(rates, da_positive):
    lo, hi = rates
    name = "e14_%s_%s" % (_rate_tag(rates), "dapos" if da_positive else "dafree")
    assumptions = "[epsilon > _0, da > _0]" if da_positive else "[epsilon > _0]"
    text = (
        "    %s:\n"
        "        mode: GENERATE_CONSTRAINTS\n"
        "        options:\n"
        "            eliminate: [x1, x2, x3, x1p, x2p, x3p, t]\n"
        "            slfq_query: true\n"
        "            assumptions: %s\n"
        "        specification_type: HPILOT\n"
        "        specification_theory: REAL_CLOSED_FIELDS\n"
        "        specification:\n"
        "            file: |\n%s\n"
    ) % (name, assumptions, textwrap.indent(E14_QUERY.format(lo=lo, hi=hi).strip("\n"), " " * 16))
    return name, text


def param_elim_family():
    """Every variant task a seed can pick, by slot; a slot's members
    differ only in constants and cost about the same."""
    family = {
        "plant_flow": [plant_flow(r) for r in RATES],
        "plant_all": [plant_all(r) for r in RATES],
        "e14_dafree": [e14(r, False) for r in RATES],
        "e14_dapos": [e14(r, True) for r in RATES],
    }
    for edge in CHATTER_EDGES:
        family["plant_cf_" + edge] = [plant_chatter(edge, r) for r in RATES]
    return family


# picks per slot and run; distinct members within a slot
PARAM_ELIM_SLOTS = (
    ("plant_flow", 2),
    ("plant_all", 1),
    ("plant_cf_1_2_1", 1),
    ("plant_cf_1_4_1", 1),
    ("plant_cf_1_4_2", 1),
    ("e14_dafree", 2),
    ("e14_dapos", 1),
)

CORPUS_NAMES = ("ex1_constraint", "chem_mode1", "chem_mode1_x3", "chatter_e14", "ex2_strengthening")


def corpus_tasks():
    """The five corpus tasks, merged under their file names."""
    text = (DATA / "corpus.yaml").read_text()
    return text.split("tasks:\n", 1)[1]


def param_elim(seed):
    rng = random.Random(seed)
    family = param_elim_family()
    names = list(CORPUS_NAMES)
    parts = [corpus_tasks()]
    for slot, count in PARAM_ELIM_SLOTS:
        for name, text in rng.sample(family[slot], count):
            names.append(name)
            parts.append(text)
    return names, "tasks:\n" + "".join(parts)


# ---------------------------------------------------------------------------
# pts_bmc: one CLI task file over the sorted-array transition system

PTS_BLOCK = """        specification_type: PTS
        specification_theory: PRESBURGER_ARITHMETIC
        specification:
            base_functions: "{{(+,2), (-,2), (*,2)}}"
            extension_functions: "{ext}"
            relations: "{{(<=,2), (<,2), (>=,2), (>,2)}}"
            init: |
{init}
            update: |
                (FORALL j). ap(j) = a(j) + _{inc};
                d1p = ap(i);
                d2p = ap(i + _1);
                ip = i + _1;
            query: |
{query}
            update_vars:
                a : ap
                d1 : d1p
                d2 : d2p
                i : ip
"""

SORTED = "(FORALL i). a(i) <= a(i + _1);"
INCREMENTS = (1, 2, 3)
START_VALUES = (0, 1, 2)


def _pts_task(name, mode, options, inc, init, query, ext="{(a, 1, 2), (ap, 1, 3)}"):
    indent = " " * 16
    return "    %s:\n        mode: %s\n        options:\n%s\n" % (
        name,
        mode,
        textwrap.indent(options.strip("\n"), " " * 12),
    ) + PTS_BLOCK.format(
        ext=ext,
        inc=inc,
        init=textwrap.indent("\n".join(init), indent),
        query=textwrap.indent("\n".join(query), indent),
    )


def bmc_sorted(inc, start):
    name = "bmc_sorted_c%d_v%d" % (inc, start)
    init = ["d1 = _%d; d2 = _%d; i = _0;" % (start, start), SORTED]
    return name, _pts_task(name, "BMC", "bmc_k: 3\nprint_steps: true", inc, init, ["d1 <= d2;", SORTED])


def bmc_unsorted(inc, start):
    name = "bmc_unsorted_c%d_v%d" % (inc, start)
    init = ["d1 = _%d; d2 = _%d; i = _0;" % (start, start)]
    return name, _pts_task(name, "BMC", "bmc_k: 2\nprint_steps: true", inc, init, ["d1 <= d2;"])


def check_sorted(inc, start):
    name = "check_sorted_c%d_v%d" % (inc, start)
    init = ["d1 = _%d; d2 = _%d; i = _0;" % (start, start), SORTED]
    return name, _pts_task(name, "CHECK_INVARIANT", "print_steps: true", inc, init, ["d1 <= d2;", SORTED])


def strengthen_copy(inc, start):
    name = "strengthen_c%d_v%d" % (inc, start)
    init = [
        "d1 = _%d; d2 = _%d;" % (start, start),
        "(FORALL j). a(j) = b(j);",
        "i = _0;",
        "(FORALL i,j). i <= j --> b(i) <= b(j);",
    ]
    return name, _pts_task(
        name,
        "INVARIANT_STRENGTHENING",
        "inv_str_max_iter: 2\nparameter: [a, d1, d2]\nprint_steps: true",
        inc,
        init,
        ["d1 <= d2;"],
        ext="{(b, 1, 1), (a, 1, 2), (ap, 1, 3)}",
    )


# each slot's known answer, derived from the system rather than the tool:
# a sorted array stays sorted under a constant increment, so d1 <= d2 holds
# at every depth; without the sorted axiom one step can break it
PTS_SLOTS = (
    ("bmc_sorted", bmc_sorted, "    Result: no counterexample up to depth 3"),
    ("bmc_unsorted", bmc_unsorted, "    Result: counterexample at depth 1"),
    ("check_sorted", check_sorted, "    Result: Inductive"),
    ("strengthen", strengthen_copy, "        Inductive Invariant: |-"),
)


def pts_bmc_family():
    return {
        prefix: [make(inc, start) for inc in INCREMENTS for start in START_VALUES]
        for prefix, make, _ in PTS_SLOTS
    }


def known_answer(name):
    """The report line a pts_bmc task must print."""
    for prefix, _, answer in PTS_SLOTS:
        if name.startswith(prefix + "_c"):
            return answer
    raise KeyError(name)


def pts_bmc(seed):
    rng = random.Random(seed)
    names, parts = [], []
    for _, make, _ in PTS_SLOTS:
        name, text = make(rng.choice(INCREMENTS), rng.choice(START_VALUES))
        names.append(name)
        parts.append(text)
    return names, "tasks:\n" + "".join(parts)


# ---------------------------------------------------------------------------
# ground_equisat: reduce_chain + decide over guarded-definition instances

# depth-2 f-terms over the instance constants, the --seed-closure set
SEED_TERMS = ("f(u)", "f(v)", "f(w)", "f(f(u))", "f(f(v))", "f(f(w))")
EQUISAT_PER_RUN = 16


# a draw is kept only if its summed costs are this close to the mean draw's
EQUISAT_TOLERANCE = {"decide_ms": 0.01, "is_sat_calls": 0.02}


def ground_equisat(seed):
    """One instance from each of EQUISAT_PER_RUN cost strata of the
    stored pool, which is sorted by measured decide time.  Draws are
    repeated until the summed stored decide time and is_sat call count
    are within EQUISAT_TOLERANCE of the mean draw's, so every seed's
    input costs the same; the widest stratum alone spans 0.6 to 1.4 s."""
    rng = random.Random(seed)
    pool = json.loads((DATA / "equisat_pool.json").read_text())["instances"]
    size = len(pool) // EQUISAT_PER_RUN
    strata = [pool[k * size : (k + 1) * size] for k in range(EQUISAT_PER_RUN)]
    targets = {
        key: sum(sum(inst[key] for inst in stratum) / size for stratum in strata) for key in EQUISAT_TOLERANCE
    }
    while True:
        draw = [rng.choice(stratum) for stratum in strata]
        if all(
            abs(sum(inst[key] for inst in draw) - target) <= EQUISAT_TOLERANCE[key] * target
            for key, target in targets.items()
        ):
            return draw
