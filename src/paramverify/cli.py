"""Command line entry point.

Exit codes: 0 when every selected task completes (whatever the verdict),
1 when the engine meets one of its limits in some task (that task's
result is the error, and the other tasks still run), 2 on any error in
the input or when a report or script cannot be written.
"""

import argparse
import os
import re
import sys

from .errors import ParseError
from .runner import RunFlags, read_text, run_task_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramverify",
        description="Constraint generation, invariant checking and strengthening "
        "for parametric transition systems and linear hybrid automata.",
    )
    parser.add_argument("taskfile", help="YAML task file")
    parser.add_argument("--task", action="append", help="run only the named task (repeatable)")
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument("--assume", default="", help="extra parameter assumptions, ';'-separated atoms")
    parser.add_argument("--max-cases", type=int, default=10000, help="sign case-split budget")
    parser.add_argument("--seed-closure", help="file with extra ground instantiation terms, one per line")
    parser.add_argument("--dump-smtlib", metavar="DIR", help="write reduced problems as SMT-LIB2 scripts")
    parser.add_argument("--dump-reduction", action="store_true", help="append reduced problems to the report")
    return parser


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _warn(message: str) -> None:
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = RunFlags(
        tasks=args.task,
        assume=args.assume,
        max_cases=args.max_cases,
        seed_closure=args.seed_closure,
        dump_smtlib=args.dump_smtlib,
        dump_reduction=args.dump_reduction,
    )
    try:
        report, code, outcomes = run_task_file(read_text(args.taskfile), flags, warn=_warn)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:  # the task file's or the --seed-closure file's
        print("cannot read %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        return 2
    sys.stdout.write(report)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report)
        if args.dump_smtlib:
            for outcome in outcomes:
                for label, script in outcome.smtlib:
                    os.makedirs(args.dump_smtlib, exist_ok=True)
                    path = os.path.join(
                        args.dump_smtlib, "%s__%s.smt2" % (_sanitize(outcome.name), _sanitize(label))
                    )
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(script)
    except OSError as exc:  # the --out file's or a --dump-smtlib script's
        print("cannot write %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
