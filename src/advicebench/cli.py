"""Command line front end.

Machines and words come from an optional JSON document, from the builtin
registry, from inline lasso literals like ``ab·(ba)^ω``, or (for machines)
from standard input with ``-``. Exit codes: 0 success or equal or pass,
1 divergence or failure, 2 usage or document errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import corpus
from .analysis import Equal, padding_check, prefix_equiv, subword_complexity
from .checks import SUITES, run_suite
from .documents import dumps, load_document, machine_from_doc, machine_to_doc
from .errors import AdviceBenchError, InvariantViolation, NotDeterministic, ParseError, UnresolvedReference
from .ltl import parse_formula
from .pi_transforms import direction_partition, normalize_directions_on_pi, one_way_simulation_on_pi
from .sst import Sst, SimpleSst, compile_sst_to_2wftb, eliminate_lookbehind_lasso, run_sst, simplify_to_simple_sst
from .transducers import (
    DEFAULT_BUDGET,
    LookbehindTransducer,
    OneWayTransducer,
    TwoWayTransducer,
    remove_endmarker,
    run_1wft,
    run_2wft,
    run_2wft_b,
)
from .words import LassoWord, lasso, render_letter


class UsageError(Exception):
    pass


def _load(source: str, load, arg):
    """A machine document that repeats a transition or breaks an invariant
    is malformed input too, like one that does not parse."""
    try:
        return load(arg)
    except (NotDeterministic, InvariantViolation) as exc:
        raise ParseError(f"{source}: {exc}") from exc


def parse_word_literal(text: str):
    """Inline lasso syntax: optional prefix, then a parenthesized period
    followed by ^ω (or ^w): for example (ab#)^ω or ab·(ba)^w."""
    body = text.strip()
    for omega in ("^ω", "^w"):
        if body.endswith(omega):
            body = body[: -len(omega)]
            break
    else:
        return None
    if not body.endswith(")"):
        return None
    open_idx = body.rfind("(")
    if open_idx < 0:
        return None
    period = body[open_idx + 1: -1]
    prefix = body[:open_idx]
    for sep in ("·", "."):
        if prefix.endswith(sep):
            prefix = prefix[: -len(sep)]
            break
    if not period:
        return None
    try:
        return lasso(prefix, period)
    except ValueError as exc:
        raise ParseError(f"word literal {text!r}: {exc}") from exc


class Workspace:
    def __init__(self, document=None):
        self.document = document
        self.builtin_words = corpus.builtin_words()

    def word(self, spec: str):
        literal = parse_word_literal(spec)
        if literal is not None:
            return literal
        if self.document and spec in self.document.words:
            return self.document.words[spec]
        if spec in self.builtin_words:
            return self.builtin_words[spec]
        raise UnresolvedReference(spec)

    def machine(self, spec: str):
        if spec == "-":
            if sys.stdin is None:  # started with standard input closed
                raise ParseError("cannot read standard input: it is closed")
            try:
                text = sys.stdin.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ParseError(f"cannot read standard input: {exc}") from exc
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ParseError(f"standard input: {exc.msg}", line=exc.lineno) from exc
            return _load("standard input", machine_from_doc, data)
        if self.document and spec in self.document.machines:
            return self.document.machines[spec]
        # built per lookup, so commands that name no machine build none
        build = corpus.BUILTIN_MACHINES.get(spec)
        if build is None:
            raise UnresolvedReference(spec)
        return build()

    def formula(self, spec: str):
        if self.document and spec in self.document.formulas:
            return self.document.formulas[spec]
        return parse_formula(spec)


def _run_machine(machine, source, budget):
    if isinstance(machine, Sst):  # a SimpleSst too
        return run_sst(machine, source, budget)
    if isinstance(machine, OneWayTransducer):
        return run_1wft(machine, source, budget)
    if isinstance(machine, LookbehindTransducer):
        return run_2wft_b(machine, source, budget)
    if isinstance(machine, TwoWayTransducer):
        return run_2wft(machine, source, budget)
    raise UsageError(f"machine of kind {type(machine).__name__} cannot be run")


def cmd_words(ws: Workspace, args) -> int:
    names = set(ws.builtin_words)
    if ws.document:
        names |= set(ws.document.words)
    for name in sorted(names):
        print(name)
    return 0


def cmd_run(ws: Workspace, args) -> int:
    machine = ws.machine(args.machine)
    source = ws.word(args.word)
    stream = _run_machine(machine, source, args.budget)
    letters, halt = stream.try_letters(args.letters)
    try:
        text = "".join(letters)  # a str letter renders as itself
    except TypeError:  # PAD or product letters
        text = "".join(map(render_letter, letters))
    print(text)
    if halt is not None:
        print(f"stalled: {halt}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(ws: Workspace, args) -> int:
    budget = args.budget
    input_word = functools.cache(lambda: ws.word(args.word))  # parsed once, read by both sides

    def source(spec):
        try:
            return ws.word(spec)
        except UnresolvedReference:
            machine = ws.machine(spec)
            if args.word is None:
                raise UsageError("comparing a machine needs --word for its input")
            return _run_machine(machine, input_word(), budget)

    verdict = prefix_equiv(source(args.left), source(args.right), args.letters)
    print(verdict)
    return 0 if isinstance(verdict, Equal) else 1


# conversion -> (the machine class it takes, the conversion)
CONVERSIONS = {
    "sst2wftb": (SimpleSst, lambda m, ws, args: compile_sst_to_2wftb(m)),
    "simplify": (Sst, lambda m, ws, args: simplify_to_simple_sst(m, _lasso_arg(ws, args))),
    "unlookbehind": (LookbehindTransducer, lambda m, ws, args: eliminate_lookbehind_lasso(
        m, _lasso_arg(ws, args))),
    "normalize-pi": (TwoWayTransducer, lambda m, ws, args: normalize_directions_on_pi(m)),
    "oneway-pi": (TwoWayTransducer, lambda m, ws, args: one_way_simulation_on_pi(
        _direction_normalized(m), c_max=args.cmax).transducer),
    "remove-endmarker": (TwoWayTransducer, lambda m, ws, args: remove_endmarker(
        m, _lasso_arg(ws, args) if args.input else lasso("", "ab"))),
}


def _direction_normalized(machine: TwoWayTransducer) -> TwoWayTransducer:
    if direction_partition(machine) is None:
        raise UsageError("input machine must be direction-normalized first (convert normalize-pi)")
    return machine


def cmd_convert(ws: Workspace, args) -> int:
    machine = ws.machine(args.machine)
    takes, convert = CONVERSIONS[args.kind]
    if not isinstance(machine, takes):
        raise UsageError(f"{args.kind} needs a {takes.__name__}, not a {type(machine).__name__}")
    print(dumps(machine_to_doc(convert(machine, ws, args))))
    return 0


def _lasso_arg(ws: Workspace, args) -> LassoWord:
    if not args.input:
        raise UsageError("this conversion needs --input <lasso word>")
    source = ws.word(args.input)
    if not isinstance(source, LassoWord):
        raise UsageError("this conversion needs an ultimately periodic input word")
    return source


def cmd_analyze(ws: Workspace, args) -> int:
    if args.what == "complexity":
        profile = subword_complexity(ws.word(args.subject), args.kmax, args.window)
        if args.json:
            print(json.dumps({
                "counts": profile.counts,
                "exact": profile.exact,
                "stable": profile.stable,
                "window": profile.window,
            }, sort_keys=True))
        else:
            print("k\tcount\texact\tstable")
            for k in sorted(profile.counts):
                print(f"{k}\t{profile.counts[k]}\t{profile.exact[k]}\t{profile.stable[k]}")
        return 0
    if args.what == "padding":
        if args.word is None:
            raise UsageError("padding analysis needs an advice word")
        formula = ws.formula(args.subject)
        advice = ws.word(args.word)
        if not isinstance(advice, LassoWord):
            raise UsageError("padding analysis needs an ultimately periodic advice word")
        table = padding_check(formula, advice, n_range=args.range)
        if args.json:
            print(json.dumps({"entries": table.entries, "cap": table.cap,
                              "stabilization": table.stabilization}))
        else:
            print("n\tpadding")
            for n, entry in enumerate(table.entries):
                print(f"{n}\t{'-' if entry is None else entry}")
        return 0
    raise UsageError(f"unknown analysis {args.what!r}")


def cmd_check(ws: Workspace, args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError:
        raise UsageError(
            f"unknown suite {args.suite!r}; available: all, " + ", ".join(sorted(SUITES))
        )
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def _positive(text: str) -> int:
    if not (text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advicebench",
        description="run, convert, compare and analyze automata over infinite words",
    )
    parser.add_argument("-f", "--file", help="JSON document with named words/machines/formulas")
    # main() sets the default from ADVICEBENCH_BUDGET on every call; a string
    # default goes through ``type`` too, so a bad environment value is a usage error
    parser.add_argument("--budget", type=_positive, default=str(DEFAULT_BUDGET),
                        help="step budget per requested output letter")
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("words", help="list known word names")

    p_run = sub.add_parser("run", help="print output letters of a machine on a word")
    p_run.add_argument("machine")
    p_run.add_argument("word")
    p_run.add_argument("-n", "--letters", type=_positive, default=40)

    p_cmp = sub.add_parser("compare", help="letterwise comparison of two words")
    p_cmp.add_argument("left")
    p_cmp.add_argument("right")
    p_cmp.add_argument("-n", "--letters", type=_positive, default=100)
    p_cmp.add_argument("--word", help="input word when comparing machine runs")

    p_conv = sub.add_parser("convert", help="emit a converted machine document")
    p_conv.add_argument("kind", choices=list(CONVERSIONS))
    p_conv.add_argument("machine")
    p_conv.add_argument("--input", help="input word for input-relative conversions")
    p_conv.add_argument("--cmax", type=_positive, default=4)

    p_an = sub.add_parser("analyze", help="word measurements")
    p_an.add_argument("what", choices=["complexity", "padding"])
    p_an.add_argument("subject", help="word name (complexity) or formula (padding)")
    p_an.add_argument("word", nargs="?", help="advice word for padding analysis")
    p_an.add_argument("--kmax", type=_positive, default=6)
    p_an.add_argument("--window", type=_positive, default=2048)
    p_an.add_argument("--range", type=_positive, default=30)

    p_chk = sub.add_parser("check", help="run a named check suite")
    p_chk.add_argument("suite")
    return parser


COMMANDS = {
    "words": cmd_words,
    "run": cmd_run,
    "compare": cmd_compare,
    "convert": cmd_convert,
    "analyze": cmd_analyze,
    "check": cmd_check,
}


# one parser per process, built on the first call; argparse keeps nothing of one call's arguments
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _shared_parser()
    parser.set_defaults(budget=os.environ.get("ADVICEBENCH_BUDGET", str(DEFAULT_BUDGET)))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    document = None
    try:
        if args.file:
            document = _load(args.file, load_document, args.file)
        ws = Workspace(document)
        code = COMMANDS[args.command](ws, args)
        sys.stdout.flush()  # so that a failed write shows here, not in the interpreter's last flush
        return code
    except OSError as exc:
        # a closed pipe ends quietly, another failed write (a full disk) with one
        # line; stdout goes to devnull, so the last flush cannot fail again
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        try:
            stdout = sys.stdout.fileno()
        except (OSError, ValueError):  # no descriptor (a StringIO): no last flush to fail
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout)
        os.close(devnull)
        return 1
    except (UsageError, ParseError, UnresolvedReference) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdviceBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
