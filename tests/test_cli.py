from __future__ import annotations

import errno
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from advicebench import corpus
from advicebench.cli import CONVERSIONS, main, parse_word_literal
from advicebench.documents import dumps, machine_to_doc
from advicebench.transducers import OneWayTransducer, mirror_blocks_2wft
from advicebench.words import PAD, Alphabet, lasso


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_literals():
    w = parse_word_literal("(ab#baa#)^ω")
    assert w.prefix_str(7) == "ab#baa#"
    w = parse_word_literal("ab·(ba)^ω")
    assert w.prefix_str(6) == "abbaba"
    w = parse_word_literal("ab.(ba)^w")
    assert w.prefix_str(6) == "abbaba"
    assert parse_word_literal("pi") is None


def test_run_mirror_on_literal(capsys):
    code, out, _ = run_cli(capsys, "run", "mirror2wft", "(ab#baa#)^ω", "-n", "14")
    assert code == 0
    assert out.strip() == "ba#aab#ba#aab#"


def test_run_is_deterministic(capsys):
    one = run_cli(capsys, "run", "mirror_sst", "(ab#)^ω", "-n", "9")
    two = run_cli(capsys, "run", "mirror_sst", "(ab#)^ω", "-n", "9")
    assert one == two
    assert one[1].strip() == "ba#ba#ba#"


def test_compare_equal_words(capsys):
    code, out, _ = run_cli(capsys, "compare", "pi", "pi", "-n", "100")
    assert code == 0
    assert "Equal" in out


def test_compare_divergence(capsys):
    code, out, _ = run_cli(capsys, "compare", "(ab)^ω", "(ab)^w", "-n", "100")
    assert code == 0
    code, out, _ = run_cli(capsys, "compare", "(ab)^ω", "(ba)^ω", "-n", "100")
    assert code == 1
    assert "Diverges" in out


def test_convert_then_run_via_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "convert", "sst2wftb", "mirror_sst")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "2wftb"
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "run", "-", "(ab#)^ω", "-n", "9")
    assert code == 0
    assert out.strip() == "ba#ba#ba#"


def test_a_foreign_input_letter_ends_every_conversion_the_same_way(capsys, monkeypatch):
    # the lookbehind oracle meets '0' before the machine does
    _code, compiled, _err = run_cli(capsys, "convert", "sst2wftb", "mirror_sst")
    monkeypatch.setattr("sys.stdin", io.StringIO(compiled))
    results = [run_cli(capsys, "convert", "unlookbehind", "-", "--input", "(01)^ω"),
               run_cli(capsys, "convert", "remove-endmarker", "mirror2wft", "--input", "(01)^ω")]
    for code, out, err in results:
        assert (code, out) == (1, "")
        assert err.startswith("error: undefined transition") and err.count("\n") == 1


def test_convert_round_trips_identically(capsys, monkeypatch):
    from advicebench.analysis import Equal, prefix_equiv
    from advicebench.cli import Workspace, _run_machine
    from advicebench.documents import machine_from_doc

    ws = Workspace()
    for kind, machine, word_spec in [
        ("normalize-pi", "bounce_probe", "pi"),
        ("oneway-pi", "revisit_probe", "pi"),
        ("remove-endmarker", "mirror2wft", "(ab#)^ω"),
        ("simplify", "interleave_sst", "(ab#)^ω"),
    ]:
        args = [] if word_spec == "pi" else ["--input", word_spec]
        code, out, _ = run_cli(capsys, "convert", kind, machine, *args)
        assert code == 0, (kind, machine)
        reloaded = machine_from_doc(json.loads(out))
        source = ws.word(word_spec)
        lhs = _run_machine(reloaded, source, 10 ** 5)
        rhs = _run_machine(ws.machine(machine), source, 10 ** 5)
        assert prefix_equiv(lhs, rhs, 300) == Equal(300), (kind, machine)


@pytest.mark.parametrize("argv, keep", [
    (["run", "mirror2wft", "(ab#)^ω", "-n", "200000"], 5),
    (["convert", "sst2wftb", "mirror_sst"], 0),
], ids=["run-into-head", "convert-into-true"])
def test_a_reader_that_closes_the_pipe_ends_the_process_quietly(argv, keep):
    # as `advicebench ... | head -c 5` and `advicebench ... | true`: the reader
    # takes `keep` bytes and closes its end before the process writes the rest
    import advicebench

    env = dict(os.environ, PYTHONPATH=str(Path(advicebench.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "advicebench.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(head) == keep
    assert err == b""


def test_a_failed_write_ends_with_one_line_and_no_traceback(tmp_path, capsys, monkeypatch):
    # as `advicebench run ... > /dev/full`: the first write that reaches the
    # file fails; stdout is then pointed at devnull, here the file's own fd
    class Full(io.StringIO):
        def __init__(self, handle):
            super().__init__()
            self.handle = handle

        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        def fileno(self):
            return self.handle.fileno()

    with open(tmp_path / "out", "w") as handle:
        monkeypatch.setattr("sys.stdout", Full(handle))
        opened = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        code = main(["run", "mirror2wft", "(ab#)^ω", "-n", "9"])
        if opened is not None:  # devnull's own descriptor is closed once copied
            assert len(os.listdir("/proc/self/fd")) == opened
    assert code == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_a_failed_write_without_a_stdout_descriptor_ends_with_one_line(capsys, monkeypatch):
    # an in-process caller's StringIO has no descriptor to point at devnull
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("sys.stdout", Full())
    assert main(["run", "mirror2wft", "(ab#)^ω", "-n", "9"]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_compare_builds_its_input_word_once_for_both_machines(capsys, monkeypatch):
    from advicebench import cli

    built = []

    def counted(*args):
        built.append(args)
        return lasso(*args)

    monkeypatch.setattr(cli, "lasso", counted)
    code, out, _ = run_cli(capsys, "compare", "mirror2wft", "mirror_sst", "--word", "(ab#)^ω", "-n", "30")
    assert (code, out, built) == (0, "Equal(length=30)\n", [("", "ab#")])


class _UnreadableIn(io.StringIO):
    def read(self, *args):
        raise OSError(errno.EIO, "Input/output error")


@pytest.mark.parametrize("stdin, reason", [
    (None, "it is closed"),
    (_UnreadableIn(), "[Errno 5] Input/output error"),
], ids=["closed", "read-fails"])
def test_an_unreadable_standard_input_is_a_one_line_document_error(stdin, reason, capsys, monkeypatch):
    # as an unreadable -f file: exit 2 and one line, whatever stdout is
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "run", "-", "(ab)^ω")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read standard input: {reason}\n"


def test_a_closed_standard_input_ends_run_without_a_traceback():
    # as `advicebench run - '(ab)^ω' <&-`: the interpreter starts with no sys.stdin
    import advicebench

    env = dict(os.environ, PYTHONPATH=str(Path(advicebench.__file__).parents[1]))
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m advicebench.cli run - "(ab)^ω" <&-', sys.executable],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot read standard input: it is closed\n".encode()
    assert proc.stdout == b""


def test_a_construction_does_not_read_the_stream_budget(capsys, monkeypatch):
    # --budget bounds run and compare streams; a construction stops at its
    # proven bound, so a small budget gives the same document
    mirror = run_cli(capsys, "convert", "sst2wftb", "mirror_sst")[1]
    for argv in (["convert", "remove-endmarker", "mirror2wft", "--input", "(ab#)^ω"],
                 ["convert", "unlookbehind", "-", "--input", "(ab#)^ω"]):
        outputs = set()
        for budget in ("1", "3", str(10 ** 5)):
            monkeypatch.setattr("sys.stdin", io.StringIO(mirror))
            code, out, err = run_cli(capsys, "--budget", budget, *argv)
            assert (code, err) == (0, ""), (argv, budget)
            outputs.add(out)
        assert len(outputs) == 1, argv


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "convert", "simplify", "interleave_sst")
    assert code == 2
    assert "needs --input" in err


def test_unknown_name_is_a_document_error(capsys):
    code, _, err = run_cli(capsys, "run", "nope", "(ab)^ω")
    assert code == 2
    assert "unresolved" in err


def test_document_file_names_resolve(tmp_path, capsys):
    doc = {
        "words": {"w": {"kind": "lasso", "u": "", "v": "ab#"}},
        "machines": {"m": machine_to_doc(mirror_blocks_2wft(Alphabet.of("ab")))},
    }
    path = tmp_path / "doc.json"
    path.write_text(dumps(doc))
    code, out, _ = run_cli(capsys, "-f", str(path), "run", "m", "w", "-n", "6")
    assert code == 0
    assert out.strip() == "ba#ba#"


def test_words_listing(capsys):
    code, out, _ = run_cli(capsys, "words")
    assert code == 0
    assert "pi" in out.split()


def test_analyze_complexity_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "analyze", "complexity", "(ab)^ω", "--kmax", "3")
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["2"] == 2 or data["counts"][2] == 2


def test_analyze_padding_table(capsys):
    code, out, _ = run_cli(capsys, "analyze", "padding", "F b", "aaab·(a)^ω", "--range", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n")
    assert lines[1].split() == ["0", "4"]
    assert lines[5].split() == ["4", "-"]


def test_check_suite(capsys):
    code, out, _ = run_cli(capsys, "check", "mirror-triple")
    assert code == 0
    assert out.count("[PASS]") == 3


def test_check_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "check", "nope")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("budget", [100, 301, 302])
def test_a_budget_that_ends_inside_a_long_silent_sweep_stalls_at_its_step(capsys, budget):
    # 302 silent steps come before the first letter: the endmarker, 300 a's and the '#'
    word = f"({'a' * 300}#)^ω"
    code, out, err = run_cli(capsys, "--budget", str(budget), "run", "mirror2wft", word, "-n", "5")
    assert (code, out, err) == (1, "\n", f"stalled: step budget exhausted at step {budget}\n")
    assert run_cli(capsys, "--budget", "303", "run", "mirror2wft", word, "-n", "5")[:2] == (0, "aaaaa\n")


def test_stalling_run_exits_nonzero(capsys):
    doc = {
        "type": "1wft",
        "states": ["q"],
        "initial": "q",
        "input_alphabet": ["a"],
        "output_alphabet": ["a"],
        "transitions": [{"from": "q", "read": "a", "out": "", "to": "q"}],
    }
    import io as _io
    import sys as _sys

    class FakeIn(_io.StringIO):
        pass

    stdin = FakeIn(json.dumps(doc))
    old = _sys.stdin
    _sys.stdin = stdin
    try:
        code = main(["--budget", "200", "run", "-", "(a)^ω", "-n", "3"])
    finally:
        _sys.stdin = old
    captured = capsys.readouterr()
    assert code == 1
    assert "stalled" in captured.err


def test_a_halting_mealy_run_prints_its_letters_then_stalls(capsys, monkeypatch):
    doc = {"type": "mealy", "states": ["q"], "initial": "q", "input_alphabet": ["a", "b"],
           "output_alphabet": ["x"], "transitions": [{"from": "q", "in": "a", "out": "x", "to": "q"}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "run", "-", "aa·(b)^ω", "-n", "5")
    assert (code, out) == (1, "xx\n")
    assert err.startswith("stalled: ")


def test_run_renders_product_and_padding_letters(capsys, monkeypatch):
    ab = Alphabet.of("ab")
    pairs = OneWayTransducer({"q"}, "q", ab, Alphabet.product(ab, ab, pad=True),
                             {("q", "a"): ((("a", PAD),), "q"), ("q", "b"): ((("b", "a"),), "q")})
    monkeypatch.setitem(corpus.BUILTIN_MACHINES, "pairs", lambda: pairs)
    code, out, _ = run_cli(capsys, "run", "pairs", "(ab)^ω", "-n", "3")
    assert (code, out) == (0, "a_baa_\n")


def test_the_budget_environment_is_read_on_every_call(capsys, monkeypatch):
    monkeypatch.setenv("ADVICEBENCH_BUDGET", "0")
    code, out, err = run_cli(capsys, "words")
    assert (code, out) == (2, "")
    assert "error: argument --budget: expected a positive integer, got '0'" in err
    monkeypatch.delenv("ADVICEBENCH_BUDGET")
    assert run_cli(capsys, "words")[0] == 0


def test_a_small_environment_budget_does_not_outlive_its_call(capsys, monkeypatch):
    argv = ("run", "mirror2wft", "(ab#)^ω", "-n", "9")
    monkeypatch.setenv("ADVICEBENCH_BUDGET", "3")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("stalled: ")
    monkeypatch.delenv("ADVICEBENCH_BUDGET")
    assert run_cli(capsys, *argv) == (0, "ba#ba#ba#\n", "")


def test_no_option_carries_over_to_the_next_call(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"words": {"mine": {"kind": "lasso", "u": "", "v": "ab"}}}))
    code, out, _ = run_cli(capsys, "--json", "-f", str(path), "analyze", "complexity", "mine", "--kmax", "2")
    assert (code, json.loads(out)["counts"]) == (0, {"1": 2, "2": 2})
    code, out, _ = run_cli(capsys, "analyze", "complexity", "(ab)^ω")
    assert code == 0
    assert out.splitlines()[0] == "k\tcount\texact\tstable"
    assert len(out.splitlines()) == 1 + 6  # the default --kmax
    assert run_cli(capsys, "words")[1] == "pi\npi2\npi3\n"


@pytest.mark.parametrize("argv", [
    ("analyze", "complexity", "ab·(ba)^ω"),
    ("analyze", "padding", "F b", "aaab·(a)^ω", "--range", "6"),
    ("words",),
    ("compare", "(ab)^ω", "ab·(ab)^ω"),
], ids=["complexity", "padding", "words", "compare-literals"])
def test_commands_that_name_no_machine_build_none(argv, capsys, monkeypatch):
    def refuse():
        raise AssertionError("built a corpus machine")
    monkeypatch.setattr(corpus, "builtin_machines", refuse)
    monkeypatch.setattr(corpus, "BUILTIN_MACHINES", dict.fromkeys(corpus.BUILTIN_MACHINES, refuse))
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


def test_a_machine_lookup_builds_only_the_machine_it_names(capsys, monkeypatch):
    built = []

    def counting(name, build):
        return lambda: built.append(name) or build()

    monkeypatch.setattr(corpus, "BUILTIN_MACHINES",
                        {name: counting(name, build) for name, build in corpus.BUILTIN_MACHINES.items()})
    code, out, _ = run_cli(capsys, "compare", "mirror2wft", "mirror_sst", "--word", "(ab#)^ω", "-n", "9")
    assert (code, out) == (0, "Equal(length=9)\n")
    assert built == ["mirror2wft", "mirror_sst"]
    assert run_cli(capsys, "run", "mu2_backward", "(0011)^ω", "-n", "4")[:2] == (0, "0101\n")
    assert built[2:] == ["mu2_backward"]


ONE_WAY_EMITTING_ZZ = json.dumps({
    "type": "1wft", "states": ["q"], "initial": "q", "input_alphabet": ["a", "b"],
    "output_alphabet": ["y"], "transitions": [{"from": "q", "read": "a", "out": "zz", "to": "q"}],
})

ONE_STATE_DFA = {"type": "dfa", "states": ["s"], "initial": "s", "accepting": [], "alphabet": ["a"],
                 "transitions": [{"from": "s", "letter": "a", "to": "s"}]}
DFA_READING_Z = dict(ONE_STATE_DFA, transitions=ONE_STATE_DFA["transitions"] + [
    {"from": "s", "letter": "z", "to": "s"}])
LOOKBEHIND_ON_A_MISSING_STATE = {
    "type": "2wftb", "states": ["q"], "initial": "q", "input_alphabet": ["a"],
    "output_alphabet": ["a"], "oracle": ONE_STATE_DFA,
    "transitions": [{"from": "q", "read": "^", "lookbehind": "nope", "out": "", "move": "R", "to": "q"}],
}

MIRROR_SST = machine_to_doc(corpus.mirror_sst())
TWO_PHASE_SST = machine_to_doc(corpus.two_phase_sst())


def _edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


UPDATE_AS_A_LIST = _edited(MIRROR_SST, lambda d: d["transitions"][0].update(update=["x"]))
UPDATE_TEXT_AS_A_NUMBER = _edited(MIRROR_SST, lambda d: d["transitions"][0]["update"].update(out=5))
OUTPUT_VALUE_AS_A_NUMBER = _edited(TWO_PHASE_SST, lambda d: d["output_function"][0].update(value=5))
REPEATED_TRANSITION = _edited(ONE_STATE_DFA, lambda d: d["transitions"].append(d["transitions"][0]))
COPYFUL_SST = _edited(MIRROR_SST, lambda d: d["transitions"][0]["update"].update(out="out out"))
SST_INTO_AN_UNDECLARED_STATE = _edited(MIRROR_SST, lambda d: d["transitions"][0].update(to="s9"))
SST_READING_Z = _edited(MIRROR_SST, lambda d: d["transitions"][0].update({"in": "z"}))
SST_EMITTING_C = _edited(MIRROR_SST, lambda d: d["transitions"][0]["update"].update(out="out x c"))
BUCHI_READING_Z = {"type": "buchi", "states": ["s"], "initial": ["s"], "accepting": ["s"], "alphabet": ["a"],
                   "transitions": [{"from": "s", "letter": "z", "to": "s"}]}


@pytest.mark.parametrize("argv, document, stdin, env", [
    (["run", "mirror2wft", "(a_#)^ω"], None, None, None),
    (["run", "mirror2wft", "w"], {"words": {"w": {"kind": "pi", "k": 0}}}, None, None),
    (["run", "mirror2wft", "w"], {"words": {"w": {"kind": "constant", "letter": "_"}}}, None, None),
    (["run", "mirror2wft", "w"], {"words": {"w": {"kind": "lasso", "u": "ab"}}}, None, None),
    (["run", "-", "(ab#)^ω"], None, "not json", None),
    (["run", "-", "(ab#)^ω"], None, "[1, 2]", None),
    (["run", "mirror2wft", "(ab#)^ω", "-n", "-3"], None, None, None),
    (["compare", "pi", "pi", "-n", "many"], None, None, None),
    (["run", "-", "(ab)^ω"], None, '{"type": "2wft", "initial": "q"}', None),
    (["convert", "sst2wftb", "mirror2wft"], None, None, None),
    (["convert", "unlookbehind", "mirror_sst", "--input", "(ab#)^ω"], None, None, None),
    (["convert", "normalize-pi", "mirror_sst"], None, None, None),
    (["convert", "oneway-pi", "mirror_sst"], None, None, None),
    (["convert", "oneway-pi", "bounce_probe"], None, None, None),
    (["compare", "pi", "pi", "-n", "0"], None, None, None),
    (["analyze", "complexity", "pi", "--kmax", "0"], None, None, None),
    (["analyze", "padding", "F a"], None, None, None),
    (["words"], None, None, "x"),
    (["--budget", "-5", "run", "mirror2wft", "(ab#)^ω"], None, None, None),
    (["analyze", "complexity", "pi", "--window", "-3"], None, None, None),
    (["analyze", "padding", "F a", "(ab)^ω", "--range", "-1"], None, None, None),
    (["-f", "no-such-document.json", "words"], None, None, None),
    (["words"], {"words": 5}, None, None),
    (["words"], {"machines": {"m": 3}}, None, None),
    (["words"], {"formulas": {"f": 5}}, None, None),
    (["run", "mirror2wft", "w"], {"words": {"w": {"kind": "shift", "base": {"kind": "pi"}, "n": -1}}},
     None, None),
    (["run", "mirror2wft", "w"], {"words": {"w": {"kind": "constant", "letter": "ab"}}}, None, None),
    (["run", "-", "(ab)^ω"], None, ONE_WAY_EMITTING_ZZ, None),
    (["words"], {"machines": {"m": DFA_READING_Z}}, None, None),
    (["words"], {"machines": {"m": LOOKBEHIND_ON_A_MISSING_STATE}}, None, None),
    (["run", "m", "(ab#)^ω"], {"machines": {"m": UPDATE_AS_A_LIST}}, None, None),
    (["run", "m", "(ab#)^ω"], {"machines": {"m": UPDATE_TEXT_AS_A_NUMBER}}, None, None),
    (["run", "-", "a·(bc)^ω"], None, json.dumps(OUTPUT_VALUE_AS_A_NUMBER), None),
    (["words"], {"machines": {"m": REPEATED_TRANSITION}}, None, None),
    (["run", "-", "(ab#)^ω"], None, json.dumps(REPEATED_TRANSITION), None),
    (["run", "-", "(ab#)^ω"], None, json.dumps(COPYFUL_SST), None),
    (["run", "m", "(ab#)^ω"], {"machines": {"m": COPYFUL_SST}}, None, None),
    (["convert", "sst2wftb", "-"], None, json.dumps(SST_INTO_AN_UNDECLARED_STATE), None),
    (["run", "-", "(ab#)^ω"], None, json.dumps(SST_READING_Z), None),
    (["run", "-", "(ab#)^ω"], None, json.dumps(SST_EMITTING_C), None),
    (["words"], {"machines": {"m": BUCHI_READING_Z}}, None, None),
    (["convert", "remove-endmarker", "mirror2wft", "--input", "pi"], None, None, None),
], ids=["padding-literal", "pi-k0", "padding-constant", "lasso-without-v",
        "stdin-not-json", "stdin-not-object", "negative-n", "non-integer-n",
        "machine-without-fields", "sst2wftb-of-a-2wft", "unlookbehind-of-an-sst",
        "normalize-pi-of-an-sst", "oneway-pi-of-an-sst", "oneway-pi-of-a-machine-not-normalized",
        "zero-n", "zero-kmax",
        "padding-without-advice", "budget-environment", "negative-budget",
        "negative-window", "negative-range", "missing-document", "words-not-an-object",
        "machine-not-an-object", "formula-not-a-string", "negative-shift",
        "constant-of-two-letters", "emits-outside-the-output-alphabet",
        "dfa-reads-outside-its-alphabet", "lookbehind-state-not-in-the-oracle",
        "sst-update-not-an-object", "sst-update-text-not-a-string", "sst-output-value-not-a-string",
        "repeated-transition-in-a-document", "repeated-transition-on-stdin", "copyful-sst-on-stdin",
        "copyful-sst-in-a-document", "sst-into-an-undeclared-state", "sst-reads-outside-its-input-alphabet",
        "sst-emits-outside-its-output-alphabet", "buchi-reads-outside-its-alphabet",
        "remove-endmarker-on-a-non-lasso"])
def test_malformed_inputs_are_usage_errors(argv, document, stdin, env, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if document is not None:
        (tmp_path / "doc.json").write_text(json.dumps(document))
        argv = ["-f", "doc.json"] + argv
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    if env is not None:
        monkeypatch.setenv("ADVICEBENCH_BUDGET", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error: " in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [["run", "G", "pi"], ["compare", "G", "mirror_sst", "--word", "pi"]],
                         ids=["run", "compare"])
def test_a_general_sst_on_a_word_that_is_not_a_lasso_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(dumps({"machines": {"G": machine_to_doc(corpus.two_phase_sst())}}))
    error = "error: a general register transducer needs an ultimately periodic input\n"
    assert run_cli(capsys, "-f", str(path), *argv) == (2, "", error)


CONTRACT_WORDS = ("pi", "pi2", "(ab#)^ω", "ab·(ba)^ω", "ab.(ba)^w", "(ab#baa#)^ω", "(0110)^ω", "(a_#)^ω",
                  "(_)^ω", "(01)^ω", "a·(bc)^ω", "(abc)^ω", "(ab#)^", "(ab#", "ab)^ω", "()^ω", "^ω", "", "w", "nope")
CONTRACT_FORMULAS = ("F a", "G F b", "a U b", "X !a", "F", "G (a", "a U", "!", "a &", "(a | b", "F c", "f")
CONTRACT_NUMBERS = ("1", "2", "3", "7", "40")
BROKEN_NUMBERS = ("0", "-1", "x", "")


def contract_calls(n, seed=7):
    """``n`` fixed (argv, stdin text, document or None) calls drawn from the
    corpus names, lasso literals with foreign letters and '_', broken literals,
    truncated formulas, small or broken flag values and mutated machine
    documents; a mutated document goes to the call as 'm' of its -f document
    or on stdin."""
    from test_properties import mutated_document

    rng = random.Random(seed)
    pick = rng.choice
    machines = (*corpus.BUILTIN_MACHINES, "nope")

    def number():
        return pick(BROKEN_NUMBERS if rng.random() < 0.1 else CONTRACT_NUMBERS)

    for _ in range(n):
        stdin, document = "not json", None
        if rng.random() < 0.3:
            mutated = mutated_document(pick)
            if pick((False, True)):
                document, machine = {"machines": {"m": mutated}}, "m"
            else:
                stdin, machine = json.dumps(mutated), "-"
        else:
            machine = pick(machines)
        word = pick(CONTRACT_WORDS)
        argv = pick((
            ["words"],
            ["run", machine, word, "-n", number()],
            ["compare", pick((word, machine)), pick(CONTRACT_WORDS), "-n", number(), "--word", pick(CONTRACT_WORDS)],
            ["convert", pick((*CONVERSIONS, "nope")), machine, "--input", word, "--cmax", number()],
            ["analyze", "complexity", word, "--kmax", number(), "--window", number()],
            ["analyze", "padding", pick(CONTRACT_FORMULAS), word, "--range", number()],
            ["check", pick(("nope", "mu-delay", "endmarker", ""))],
        ))
        if rng.random() < 0.3:
            argv = ["--budget", number()] + argv
        if rng.random() < 0.2:
            argv = ["--json"] + argv
        yield argv, stdin, document


def test_no_call_escapes_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    # every call returns 0, 1 or 2 and says at most one line on stderr,
    # besides the usage argparse prints before its own error line
    monkeypatch.chdir(tmp_path)
    for argv, stdin, document in contract_calls(300):
        if document is not None:
            (tmp_path / "doc.json").write_text(json.dumps(document))
            argv = ["-f", "doc.json"] + argv
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code, _out, err = run_cli(capsys, *argv)
        except Exception as exc:  # an escaped exception is the finding; name its call
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if not err.startswith("usage: "):
            assert err.count("\n") <= 1, (argv, err)
