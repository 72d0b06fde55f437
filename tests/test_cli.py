from __future__ import annotations

import io
import json

import pytest

from advicebench.cli import main, parse_word_literal
from advicebench.documents import dumps, machine_to_doc
from advicebench.transducers import mirror_blocks_2wft
from advicebench.words import Alphabet


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


ONE_WAY_EMITTING_ZZ = json.dumps({
    "type": "1wft", "states": ["q"], "initial": "q", "input_alphabet": ["a", "b"],
    "output_alphabet": ["y"], "transitions": [{"from": "q", "read": "a", "out": "zz", "to": "q"}],
})


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
], ids=["padding-literal", "pi-k0", "padding-constant", "lasso-without-v",
        "stdin-not-json", "stdin-not-object", "negative-n", "non-integer-n",
        "machine-without-fields", "sst2wftb-of-a-2wft", "unlookbehind-of-an-sst",
        "normalize-pi-of-an-sst", "oneway-pi-of-an-sst", "zero-n", "zero-kmax",
        "padding-without-advice", "budget-environment", "negative-budget",
        "negative-window", "negative-range", "missing-document", "words-not-an-object",
        "machine-not-an-object", "formula-not-a-string", "negative-shift",
        "constant-of-two-letters", "emits-outside-the-output-alphabet"])
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
