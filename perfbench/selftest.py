"""Self-tests of the benchmark: python3 perfbench/selftest.py

1. Determinism: for each workload, two processes with the same seed see
   the same op list and produce identical outputs, no op fails, and a
   third process with another seed sees other inputs.
2. Checks count: one op fed a wrong reference shows up in fail_share.

Exits 0 when both hold. It also reports, without failing on it, whether
the known analyze_on_constant defect (perfbench/README.md) still
reproduces; the workloads leave that function out because of it.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run as bench


def determinism(staged: Path) -> list:
    problems = []
    for workload in bench.WORKLOADS:
        first, again, other = (bench.run_worker(workload, seed, 1, "timed", staged)
                               for seed in (11, 11, 12))
        if first["inputs_digest"] != again["inputs_digest"]:
            problems.append(f"{workload}: the same seed gave another op list")
        if first["outputs_digest"] != again["outputs_digest"]:
            problems.append(f"{workload}: the same seed gave other outputs")
        if first["inputs_digest"] == other["inputs_digest"]:
            problems.append(f"{workload}: another seed gave the same inputs")
        for result, seed in ((first, 11), (again, 11), (other, 12)):
            problems += [f"{workload} seed {seed}: {kind} ({size}) failed: {cause}"
                         for _pass, _index, kind, size, cause in result["failures"]]
        print(f"{workload:9s} seed 11 inputs {first['inputs_digest']} outputs "
              f"{first['outputs_digest']}, {len(first['failures'])} failed executions; "
              f"seed 12 inputs {other['inputs_digest']}, {len(other['failures'])} failed")
    return problems


def wrong_reference(staged: Path) -> list:
    sys.path.insert(0, str(staged))
    import refs
    import worker
    import workloads

    ops = [op for op in workloads.build_ops("decide", 11, 1) if op.kind == "eval_lasso"]
    original = refs.ltl_at
    calls = []

    def wrong_once(*args):
        calls.append(args)
        truth = original(*args)
        return not truth if len(calls) == 1 else truth

    refs.ltl_at = wrong_once
    try:
        _wall, _scaled, failures, _summaries = worker.run_ops(ops, worker.CALIBRATION["decide"])
    finally:
        refs.ltl_at = original
    share = len(failures) / len(ops)
    print(f"wrong reference: fail_share {share:.4f} ({len(failures)} of {len(ops)} ops)")
    if len(failures) != 1:
        return [f"one wrong reference gave {len(failures)} failures, not 1"]
    return []


def known_defect(staged: Path) -> str:
    """Run analyze_on_constant on the machine of perfbench/README.md and
    compare its lasso with the raw run of the machine."""
    sys.path.insert(0, str(staged))
    import advicebench as ab
    import refs

    pad, end = ab.PAD, ab.ENDMARKER
    right, left = ab.RIGHT, ab.LEFT
    table = {
        (0, end): ((), right, 3), (0, pad): (("a", "b"), right, 3),
        (1, end): (("a",), right, 3), (1, pad): (("a", "b"), right, 2),
        (2, end): (("b", "b"), right, 0), (2, pad): (("a",), right, 1),
        (3, end): ((), right, 1), (3, pad): (("b", "b"), left, 2),
    }
    machine = ab.TwoWayTransducer(range(4), 0, ab.Alphabet.of("x"), ab.Alphabet.of("ab"), table)
    found = ab.analyze_on_constant(machine, pad)
    raw, _halt = ab.run_2wft(machine, ab.ConstantWord(pad, ab.Alphabet.of("x"))).try_letters(40)
    raw = "".join(raw)
    claimed = refs.lasso_prefix(found.u.to_str(), found.v.to_str(), 40)
    if claimed == raw:
        return "known defect: analyze_on_constant no longer differs from the raw run"
    return (f"known defect reproduced: analyze_on_constant gives {claimed}..., "
            f"the raw run {raw}...")


def main() -> int:
    bench.OUT.mkdir(exist_ok=True)
    staged = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT))
    try:
        bench.stage_package(staged)
        problems = determinism(staged) + wrong_reference(staged)
        print(known_defect(staged))
    finally:
        shutil.rmtree(staged, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
