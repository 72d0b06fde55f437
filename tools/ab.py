"""A/B comparer: the benchmark at a parent revision against the working tree.

    python3 tools/ab.py --parent HEAD --sets stream:1,3 construct:1 \
        --pairs 10 --seconds 25 --out BENCH_name.json

Run from anywhere inside the repository. Three sides are exported with
``git archive`` into sibling directories of a scratch directory, at paths of
equal length (a checkout's path alone moves ``peak_rss_mb``): the parent
revision; the working tree, through a scratch index, so uncommitted and
untracked files count and the real index is left alone; and a second copy
of the parent, the A/A control. Each side runs ``perfbench/run.py`` from its
own checkout.

Every workload and seed of ``--sets`` runs ``--pairs`` rounds of one run per
side, the three in the orders of a cycle through all six permutations.
``--probe SCRIPT`` runs ``python3 SCRIPT PARENT_SRC CHANGE_SRC`` once and
keeps the JSON object it prints last.

The output file (schema ``advicebench-ab/3``) holds, per workload and seed
(``sets``), the order of each round and, per end-to-end metric of
BENCHMARK.json:

- ``parent``, ``change``, ``copy``: ``runs``, ``median``, ``q1``, ``q3``;
- ``change_won``, ``copy_won``: the rounds in which that side read better
  than the parent, of ``pairs``;
- ``median_delta``: (change median - parent median) / parent median;
- ``aa_spread``: |copy median - parent median| / parent median;
- ``verdict``, ``aa_verdict``: the gain rule on the change, and on the copy:
  ``better`` when the side won at least 9 in 10 rounds and its median is
  better by more than the parent's q3 - q1, ``worse`` when the parent won
  that way, ``no clear difference`` otherwise. An ``aa_verdict`` other than
  that last one shows drift between runs of one tree.

and, in ``groups``, per op group of the ``# <group> <count> ops  median
<ms> ms`` lines that perfbench prints (an op kind at one input size, such
as ``pi_expander/n``), per side: ``ops`` and ``runs`` (its op count and
median ms in each round, None in a round that did not print it) and
``median``, the median of those medians.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SCHEMA = "advicebench-ab/3"
GROUP_LINE = re.compile(r"# (\S+) +(\d+) ops  median +(\S+) ms")
SIDES = {"P": "parent", "B": "change", "C": "copy"}
TRIPLES = ("PBC", "BCP", "CPB", "PCB", "BPC", "CBP")


def git(*args, env=None) -> bytes:
    return subprocess.run(("git",) + args, check=True, capture_output=True, env=env).stdout


def working_tree() -> str:
    """A tree object of the working tree, tracked and untracked files, made
    through a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env).decode().strip()


def export(treeish: str, where: Path):
    where.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", treeish))) as tar:
        tar.extractall(where, filter="data")


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> tuple:
    """The end-to-end metric values of one perfbench run in ``checkout``,
    and its op groups' (count, median ms)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: perfbench failed in {checkout.name}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {result['failed']} failed ops in {checkout.name} ({workload}, seed {seed})")
    groups = {m[1]: (int(m[2]), float(m[3])) for m in map(GROUP_LINE.fullmatch, lines) if m}
    return {name: metric["value"] for name, metric in result["metrics"].items()}, groups


def summary(runs: list) -> dict:
    q1, _q2, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def gain_rule(sign: int, parent: dict, other: dict) -> tuple:
    """The rounds ``other`` won against ``parent`` (two summaries), and its
    verdict: a side wins when it won 9 in 10 rounds and its median differs
    by more than the parent's q3 - q1."""
    won = sum(sign * (o - p) > 0 for p, o in zip(parent["runs"], other["runs"]))
    lost = sum(sign * (o - p) < 0 for p, o in zip(parent["runs"], other["runs"]))
    gap = sign * (other["median"] - parent["median"])
    rounds, iqr = len(parent["runs"]), parent["q3"] - parent["q1"]
    if 10 * won >= 9 * rounds and gap > iqr:
        return won, "better"
    if 10 * lost >= 9 * rounds and -gap > iqr:
        return won, "worse"
    return won, "no clear difference"


def compare(spec: dict, values: dict) -> dict:
    """Per metric, the three sides' summaries, the rounds won, the median
    deltas and the verdicts."""
    out = {}
    for name, better in spec.items():
        entry = {side: summary([v[name] for v in values[side]]) for side in values}
        sign = 1 if better == "higher" else -1
        base = entry["parent"]["median"]
        entry["better"] = better
        entry["pairs"] = len(entry["parent"]["runs"])
        entry["change_won"], entry["verdict"] = gain_rule(sign, entry["parent"], entry["change"])
        entry["copy_won"], entry["aa_verdict"] = gain_rule(sign, entry["parent"], entry["copy"])
        entry["median_delta"] = (entry["change"]["median"] - base) / base if base else None
        entry["aa_spread"] = abs(entry["copy"]["median"] - base) / base if base else None
        out[name] = entry
    return out


def group_medians(rounds: dict) -> dict:
    """Per op group, per side, the op count and median ms of each round
    (``rounds`` holds each side's per-round groups), and their median."""
    out: dict = {}
    for name in sorted({name for side in rounds.values() for got in side for name in got}):
        out[name] = {}
        for side, runs in rounds.items():
            ops, ms = zip(*(got.get(name, (None, None)) for got in runs))
            present = [x for x in ms if x is not None]
            out[name][side] = {"ops": list(ops), "runs": list(ms),
                               "median": statistics.median(present) if present else None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision, e.g. HEAD")
    parser.add_argument("--sets", required=True, nargs="+", metavar="WORKLOAD:SEEDS",
                        help="a workload and its comma-separated seeds, e.g. stream:1,3")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--probe", help="a script run once as SCRIPT PARENT_SRC CHANGE_SRC")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be positive")
    runs = []  # (workload, seed)
    for item in args.sets:
        workload, _colon, seeds = item.partition(":")
        try:
            runs += [(workload, int(seed)) for seed in seeds.split(",")]
        except ValueError:
            parser.error(f"--sets takes WORKLOAD:SEEDS, e.g. stream:1,3, not {item!r}")

    out = Path(args.out).resolve()
    probe_script = args.probe and str(Path(args.probe).resolve())
    os.chdir(git("rev-parse", "--show-toplevel").decode().strip())
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    tree = working_tree()
    work = Path(tempfile.mkdtemp(prefix="ab-"))
    dirs = {"P": work / "P", "B": work / "B", "C": work / "C"}
    try:
        export(parent, dirs["P"])
        export(tree, dirs["B"])
        export(parent, dirs["C"])
        bench = json.loads((dirs["B"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        spec = {m["name"]: m["better"] for m in bench["end_to_end"]}
        sets = []
        for workload, seed in runs:
            values: dict = {side: [] for side in SIDES.values()}
            groups: dict = {side: [] for side in SIDES.values()}
            orders = []
            for i in range(args.pairs):
                order = TRIPLES[i % len(TRIPLES)]
                orders.append(",".join(SIDES[s] for s in order))
                got = {s: run_bench(dirs[s], workload, seed, args.seconds) for s in order}
                for s in order:
                    values[SIDES[s]].append(got[s][0])
                    groups[SIDES[s]].append(got[s][1])
                print(f"# {workload} seed {seed} round {i + 1}/{args.pairs} ({orders[-1]}): "
                      + ", ".join(f"{SIDES[s]} {got[s][0]['ops_per_s']:.1f} ops/s" for s in order),
                      file=sys.stderr, flush=True)
            sets.append({"workload": workload, "seed": seed, "orders": orders,
                         "metrics": compare(spec, values), "groups": group_medians(groups)})
        probe = None
        if probe_script:
            done = subprocess.run([sys.executable, probe_script, str(dirs["P"] / "src"), str(dirs["B"] / "src")],
                                  check=True, capture_output=True, text=True)
            probe = json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "schema": SCHEMA,
        "tool": "tools/ab.py",
        "command": ["python3", "tools/ab.py"] + list(sys.argv[1:] if argv is None else argv),
        "host": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "parent": parent,
        "change": f"working tree {tree}",
        "seconds": args.seconds,
        "pairs": args.pairs,
        "sets": sets,
        "probe": probe,
    }
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for s in sets:
        for name, m in s["metrics"].items():
            print(f"{s['workload']:9s} seed {s['seed']} {name:14s} parent {m['parent']['median']:12.6g}"
                  f"  change {m['change']['median']:12.6g}  won {m['change_won']}/{m['pairs']}"
                  f"  delta {m['median_delta'] or 0:+.3f}  A/A {m['aa_spread'] or 0:.3f}  {m['verdict']}"
                  f" (A/A: {m['aa_verdict']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
