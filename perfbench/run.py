"""Benchmark runner: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run copies the package
sources from src/advicebench into a fresh directory under .perfbench_out,
so every workload process compiles them from source (no bytecode cache is
read or written), and starts one workload process at a time, each with
one thread and a PYTHONHASHSEED derived from --seed.

--trace 0 reports the end-to-end metrics: 4 set-up-only processes plus the
timed process give 5 set-up times, of which setup_s is the median; the
timed process runs the op list 3 times with tracing off, and each op's
latency is the median of its 3 passes. Times are scaled to a reference
host speed measured by a calibration loop around each op (worker.py);
the unscaled wall-clock figures are printed as comment lines.
--trace 1 reports the per-layer metrics: the same op list runs untraced,
then once traced, and the traced process adds the layer probes and the
check suites. The spans are written to .perfbench_out/spans-<workload>-<seed>.json.

--workload all runs every workload in turn. Metric names and units come
from BENCHMARK.json. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
PACKAGE = ROOT / "src" / "advicebench"

WORKLOADS = ("stream", "construct", "decide")
#: Op-list rounds per second of --seconds. Fixed numbers, so the op list
#: depends only on --seconds and --seed, never on the speed of the code.
ROUNDS_PER_SECOND = {"stream": 0.2, "construct": 0.175, "decide": 0.6}
SETUP_PROCESSES = 4
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def hash_seed(seed: int) -> int:
    return int(hashlib.sha256(f"hashseed/{seed}".encode()).hexdigest(), 16) % 2 ** 32


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def stage_package(directory: Path) -> Path:
    """Copy the package sources, and nothing else, to directory/advicebench."""
    target = directory / "advicebench"
    target.mkdir(parents=True)
    for source in sorted(PACKAGE.glob("*.py")):
        shutil.copyfile(source, target / source.name)
    return directory


def run_worker(workload, seed, rounds, mode, package_root: Path, spans=None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED=str(hash_seed(seed)), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(package_root))
    cmd = [sys.executable, "-B", str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rounds", str(rounds), "--mode", mode,
           "--package", str(package_root)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} process timed out after {exc.timeout}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def end_to_end(times: list, letters: list, setups: list, peak_rss_mb: float) -> dict:
    busy = sum(times)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / busy,
        "op_ms_p50": 1000 * statistics.median(times),
        "op_ms_p90": 1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "letters_per_s": sum(letters) / busy,
        "peak_rss_mb": peak_rss_mb,
    }


def print_classes(timed: dict):
    """Median op time per op kind and size, in rank order."""
    by_class: dict = {}
    for name, seconds in zip(timed["classes"], timed["times"]):
        by_class.setdefault(name, []).append(seconds)
    rows = sorted((statistics.median(v), name, len(v)) for name, v in by_class.items())
    for median, name, count in rows:
        print(f"# {name:40s} {count:4d} ops  median {1000 * median:10.3f} ms")


def run_workload(workload: str, seed: int, seconds: int, trace: bool, staged: Path):
    """(metrics, attempted, failures) for one workload."""
    rounds = rounds_for(workload, seconds)
    print(f"# {workload}: seed {seed}, PYTHONHASHSEED {hash_seed(seed)}, {rounds} rounds")
    if not trace:
        setups = [run_worker(workload, seed, rounds, "setup", staged)
                  for _ in range(SETUP_PROCESSES)]
        timed = run_worker(workload, seed, rounds, "timed", staged)
        setups.append(timed)
        print("# setup_s samples: " + ", ".join(f"{s['setup_s']:.4f}" for s in setups))
        print(f"# seconds per pass: {', '.join(f'{s:.3f}' for s in timed['pass_s'])}"
              f" (wall clock {', '.join(f'{s:.3f}' for s in timed['wall_pass_s'])})")
        print_classes(timed)
        wall = end_to_end(timed["wall_times"], timed["letters"],
                          [s["wall_setup_s"] for s in setups], timed["peak_rss_mb"])
        print("# wall clock, not scaled: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
        metrics = end_to_end(timed["times"], timed["letters"], [s["setup_s"] for s in setups],
                             timed["peak_rss_mb"])
        return metrics, timed["executions"], timed["failures"]
    timed = run_worker(workload, seed, rounds, "timed", staged)
    spans = OUT / f"spans-{workload}-{seed}.json"
    traced = run_worker(workload, seed, rounds, "traced", staged, spans)
    if traced["inputs_digest"] != timed["inputs_digest"]:
        raise BenchError("the traced run saw another op list than the untraced run")
    layers = dict(traced["layers"])
    layers["setup.import_s"] = timed["import_s"]
    layers["setup.inputs_s"] = timed["inputs_s"]
    layers["tracing.overhead"] = traced["pass_s"][0] / timed["pass_s"][0]
    print(f"# spans written to {spans.relative_to(ROOT)}")
    return layers, timed["executions"] + traced["executions"], timed["failures"] + traced["failures"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a source checkout holding {PACKAGE.relative_to(ROOT)} "
              f"and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    OUT.mkdir(exist_ok=True)
    staged = Path(tempfile.mkdtemp(prefix="pkg-", dir=OUT))
    metrics: dict = {}
    attempted = 0
    failures = []
    try:
        stage_package(staged)
        for workload in names:
            values, count, failed = run_workload(workload, args.seed, args.seconds,
                                                 bool(args.trace), staged)
            missing = [m["name"] for m in wanted if m["name"] not in values]
            if missing:
                raise BenchError(f"{workload} did not measure {', '.join(missing)}")
            prefix = "" if len(names) == 1 else f"{workload}/"
            for m in wanted:
                value = values[m["name"]]
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"{workload:9s} {m['name']:55s} {value:14.6g} {m['unit']}")
            print(f"{workload:9s} {'fail_share':55s} {len(failed) / count:14.6g} ratio"
                  f"  ({len(failed)} of {count} op executions)")
            for pass_no, index, kind, size, cause in failed[:20]:
                print(f"# FAILED {workload} pass {pass_no} op {index} {kind} ({size}): {cause}")
            attempted += count
            failures += failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(staged, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
