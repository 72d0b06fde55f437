"""One workload process: set up, run the op list, report as JSON.

Started by run.py in a fresh interpreter with a fixed PYTHONHASHSEED and
PYTHONPATH pointing at a fresh copy of the package sources, so the import
compiles every module from source. Modes:

  setup   import, build the inputs and warm up; report the set-up times
  timed   as setup, then run the op list PASSES times with tracing off
  traced  as setup, then run the op list once with spans recorded around
          calls into the package; then the layer probes and the check suites

The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path


#: Passes over the op list in a timed run; an op's latency is the median of
#: its passes, which are seconds apart.
PASSES = 3

#: Calibration loop per workload: (copy every k-th step, or None; seconds
#: the loop takes at the reference host speed). Stream ops spend most of
#: their time copying long lists, which the host's speed swings slow less
#: than interpreter dispatch, so their loop copies lists too.
CALIBRATION = {"stream": (4, 9.0e-3), "construct": (None, 1.6e-3), "decide": (None, 1.6e-3)}
#: Least seconds between two calibrations during the timed passes.
CALIBRATION_GAP_S = 0.2

_CALIBRATION_TEXT = "".join(random.Random("calibration").choices("ab", k=4000))
_CALIBRATION_TABLE = {(q, a): ((a,) * (q % 3), (q * 5 + (a == "b")) % 64)
                      for q in range(64) for a in "ab"}


def calibrate(copy_every) -> float:
    """Median seconds of 3 runs of a fixed loop shaped like the package's
    run engines: a 64-state machine stepped over 4000 letters, keeping its
    outputs and a record per step, and with ``copy_every`` a copy of the
    output so far every that many steps. It never calls the package.

    The host this benchmark was built on changes speed by up to 1.9x within
    seconds as other tenants' load comes and goes. Op latencies are scaled
    to the reference speed by this loop, timed at least every
    CALIBRATION_GAP_S seconds: each op is scaled by the mean of the
    calibrations just before and just after it.
    """
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        q, out, trace = 0, [], []
        for i, a in enumerate(_CALIBRATION_TEXT):
            emitted, q = _CALIBRATION_TABLE[(q, a)]
            out.extend(emitted)
            trace.append((q, i, len(out)))
            if copy_every and i % copy_every == 0:
                out[:]
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_ops(ops, calibration, passes=1, tracer=None):
    """Run the op list ``passes`` times; each op is timed, then checked untimed.

    Returns (wall seconds per pass and op, the same scaled to the reference
    host speed, failures as (pass, index, kind, size, cause), output
    summaries of the first pass).
    """
    copy_every, reference_s = calibration
    wall, scaled, failures, summaries = [], [], [], []
    pending = []  # (pass, index) of ops timed since the last calibration
    before = calibrate(copy_every)
    calibrated = time.perf_counter()

    def settle():
        nonlocal before, calibrated
        after = calibrate(copy_every)
        factor = 2 * reference_s / (before + after)
        for p_, i_ in pending:
            scaled[p_][i_] = wall[p_][i_] * factor
        pending.clear()
        before, calibrated = after, time.perf_counter()

    for p in range(passes):
        wall.append([])
        scaled.append([0.0] * len(ops))
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            started = time.perf_counter()
            try:
                output = op.run()
                error = None
            except Exception as exc:  # an op that raises is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.op = None
            wall[p].append(elapsed)
            pending.append((p, i))
            if time.perf_counter() - calibrated >= CALIBRATION_GAP_S:
                settle()
            if error is None:
                try:
                    summary, error = op.check(output)
                except Exception as exc:
                    summary, error = "", f"check raised {type(exc).__name__}: {exc}"
            else:
                summary = error
            if p == 0:
                summaries.append(summary)
            if error is not None:
                failures.append((p, i, op.kind, op.size, error[:300]))
            output = None
            gc.collect()
    settle()
    return wall, scaled, failures, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--package", required=True, help="directory the package must load from")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    calibration = CALIBRATION[args.workload]
    speed_before = calibrate(calibration[0])
    started = time.perf_counter()
    import advicebench

    imported = time.perf_counter()
    if not Path(advicebench.__file__).resolve().is_relative_to(Path(args.package).resolve()):
        print(f"advicebench loaded from {advicebench.__file__}, not from {args.package}",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.build_ops(args.workload, args.seed, args.rounds)
    built = time.perf_counter()
    for op in workloads.warmup_ops(ops):
        op.run()
    gc.collect()
    # the inputs live for the whole run: keep them out of every later
    # collection, so the collection after each op scans only that op's garbage
    gc.freeze()
    ready = time.perf_counter()
    scale = 2 * calibration[1] / (speed_before + calibrate(calibration[0]))
    result = {
        "setup_s": (ready - started) * scale,
        "wall_setup_s": ready - started,
        "import_s": imported - started,
        "inputs_s": built - imported,
    }
    if args.mode != "setup":
        passes = 1 if tracer is not None else PASSES
        wall, scaled, failures, summaries = run_ops(ops, calibration, passes, tracer)
        result.update(
            times=[statistics.median(samples) for samples in zip(*scaled)],
            wall_times=[statistics.median(samples) for samples in zip(*wall)],
            pass_s=[sum(t) for t in scaled],
            wall_pass_s=[sum(t) for t in wall],
            executions=passes * len(ops),
            letters=[op.letters for op in ops],
            classes=[f"{op.kind}/{op.size}" for op in ops],
            failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            inputs_digest=workloads.digest(f"{op.kind} {op.size} {op.desc}" for op in ops),
            outputs_digest=workloads.digest(summaries),
        )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(sum(result["wall_times"]))
        result["layers"].update(tracing.probes())
        result["layers"].update(tracing.check_suites())
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
