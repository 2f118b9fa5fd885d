"""Run one workload in this process: set up, print READY, measure, write a result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --mode run|setup --work DIR --result FILE

bench/run.py starts this with the checkout's sources on PYTHONPATH and times
the set-up from the spawn to the READY line.  With --mode setup the process
exits after READY; with --trace 0 it runs the timed closed loop and times
the workload's further set-up samples in fresh processes, every operation
bracketed by the host-speed kernel (hostspeed.py); with --trace 1 it
replays the workload's first operations untraced and then traced, and
writes the spans next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from stats import OpLog, tail_percentile
from tracing import Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, OpFailed, child_env, files_digest, theory_errors


def timed_op(w, i, log, inputs, tracer=None, speed=None) -> int:
    """Run operation i, record its duration and failures, then check it.
    With a HostSpeed, run its kernel pass right after the operation."""
    from casimirlab.errors import CasimirLabError

    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        w.op(i)
        error = None
    except (OpFailed, CasimirLabError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if speed is not None:
        speed.step_done()
    if tracer is not None:
        tracer.op = None
    op = log.record(seconds, error)
    inputs.append(i)
    if error is None:
        try:
            w.check(i)
        except OpFailed as exc:
            log.fail(op, str(exc))
    return op


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(w, setup: list, n: int) -> None:
    """Append the spawn-to-READY seconds of n fresh set-up processes.

    They share this process's session, so bench/run.py's deadline kills them
    together with it.
    """
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(w.setup_cmd(w.work / f"setup-{len(setup)}"), cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE, text=True)
        seconds = next((time.perf_counter() - t0 for line in proc.stdout
                        if line.strip() == "READY"), None)
        proc.communicate()
        if proc.returncode != 0 or seconds is None:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        setup.append(seconds)


def time_metrics(log, group: int, factors: list[float]) -> dict[str, float]:
    """ops_per_s and op_s_p50 of the operation times scaled by ``factors``."""
    seconds = [s * f for s, f in zip(log.seconds, factors)]
    ok = [s for s, e in zip(seconds, log.errors) if e is None]
    return {
        "ops_per_s": len(ok) / sum(seconds),
        # A group holds one operation of each input kind (both grids, presets
        # 1-4), so every run weighs the kinds alike.
        "op_s_p50": statistics.median(log.group_means(group, seconds) or seconds),
    }


def run_timed(w, seconds: float, speed: HostSpeed) -> dict:
    log, inputs, setup = OpLog(), [], []
    timed_setup(w, setup, w.setup_repeats)
    start = time.perf_counter()
    i = 0
    while i < w.min_ops or i % w.group or time.perf_counter() - start < seconds:
        if w.setup_every and i % w.setup_every == 0:
            timed_setup(w, setup, w.setup_batch)
        timed_op(w, i, log, inputs, speed=speed)
        i += 1
    if w.setup_every:
        timed_setup(w, setup, w.setup_batch)
    extra = w.finish(log, inputs)
    factors = speed.factors()
    ok = [s * f for s, f, e in zip(log.seconds, factors, log.errors) if e is None]
    metrics = {
        **time_metrics(log, w.group, factors),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - log.fail_frac,
        **extra,
        **theory_errors(),
    }
    return {"log": log, "metrics": metrics, "p90": tail_percentile(ok, 90), "n_ok": len(ok),
            "wall_metrics": time_metrics(log, w.group, [1.0] * len(factors)),
            "setup_samples": setup, "kernel_s": speed.samples, "op_factors": factors,
            "host_speed": REFERENCE_S / statistics.median(speed.samples)}


def run_traced(w) -> dict:
    """Replay the first trace_ops operations, each untraced and then traced.

    trace.overhead_frac compares the two passes over identical inputs; the
    per-layer metrics come from the traced pass only, per operation.
    Alternating the passes keeps slow spells of a shared machine from
    landing on one pass only.
    """
    log, inputs = OpLog(), []
    plain_s = traced_s = 0.0
    written = 0
    tracer = Tracer()
    for _ in range(w.trace_rounds):
        for i in range(w.trace_ops):
            plain_s += log.seconds[timed_op(w, i, log, inputs)]
            before = w.bytes_written
            with tracer:
                traced_s += log.seconds[timed_op(w, i, log, inputs, tracer)]
            written += w.bytes_written - before
    spans = tracer.spans
    metrics = layer_metrics(
        spans, w.trace_rounds * w.trace_ops, import_s=w.import_s, bytes_written=written,
        overhead_frac=traced_s / plain_s - 1.0 if plain_s else 0.0)
    return {"log": log, "metrics": metrics, "spans": [s.__dict__ for s in spans]}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "git_commit": git_commit(),
        "source_sha256": files_digest(sorted((ROOT / "src").rglob("*.py"))),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, args.work)
    w.setup()
    import casimirlab

    if not Path(casimirlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"casimirlab imported from {casimirlab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    # In-process CLI commands print progress lines; the result goes to a file.
    sys.stdout = open(os.devnull, "w")
    out = run_traced(w) if args.trace else run_timed(w, args.seconds, HostSpeed())
    log = out.pop("log")
    spans = out.pop("spans", None)
    result = {
        "workload": w.name,
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.first_errors(),
        "op_seconds": log.seconds,
        "machine": machine_record(args.seed),
        **out,
    }
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        args.result.with_name(args.result.stem + "-spans.json").write_text(json.dumps(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
