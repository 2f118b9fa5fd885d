"""casimirlab benchmark: theory sweep and warm campaign ensemble.

    python3 bench/run.py --workload theory_sweep|campaign_ensemble|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its src/
directory, nothing is installed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced replay.  The lines before it name the same figures the way a reader
of one workload would (theory_points_per_s, set_s_p50, ...), the
wall-clock times and the host speed, and give the machine record.  Working files go to .bench_out/ in the checkout.

set-up time (setup_s) is the median of several fresh processes, each
timed from its spawn until it has finished the workload's set-up: imports,
generated inputs, warm truth and theory curves.  theory_sweep's cheap
set-up is timed between the operations all through the run;
campaign_ensemble's, about 13 s each, before the timed loop.

Time metrics are normalized to a reference host speed with a fixed kernel
(hostspeed.py) timed right after every operation: each operation time by
the passes around it (ops_per_s, op_s_p50), the set-up time by the median
pass of the run (setup_s).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S
from tracing import PER_LAYER
from workloads import ROOT, WORKLOADS, child_env

DEFAULT_SEED = 1
# Kept out of all tuning; confirm a claimed gain on it as well.
HELDOUT_SEED = 918273
DEADLINE_S = 175.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("verdict_agree_frac", "fraction"),
    ("theory_rel_err_tol9", "relative"),
    ("theory_rel_err_tol12", "relative"),
)

# The same figures under the names a reader of one workload looks for:
# name -> (end-to-end metric, factor, unit).  theory_sweep commands each
# produce 2 x 701 gradient points.
READER_NAMES = {
    "theory_sweep": {"theory_points_per_s": ("ops_per_s", 1402, "points/s"),
                     "theory_cmd_s_p50": ("op_s_p50", 1, "s"),
                     "theory_cmd_s_p90": ("p90", 1, "s")},
    "campaign_ensemble": {"campaign_sets_per_s": ("ops_per_s", 1, "sets/s"),
                          "set_s_p50": ("op_s_p50", 1, "s"),
                          "set_s_p90": ("p90", 1, "s")},
}


class BenchError(Exception):
    pass


def _kill(proc) -> None:
    """Kill a child and everything it started (its own session), then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _await_ready(proc, deadline: float) -> None:
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            _kill(proc)
            raise BenchError("timed out waiting for the set-up to finish")
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise BenchError(f"process exited with {proc.returncode} before READY")
        if line.strip() == "READY":
            return


def _finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError("workload process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")


def _spawn(cmd):
    return subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{name}-s{seed}-t{trace}"
    work = ROOT / ".bench_out" / tag
    shutil.rmtree(work, ignore_errors=True)
    result_file = work.parent / f"{tag}.json"
    result_file.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = _spawn([sys.executable, str(Path(__file__).with_name("worker.py")),
                   "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--work", str(work), "--result", str(result_file)])
    _await_ready(proc, deadline)
    # The workload process's own set-up is one sample of setup_s.
    setup = [time.perf_counter() - t0]
    _finish(proc, deadline)
    result = json.loads(result_file.read_text())
    shutil.rmtree(work, ignore_errors=True)

    values = result["metrics"]
    if trace:
        units = PER_LAYER
    else:
        setup += result["setup_samples"]
        result["setup_samples"] = setup
        result["wall_metrics"]["setup_s"] = statistics.median(setup)
        # A set-up sample is a child process with no kernel passes inside
        # it, so it is scaled by the run's host speed as a whole.
        values["setup_s"] = statistics.median(setup) * result["host_speed"]
        units = END_TO_END
        result_file.write_text(json.dumps(result, indent=1) + "\n")
    result["line"] = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units},
    }
    return result


def report(name: str, trace: int, result: dict) -> None:
    """Readable lines for one workload, before the JSON line."""
    n, failed = result["attempted"], result["failed"]
    print(f"# {name} seed={result['machine']['seed']} trace={trace}: "
          f"{n} operations, {failed} failed")
    for msg in result["errors"]:
        print(f"#   failure: {msg}")
    metrics = result["line"]["metrics"]
    for metric, entry in metrics.items():
        print(f"#   {metric:36s} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        print(f"#   {'fail_frac':36s} {failed / n:.6g} failed/attempted")
        print(f"#   {'host_speed':36s} {result['host_speed']:.6g} "
              f"(reference kernel {REFERENCE_S} s over its median time in this run)")
        for metric, value in result["wall_metrics"].items():
            print(f"#   {'wall ' + metric:36s} {value:.6g} {dict(END_TO_END)[metric]}")
        for alias, (metric, factor, unit) in READER_NAMES[name].items():
            value = result["p90"] if metric == "p90" else metrics[metric]["value"]
            if value is None:
                print(f"#   {alias:36s} dropped: {result['n_ok']} samples, "
                      f"a p90 needs at least 100")
            else:
                print(f"#   {alias:36s} {value * factor:.6g} {unit}")
    print("# machine " + json.dumps(result["machine"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "casimirlab" / "__init__.py").is_file():
        print(f"no casimirlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(name, args.trace, result)
        lines[name] = result["line"]
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
