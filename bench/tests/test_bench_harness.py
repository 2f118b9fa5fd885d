import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import worker
from casimirlab.errors import ModelError
from stats import OpLog
from tracing import PER_LAYER
from workloads import WORKLOADS, OpFailed, stream_seed

ROOT = Path(__file__).resolve().parents[2]


class FakeWorkload:
    def __init__(self, outcomes):
        self.outcomes = outcomes

    def op(self, i):
        if self.outcomes[i] == "raise":
            raise ModelError("typed failure")
        if self.outcomes[i] == "bug":
            raise ZeroDivisionError("not a typed failure")

    def check(self, i):
        if self.outcomes[i] == "bad":
            raise OpFailed("wrong output")


def test_fail_frac_accounting_in_the_loop():
    w = FakeWorkload(["ok", "raise", "bad", "ok"])
    log, inputs = OpLog(), []
    for i in range(4):
        worker.timed_op(w, i, log, inputs)
    assert (log.attempted, log.failed, inputs) == (4, 2, [0, 1, 2, 3])
    assert log.errors[1].startswith("ModelError")
    assert log.errors[2] == "wrong output"


def test_untyped_exception_aborts_the_run():
    with pytest.raises(ZeroDivisionError):
        worker.timed_op(FakeWorkload(["bug"]), 0, OpLog(), [])


def test_stream_seeds_repeat():
    assert stream_seed(1, 0, 1) == stream_seed(1, 0, 1)
    assert stream_seed(1, 0, 1) != stream_seed(2, 0, 1)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS) == sorted(run.READER_NAMES)


def test_reference_generator_meets_closed_forms():
    assert reference.check() == []


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theory_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
