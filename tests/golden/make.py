"""Golden outputs of the casimirlab command line: the cases and their records.

Each case runs one command in-process, in a shared work directory, and leaves
a record: the config file, the command, its exit code, stdout, stderr, any
warning, and the output files the case names.  A file's '#' header lines are
kept in full, and so are its data rows when there are at most SHORT_ROWS of
them; a longer table is kept as its row count, the SHA-256 of its rows and
its first and last row.  The cases run in order, so a case may read what an
earlier one wrote (compare reads pipeline set 1's gradient series).

    PYTHONPATH=src python tests/golden/make.py

writes every record to tests/golden/<case>.txt; tests/test_golden.py makes
the records again and names the first line that differs from these files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

from casimirlab.cli import main

HERE = Path(__file__).resolve().parent
SHORT_ROWS = 40

THEORY_FILES = ("theory_gradients.txt", "theory_pressures.txt")
PIPELINE_FILES = ("manifest.txt", "comparison.txt")
# the theory_sweep benchmark's grids at its seed 1: 701 points from an
# offset start, the second with set 4's geometry
BENCH_START = "0.5118216247002567"

# (case, config text or None, command line after "casimirlab", files recorded)
CASES = [
    ("theory-default", None, ["theory"], THEORY_FILES),
    ("theory-bench-small",
     f"[theory]\na_start_nm = 250{BENCH_START[1:]}\na_stop_nm = 950{BENCH_START[1:]}\n",
     ["theory"], THEORY_FILES),
    ("theory-bench-large",
     f"[theory]\na_start_nm = 600{BENCH_START[1:]}\na_stop_nm = 1300{BENCH_START[1:]}\n"
     "[geometry]\na_min_nm = 560\nmax_aspect = 0.0306\n", ["theory"], THEORY_FILES),
    ("theory-tol12", "[theory]\na_start_nm = 250\na_stop_nm = 950\na_step_nm = 35\n",
     ["theory", "--tol", "1e-12"], THEORY_FILES),
    ("theory-10K", "[theory]\na_start_nm = 50\na_stop_nm = 60\na_step_nm = 2.5\n"
     "[geometry]\ntemperature_k = 10\na_min_nm = 50\n", ["theory"], THEORY_FILES),
    ("pipeline-1", "[pipeline]\nsets = 1\nseed = 7\n", ["pipeline"], PIPELINE_FILES),
    ("pipeline-1-3", "[pipeline]\nsets = 1,2,3\nseed = 7\n", ["pipeline"], PIPELINE_FILES),
    ("pipeline-1-4", "[pipeline]\nsets = 1,2,3,4\nseed = 7\n", ["pipeline"], PIPELINE_FILES),
    ("compare-set1", None, ["compare", "--gradients", "pipeline-1/gradients_set1.txt"],
     ("comparison.txt",)),
    ("error-misspelled-key", "[theory]\na_stpe_nm = 5\n", ["theory"], ()),
    ("error-a-max-key", "[geometry]\na_max_nm = 2000\n[theory]\na_stop_nm = 300\n",
     ["theory"], THEORY_FILES),
    ("error-theory-start", "[theory]\na_start_nm = 249\n", ["theory"], ()),
    ("error-repeated-set", "[pipeline]\nsets = 1,1\n", ["pipeline"], ()),
    ("error-interval", "[pipeline]\nsets = 1\n[compare]\nintervals = 300:350, 2000:3000\n",
     ["pipeline"], ()),
    ("error-compare-start", "[compare]\ngrid_start_nm = 249\ngrid_stop_nm = 900\n",
     ["compare", "--gradients", "pipeline-1/gradients_set1.txt"], ("comparison.txt",)),
    ("error-pipeline-start", "[pipeline]\nsets = 4\nseed = 7\n[compare]\ngrid_start_nm = 100\n",
     ["pipeline"], PIPELINE_FILES),
    ("error-pipeline-series-start",
     "[pipeline]\nsets = 1\nseed = 7\n[compare]\ngrid_start_nm = 235\n", ["pipeline"],
     PIPELINE_FILES),
]


def _file_lines(path: Path) -> list[str]:
    """path's record: its header lines, then its rows or their digest."""
    if not path.exists():
        return [f"-- {path.name}: not written"]
    lines = path.read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if line and not line.startswith("#")]
    if len(rows) <= SHORT_ROWS:
        return [f"-- {path.name}", *head, *rows]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    return [f"-- {path.name}", *head, f"rows {len(rows)} sha256 {digest}",
            f"first {rows[0]}", f"last {rows[-1]}"]


def _run(name, config, argv, files) -> list[str]:
    """One case's record; the current directory is the work directory."""
    argv = list(argv)
    if config is not None:
        Path(f"{name}.ini").write_text(config)
        argv += ["--config", f"{name}.ini"]
    argv += ["--out", name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    lines = [f"== {name}"]
    if config is not None:
        lines += [f"-- {name}.ini", *config.splitlines()]
    lines += ["$ casimirlab " + " ".join(argv), f"exit {code}",
              "-- stdout", *stdout.getvalue().splitlines(),
              "-- stderr", *stderr.getvalue().splitlines()]
    lines += [f"warning {w.category.__name__}: {w.message}" for w in caught]
    for file in files:
        lines += _file_lines(Path(name) / file)
    return lines


def records(work) -> dict[str, str]:
    """Every case's record text, run in order in the directory work."""
    here = os.getcwd()
    os.chdir(work)
    try:
        return {case[0]: "\n".join(_run(*case)) + "\n" for case in CASES}
    finally:
        os.chdir(here)


def write_records() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name, text in records(work).items():
            (HERE / f"{name}.txt").write_text(text)
    print(f"wrote {len(CASES)} records to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(write_records())
