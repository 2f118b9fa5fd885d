"""The command line's outputs, byte for byte, against the records in tests/golden.

tests/golden/make.py declares the cases and writes the records; a change that
moves an output on purpose regenerates the records it moves with that script.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_make", GOLDEN / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)
NAMES = [case[0] for case in make.CASES]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return make.records(tmp_path_factory.mktemp("golden"))


def test_every_record_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_the_record(records, name):
    want = (GOLDEN / f"{name}.txt").read_text().splitlines()
    got = records[name].splitlines()
    for i, (w, g) in enumerate(zip(want, got), 1):
        assert g == w, f"{name}.txt line {i}: recorded {w!r}, made {g!r}"
    assert len(got) == len(want), \
        f"{name}.txt: recorded {len(want)} lines, made {len(got)}"
