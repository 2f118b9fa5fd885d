import pytest

import hostspeed
import worker
from stats import OpLog


def test_each_step_is_scaled_by_the_passes_around_it(monkeypatch):
    passes = iter([0.1, 0.3, 0.2, 0.4, 0.1])
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: next(passes))
    speed = hostspeed.HostSpeed()
    for _ in range(4):
        speed.step_done()
    assert speed.samples == [0.1, 0.3, 0.2, 0.4, 0.1]
    # Step i sits between passes i and i + 1; its window is passes i - 1 to i + 2.
    medians = [0.2, 0.25, 0.25, 0.2]
    assert speed.factors() == pytest.approx([hostspeed.REFERENCE_S / m for m in medians])


def test_kernel_takes_a_tenth_of_a_second_or_so():
    assert 0.005 < hostspeed.kernel_seconds() < 2.0


class NoOp:
    def op(self, i):
        pass

    def check(self, i):
        pass


def test_timed_op_runs_one_pass_after_the_operation(monkeypatch):
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: 0.1)
    speed, log = hostspeed.HostSpeed(), OpLog()
    for i in range(3):
        worker.timed_op(NoOp(), i, log, [], speed=speed)
    assert len(speed.samples) == log.attempted + 1


def test_time_metrics_scale_each_operation():
    log = OpLog()
    for seconds in (2.0, 6.0, 1.0, 1.0):
        log.record(seconds)
    assert worker.time_metrics(log, 2, [1.0] * 4) == {"ops_per_s": 0.4, "op_s_p50": 2.5}
    assert worker.time_metrics(log, 2, [0.5, 0.5, 2.0, 2.0]) == {"ops_per_s": 0.5, "op_s_p50": 2.0}
