from stats import OpLog, samples_beyond, tail_percentile


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert tail_percentile(list(range(99)), 90) is None
    assert tail_percentile(list(range(100)), 90) == 89
    assert tail_percentile(list(range(1000)), 99) == 989


def test_p50_needs_twenty_samples():
    assert tail_percentile([1.0] * 19, 50) is None
    assert tail_percentile(list(range(20)), 50) == 9


def test_empty_sample_has_no_percentile():
    assert tail_percentile([], 50) is None


def test_fail_frac_counts_errors_and_failed_checks_once():
    log = OpLog()
    log.record(1.0)
    log.record(2.0, "ModelError: bad input")
    op = log.record(3.0)
    log.record(4.0)
    log.fail(op, "output differs")
    log.fail(op, "second complaint about the same operation")
    assert (log.attempted, log.failed) == (4, 2)
    assert log.fail_frac == 0.5
    assert log.first_errors() == ["ModelError: bad input", "output differs"]


def test_group_means_skip_failed_operations():
    log = OpLog()
    for seconds, error in ((1.0, None), (3.0, None), (5.0, "x"), (7.0, None), (9.0, "y"), (9.0, "z")):
        log.record(seconds, error)
    assert log.group_means(2, log.seconds) == [2.0, 7.0]
