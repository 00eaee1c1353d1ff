import statistics
import time

import pytest

import hostspeed
from compare import compare_metric
from layers import summarize
from stats import percentile, quartiles, relative_spread, union_length


def span(id_, parent, layer, start, end, **counters):
    record = {"id": id_, "parent": parent, "layer": layer, "start": start, "end": end}
    if counters:
        record["counters"] = counters
    return record


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 95) == pytest.approx(3.85)
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_match_statistics_quantiles():
    values = [0.9, 1.3, 1.0, 1.1, 1.2, 0.95, 1.05, 1.15, 1.25, 1.4]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert median == statistics.median(values)
    assert relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 4) == 2
    assert union_length([(0, 1), (1, 2)]) == 2
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        span(1, None, "service.http", 0.0, 10.0),
        # children overlap on [3, 4]: the union is 5 s, not 6 s
        span(2, 1, "core.verify", 1.0, 4.0),
        span(3, 1, "core.verify", 3.0, 6.0),
        span(4, 2, "smt.check", 2.0, 3.0, conflicts=5),
    ]
    summary = summarize(spans)
    assert summary.self_time("service.http") == pytest.approx(5.0)
    assert summary.self_time("core.verify") == pytest.approx(2.0 + 3.0)
    assert summary.total("core.verify") == pytest.approx(6.0)
    assert summary.counter("smt.check", "conflicts") == 5
    assert summary.covered == pytest.approx(10.0)


def test_nested_spans_of_one_layer_count_once():
    spans = [
        span(1, None, "grid.load", 0.0, 2.0),
        span(2, 1, "grid.load", 0.5, 1.0),
        span(3, None, "grid.load", 3.0, 4.0),
    ]
    summary = summarize(spans, clip=(0.0, 3.5))
    assert summary.total("grid.load") == pytest.approx(3.0)
    assert summary.count("grid.load") == 3
    assert summary.covered == pytest.approx(2.5)


def test_reference_speed_comes_from_samples_in_and_around_the_interval():
    r = hostspeed.REFERENCE_S
    # a host at the reference speed: only the loops' own time is removed
    steady = [(t, r) for t in (0.5, 1.5, 2.5, 3.5)]
    assert hostspeed.at_reference(1.0, 3.0, steady) == pytest.approx(2.0 - 2 * r)
    # twice as slow inside [10, 12]; the neighbours count, then the median
    samples = [(1.0, r), (9.0, r), (10.5, 2 * r), (11.0, 2 * r), (11.5, 2 * r), (13.0, 2 * r)]
    own = 6 * r
    scale = 2 ** -hostspeed.EXPONENT
    assert hostspeed.at_reference(10.0, 12.0, samples) == pytest.approx((2.0 - own) * scale)
    # no sample inside: the nearest ones on each side set the speed
    assert hostspeed.at_reference(2.0, 3.0, samples[:2]) == pytest.approx(1.0)
    assert hostspeed.slowdown([(0, r), (1, 2 * r), (2, 5 * r)]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hostspeed.at_reference(0.0, 1.0, [])


def test_sampler_times_the_loop_while_the_process_computes():
    sampler = hostspeed.Sampler().start()
    try:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    times = [t for t, _ in sampler.samples]
    assert times == sorted(times)
    assert all(0 < seconds < 1.0 for _, seconds in sampler.samples)


def test_compare_flags_regressions_and_unresolved_spreads():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    slower = [1.3, 1.31, 1.29, 1.3, 1.32, 1.28]
    assert compare_metric(steady, slower, "lower", 0.1)[2] == "REGRESSION"
    assert compare_metric(steady, steady, "lower", 0.1)[2] == "ok"
    noisy = [0.5, 1.5, 1.0, 0.6, 1.4, 1.0]
    assert compare_metric(steady, noisy, "lower", 0.1)[2] == "unresolved"
    change, win_rate, verdict = compare_metric(steady, [0.8] * 6, "lower", 0.1)
    assert verdict == "ok" and win_rate == 1.0 and change == pytest.approx(-0.2)
