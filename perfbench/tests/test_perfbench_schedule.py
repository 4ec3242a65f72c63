"""The benchmark's inputs are pure functions of its seed."""

from __future__ import annotations

import pytest

from perfbench import workloads


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_http_schedule_is_a_pure_function_of_the_seed(seed):
    first = workloads.http_schedule(seed, 5.0)
    assert first == workloads.http_schedule(seed, 5.0)
    assert len(first) == 200  # 40 req/s x 5 s, a fixed count
    offsets = [t for t, _ in first]
    assert offsets == sorted(offsets) and 0.0 <= offsets[0] and offsets[-1] < 5.0
    assert all(0 <= rank < 24 for _, rank in first)


def test_http_schedule_depends_on_the_seed():
    assert workloads.http_schedule(1, 5.0) != workloads.http_schedule(2, 5.0)


def test_http_schedule_is_zipf_skewed_toward_low_ranks():
    ranks = [r for _, r in workloads.http_schedule(7, 60.0)]
    counts = [ranks.count(r) for r in range(24)]
    assert counts[0] > counts[5] > counts[23]


def test_keys_are_pure_functions_of_the_seed():
    assert workloads.cold_keys(3, 30) == workloads.cold_keys(3, 30)
    assert workloads.cold_keys(3, 30) != workloads.cold_keys(4, 30)


def test_http_keys_interleave_the_six_families():
    keys = workloads.http_keys()
    assert len(set(keys)) == 24
    for rank, key in enumerate(keys):
        assert (key.perm, key.method) == workloads.FAMILIES[rank % 6]


def test_cold_keys_never_repeat_and_rotate_mld_mrc_bmmc():
    keys = workloads.cold_keys(5, 90)
    assert len({k.seed for k in keys}) == 90
    assert [k.method for k in keys[:6]] == ["mld", "mrc", "bmmc"] * 2


@pytest.mark.parametrize(
    "samples, percentile",
    [(10_000, 99.9), (1000, 99.0), (800, 95.0), (180, 90.0), (40, 75.0), (24, 50.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, percentile):
    assert workloads.tail_percentile(samples) == percentile
