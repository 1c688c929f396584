"""Tests of the benchmark's own arithmetic, plus a tiny-size smoke run of
every workload in both modes.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import harness
import reference
import run
from diffcert.corpus import DiscrepancyRecord
from diffcert.qnet import init
from tracing import Tracer, layer_stats, percentile, usable_percentile
from workloads import WORKLOADS, behaviour_digest

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _ticking(*ticks):
    values = iter(ticks)
    return lambda: next(values)


# ---------------------------------------------------------------------------
# Self time


def test_self_time_subtracts_direct_children():
    tracer = Tracer(clock=_ticking(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    by_name = {name: stats for name, stats in layer_stats(tracer.spans).items()}
    assert by_name["inner"].calls == 2
    assert by_name["inner"].self_s == pytest.approx(5.0)
    assert by_name["outer"].self_s == pytest.approx(5.0)
    outer = next(span for span in tracer.spans if span.name == "outer")
    assert all(span.parent == outer.id for span in tracer.spans if span.name == "inner")
    assert outer.parent is None


def test_self_time_of_three_levels_adds_up_to_the_root():
    # root 0..20, mid 2..12, leaf 5..9: the leaf is subtracted from mid only.
    tracer = Tracer(clock=_ticking(0.0, 2.0, 5.0, 9.0, 12.0, 20.0))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", leaf)
    tracer.wrap("root", mid)()
    selfs = {span.name: span.self_s for span in tracer.spans}
    assert selfs == {"leaf": 4.0, "mid": 6.0, "root": 10.0}
    assert math.fsum(selfs.values()) == 20.0


def test_span_is_recorded_and_stack_unwound_when_the_call_raises():
    tracer = Tracer(clock=_ticking(0.0, 1.0, 2.0, 3.0, 4.0, 6.0))

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("failing", fail)

    def body():
        with pytest.raises(ValueError):
            failing()
        tracer.wrap("after", lambda: None)()

    tracer.wrap("root", body)()
    spans = {span.name: span for span in tracer.spans}
    assert spans["failing"].self_s == 1.0
    assert spans["after"].parent == spans["root"].id
    assert spans["root"].self_s == 4.0


def test_spans_carry_the_current_seed_visit():
    tracer = Tracer(clock=_ticking(0.0, 1.0, 2.0, 3.0))
    work = tracer.wrap("work", lambda: None)
    tracer.seed = 7
    work()
    tracer.seed = 8
    work()
    assert [span.seed for span in tracer.spans] == [7, 8]


# ---------------------------------------------------------------------------
# Percentiles


def test_nearest_rank_percentile():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert percentile(reversed(values), 99) == 990
    assert percentile([4.0], 99) == 4.0
    assert percentile([], 99) == 0.0


@pytest.mark.parametrize("n, expected", [(1000, 99.0), (5000, 99.0), (999, 98.0), (500, 98.0), (25, 60.0), (20, 50.0), (5, 50.0), (0, 50.0)])
def test_usable_percentile(n, expected):
    assert usable_percentile(n) == expected


def test_usable_percentile_keeps_ten_samples_beyond_and_is_the_highest():
    for n in [*range(20, 300), 499, 500, 501, 999, 1000, 1001, 2500]:
        values = list(range(n))
        q = usable_percentile(n)
        assert sum(1 for v in values if v > percentile(values, q)) >= 10
        if q < 99.0:
            assert sum(1 for v in values if v > percentile(values, q + 1)) < 10


def test_set_seconds_sums_each_parts_median():
    # Parts timed once, twice and three times: the slow repeat of the
    # last part is left out, and two samples give their mean.
    assert harness.set_seconds([[1.0], [2.0, 3.0], [4.0, 9.0, 5.0]]) == 1.0 + 2.5 + 5.0


def test_set_refs_divides_each_campaign_by_its_own_reference():
    # The second part ran once on a machine twice as slow: its campaign
    # and its reference doubled together, so its ratio is unchanged.
    times = [[2.0, 4.0], [3.0, 3.0, 6.0]]
    refs = [[0.5, 1.0], [0.5, 0.5, 1.0]]
    assert harness.set_refs(times, refs) == 4.0 + 6.0


def test_reference_clock_brackets_each_piece_of_work():
    # Jobs after the warm-up take 1, 3 and 5 s: the first piece sits
    # between 1 and 3, the second between 3 and 5.
    jobs = iter([9.0, 1.0, 3.0, 5.0])
    clock = reference.ReferenceClock(job=lambda: next(jobs), warm_up=1)
    assert clock.around(lambda: "a") == ("a", 2.0)
    assert clock.around(lambda: "b") == ("b", 4.0)
    assert clock.jobs == [1.0, 3.0, 5.0]


def test_setup_seconds_is_the_median_ratio_at_nominal_speed():
    assert harness.setup_seconds([1.0, 3.0, 2.0]) == 2.0 * reference.NOMINAL_SECONDS


def test_reference_job_is_steady_work():
    assert reference.walk(bytes((0x30, 4, 0x02, 2, 7, 9))) == [(0x30, [(0x02, bytes((7, 9)))])]
    assert reference.reference_seconds(records=10) > 0


# ---------------------------------------------------------------------------
# Behaviour-lock digest


def _record(seed_id, trace, der):
    return DiscrepancyRecord(seed_id, trace, der, (1, -2), ("a", "b"), "2024-01-01T00:00:00+00:00", 11)


def test_digest_is_pinned_for_a_fixed_input():
    records = [_record("seed-00001", (3, 85), b"\x30\x03\x02\x01\x01"), _record("seed-00002", (), b"\x30\x00")]
    assert behaviour_digest([(records, None)]) == "5d2e08ec4014170b2fbbafdf08cbeeb1dc2e9db57d6502d4c58a1e89e465ece8"


def test_digest_covers_order_fields_parts_and_weights():
    a, b = _record("s1", (1,), b"\x01"), _record("s2", (2,), b"\x02")

    def digest(*records, params=None):
        return behaviour_digest([(list(records), params)])

    base = digest(a, b)
    assert digest(b, a) != base
    assert digest(a) != base
    assert behaviour_digest([([a], None), ([b], None)]) != base
    # Fields are length-prefixed, so moving bytes from one field to the next shows.
    assert digest(_record("s", (49, 2), b"\x01")) != digest(_record("s1", (2,), b"\x01"))
    # Verdicts are not part of the lock; the re-verification check covers them.
    assert digest(dataclasses.replace(a, verdicts=(1, -3))) == digest(a)
    params = init(11)
    with_params = digest(a, b, params=params)
    assert with_params != base
    nudged = dataclasses.replace(params, b2=params.b2 + np.finfo(np.float64).eps)
    assert digest(a, b, params=nudged) != with_params


# ---------------------------------------------------------------------------
# Smoke run


def _declared(kind):
    doc = json.loads(BENCHMARK_JSON.read_text())
    return {entry["name"]: entry["unit"] for entry in doc[kind]}


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert _declared("end_to_end") == {name: unit for name, (unit, _) in harness.END_TO_END.items()}
    assert _declared("per_layer") == {name: unit for name, (unit, _) in harness.PER_LAYER.items()}
    better = {entry["name"]: entry["better"] for entry in doc["end_to_end"] + doc["per_layer"]}
    assert better == {name: direction for name, (_, direction) in (harness.END_TO_END | harness.PER_LAYER).items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], corpus_size=8, parts=2)
    plain = harness.measure(workload, seed=1, seconds=2, trace=False, work_dir=tmp_path / "plain", pinned_digest=None)
    traced = harness.measure(workload, seed=1, seconds=0, trace=True, work_dir=tmp_path / "traced", pinned_digest=None)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result.correct, result.failures
        assert result.failed == 0 and result.attempted > 0
        assert set(result.metrics) == set(_declared(kind))
        assert all(math.isfinite(value) for value in result.metrics.values())
    assert plain.counts == traced.counts
    assert plain.extra["untraced_campaigns_per_part"] > 1  # the budget repeated the parts, and each repeat matched
    assert plain.metrics["campaign_ref"] > 0 and plain.extra["campaign_s"] > 0 and plain.metrics["setup_s"] > 0
    assert traced.metrics["verdicts.verify_all.calls"] == plain.counts["verify_calls"]
    assert traced.metrics["corpus.db_bytes"] == plain.counts["db_bytes"]
    assert (traced.metrics["qnet.train_step.calls"] == plain.counts["updates"]) and (plain.counts["updates"] > 0) == workload.train
    assert traced.extra["self_time_gap"] <= harness.SELF_TIME_TOLERANCE


def test_a_wrong_pinned_digest_fails_the_run(tmp_path):
    workload = dataclasses.replace(WORKLOADS["random-pair"], corpus_size=8, parts=1)
    result = harness.measure(workload, seed=1, seconds=0, trace=False, work_dir=tmp_path, pinned_digest="0" * 64)
    assert not result.correct
    assert result.failed >= 1
    assert any("pinned" in failure for failure in result.failures)
