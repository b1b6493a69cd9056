"""Self-tests of the benchmark: the percentile rule, span self-time
arithmetic, the step wrapper, and a tiny run of each workload with its
oracles passing, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py -q``
(the file is not named ``test_*`` so the repository's own test run does
not pick up the benchmark).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import workloads  # noqa: E402
from perfbench.layers import PER_LAYER_UNITS, instrument, layer_metrics  # noqa: E402
from perfbench.spans import NO_PARENT, SpanRecorder, step_spans, wrap_function  # noqa: E402
from perfbench.stats import median, percentile, tail_percentile  # noqa: E402

TINY_BLAST = dict(jobs=2, queries_per_job=20)
TINY_FLEET = dict(clients=8, files_per_client=2)


# -- the percentile rule -----------------------------------------------------

def test_nearest_rank_percentiles():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_p99_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 1501)]
    assert tail_percentile(samples) == (99.0, 1485.0)  # 15 samples beyond
    samples = [float(i) for i in range(1, 1001)]
    assert tail_percentile(samples) == (99.0, 990.0)  # exactly 10 beyond


def test_short_samples_report_the_percentile_they_support():
    samples = [float(i) for i in range(1, 309)]
    p, value = tail_percentile(samples)
    assert value == 298.0 and sum(s > value for s in samples) == 10
    assert p == pytest.approx(100.0 * 298 / 308)


def test_too_few_samples_fall_back_to_the_median():
    assert tail_percentile([1.0, 2.0, 3.0]) == (50.0, 2.0)
    assert tail_percentile([float(i) for i in range(15)]) == (50.0, 7.0)


# -- span arithmetic ---------------------------------------------------------

class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    rec = SpanRecorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    rec.begin("root")
    rec.begin("a")
    rec.begin("b")
    rec.end()
    rec.end()
    rec.begin("c")
    rec.end()
    rec.end()
    assert dict(rec.self_s) == {"b": 1, "a": 2, "c": 4, "root": 3}
    assert sum(rec.self_s.values()) == 10  # self times partition the root
    assert list(rec.parents) == [NO_PARENT, 0, 1, 0]
    assert list(rec.starts) == [0, 1, 2, 5] and list(rec.ends) == [10, 4, 3, 9]


def test_same_name_spans_sum_and_contexts_are_inherited():
    rec = SpanRecorder(clock=FakeClock(0, 1, 3, 4, 6, 7))
    rec.active = True
    flush = rec.new_context("flush")
    rec.begin("flush", flush)
    rec.begin("encode")
    rec.end()
    rec.begin("encode")
    rec.end()
    rec.end()
    assert rec.self_s["encode"] == 4 and rec.self_s["flush"] == 3
    assert rec.spans["encode"] == 2
    assert list(rec.contexts) == [flush, flush, flush]
    assert rec.context_kinds == ["flush"]


def test_wrapped_calls_fold_into_a_span_of_the_same_name():
    rec = SpanRecorder()
    calls = []

    def inner(x):
        return x + 1

    wrapped_inner = wrap_function(rec, inner, "encode", after=lambda a, k, r: calls.append("inner"))

    def outer(xs):
        return [wrapped_inner(x) for x in xs]

    wrapped_outer = wrap_function(rec, outer, "encode", after=lambda a, k, r: calls.append("outer"))
    assert wrapped_outer([1, 2]) == [2, 3]
    assert len(rec) == 0 and calls == []  # inactive: no spans, no hooks
    rec.active = True
    assert wrapped_outer([1, 2]) == [2, 3]
    assert len(rec) == 1 and calls == ["outer"]


def test_step_spans_passes_effects_values_and_close_through():
    rec = SpanRecorder()
    rec.active = True
    log = []

    def plan():
        try:
            got = yield "effect-1"
            log.append(got)
            try:
                yield "effect-2"
            except KeyError:
                log.append("thrown")
            yield "effect-3"
        finally:
            log.append("closed")

    context = rec.new_context("commit")
    wrapped = step_spans(rec, plan(), "commit", context)
    assert next(wrapped) == "effect-1"
    assert wrapped.send("value") == "effect-2"
    assert wrapped.throw(KeyError("k")) == "effect-3"
    wrapped.close()
    assert log == ["value", "thrown", "closed"]
    assert rec.spans["commit"] == 3
    assert set(rec.contexts) == {context}


def test_step_spans_reports_errors_that_end_the_plan():
    rec = SpanRecorder()
    rec.active = True
    errors = []

    def plan():
        yield "effect"
        raise LookupError("gone")

    wrapped = step_spans(rec, plan(), "commit", 0, on_error=errors.append)
    next(wrapped)
    with pytest.raises(LookupError):
        next(wrapped)
    assert [type(e) for e in errors] == [LookupError]
    assert not rec._open


# -- the workloads, tiny ---------------------------------------------------

def _assert_end_to_end(outcome):
    metrics = outcome.end_to_end()
    assert all(value > 0 for value, _unit in metrics.values()), metrics
    return metrics


def test_blast_ingest_smoke():
    outcome = workloads.blast_ingest(seed=3, seconds=0.05, **TINY_BLAST)
    assert outcome.correct and outcome.failed == 0 and outcome.attempted > 0
    assert len(outcome.ingest_rates) >= 2  # at least one window per job
    assert _assert_end_to_end(outcome)["success_ratio"][0] == 1.0


def test_blast_query_smoke():
    outcome = workloads.blast_query(seed=3, seconds=0.5, **TINY_BLAST)
    assert outcome.correct and outcome.failed == 0
    kinds = outcome.info["queries_by_kind"]
    assert {"q2", "q2_range", "select", "q3", "q4"} <= set(kinds)
    _assert_end_to_end(outcome)


def test_blast_query_oracle_catches_a_wrong_answer(monkeypatch):
    original = workloads.run_query

    def wrong_on_q3(engine, simpledb, query):
        answer = original(engine, simpledb, query)
        if query[0] == "q3" and simpledb.use_indexes:
            return answer[1:]
        return answer

    monkeypatch.setattr(workloads, "run_query", wrong_on_q3)
    outcome = workloads.blast_query(seed=3, seconds=0.5, **TINY_BLAST)
    assert not outcome.correct and outcome.failed > 0


def test_fleet_mixed_smoke():
    outcome = workloads.fleet_mixed(seed=3, seconds=0.05, **TINY_FLEET)
    assert outcome.correct and outcome.failed == 0
    assert set(outcome.info["wal_pending"]) == {0}
    _assert_end_to_end(outcome)


def test_fleet_mixed_counts_the_duplicate_commit_apart():
    # 48 clients x 4 files under the 12 s lease reproduce the defect.
    outcome = workloads.fleet_mixed(seed=5, seconds=0.05, clients=48, files_per_client=4)
    assert outcome.duplicate_commits > 0
    assert outcome.correct and outcome.failed == 0
    assert set(outcome.info["wal_pending"]) == {0}


def test_only_the_commit_plan_escape_is_the_known_defect():
    from repro.errors import NoSuchKeyError

    try:
        raise NoSuchKeyError("elsewhere")
    except NoSuchKeyError as error:
        assert not workloads.is_duplicate_commit(error)
    assert not workloads.is_duplicate_commit(ValueError("x"))


def test_query_stream_depends_only_on_the_seed():
    paths = [f"/mnt/s3/blast/job-000/f{i}" for i in range(20)]
    uuids = {path: f"f-{i:06d}" for i, path in enumerate(paths)}
    first = workloads.query_stream(5, paths, uuids, "d", jobs=2, blocks=3)
    assert first == workloads.query_stream(5, paths, uuids, "d", jobs=2, blocks=3)
    assert first != workloads.query_stream(6, paths, uuids, "d", jobs=2, blocks=3)
    assert sum(q[0] == "q3" for q in first) == 3 * len(workloads.BLAST_PROGRAMS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_the_program(name):
    from repro.provenance.pass_collector import PassCollector
    from repro.provenance import serialization
    from repro.core import wal_messages

    feed, encode = PassCollector.feed, wal_messages.encode_record
    recorder = SpanRecorder()
    patches = instrument(recorder)
    try:
        size = TINY_FLEET if name == "fleet-mixed" else TINY_BLAST
        outcome = workloads.WORKLOADS[name](seed=3, seconds=0.05, recorder=recorder, **size)
    finally:
        patches.undo()
    assert PassCollector.feed is feed and wal_messages.encode_record is encode
    assert serialization.encode_record is encode
    assert outcome.correct
    metrics = layer_metrics(recorder, outcome.layer_extras)
    assert list(metrics) == list(PER_LAYER_UNITS)
    assert metrics["cloud.simpledb.select_s"][0] > 0
    if name == "blast-ingest":
        assert metrics["provenance.collector.events"][0] > 0
        assert metrics["core.commit_daemon.useful_commit_ratio"][0] == 1.0
    if name == "blast-query":
        assert metrics["query.engine.q3_s"][0] > 0
        assert metrics["provenance.collector.feed_s"][0] == 0  # set-up only
    if name == "fleet-mixed":
        assert metrics["sim.kernel.activations"][0] > 0
        assert metrics["obs.scrapes"][0] > 0
        assert metrics["service.supervisor.daemon_spawns"][0] > 0
    assert not recorder.active and not recorder._open


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    outcome = workloads.Outcome(
        setup_s=[1.0], ingest_rates=[1.0], query_ms=[1.0], query_elapsed_s=1.0,
        attempted=1,
    )
    for speed in (outcome.setup_speed, outcome.ingest_speed, outcome.query_speed):
        speed.calibrate()
    end_to_end = set(outcome.end_to_end()) | {"peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
