"""Which public entry points of each ``src/repro`` layer the traced run
wraps, and the per-layer metrics computed from the spans.

Layer names follow the package layout (``provenance.collector`` is
``repro.provenance.pass_collector``, ``core.wal`` is
``repro.core.wal_messages``, ...).  Each layer reports its self time
(``*_s``), a count of work done, and a ratio where work can be wasted.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Dict, Tuple

from repro.cloud.network import ParallelScheduler
from repro.cloud.s3 import S3Service
from repro.cloud.simpledb import SimpleDBService
from repro.core import sdb_items, wal_messages
from repro.core.commit_daemon import CommitDaemon
from repro.core.p3_wal import ProtocolP3
from repro.errors import ClientCrashError
from repro.obs import Telemetry
from repro.provenance import serialization
from repro.provenance.pass_collector import PassCollector
from repro.query.engine import ShardedSimpleDBQueryEngine, SimpleDBQueryEngine
from repro.service.gateway import IngestGateway
from repro.service.supervisor import Supervisor
from repro.sim.kernel import SimKernel

from perfbench.spans import (
    Patches,
    SpanRecorder,
    step_spans,
    wrap_function,
    wrap_generator_function,
)

#: Every per-layer metric of the traced run, with its unit, in report
#: order.  ``BENCHMARK.json``'s ``per_layer`` list names the same set.
PER_LAYER_UNITS: Dict[str, str] = {
    "provenance.collector.feed_s": "s",
    "provenance.collector.events": "count",
    "provenance.serialization.encode_s": "s",
    "provenance.serialization.records_encoded": "count",
    "provenance.serialization.decode_s": "s",
    "provenance.serialization.records_decoded": "count",
    "core.protocol.flush_s": "s",
    "core.protocol.flushes": "count",
    "core.wal.build_s": "s",
    "core.wal.parse_s": "s",
    "core.wal.packets": "count",
    "core.wal.redelivery_ratio": "ratio",
    "core.sdb_items.build_s": "s",
    "core.commit_daemon.commit_s": "s",
    "core.commit_daemon.commits": "count",
    "core.commit_daemon.useful_commit_ratio": "ratio",
    "core.commit_daemon.failed_commits": "count",
    "cloud.network.batch_s": "s",
    "cloud.network.requests": "count",
    "cloud.simpledb.put_apply_s": "s",
    "cloud.simpledb.items_put": "count",
    "cloud.simpledb.index_bytes_per_item": "B",
    "cloud.simpledb.select_s": "s",
    "cloud.simpledb.select_pages": "count",
    "cloud.simpledb.scan_chain_share": "ratio",
    "cloud.s3.copy_attempts_per_object": "ratio",
    "sim.kernel.run_s": "s",
    "sim.kernel.activations": "count",
    "obs.scrape_s": "s",
    "obs.scrapes": "count",
    "service.supervisor.tick_s": "s",
    "service.supervisor.daemon_spawns": "count",
    "service.gateway.window_s": "s",
    "service.gateway.batch_puts_saved": "count",
    "query.engine.q1_s": "s",
    "query.engine.q2_s": "s",
    "query.engine.q3_s": "s",
    "query.engine.q4_s": "s",
    "query.engine.selects_per_query": "ratio",
    "trace.overhead_ratio": "ratio",
}

QUERY_SPANS = ("query.engine.q1", "query.engine.q2", "query.engine.q3", "query.engine.q4")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Serials:
    """A stable number per live object.  Transaction ids and object keys
    repeat on every fresh account a workload builds; pairing them with
    their service's number keeps distinct counts distinct."""

    def __init__(self) -> None:
        self._numbers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._next = itertools.count()

    def __call__(self, owner) -> int:
        number = self._numbers.get(owner)
        if number is None:
            number = self._numbers[owner] = next(self._next)
        return number


def instrument(recorder: SpanRecorder) -> Patches:
    """Wrap each layer's entry points; ``undo()`` the returned patches
    to restore them."""
    patches = Patches()
    rec = recorder
    serial = _Serials()

    def counting(key: str, amount: Callable) -> Callable:
        return lambda args, kwargs, result: rec.count(key, amount(args, result))

    def span(owner, attribute: str, name: str, after=None, context_kind=None):
        original = owner.__dict__[attribute]
        patches.set(
            owner,
            attribute,
            wrap_function(rec, original, name, context_kind=context_kind, after=after),
        )

    def function(module, attribute: str, name: str, after=None) -> None:
        original = getattr(module, attribute)
        patches.rebind(
            original, wrap_function(rec, original, name, after=after), "repro"
        )

    # provenance: syscall trace -> PASS collector -> record encoding
    span(PassCollector, "feed", "provenance.collector.feed",
         counting("provenance.collector.events", lambda a, r: 1))
    encode = "provenance.serialization.encode"
    decode = "provenance.serialization.decode"
    function(serialization, "encode_record", encode,
             counting("provenance.serialization.records_encoded", lambda a, r: 1))
    function(serialization, "encode_records", encode,
             counting("provenance.serialization.records_encoded", lambda a, r: len(a[0])))
    function(serialization, "decode_record", decode,
             counting("provenance.serialization.records_decoded", lambda a, r: 1))
    function(serialization, "decode_records", decode,
             counting("provenance.serialization.records_decoded", lambda a, r: len(r)))

    # core: the P3 flush, its WAL packets, SimpleDB item building, commits
    span(ProtocolP3, "flush", "core.protocol.flush",
         counting("core.protocol.flushes", lambda a, r: 1), context_kind="flush")
    patches.set(ProtocolP3, "flush_plan", wrap_generator_function(
        rec, ProtocolP3.__dict__["flush_plan"], "core.protocol.flush", "flush",
        on_start=lambda args, kwargs: rec.count("core.protocol.flushes")))
    function(wal_messages, "build_messages", "core.wal.build",
             counting("core.wal.packets", lambda a, r: len(r)))
    function(wal_messages, "parse_message", "core.wal.parse",
             counting("core.wal.parsed", lambda a, r: 1))
    function(sdb_items, "build_routed_requests", "core.sdb_items.build")

    def note_commit(args, kwargs):
        rec.count("core.commit_daemon.commits")
        daemon, txn_id = args[0], args[1]
        rec.distinct["core.commit_daemon.txns"].add((serial(daemon.account), txn_id))

    def commit_failed(error: BaseException) -> None:
        if not isinstance(error, ClientCrashError):
            rec.count("core.commit_daemon.failed_commits")

    patches.set(CommitDaemon, "commit_plan", wrap_generator_function(
        rec, CommitDaemon.__dict__["commit_plan"], "core.commit_daemon.commit",
        "commit", on_start=note_commit, on_error=commit_failed))

    # cloud: the request scheduler and the services' apply callbacks
    span(ParallelScheduler, "execute_batch", "cloud.network.batch",
         counting("cloud.network.requests", lambda a, r: len(a[1])))
    span(ParallelScheduler, "execute_one", "cloud.network.batch",
         counting("cloud.network.requests", lambda a, r: 1))

    def timed_apply(name: str, on_apply: Callable[[], None]) -> Callable:
        """Give each built request's ``apply`` a span of its own: that is
        where a service does its work, when the scheduler places it."""
        def after(args, kwargs, request):
            request.apply = wrap_function(
                rec, request.apply, name, after=lambda a, k, r: on_apply()
            )
        return after

    def note_put(items: Callable) -> Callable:
        def after(args, kwargs, request):
            count = items(args)
            timed_apply(
                "cloud.simpledb.put_apply",
                lambda: rec.count("cloud.simpledb.items_put", count),
            )(args, kwargs, request)
        return after

    span(SimpleDBService, "batch_put_request", "cloud.simpledb.build_put",
         note_put(lambda a: len(a[2])))
    span(SimpleDBService, "put_request", "cloud.simpledb.build_put",
         note_put(lambda a: 1))

    def note_select_page() -> None:
        rec.count("cloud.simpledb.select_pages")
        if rec.in_context("query"):
            rec.count("query.engine.selects")

    span(SimpleDBService, "select_request", "cloud.simpledb.build_select",
         timed_apply("cloud.simpledb.select", note_select_page))

    def note_copy(args, kwargs, request):
        destination = (serial(args[0]), args[3], args[4])
        original = request.apply

        def apply(start, finish):
            if rec.active:
                rec.count("cloud.s3.copy_attempts")
                rec.distinct["cloud.s3.copied_objects"].add(destination)
            return original(start, finish)

        request.apply = apply

    span(S3Service, "copy_request", "cloud.s3.build_copy", note_copy)

    # sim: the kernel loop; each activation of a spawned process is a
    # step span, so process code no other layer claims is charged there
    # rather than to the loop, and activations are counted without
    # touching kernel internals
    original_spawn = SimKernel.__dict__["spawn"]

    def spawn(self, generator, *args, **kwargs):
        if not rec.active:
            return original_spawn(self, generator, *args, **kwargs)
        if getattr(generator, "gi_code", None) is CommitDaemon.process.__code__:
            rec.count("service.supervisor.daemon_spawns")
        stepped = step_spans(rec, generator, "sim.kernel.process", rec.new_context("process"))
        return original_spawn(self, stepped, *args, **kwargs)

    patches.set(SimKernel, "spawn", spawn)
    span(SimKernel, "run", "sim.kernel.run")

    # obs, service: telemetry scrape, supervisor, ingest gateway
    span(Telemetry, "scrape", "obs.scrape", counting("obs.scrapes", lambda a, r: 1))
    span(Supervisor, "control_tick", "service.supervisor.tick")
    patches.set(IngestGateway, "flush_plan", wrap_generator_function(
        rec, IngestGateway.__dict__["flush_plan"], "service.gateway.window", "window"))

    # query: Q1-Q4 (Q2 includes its version-range form)
    for owner in (SimpleDBQueryEngine, ShardedSimpleDBQueryEngine):
        for attribute, name in (
            ("q1_all_provenance", "query.engine.q1"),
            ("q2_object_provenance", "query.engine.q2"),
            ("q2_version_range", "query.engine.q2"),
            ("q3_direct_outputs", "query.engine.q3"),
            ("q4_all_descendants", "query.engine.q4"),
        ):
            if attribute in owner.__dict__:
                span(owner, attribute, name,
                     counting(name + ".queries", lambda a, r: 1),
                     context_kind="query")
    return patches


def layer_metrics(
    recorder: SpanRecorder, extras: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans plus the figures the workload
    reads off the services (``extras``), in :data:`PER_LAYER_UNITS`
    order.  A layer that did not run reports 0."""
    rec = recorder
    s = rec.self_s
    c = rec.counts
    queries = sum(c[name + ".queries"] for name in QUERY_SPANS)
    values = {
        "provenance.collector.feed_s": s["provenance.collector.feed"],
        "provenance.collector.events": c["provenance.collector.events"],
        "provenance.serialization.encode_s": s["provenance.serialization.encode"],
        "provenance.serialization.records_encoded": c["provenance.serialization.records_encoded"],
        "provenance.serialization.decode_s": s["provenance.serialization.decode"],
        "provenance.serialization.records_decoded": c["provenance.serialization.records_decoded"],
        "core.protocol.flush_s": s["core.protocol.flush"],
        "core.protocol.flushes": c["core.protocol.flushes"],
        "core.wal.build_s": s["core.wal.build"],
        "core.wal.parse_s": s["core.wal.parse"],
        "core.wal.packets": c["core.wal.packets"],
        "core.wal.redelivery_ratio": _ratio(c["core.wal.parsed"], c["core.wal.packets"]),
        "core.sdb_items.build_s": s["core.sdb_items.build"],
        "core.commit_daemon.commit_s": s["core.commit_daemon.commit"],
        "core.commit_daemon.commits": c["core.commit_daemon.commits"],
        "core.commit_daemon.useful_commit_ratio": _ratio(
            len(rec.distinct["core.commit_daemon.txns"]), c["core.commit_daemon.commits"]
        ),
        "core.commit_daemon.failed_commits": c["core.commit_daemon.failed_commits"],
        "cloud.network.batch_s": s["cloud.network.batch"],
        "cloud.network.requests": c["cloud.network.requests"],
        "cloud.simpledb.put_apply_s": s["cloud.simpledb.put_apply"],
        "cloud.simpledb.items_put": c["cloud.simpledb.items_put"],
        "cloud.simpledb.index_bytes_per_item": extras.get("index_bytes_per_item", 0.0),
        "cloud.simpledb.select_s": s["cloud.simpledb.select"],
        "cloud.simpledb.select_pages": c["cloud.simpledb.select_pages"],
        "cloud.simpledb.scan_chain_share": extras.get("scan_chain_share", 0.0),
        "cloud.s3.copy_attempts_per_object": _ratio(
            c["cloud.s3.copy_attempts"], len(rec.distinct["cloud.s3.copied_objects"])
        ),
        "sim.kernel.run_s": s["sim.kernel.run"],
        "sim.kernel.activations": rec.spans["sim.kernel.process"],
        "obs.scrape_s": s["obs.scrape"],
        "obs.scrapes": c["obs.scrapes"],
        "service.supervisor.tick_s": s["service.supervisor.tick"],
        "service.supervisor.daemon_spawns": c["service.supervisor.daemon_spawns"],
        "service.gateway.window_s": s["service.gateway.window"],
        "service.gateway.batch_puts_saved": extras.get("batch_puts_saved", 0),
        "query.engine.q1_s": s["query.engine.q1"],
        "query.engine.q2_s": s["query.engine.q2"],
        "query.engine.q3_s": s["query.engine.q3"],
        "query.engine.q4_s": s["query.engine.q4"],
        "query.engine.selects_per_query": _ratio(c["query.engine.selects"], queries),
        "trace.overhead_ratio": extras.get("trace_overhead_ratio", 0.0),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
