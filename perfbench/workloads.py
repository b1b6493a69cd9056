"""The benchmark's workloads and their correctness oracles.

A workload runs in the calling process, without threads, through the
public ``repro`` APIs only.  It returns an :class:`Outcome` holding the
host-time samples behind the end-to-end metrics, what its oracles
checked, and virtual-time results that are printed for information but
are not metrics (the paper's numbers are fixed by contract; host time is
what later changes may move).

- ``blast-ingest`` — the write path: the paper's Blast trace through
  PA-S3fs and P3, draining the commit daemon at the end of every Blast
  job, so each job is one ingest window timed from its first trace event
  until the WAL is empty.
- ``blast-query`` — the read path: one closed-loop client querying the
  Blast store that set-up builds.
- ``fleet-mixed`` — writes beside reads on the simulation kernel: a
  client fleet split between P3 and the ingest gateway over four shards,
  a supervised commit-daemon pool under recurring crashes, Q1–Q4
  readers and the telemetry scrape, drained to quiescence.

Every workload also reads back what it wrote (Q2 per flushed object, and
Q4 on the fleet), and that read latency is what the query metrics report
on the two write workloads.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# repro.cloud before repro.backends: importing repro.backends first
# enters the package's backends <-> cloud.account import cycle from the
# side that fails.
from repro.cloud import CloudAccount
from repro.backends.parity import store_fingerprint
from repro.core import CommitDaemon, PAS3fs, ProtocolP3
from repro.core.pas3fs import stage_inputs
from repro.core.protocol_base import DATA_BUCKET, data_key
from repro.core.sdb_items import OVERFLOW_ATTRIBUTE, is_spill_pointer
from repro.errors import NoSuchKeyError
from repro.provenance.graph import NodeRef
from repro.provenance.syscalls import CloseEvent, FlushEvent, SpawnEvent, SyscallTrace
from repro.query import ProvenanceIndex, query_engine_for
from repro.service import IngestGateway, ShardRouter, Supervisor
from repro.sim import SimKernel
from repro.workloads import make_blast_workload, make_fleet
from repro.workloads.base import MOUNT
from repro.workloads.fleet import (
    FLEET_PROGRAM,
    FleetWatch,
    client_process,
    protocol_client_process,
    reader_process,
)

from perfbench.calibration import Calibrator
from perfbench.spans import SpanRecorder
from perfbench.stats import median, percentile, tail_percentile

#: Set-up runs at least this many times per process, and until it has
#: taken SETUP_MIN_S in all, up to SETUP_MAX_REPEATS; ``setup_s`` is the
#: median over a run's processes.
SETUP_REPEATS = 1
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 10
#: Read-back passes over the flushed objects: the write workloads' query
#: samples (several passes, so the tail percentile has samples behind it).
READ_BACK_PASSES = 3
#: Speed probes taken just before and just after each read-back.
READ_BACK_PROBES = 3

#: The six programs of the Blast pipeline (Q3/Q4 targets).
BLAST_PROGRAMS = (
    "blast-batch.sh",
    "formatdb",
    "blastall",
    "sorthits",
    "filterhits",
    "blastreport",
)

#: One block of the blast-query stream, by kind, before Q3/Q4 (each of
#: the six programs once as Q3 and once as Q4, 12 queries).  Fixed counts
#: per block keep the mix, and so the percentiles, the same on every
#: seed; the seed picks objects, versions, select constants and order.
QUERY_BLOCK = (("q2", 70), ("q2_range", 8), ("prefix", 4), ("equality", 3), ("range", 3))
#: A Q1 (the whole store) follows every this many blocks.
Q1_EVERY_BLOCKS = 5
#: Blocks generated up front; the loop cycles through them if it is fast.
QUERY_BLOCKS = 40
#: Zipf exponent of the job popularity behind Q2 and the selects.
ZIPF_S = 1.1

#: fleet-mixed shape (``make_fleet`` clients x files, alternating between
#: P3 and the gateway) and its service tier.
FLEET_CLIENTS = 128
FLEET_FILES = 6
FLEET_SHARDS = 4
FLEET_THINK_S = 2.0
FLEET_READERS = 2
READER_INTERVAL_S = 6.0
SCRAPE_EVERY_S = 5.0
CRASH_EVERY_S = 20.0
CRASH_START_S = 10.0
#: The fleet runs in kernel slices of this many virtual seconds, with
#: speed probes in between.
SLICE_S = 5.0
#: Virtual-time limit of one fleet run.
HORIZON_S = 3600.0
#: An iteration that keeps failing past this many escapes stops.
MAX_ESCAPES = 100

SETTLE_S = 120.0


@dataclass
class Outcome:
    """Samples and checks of one workload run.  Samples are raw host
    times; :meth:`end_to_end` scales them to the reference speed
    (:mod:`perfbench.calibration`).  Set-up, ingest and queries each
    keep their own calibrations: they run at different times of a run,
    and the host's speed may change in between."""

    setup_s: List[float] = field(default_factory=list)
    #: Records made durable per second, one sample per ingest window.
    ingest_rates: List[float] = field(default_factory=list)
    #: Latency of each query, in milliseconds.
    query_ms: List[float] = field(default_factory=list)
    #: Seconds the timed queries took together.
    query_elapsed_s: float = 0.0
    setup_speed: Calibrator = field(default_factory=Calibrator)
    ingest_speed: Calibrator = field(default_factory=Calibrator)
    query_speed: Calibrator = field(default_factory=Calibrator)
    attempted: int = 0
    failed: int = 0
    #: Escapes of the supervised pool's duplicate commit, a known defect
    #: (:func:`is_duplicate_commit`): counted and reported apart from
    #: ``failed``, since the flush they hit is already durable and
    #: visible, which the oracles check.
    duplicate_commits: int = 0
    #: False when an oracle found a wrong or missing output.
    correct: bool = True
    #: Virtual-time results and fingerprints, for information only.
    info: Dict[str, object] = field(default_factory=dict)
    #: Figures read off the services for the per-layer report.
    layer_extras: Dict[str, float] = field(default_factory=dict)

    def check(self, attempted: int, failed: int) -> None:
        """Count operations an oracle checked and those it rejected."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.correct = False

    def escaped(self, error: BaseException) -> None:
        """Count an exception that escaped the workload (a failed
        operation; the oracles decide whether the outputs survived it)."""
        self.attempted += 1
        self.failed += 1
        escapes = self.info.setdefault("escaped", Counter())
        escapes[f"{type(error).__name__}: {error}"] += 1

    def timed_query(self, raw_s: float) -> None:
        self.query_ms.append(raw_s * 1000.0)
        self.query_elapsed_s += raw_s
        self.query_speed.timed(raw_s)

    def calibrating_s(self) -> float:
        return sum(
            speed.calibrating_s()
            for speed in (self.setup_speed, self.ingest_speed, self.query_speed)
        )

    def scaled(self) -> "Samples":
        """The timed samples, scaled to the reference speed."""
        setup, ingest, query = (
            self.setup_speed.slowdown(),
            self.ingest_speed.slowdown(),
            self.query_speed.slowdown(),
        )
        self.info["host_slowdown_setup_ingest_query"] = [setup, ingest, query]
        return Samples(
            setup_s=[t / setup for t in self.setup_s],
            ingest_rates=[r * ingest for r in self.ingest_rates],
            query_ms=[t / query for t in self.query_ms],
            query_elapsed_s=self.query_elapsed_s / query,
        )

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        return end_to_end(self.scaled(), self.attempted, self.failed)


@dataclass
class Samples:
    """Timed samples at the reference speed, poolable across processes."""

    setup_s: List[float] = field(default_factory=list)
    ingest_rates: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    query_elapsed_s: float = 0.0

    def extend(self, other: "Samples") -> None:
        self.setup_s += other.setup_s
        self.ingest_rates += other.ingest_rates
        self.query_ms += other.query_ms
        self.query_elapsed_s += other.query_elapsed_s


def end_to_end(samples: Samples, attempted: int, failed: int) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric except ``peak_rss_mb`` (a property of the
    processes, added by the runner)."""
    _tail_p, tail_ms = tail_percentile(samples.query_ms, 99.0)
    return {
        "setup_s": (median(samples.setup_s), "s"),
        "ingest_records_per_s": (median(samples.ingest_rates), "records/s"),
        "query_p50_ms": (percentile(samples.query_ms, 50.0), "ms"),
        "query_p99_ms": (tail_ms, "ms"),
        "queries_per_s": (len(samples.query_ms) / samples.query_elapsed_s, "queries/s"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
    }


def input_seed(seed: int, part: int) -> int:
    """The seed one of a run's processes makes its inputs from."""
    return random.Random(f"{seed}/{part}").randrange(1 << 30)


def _timed_setup(outcome: Outcome, build: Callable[[], object]):
    """Run ``build`` at least :data:`SETUP_REPEATS` times and for at least
    :data:`SETUP_MIN_S` (at most :data:`SETUP_MAX_REPEATS` times), timing
    each less any calibrating it did; keep the last result."""
    result = None
    while len(outcome.setup_s) < SETUP_REPEATS or (
        sum(outcome.setup_s) < SETUP_MIN_S
        and len(outcome.setup_s) < SETUP_MAX_REPEATS
    ):
        result = None  # let the previous build go before the next one
        gc.collect()
        calibrated = outcome.calibrating_s()
        start = time.perf_counter()
        result = build()
        elapsed = time.perf_counter() - start
        elapsed -= outcome.calibrating_s() - calibrated
        outcome.setup_s.append(elapsed)
        outcome.setup_speed.timed(elapsed)
    return result


class _Recording:
    """Turns the span recorder on around timed work only."""

    def __init__(self, recorder: Optional[SpanRecorder]):
        self.recorder = recorder

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.active = True
        return self

    def __exit__(self, *exc_info):
        if self.recorder is not None:
            self.recorder.active = False
        return False


def _report_escape(error: BaseException) -> None:
    traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)


_COMMIT_PLAN = CommitDaemon.commit_plan.__code__


def is_duplicate_commit(error: BaseException) -> bool:
    """Whether ``error`` is the supervised pool's duplicate commit: a
    redelivered transaction committed a second time, whose COPY finds
    the temp object already deleted and gives up after 32 retries.  It
    is a ``NoSuchKeyError`` raised in ``CommitDaemon.commit_plan``."""
    if not isinstance(error, NoSuchKeyError):
        return False
    frames = list(traceback.walk_tb(error.__traceback__))
    return bool(frames) and frames[-1][0].f_code is _COMMIT_PLAN


# --------------------------------------------------------------------------
# Oracles shared by the workloads
# --------------------------------------------------------------------------

def _record_stored(item: Dict[str, List[str]], attribute: str, value: str) -> bool:
    """Whether one record is in its SimpleDB item: inline, or moved to
    S3 behind a spill pointer or the overflow object."""
    values = item.get(attribute, ())
    if value in values:
        return True
    return any(is_spill_pointer(v) for v in values) or OVERFLOW_ATTRIBUTE in item


def failed_flushes(account: CloudAccount, works: Sequence, router) -> List[int]:
    """Indices of flushes that are not durable and linked: a record the
    collector emitted is missing from SimpleDB, or the object's final
    data version does not carry its ``prov-uuid``."""
    sdb, s3 = account.simpledb, account.s3
    items: Dict[Tuple[str, str], Dict[str, List[str]]] = {}
    failed = set()
    last_flush_of: Dict[str, Tuple[str, int]] = {}
    for index, work in enumerate(works):
        for bundle in work.bundles:
            domain = router.domain_for(bundle.uuid)
            for record in bundle.records:
                key = (domain, str(record.subject))
                item = items.get(key)
                if item is None:
                    item = items[key] = sdb.peek_item(domain, key[1])
                if not _record_stored(item, record.attribute, record.value_text()):
                    failed.add(index)
        for intent in [work.primary] + list(work.ancestor_data):
            last_flush_of[intent.path] = (intent.uuid, index)
    for path, (uuid, index) in last_flush_of.items():
        stored = s3.peek_latest(DATA_BUCKET, data_key(path))
        if stored is None or stored.metadata.get("prov-uuid") != uuid:
            failed.add(index)
    return sorted(failed)


def read_back(outcome: Outcome, engine, paths: Sequence[str]) -> int:
    """Q2 for each path, :data:`READ_BACK_PASSES` times over, timed as
    queries; returns how many answers came back empty (provenance that
    should be visible and is not).

    The cyclic collector is paused meanwhile: its pauses after the
    ingest's garbage would form a second population right at the tail
    percentile, which then swings from run to run.  The ingest and the
    query workload keep it on."""
    empty = 0
    gc.collect()
    _probe_around(outcome)
    gc.disable()
    try:
        for _ in range(READ_BACK_PASSES):
            for path in paths:
                start = time.perf_counter()
                answer, _stats = engine.q2_object_provenance(path)
                outcome.timed_query(time.perf_counter() - start)
                if not answer:
                    empty += 1
    finally:
        gc.enable()
    _probe_around(outcome)
    return empty


def _probe_around(outcome: Outcome) -> None:
    """Extra speed probes beside a read-back: it lasts only a few tenths
    of a second, too short for the probes taken along the way to settle
    the query phase's median."""
    for _ in range(READ_BACK_PROBES):
        outcome.query_speed.calibrate()


def _index_bytes_per_item(account: CloudAccount, domains: Sequence[str]) -> float:
    items = sum(len(account.simpledb.peek_item_names(d)) for d in domains)
    return account.simpledb.index_memory_bytes() / items if items else 0.0


def _chain_counts(account: CloudAccount) -> Tuple[int, int]:
    """(scan chains, all chains) started so far on the account."""
    stats = account.simpledb.select_stats
    scans = stats.scanned + stats.unconditional
    return scans, scans + stats.indexed


def _scan_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    chains = after[1] - before[1]
    return (after[0] - before[0]) / chains if chains else 0.0


# --------------------------------------------------------------------------
# The Blast store: PA-S3fs + P3, ingested one Blast job at a time
# --------------------------------------------------------------------------

def blast_job_windows(trace: SyscallTrace) -> List[SyscallTrace]:
    """The trace cut before each job's first process (``formatdb``); the
    first window also holds the batch script's start, the last its exit."""
    windows: List[SyscallTrace] = []
    current = SyscallTrace()
    in_job = False
    for event in trace:
        if isinstance(event, SpawnEvent) and event.name == "formatdb":
            if in_job:
                windows.append(current)
                current = SyscallTrace()
            in_job = True
        current.append(event)
    windows.append(current)
    return windows


def mount_paths(trace: SyscallTrace) -> List[str]:
    """Every mount file the trace closes or flushes, sorted."""
    return sorted(
        {
            event.path
            for event in trace
            if isinstance(event, (CloseEvent, FlushEvent))
            and event.path.startswith(MOUNT)
        }
    )


class BlastStore:
    """One Blast ingest on a fresh account, driven window by window."""

    def __init__(self, workload, seed: int):
        self.account = CloudAccount(seed=seed)
        stage_inputs(self.account, DATA_BUCKET, workload.staged_inputs)
        self.protocol = ProtocolP3(self.account)
        self.fs = PAS3fs(self.account, self.protocol)
        #: Every flush the collector produced, in order.
        self.works: List = []
        flush = self.protocol.flush

        def capture(work) -> None:
            self.works.append(work)
            flush(work)

        self.protocol.flush = capture

    def ingest(self, window: SyscallTrace) -> Tuple[int, float]:
        """Feed one window and drain the WAL; returns the records the
        window made durable and the host seconds it took."""
        first = len(self.works)
        start = time.perf_counter()
        self.fs.run(window)
        self.fs.finalize()
        elapsed = time.perf_counter() - start
        records = sum(
            len(bundle.records) for work in self.works[first:] for bundle in work.bundles
        )
        return records, elapsed

    def verify(self, outcome: Outcome) -> None:
        """Settle, then check every flush is durable and linked."""
        self.account.settle(SETTLE_S)
        failed = failed_flushes(self.account, self.works, self.protocol.router)
        outcome.check(len(self.works), len(failed))

    def engine(self):
        return query_engine_for("p3", self.account, router=self.protocol.router)

    def info(self) -> Dict[str, object]:
        account = self.account
        return {
            "virtual_s": account.now,
            "cost_usd": account.billing.cost(),
            "flushes": len(self.works),
            "items": len(account.simpledb.peek_item_names(self.protocol.domain)),
            "store_fingerprint": store_fingerprint(
                account, queue_urls=[self.protocol.queue_url]
            ),
        }


def _prepare_blast(jobs: int, queries_per_job: int):
    workload = make_blast_workload(jobs=jobs, queries_per_job=queries_per_job)
    return workload, blast_job_windows(workload.trace), mount_paths(workload.trace)


def ingest_windows(store: BlastStore, windows: Sequence[SyscallTrace], outcome: Outcome,
                   recorder: Optional[SpanRecorder] = None) -> Tuple[float, bool]:
    """Ingest every window into ``store``; add the window rates to
    ``outcome``.  Returns the raw seconds spent and whether every window
    went in.  An exception stops the ingest and is counted; the oracle
    judges the store."""
    spent = 0.0
    complete = False
    for window in windows:
        try:
            with _Recording(recorder):
                count, elapsed = store.ingest(window)
        except Exception as error:
            _report_escape(error)
            outcome.escaped(error)
            break
        outcome.ingest_speed.timed(elapsed)
        if count:
            outcome.ingest_rates.append(count / elapsed)
        spent += elapsed
        if window is windows[-1]:
            complete = True
    return spent, complete


def blast_ingest(
    seed: int,
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
    jobs: int = 28,
    queries_per_job: int = 600,
) -> Outcome:
    """Ingest the whole Blast trace job window by job window, on fresh
    accounts one after another, until ``seconds`` of ingest have been
    measured (whole traces only, so every read-back sees a full store)."""
    outcome = Outcome()
    workload, windows, _paths = _timed_setup(
        outcome, lambda: _prepare_blast(jobs, queries_per_job)
    )
    recording = _Recording(recorder)
    measured = 0.0
    while measured < seconds:
        gc.collect()
        store = BlastStore(workload, seed)
        spent, complete = ingest_windows(store, windows, outcome, recorder)
        measured += spent
        if complete and "store_fingerprint" not in outcome.info:
            outcome.info.update(store.info())
        store.verify(outcome)
        flushed = sorted({work.primary.path for work in store.works})
        with recording:
            empty = read_back(outcome, store.engine(), flushed)
        outcome.check(len(flushed) * READ_BACK_PASSES, empty)
        outcome.layer_extras = {
            "index_bytes_per_item": _index_bytes_per_item(
                store.account, store.protocol.router.domains
            ),
            "scan_chain_share": _scan_share((0, 0), _chain_counts(store.account)),
        }
        if not complete:  # an exception stopped the ingest: stop measuring
            break
    return outcome


# --------------------------------------------------------------------------
# blast-query
# --------------------------------------------------------------------------

def _zipf_picker(rng: random.Random, paths: Sequence[str]) -> Callable[[], str]:
    """Draw a mount object: its job directory with Zipf popularity over a
    seeded ranking of the jobs, then one of the job's files uniformly.
    Every seed so gets the same mix of file kinds — one file per job,
    raw.hits, carries most of the versions, and so most of Q2's cost."""
    by_job: Dict[str, List[str]] = defaultdict(list)
    for path in paths:
        by_job[path.rsplit("/", 1)[0]].append(path)
    jobs = sorted(by_job)
    rng.shuffle(jobs)
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(jobs)))
    )
    return lambda: rng.choice(by_job[rng.choices(jobs, cum_weights=cumulative)[0]])


def query_stream(
    seed: int,
    paths: Sequence[str],
    uuid_of: Dict[str, str],
    domain: str,
    jobs: int,
    blocks: int = QUERY_BLOCKS,
) -> List[tuple]:
    """The seeded query stream: blocks of a fixed mix, each shuffled."""
    rng = random.Random(seed)
    pick = _zipf_picker(rng, paths)

    def make(kind: str) -> tuple:
        if kind == "q2":
            return ("q2", pick())
        if kind == "q2_range":
            low = rng.randrange(3)
            return ("q2_range", pick(), low, low + rng.randrange(3))
        if kind == "prefix":
            prefix = uuid_of[pick()][:-1]
            return ("select", f"select * from {domain} where itemName() like '{prefix}%'")
        if kind == "equality":
            return ("select", f"select * from {domain} where name = '{pick()}'")
        job = f"{MOUNT}blast/job-{rng.randrange(jobs):03d}/"
        return ("select", f"select * from {domain} where name between '{job}' and '{job}~'")

    stream: List[tuple] = []
    for block in range(blocks):
        queries = [make(kind) for kind, count in QUERY_BLOCK for _ in range(count)]
        queries += [(kind, program) for program in BLAST_PROGRAMS for kind in ("q3", "q4")]
        rng.shuffle(queries)
        stream.extend(queries)
        if block % Q1_EVERY_BLOCKS == Q1_EVERY_BLOCKS - 1:
            stream.append(("q1",))
    return stream


def run_query(engine, simpledb, query: tuple):
    """Execute one stream query; returns its answer (not its stats)."""
    kind = query[0]
    if kind == "q1":
        return engine.q1_all_provenance()[0]
    if kind == "q2":
        return engine.q2_object_provenance(query[1])[0]
    if kind == "q2_range":
        return engine.q2_version_range(query[1], query[2], query[3])[0]
    if kind == "q3":
        return engine.q3_direct_outputs(query[1])[0]
    if kind == "q4":
        return engine.q4_all_descendants(query[1])[0]
    if kind == "select":
        return simpledb.select(query[1])
    raise ValueError(f"unknown query kind {kind!r}")


def _canonical(answer):
    if isinstance(answer, ProvenanceIndex):
        return [(ref, answer.attributes(ref)) for ref in answer.refs()]
    return answer


def scan_closure(rows: Sequence[Tuple[str, Dict[str, List[str]]]], kind: str, program: str):
    """Q3 (files reading the program's processes) or Q4 (everything
    descending from them), worked out from one full scan of the domain.

    Running Q3/Q4 itself with ``use_indexes=False`` scans the domain once
    per 20-value ``IN`` chunk — blastall's 16,800 process versions make
    that about 45 s per query — so the oracle applies the queries'
    definitions to one scan's rows instead."""
    referencing: Dict[str, List[str]] = defaultdict(list)
    types: Dict[str, List[str]] = {}
    procs: List[str] = []
    for name, attributes in rows:
        types[name] = attributes.get("type", [])
        for value in attributes.get("input", []):
            referencing[value].append(name)
        if program in attributes.get("name", []) and "proc" in types[name]:
            procs.append(name)
    if kind == "q3":
        outputs = {
            name for proc in procs for name in referencing[proc] if "file" in types[name]
        }
        return sorted(NodeRef.parse(name) for name in outputs)
    seen, frontier = set(), procs
    while frontier:
        next_frontier = []
        for parent in frontier:
            for name in referencing[parent]:
                if name not in seen:
                    seen.add(name)
                    next_frontier.append(name)
        frontier = next_frontier
    return sorted(NodeRef.parse(name) for name in seen)


def _build_query_store(seed: int, jobs: int, queries_per_job: int, outcome: Outcome):
    """The query workload's set-up: the Blast store, ingested window by
    window, and the query stream.  The build's window rates replace the
    previous build's as ``outcome``'s ingest samples."""
    workload, windows, paths = _prepare_blast(jobs, queries_per_job)
    store = BlastStore(workload, seed)
    outcome.ingest_rates.clear()
    ingest_windows(store, windows, outcome)
    store.account.settle(SETTLE_S)
    uuid_of = {
        path: store.account.s3.peek_latest(DATA_BUCKET, data_key(path)).metadata["prov-uuid"]
        for path in paths
    }
    stream = query_stream(seed, paths, uuid_of, store.protocol.domain, jobs)
    return store, stream


def blast_query(
    seed: int,
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
    jobs: int = 28,
    queries_per_job: int = 600,
) -> Outcome:
    """One client runs the seeded query stream in a closed loop over the
    Blast store for ``seconds``; each distinct query's answer is then
    checked against the scan path (``use_indexes=False``)."""
    outcome = Outcome()
    store, stream = _timed_setup(
        outcome, lambda: _build_query_store(seed, jobs, queries_per_job, outcome)
    )
    store.verify(outcome)
    outcome.info.update(store.info())
    account, sdb = store.account, store.account.simpledb
    engine = store.engine()

    answers: Dict[tuple, object] = {}
    occurrences: Counter = Counter()
    chains_before = _chain_counts(account)
    virtual_before = account.now
    gc.collect()
    spent = 0.0
    index = 0
    with _Recording(recorder):
        while spent < seconds:
            query = stream[index % len(stream)]
            index += 1
            begin = time.perf_counter()
            try:
                answer = run_query(engine, sdb, query)
            except Exception as error:
                _report_escape(error)
                outcome.escaped(error)
                answer = error
            elapsed = time.perf_counter() - begin
            outcome.timed_query(elapsed)
            spent += elapsed
            occurrences[query] += 1
            answers.setdefault(query, answer)
    outcome.info["virtual_query_s"] = account.now - virtual_before
    outcome.info["distinct_queries"] = len(answers)
    outcome.info["queries_by_kind"] = dict(Counter(q[0] for q in stream[:index]))
    outcome.layer_extras = {
        "index_bytes_per_item": _index_bytes_per_item(account, store.protocol.router.domains),
        "scan_chain_share": _scan_share(chains_before, _chain_counts(account)),
    }

    mismatched = 0
    sdb.use_indexes = False
    try:
        rows = sdb.select(f"select * from {store.protocol.domain}")
        for query, answer in answers.items():
            if query[0] in ("q3", "q4"):
                expected = scan_closure(rows, query[0], query[1])
            else:
                expected = run_query(engine, sdb, query)
            if isinstance(answer, Exception) or _canonical(answer) != _canonical(expected):
                mismatched += occurrences[query]
    finally:
        sdb.use_indexes = True
    outcome.check(sum(occurrences.values()), mismatched)
    return outcome


# --------------------------------------------------------------------------
# fleet-mixed
# --------------------------------------------------------------------------

def _run_resuming(kernel: SimKernel, account: CloudAccount, until, outcome: Outcome) -> None:
    """``kernel.run(until)``, resumed after any exception that escapes it.

    The known escape is the supervised pool's duplicate commit
    (:func:`is_duplicate_commit`); it is counted in
    ``outcome.duplicate_commits``.  Any other escape is a failed
    operation.  The process it killed is still marked alive with a finished generator; it is crashed through
    the fault plan so the kernel and its respawn policy see the death,
    as they would for any crash, and the run resumes."""
    escapes = 0
    while True:
        try:
            kernel.run(until=until)
            return
        except Exception as error:
            escapes += 1
            if is_duplicate_commit(error):
                outcome.duplicate_commits += 1
            else:
                _report_escape(error)
                outcome.escaped(error)
            if escapes > MAX_ESCAPES:
                raise
            for process in kernel.processes:
                if process.alive and process.generator.gi_frame is None:
                    account.faults.arm_timed_crash(process.name, account.now)


def fleet_run(fleet, seed: int, outcome: Outcome, recorder: Optional[SpanRecorder]):
    """One fleet-mixed run to quiescence: the clients finish, the WAL is
    empty and the gateway idle.  Returns the host seconds the kernel took
    to get there, plus the run's account, router and gateway."""
    account = CloudAccount(seed=seed)
    router = ShardRouter(shards=FLEET_SHARDS)
    protocol = ProtocolP3(account, client_id="fleet-shared", router=router)
    gateway = IngestGateway(account, router=router)
    kernel = SimKernel(account)

    def fresh_daemon() -> CommitDaemon:
        return CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
            router=router,
        )

    watch = FleetWatch()
    samples: List = []
    master = random.Random(seed)
    with _Recording(recorder):
        kernel.scrape_every(SCRAPE_EVERY_S)
        supervisor = Supervisor(
            account, kernel, fresh_daemon, protocol.queue_url, gateway=gateway
        )
        supervisor.start()
        kernel.spawn(supervisor.process(), name="supervisor", daemon=True)
        kernel.spawn(gateway.process(), name="gateway", daemon=True)
        account.faults.schedule.crash_every(
            "pool-0", every_s=CRASH_EVERY_S, start_at=CRASH_START_S
        )
        for index, client in enumerate(fleet):
            rng = random.Random(master.randrange(1 << 30))
            if index % 2 == 0:
                process = protocol_client_process(protocol, client, FLEET_THINK_S, rng, watch)
            else:
                process = client_process(gateway, client, FLEET_THINK_S, rng)
            kernel.spawn(process, name=client.client_id)
        for index in range(FLEET_READERS):
            kernel.spawn(
                reader_process(
                    account,
                    router.domains,
                    FLEET_PROGRAM,
                    watch,
                    samples,
                    interval_s=READER_INTERVAL_S,
                    queries=("q1", "q2", "q3", "q4"),
                    rng=random.Random(master.randrange(1 << 30)),
                    label=f"reader-{index}",
                ),
                name=f"reader-{index}",
                daemon=True,
            )
        elapsed = 0.0
        while account.now < HORIZON_S and (
            any(p.alive and not p.daemon for p in kernel.processes)
            or account.sqs.pending_count(protocol.queue_url) > 0
            or gateway.busy
        ):
            start = time.perf_counter()
            _run_resuming(kernel, account, min(account.now + SLICE_S, HORIZON_S), outcome)
            step = time.perf_counter() - start
            outcome.ingest_speed.timed(step)
            elapsed += step
    for key, value in (
        ("virtual_s", account.now),
        ("wal_pending", account.sqs.pending_count(protocol.queue_url)),
        ("commit_daemons", len(supervisor.all_daemons)),
        ("reader_queries", len(samples)),
    ):
        outcome.info.setdefault(key, []).append(value)
    return elapsed, account, router, gateway


def fleet_mixed(
    seed: int,
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
    clients: int = FLEET_CLIENTS,
    files_per_client: int = FLEET_FILES,
) -> Outcome:
    """Run fleets to quiescence one after another until ``seconds`` of
    runs have been measured; check every run's store.  Each run takes
    the next fleet seed drawn from ``seed``: how long a fleet takes to
    drain depends on its seed (how many duplicate commits, how long the
    readers keep reading), so a run pools several fleets."""
    fleet_seeds = random.Random(seed)

    def build(fleet_seed: int):
        return make_fleet(
            clients=clients, files_per_client=files_per_client, seed=fleet_seed
        )

    outcome = Outcome()
    fleet_seed = fleet_seeds.randrange(1 << 30)
    fleet = _timed_setup(outcome, lambda: build(fleet_seed))
    recording = _Recording(recorder)
    measured = 0.0
    while measured < seconds:
        if fleet is None:
            fleet_seed = fleet_seeds.randrange(1 << 30)
            fleet = build(fleet_seed)
        works = [work for client in fleet for work in client.works]
        records = sum(len(b.records) for work in works for b in work.bundles)
        gc.collect()
        elapsed, account, router, gateway = fleet_run(fleet, fleet_seed, outcome, recorder)
        fleet = None
        measured += elapsed
        outcome.ingest_rates.append(records / elapsed)
        outcome.layer_extras = {
            "batch_puts_saved": gateway.stats.sdb_batches_saved,
            "index_bytes_per_item": _index_bytes_per_item(account, router.domains),
            "scan_chain_share": _scan_share((0, 0), _chain_counts(account)),
        }

        account.settle(SETTLE_S)
        failed = failed_flushes(account, works, router)
        engine = query_engine_for("p3", account, router=router)
        gc.collect()
        with recording:
            start = time.perf_counter()
            descendants, _stats = engine.q4_all_descendants(FLEET_PROGRAM)
            outcome.timed_query(time.perf_counter() - start)
            empty = read_back(outcome, engine, [work.primary.path for work in works])
        visible = set(descendants)
        missing = [i for i, work in enumerate(works) if work.primary.ref not in visible]
        outcome.check(len(works), len(set(failed) | set(missing)))
        outcome.check(len(works) * READ_BACK_PASSES, empty)
        outcome.info.setdefault("fleet_seeds", []).append(fleet_seed)
        outcome.info.setdefault("store_fingerprints", []).append(store_fingerprint(account))
    return outcome


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "blast-ingest": blast_ingest,
    "blast-query": blast_query,
    "fleet-mixed": fleet_mixed,
}
