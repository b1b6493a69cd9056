"""Host-time benchmark of the provenance pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload blast-ingest --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``blast-ingest``, ``blast-query`` and
``fleet-mixed`` (see ``perfbench/workloads.py``).  The seed makes the
inputs: the same seed gives the same inputs.  The run measures for about
``--seconds`` host seconds, checks the outputs with each workload's
oracles, prints a readable report and, as the last line of standard
output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``ingest_records_per_s``, ``query_p50_ms``, ``query_p99_ms``,
``queries_per_s``, ``peak_rss_mb`` and ``success_ratio`` (1 -
failed/attempted).  fleet-mixed's known defect, the supervised pool's
duplicate commit, is not a failed operation: its escapes are counted and
printed in the report above the result line.  Times are host wall time scaled to a reference
speed (``perfbench/calibration.py``).  The measurement is split over
:data:`PARTS` processes run one after another, each making its inputs
from the seed and its part number, and their samples are pooled: how
fast one Python process runs this simulator differs from process to
process by up to a third, beyond what the calibration corrects.

With ``--trace 1`` one process runs the workload twice, for half the
time each: untraced, then with every layer's public entry points
wrapped in spans.  The metrics are the per-layer ones
(``perfbench/layers.py``) plus ``trace.overhead_ratio``, and the spans
are written to ``perfbench/out/``.

The program under test is imported from ``src/`` of the checkout; there
is nothing to build.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.layers import instrument, layer_metrics  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Samples,
    end_to_end,
    input_seed,
)

OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: Processes an untraced run is split over.
PARTS = 3


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def report(title: str, metrics, attempted: int, failed: int, correct: bool, infos,
           duplicate_commits: int) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6f} {unit}")
    print(
        f"  failed_ratio {failed / attempted:.6f} ({failed} of {attempted} "
        f"operations); outputs correct: {correct}"
    )
    if duplicate_commits:
        print(
            f"  known defect: {duplicate_commits} duplicate commits escaped the "
            "kernel (NoSuchKeyError in CommitDaemon.commit_plan); caught, kernel resumed"
        )
    for part, info in enumerate(infos):
        for key, value in sorted(info.items()):
            print(f"  info part {part} {key}: {value}")


def run_part(args) -> int:
    """One process of an untraced run: print its scaled samples."""
    outcome = WORKLOADS[args.workload](input_seed(args.seed, args.part), args.seconds)
    print(json.dumps({
        "samples": dataclasses.asdict(outcome.scaled()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "duplicate_commits": outcome.duplicate_commits,
        "correct": outcome.correct,
        "info": outcome.info,
        "peak_rss_mb": peak_rss_mb(),
    }))
    return 0


def run_untraced(args) -> int:
    samples = Samples()
    attempted = failed = duplicate_commits = 0
    correct = True
    infos = []
    rss = 0.0
    for part in range(PARTS):
        child = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds / PARTS),
                "--part", str(part),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        result = json.loads(child.stdout.splitlines()[-1])
        samples.extend(Samples(**result["samples"]))
        attempted += result["attempted"]
        failed += result["failed"]
        duplicate_commits += result["duplicate_commits"]
        correct = correct and result["correct"]
        infos.append(result["info"])
        rss = max(rss, result["peak_rss_mb"])
    metrics = end_to_end(samples, attempted, failed)
    metrics["peak_rss_mb"] = (rss, "MB")
    report(f"workload {args.workload} seed {args.seed}", metrics, attempted, failed,
           correct, infos, duplicate_commits)
    print(result_line(correct, attempted, failed, metrics))
    return 0


def run_traced(args) -> int:
    run = WORKLOADS[args.workload]
    seed = input_seed(args.seed, 0)
    half = args.seconds / 2.0
    untraced = run(seed, half)
    recorder = SpanRecorder()
    patches = instrument(recorder)
    try:
        traced = run(seed, half, recorder)
    finally:
        patches.undo()
    primary = "queries_per_s" if args.workload == "blast-query" else "ingest_records_per_s"
    extras = dict(traced.layer_extras)
    extras["trace_overhead_ratio"] = (
        untraced.end_to_end()[primary][0] / traced.end_to_end()[primary][0] - 1.0
    )
    metrics = layer_metrics(recorder, extras)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    recorder.write(path)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    correct = untraced.correct and traced.correct
    report(f"workload {args.workload} seed {args.seed} (traced)", metrics, attempted,
           failed, correct, [traced.info],
           untraced.duplicate_commits + traced.duplicate_commits)
    print(f"  spans: {len(recorder)} written to {os.path.relpath(path, ROOT)}")
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.part is not None:
        return run_part(args)
    if args.trace:
        return run_traced(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
