"""Runs one workload for a time budget and turns its campaigns into the
benchmark's metrics.

A *set* is one campaign per part of the workload; the end-to-end figures
are totals over a set.  Untraced mode runs the set once and then sets up
and runs its parts again in turn until the budget is spent, so every
part is timed once or more over the whole run.  Each set-up and each
campaign runs between two reference jobs, and the timed figures divide
its wall time by the reference time measured around it: a set's time is
the sum of the parts' median ratios.  Traced mode runs every part
untraced and then traced, so the tracing overhead is the median ratio of
neighbouring campaigns, and reports the per-layer figures of the traced
set.  Every campaign must give the same exact counts in both modes, and
after timing the outputs are checked.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import NOMINAL_SECONDS, ReferenceClock
from tracing import LayerStats, layer_stats, percentile, usable_percentile
from workloads import CampaignRun, Setup, Workload, behaviour_digest, check_outputs, exact_counts, run_campaign, set_up

SELF_TIME_TOLERANCE = 0.01  # |sum of self times / traced campaign_s - 1|

# name -> (unit, direction); BENCHMARK.json lists the same names and units.
END_TO_END = {
    "campaign_ref": ("ref", "lower"),
    "verified_per_ref": ("1/ref", "higher"),
    "yield": ("ratio", "higher"),
    "distinct_vectors": ("count", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# Span names of the wrappers, each reported as calls, self_s, us_p50, us_p99.
LAYERS = (
    "certs.seed_parse_der",
    "certs.parse_der",
    "certs.encode_der",
    "actions.apply",
    "features.extract",
    "verdicts.verify_all",
    "qnet.forward",
    "qnet.train_step",
    "corpus.db_append",
)

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.us_p50"] = ("us", "lower")
    PER_LAYER[f"{_layer}.us_p99"] = ("us", "lower")
PER_LAYER.update(
    {
        "campaign.self_s": ("s", "lower"),
        "campaign.probe_s": ("s", "lower"),
        "qnet.forwards_per_update": ("count", "lower"),
        "verdicts.judge_us_per_profile": ("us", "lower"),
        "verdicts.strict_parse_fail_share": ("ratio", "lower"),
        "actions.noop_share": ("ratio", "lower"),
        "corpus.db_bytes": ("bytes", "lower"),
        "trace.campaign_s": ("s", "lower"),
        "trace.overhead": ("ratio", "lower"),
    }
)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]  # the contract's metrics for this mode
    extra: dict[str, float] = field(default_factory=dict)  # printed, not gated
    counts: dict = field(default_factory=dict)  # exact counts of one set
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    traced: list[CampaignRun] | None = None  # the reported traced set


def _seconds(runs: list[CampaignRun]) -> float:
    return math.fsum(run.seconds for run in runs)


def set_seconds(times_by_part: list[list[float]]) -> float:
    """Time of one set: each part's median campaign time, summed."""
    return math.fsum(statistics.median(times) for times in times_by_part)


def set_refs(times_by_part: list[list[float]], refs_by_part: list[list[float]]) -> float:
    """Time of one set in reference units: each campaign's time over its
    reference time, the median per part, summed."""
    return math.fsum(
        statistics.median(t / ref for t, ref in zip(times, refs)) for times, refs in zip(times_by_part, refs_by_part)
    )


def set_counts(runs: list[CampaignRun]) -> dict:
    """Exact counts of one set: totals over its parts plus the digest."""
    per_part = [exact_counts(run) for run in runs]
    summed = ("seeds_processed", "skipped_seeds", "discrepancies", "updates", "verify_calls", "db_bytes")
    totals = {key: sum(counts[key] for counts in per_part) for key in summed}
    totals["distinct_vectors"] = [counts["distinct_vectors"] for counts in per_part]
    totals["digest"] = behaviour_digest([(run.db_records, run.params) for run in runs])
    return totals


def setup_seconds(setup_ratios: list[float]) -> float:
    """One part's set-up time at the reference job's nominal speed: the
    median of each set-up's wall time over its reference time, in
    seconds of a job that takes NOMINAL_SECONDS."""
    return statistics.median(setup_ratios) * NOMINAL_SECONDS


def end_to_end_metrics(counts: dict, refs: float, setup_ratios: list[float]) -> dict[str, float]:
    return {
        "campaign_ref": refs,
        "verified_per_ref": counts["verify_calls"] / refs,
        "yield": counts["discrepancies"] / counts["seeds_processed"],
        "distinct_vectors": statistics.fmean(counts["distinct_vectors"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_seconds(setup_ratios),
    }


def merged_layer_stats(runs: list[CampaignRun]) -> dict[str, LayerStats]:
    merged: dict[str, LayerStats] = {}
    for run in runs:
        for name, stats in layer_stats(run.tracer.spans).items():
            seen = merged.get(name, LayerStats(0, 0.0, []))
            merged[name] = LayerStats(seen.calls + stats.calls, seen.self_s + stats.self_s, seen.durations + stats.durations)
    return merged


def per_layer_metrics(runs: list[CampaignRun], overhead: float, panel_size: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures of one traced set, plus notes on the tail
    percentiles that had too few samples for p99."""
    stats = merged_layer_stats(runs)
    metrics: dict[str, float] = {}
    notes = []
    for layer in LAYERS:
        calls, self_s, durations = stats.get(layer, LayerStats(0, 0.0, []))
        q = usable_percentile(len(durations))
        if durations and q < 99.0:
            notes.append(f"{layer}.us_p99 is p{q:g} ({len(durations)} calls)")
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.us_p50"] = percentile(durations, 50.0) * 1e6
        metrics[f"{layer}.us_p99"] = percentile(durations, q) * 1e6
    probe = stats.get("campaign.probe", LayerStats(0, 0.0, []))
    metrics["campaign.self_s"] = stats["campaign"].self_s + probe.self_s
    metrics["campaign.probe_s"] = math.fsum(probe.durations)

    updates = nested = 0
    for run in runs:
        steps = {span.id for span in run.tracer.spans if span.name == "qnet.train_step"}
        updates += len(steps)
        nested += sum(1 for span in run.tracer.spans if span.name == "qnet.forward" and span.parent in steps)
    metrics["qnet.forwards_per_update"] = nested / updates if updates else 0.0

    def counted(key: str) -> int:
        return sum(run.tracer.counts.get(key, 0) for run in runs)

    verify_calls = metrics["verdicts.verify_all.calls"]
    apply_calls = metrics["actions.apply.calls"]
    metrics["verdicts.judge_us_per_profile"] = (
        metrics["verdicts.verify_all.self_s"] / (verify_calls * panel_size) * 1e6 if verify_calls else 0.0
    )
    metrics["verdicts.strict_parse_fail_share"] = counted("strict_parse_failures") / verify_calls if verify_calls else 0.0
    metrics["actions.noop_share"] = counted("noop_mutants") / apply_calls if apply_calls else 0.0
    metrics["corpus.db_bytes"] = sum(run.db_bytes for run in runs)
    metrics["trace.campaign_s"] = _seconds(runs)
    metrics["trace.overhead"] = overhead
    return metrics, notes


def self_time_gap(run: CampaignRun) -> float:
    """How far a traced campaign's self times miss its wall time, as a share."""
    return abs(math.fsum(span.self_s for span in run.tracer.spans) / run.seconds - 1.0)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path, pinned_digest: str | None) -> Result:
    # Every set-up and every campaign runs between two reference jobs
    # (reference.py), so each has a reference time measured around it.
    clock = ReferenceClock()
    setup_walls: list[float] = []
    setup_ratios: list[float] = []  # set-up wall time / reference time

    def fresh_setup(part: int) -> Setup:
        def timed_setup() -> tuple[Setup, float]:
            started = time.perf_counter()
            setup = set_up(workload, seed, part)
            return setup, time.perf_counter() - started

        (setup, wall), ref = clock.around(timed_setup)
        setup_walls.append(wall)
        setup_ratios.append(wall / ref)
        return setup

    setups = [fresh_setup(part) for part in range(workload.parts)]

    # The first pass runs every part once (untraced and then traced, in
    # traced mode).  Untraced, the parts are then set up afresh and run
    # again in turn for as long as the next one, at its last durations,
    # ends within the budget; each repeat must give the first campaign's
    # exact counts.  The fresh set-ups spread the set-up timings over the
    # whole run, as the campaign timings are.
    deadline = time.perf_counter() + seconds
    first: list[CampaignRun] = []
    traced: list[CampaignRun] = []
    times: list[list[float]] = [[] for _ in setups]
    refs: list[list[float]] = [[] for _ in setups]
    failures = []
    every_stats = []  # of every campaign run, for attempted and failed

    def timed(part: int, setup: Setup) -> CampaignRun:
        run, ref = clock.around(lambda: run_campaign(workload, setup, work_dir, traced=False))
        times[part].append(run.seconds)
        refs[part].append(ref)
        every_stats.append(run.stats)
        return run

    for part, setup in enumerate(setups):
        first.append(timed(part, setup))
        if trace:
            traced.append(clock.around(lambda: run_campaign(workload, setup, work_dir, traced=True))[0])
    part = 0
    while not trace:
        next_iteration = statistics.median(setup_walls) + times[part][-1] + 2.0 * clock.jobs[-1]
        if time.perf_counter() + next_iteration > deadline:
            break
        run = timed(part, fresh_setup(part))
        if exact_counts(run) != exact_counts(first[part]):
            failures.append(f"part {part}: a repeated campaign differs from the first: {exact_counts(run)} != {exact_counts(first[part])}")
        part = (part + 1) % len(setups)
    for part, (run, reference) in enumerate(zip(traced, first)):
        every_stats.append(run.stats)
        if exact_counts(run) != exact_counts(reference):
            failures.append(f"part {part}: traced campaign differs from the untraced one: {exact_counts(run)} != {exact_counts(reference)}")
        gap = self_time_gap(run)
        if gap > SELF_TIME_TOLERANCE:
            failures.append(f"part {part}: self times miss the traced campaign_s by {gap:.2%}")

    counts = set_counts(first)
    if pinned_digest is not None and counts["digest"] != pinned_digest:
        failures.append(f"behaviour-lock digest {counts['digest']} != pinned {pinned_digest}")
    for setup, run in zip(setups, first):
        failures += check_outputs(setup, run)

    attempted = sum(stats.seeds_processed + stats.skipped_seeds for stats in every_stats) + sum(len(run.db_records) for run in first)
    failed = sum(stats.skipped_seeds for stats in every_stats) + len(failures)

    campaign_s = set_seconds(times)
    extra = {
        "failed_share": failed / attempted,
        "untraced_campaigns_per_part": sum(map(len, times)) / len(setups),
        "campaign_s": campaign_s,
        "verified_per_s": counts["verify_calls"] / campaign_s,
        "discrepancies_per_s": counts["discrepancies"] / campaign_s,
        "setup_wall_s": statistics.median(setup_walls),
        "reference_ms": statistics.median(clock.jobs) * 1e3,
        "first_pass_s": _seconds(first),
    }
    if workload.train:
        extra["updates_per_s"] = counts["updates"] / campaign_s
    result = Result(correct=not failures, attempted=attempted, failed=failed, metrics={}, extra=extra, counts=counts, failures=failures)
    if trace:
        # Each part ran untraced and then traced back to back, so their
        # ratio sees the same machine; the median over parts resists drift.
        overhead = statistics.median(t.seconds / u.seconds for u, t in zip(first, traced)) - 1.0
        result.metrics, result.notes = per_layer_metrics(traced, overhead, len(setups[0].backends))
        result.traced = traced
        extra["self_time_gap"] = max(self_time_gap(run) for run in traced)
    else:
        result.metrics = end_to_end_metrics(counts, set_refs(times, refs), setup_ratios)
    return result
