"""The benchmark's workloads: set-up, one timed campaign, the output
check and the behaviour-lock digest.

Every workload is a closed loop in one process: the campaign waits for
each panel verdict before its next step, and the benchmark starts no
threads or processes.  A run is a fixed number of independent campaigns
("parts"), each on its own corpus, because one campaign's work and
findings vary a lot from seed to seed and the run's totals must not.
The workload seed is the only input; it yields each part's corpus seed
and campaign rng seed (seed 1 gives 1 and 11 for the first part, the
recipe the acceptance suite trains with).
"""

from __future__ import annotations

import datetime as dt
import gc
import hashlib
import shutil
import struct
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diffcert import campaign, qnet, verdicts
from diffcert.campaign import CampaignConfig, CampaignStats, EpsilonSchedule
from diffcert.certs import MalformedDer, UnsupportedStructure, encode_der
from diffcert.corpus import DiscrepancyDb, DiscrepancyRecord, SeedCorpus, generate_corpus, replay_record
from diffcert.qnet import QParams, TrainConfig
from diffcert.verdicts import bind_backends, default_backend_specs

from tracing import Tracer, patched


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_size: int
    episodes: int
    parts: int  # independent campaigns per run
    train: bool  # run_training with the stabilised recipe; otherwise run_baseline
    panel: tuple[str, ...] | None = None  # shipped profile ids; None means all six


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    "train": Workload("train", corpus_size=24, episodes=2, parts=20, train=True),
    "random-panel": Workload("random-panel", corpus_size=42, episodes=1, parts=48, train=False),
    "random-pair": Workload(
        "random-pair", corpus_size=64, episodes=1, parts=48, train=False, panel=("mbedtls-like", "openssl-like")
    ),
}


def derived_seeds(seed: int, part: int) -> tuple[int, int]:
    """(generate_corpus seed, campaign rng seed) of one part of a run."""
    corpus_seed = seed + 1000 * part
    return corpus_seed, corpus_seed + 10


@dataclass(frozen=True)
class Setup:
    corpus: SeedCorpus
    backends: tuple
    rng_seed: int


def set_up(workload: Workload, seed: int, part: int) -> Setup:
    """Generate one part's corpus and bind the panel: the work timed as setup_s."""
    corpus_seed, rng_seed = derived_seeds(seed, part)
    corpus = generate_corpus(workload.corpus_size, corpus_seed)
    specs = default_backend_specs()
    if workload.panel is not None:
        specs = [spec for spec in specs if spec.id in workload.panel]
    return Setup(corpus, tuple(bind_backends(specs, corpus.trust)), rng_seed)


def campaign_config(workload: Workload, setup: Setup, db_path: Path) -> CampaignConfig:
    if workload.train:
        # The recipe `diffcert train` and the acceptance suite use.
        return CampaignConfig(
            backends=setup.backends,
            max_episode=workload.episodes,
            rng_seed=setup.rng_seed,
            epsilon=EpsilonSchedule.annealed(),
            train=TrainConfig(use_target_network=True),
            db_path=str(db_path),
        )
    return CampaignConfig(backends=setup.backends, max_episode=workload.episodes, rng_seed=setup.rng_seed, db_path=str(db_path))


@dataclass
class CampaignRun:
    """One campaign: its wall time and everything the checks need."""

    seconds: float
    stats: CampaignStats
    records: list[DiscrepancyRecord] | None  # returned in memory (train only)
    params: QParams | None
    verify_calls: int
    db_records: list[DiscrepancyRecord]
    db_bytes: int
    digest: str
    tracer: Tracer | None = None
    seed_labels: list[str] | None = None


def behaviour_digest(parts) -> str:
    """SHA-256 over the (records, params or None) of each part in order:
    (seed id, trace, mutant DER) of every record, then the parameter
    bytes.  Every field is length-prefixed."""
    digest = hashlib.sha256()

    def field(blob: bytes) -> None:
        digest.update(struct.pack("<Q", len(blob)))
        digest.update(blob)

    for records, params in parts:
        field(b"part")
        for rec in records:
            field(rec.seed_id.encode("utf-8"))
            field(bytes(rec.trace))
            field(rec.mutant_der)
        if params is not None:
            for array in params.arrays():
                field(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def _counting(fn, box: list[int]):
    def counted(*args, **kwargs):
        box[0] += 1
        return fn(*args, **kwargs)

    return counted


def traced_replacements(tracer: Tracer, corpus: SeedCorpus, seed_labels: list[str]):
    """Span wrappers for every name the campaign loop looks up.

    The seed parse opens a new seed visit; the mutant encoder counts
    mutants byte-identical to their parent; the verifier's parse counts
    strict-parse failures.
    """
    labels = {entry.der: entry.seed_id for entry in corpus.entries}
    lineage = [b""]  # DER of the certificate the next mutant derives from

    seed_parse = tracer.wrap("certs.seed_parse_der", campaign.parse_der)

    def parse_seed(der, *args, **kwargs):
        tracer.seed = len(seed_labels)
        seed_labels.append(labels.get(der, "?"))
        lineage[0] = der
        return seed_parse(der, *args, **kwargs)

    encode = tracer.wrap("certs.encode_der", campaign.encode_der)

    def encode_mutant(cert):
        der = encode(cert)
        if der == lineage[0]:
            tracer.count("noop_mutants")
        lineage[0] = der
        return der

    parse = verdicts.parse_der

    def parse_counting(data, *, lenient=False):
        try:
            return parse(data, lenient=lenient)
        except (MalformedDer, UnsupportedStructure):
            if not lenient:
                tracer.count("strict_parse_failures")
            raise

    return [
        (campaign, "parse_der", parse_seed),
        (campaign, "encode_der", encode_mutant),
        (campaign, "apply", tracer.wrap("actions.apply", campaign.apply)),
        (campaign, "extract", tracer.wrap("features.extract", campaign.extract)),
        (campaign, "verify_all", tracer.wrap("verdicts.verify_all", campaign.verify_all)),
        (campaign, "run_inference", tracer.wrap("campaign.probe", campaign.run_inference)),
        (verdicts, "parse_der", tracer.wrap("certs.parse_der", parse_counting)),
        (qnet, "forward", tracer.wrap("qnet.forward", qnet.forward)),
        (qnet, "train_step", tracer.wrap("qnet.train_step", qnet.train_step)),
        (DiscrepancyDb, "append", tracer.wrap("corpus.db_append", DiscrepancyDb.append)),
    ]


def run_campaign(workload: Workload, setup: Setup, work_dir: Path, traced: bool) -> CampaignRun:
    """Run one campaign in a fresh database directory and time it.

    Untraced, only a call counter (no clock) sits on the loop's
    ``verify_all``; traced, every looked-up name records spans.
    """
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    db_path = work_dir / "discrepancies.db"
    config = campaign_config(workload, setup, db_path)
    entry = campaign.run_training if workload.train else campaign.run_baseline
    tracer = seed_labels = None
    verify_box = [0]
    if traced:
        tracer, seed_labels = Tracer(), []
        replacements = traced_replacements(tracer, setup.corpus, seed_labels)
        entry = tracer.wrap("campaign", entry)
    else:
        replacements = [(campaign, "verify_all", _counting(campaign.verify_all, verify_box))]
    gc.collect()
    with patched(replacements):
        started = time.perf_counter()
        result = entry(setup.corpus, config)
        seconds = time.perf_counter() - started
    if workload.train:
        params, records, stats = result
    else:
        params, records, stats = None, None, result
    if traced:
        verify_box[0] = sum(1 for span in tracer.spans if span.name == "verdicts.verify_all")
    db_records = DiscrepancyDb(db_path).load_all()
    db_bytes = sum(path.stat().st_size for path in work_dir.iterdir() if path.is_file())
    shutil.rmtree(work_dir)
    return CampaignRun(
        seconds=seconds,
        stats=stats,
        records=records,
        params=params,
        verify_calls=verify_box[0],
        db_records=db_records,
        db_bytes=db_bytes,
        digest=behaviour_digest([(db_records, params)]),
        tracer=tracer,
        seed_labels=seed_labels,
    )


def exact_counts(run: CampaignRun) -> dict:
    """The figures of one campaign that must repeat bit-for-bit."""
    stats = run.stats
    return {
        "seeds_processed": stats.seeds_processed,
        "skipped_seeds": stats.skipped_seeds,
        "discrepancies": stats.discrepancies,
        "distinct_vectors": len(stats.type_counts),
        "updates": stats.updates,
        "verify_calls": run.verify_calls,
        "db_bytes": run.db_bytes,
        "digest": run.digest,
    }


def check_outputs(setup: Setup, run: CampaignRun) -> list[str]:
    """Failures of one campaign's outputs; empty when all is well.

    Every booked record must replay from its seed and trace to exactly
    its mutant DER, and re-verifying that DER must give exactly its
    verdict vector.  The database must hold exactly what was booked.
    """
    failures = []
    stats = run.stats
    if run.records is not None:
        if run.db_records != run.records:
            failures.append("database records differ from the records returned in memory")
    else:
        booked_vectors = Counter(rec.verdicts for rec in run.db_records)
        booked_lengths = Counter(len(rec.trace) for rec in run.db_records)
        if (
            len(run.db_records) != stats.discrepancies
            or booked_vectors != Counter(stats.type_counts)
            or booked_lengths != Counter(stats.modification_histogram)
        ):
            failures.append("database records differ from what the campaign booked")
    backend_ids = tuple(backend.id for backend in setup.backends)
    for index, rec in enumerate(run.db_records):
        now = dt.datetime.fromisoformat(rec.timestamp)
        if encode_der(replay_record(setup.corpus, rec, now=now)) != rec.mutant_der:
            failures.append(f"record {index} ({rec.seed_id}): replay does not give the booked mutant")
            continue
        again = verdicts.verify_all(rec.mutant_der, setup.backends, now)
        if again.codes != rec.verdicts or again.backend_ids != backend_ids or rec.backend_ids != backend_ids:
            failures.append(f"record {index} ({rec.seed_id}): re-verification gives {again.codes}, booked {rec.verdicts}")
    return failures
