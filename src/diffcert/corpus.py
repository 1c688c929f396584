"""Seed-corpus ingestion and synthetic generation, the discrepancy
database, and report generation.

The synthetic generator replaces internet harvesting for offline runs: it
emits a deterministic mix of seed archetypes (anchor-trusted, properly
issued, validity-boundary, unknown-issuer, structurally diverse) together
with the trust store that makes them meaningful to the simulated
verifiers.

The discrepancy database is an append-only stream of length-prefixed JSON
records with base64-embedded certificate bytes, one record per line; a
record torn by a crash mid-append is dropped when the database is opened.
"""

from __future__ import annotations

import base64
import dataclasses
import datetime as dt
import json
import logging
import os
import random
from dataclasses import dataclass
from pathlib import Path

from . import x509oids as oid
from .actions import UnknownSeed, replay, validate_trace
from .certs import (
    Certificate,
    ExtensionParam,
    MalformedDer,
    MalformedPem,
    SeedParams,
    UnsupportedStructure,
    build_synthetic,
    default_params,
    encode_der,
    parse_der,
    pem_decode,
    pem_encode,
)
from .verdicts import TrustAnchor, TrustStore, is_discrepancy

log = logging.getLogger(__name__)


class EmptyCorpus(ValueError):
    """No usable seeds were found or requested."""


class CorruptDatabase(ValueError):
    """A discrepancy database failed its framing or invariant checks."""


@dataclass(frozen=True)
class SeedEntry:
    seed_id: str
    der: bytes
    source: str


@dataclass(frozen=True)
class SeedCorpus:
    entries: tuple[SeedEntry, ...]
    trust: TrustStore | None = None
    rejected: int = 0  # unparseable files met during ingestion

    def __len__(self):
        return len(self.entries)

    def by_id(self, seed_id: str) -> SeedEntry:
        for entry in self.entries:
            if entry.seed_id == seed_id:
                return entry
        raise UnknownSeed(seed_id)


def ingest_dir(path) -> SeedCorpus:
    """Load every .pem/.der file under ``path`` in filename order."""
    root = Path(path)
    if not root.is_dir():
        raise OSError(f"{root} is not a directory")
    entries = []
    rejected = 0
    for file in sorted(root.iterdir()):
        if file.suffix.lower() not in (".pem", ".der"):
            continue
        try:
            blob = file.read_bytes()
            der = pem_decode(blob.decode("ascii", errors="replace")) if file.suffix.lower() == ".pem" else blob
            parse_der(der)
        except (MalformedDer, MalformedPem, UnsupportedStructure, OSError):
            rejected += 1
            continue
        entries.append(SeedEntry(file.stem, der, str(file)))
    if not entries:
        raise EmptyCorpus(f"no parseable certificates under {root}")
    return SeedCorpus(tuple(entries), rejected=rejected)


# ---------------------------------------------------------------------------
# Synthetic generation

DEFAULT_MIX: dict[str, float] = {
    "issued": 0.35,
    "anchored": 0.25,
    "expired_recent": 0.10,
    "future_recent": 0.05,
    "unknown_issuer": 0.10,
    "diverse": 0.15,
}

_ROOTS = (("Acme Root CA", "DE", "acme-root"), ("Globex Root CA", "US", "globex-root"))
_LEGACY = ("Legacy Intermediate CA", "GB", "legacy-intermediate")
_COUNTRIES = ("FR", "GB", "NL", "JP", "BR", "AU")
_KEY_BITS = (1024, 2048, 4096)


def _bucket_counts(n: int, mix: dict[str, float]) -> dict[str, int]:
    total = sum(mix.values())
    counts = {name: int(n * weight / total) for name, weight in mix.items()}
    names = list(mix)
    i = 0
    while sum(counts.values()) < n:
        counts[names[i % len(names)]] += 1
        i += 1
    return counts


def _issued_params(rng: random.Random, root) -> SeedParams:
    cn, country, _ = root
    return dataclasses.replace(
        default_params(),
        issuer_common_name=cn,
        issuer_country=country,
        subject_common_name=f"host-{rng.randrange(10**6):06d}.example.test",
        subject_country=_COUNTRIES[rng.randrange(len(_COUNTRIES))],
        signer_tag=root[2],
    )


def _generate_one(bucket: str, rng: random.Random, trust: TrustStore) -> Certificate:
    if bucket == "issued":
        root = _ROOTS[rng.randrange(len(_ROOTS))]
        return build_synthetic(_issued_params(rng, root), rng.getrandbits(32))
    if bucket == "anchored":
        cn = f"self-{rng.randrange(10**6):06d}.example.test"
        tag = f"self-{cn}"
        params = dataclasses.replace(
            default_params(),
            issuer_common_name=cn,
            issuer_country="US",
            subject_common_name=cn,
            subject_country="US",
            signer_tag=tag,
        )
        cert = build_synthetic(params, rng.getrandbits(32))
        trust.add(TrustAnchor(cert.subject_der(), tag))
        return cert
    if bucket == "expired_recent":
        root = _ROOTS[rng.randrange(len(_ROOTS))]
        hours = 1 + rng.randrange(20)  # expired less than a day ago
        params = dataclasses.replace(_issued_params(rng, root), not_after_offset=-hours * 3600)
        return build_synthetic(params, rng.getrandbits(32))
    if bucket == "future_recent":
        root = _ROOTS[rng.randrange(len(_ROOTS))]
        hours = 1 + rng.randrange(20)
        params = dataclasses.replace(_issued_params(rng, root), not_before_offset=hours * 3600)
        return build_synthetic(params, rng.getrandbits(32))
    if bucket == "unknown_issuer":
        params = dataclasses.replace(
            _issued_params(rng, ("Unregistered CA", "RU", "nobody")),
            signer_tag="nobody",
        )
        return build_synthetic(params, rng.getrandbits(32))
    if bucket == "diverse":
        return _generate_diverse(rng, trust)
    raise EmptyCorpus(f"unknown generator bucket {bucket!r}")


def _generate_diverse(rng: random.Random, trust: TrustStore) -> Certificate:
    root = _ROOTS[rng.randrange(len(_ROOTS))]
    base = _issued_params(rng, root)
    variant = rng.randrange(8)
    if variant == 0:  # bare v1, no extensions
        params = dataclasses.replace(base, version=1, extensions=())
    elif variant == 1:  # bare v2
        params = dataclasses.replace(base, version=2, extensions=())
    elif variant == 2:  # issued by a v1 intermediate anchor
        cn, country, tag = _LEGACY
        params = dataclasses.replace(base, issuer_common_name=cn, issuer_country=country, signer_tag=tag)
        cert = build_synthetic(params, rng.getrandbits(32))
        trust.add(TrustAnchor(cert.issuer_der(), tag, version=1, is_root=False))
        return cert
    elif variant == 3:  # different key size and GeneralizedTime encoding
        params = dataclasses.replace(
            base,
            key_bits=_KEY_BITS[rng.randrange(len(_KEY_BITS))],
            use_generalized_time=True,
        )
    elif variant == 4:  # minimal extension set, no countries
        params = dataclasses.replace(
            base,
            issuer_country=None,
            subject_country=None,
            extensions=(
                ExtensionParam(oid.BASIC_CONSTRAINTS, critical=True),
                ExtensionParam(oid.KEY_USAGE, critical=True),
            ),
        )
    elif variant == 5:  # deliberately nonstandard version value
        params = dataclasses.replace(base, version=4)
    elif variant == 6:  # serial number the issuing CA should never assign
        params = dataclasses.replace(base, serial=-(rng.getrandbits(31) | 1))
    else:  # long-lived cert with an extra untracked private extension
        extra = ExtensionParam("1.3.6.1.4.1.424242.1", critical=False, value=b"\x04\x03abc")
        params = dataclasses.replace(
            base,
            not_after_offset=10 * 365 * 24 * 3600,
            extensions=base.extensions + (extra,),
        )
    return build_synthetic(params, rng.getrandbits(32))


def generate_corpus(n: int, rng_seed: int) -> SeedCorpus:
    """Deterministically generate ``n`` synthetic seeds plus their trust store."""
    if n <= 0:
        raise EmptyCorpus("asked for an empty corpus")
    rng = random.Random(rng_seed)
    trust = TrustStore()
    for cn, country, tag in _ROOTS:
        anchor_name = build_synthetic(
            dataclasses.replace(default_params(), issuer_common_name=cn, issuer_country=country, signer_tag=tag),
            0,
        ).issuer_der()
        trust.add(TrustAnchor(anchor_name, tag))

    buckets = []
    for name, count in _bucket_counts(n, DEFAULT_MIX).items():
        buckets.extend([name] * count)
    rng.shuffle(buckets)

    entries = []
    for i, bucket in enumerate(buckets):
        cert = _generate_one(bucket, rng, trust)
        entries.append(SeedEntry(f"seed-{i:05d}-{bucket}", encode_der(cert), f"generated:{bucket}"))
    return SeedCorpus(tuple(entries), trust=trust)


def write_corpus(corpus: SeedCorpus, out_dir) -> None:
    """Write seeds as PEM files plus the trust store and a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry in corpus.entries:
        (out / f"{entry.seed_id}.pem").write_text(pem_encode(entry.der))
    if corpus.trust is not None:
        (out / "trust.json").write_text(corpus.trust.to_json())
    manifest = {
        "format": "diffcert-corpus",
        "version": 1,
        "count": len(corpus.entries),
        "rejected": corpus.rejected,
        "seed_ids": [e.seed_id for e in corpus.entries],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_corpus_dir(path) -> SeedCorpus:
    """Ingest a directory, picking up a trust.json sidecar when present."""
    corpus = ingest_dir(path)
    trust_file = Path(path) / "trust.json"
    if trust_file.exists():
        corpus = dataclasses.replace(corpus, trust=TrustStore.from_json(trust_file.read_text()))
    return corpus


# ---------------------------------------------------------------------------
# Discrepancy database

@dataclass(frozen=True)
class DiscrepancyRecord:
    """A discrepancy-triggering certificate with everything needed to
    reproduce it: seed id, action trace, verdicts and the campaign clock."""

    seed_id: str
    trace: tuple[int, ...]
    mutant_der: bytes
    verdicts: tuple[int, ...]
    backend_ids: tuple[str, ...]
    timestamp: str  # ISO reference clock the campaign verified against
    rng_seed: int

    def __post_init__(self):
        validate_trace(self.trace)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed_id": self.seed_id,
                "trace": list(self.trace),
                "mutant_b64": base64.b64encode(self.mutant_der).decode("ascii"),
                "verdicts": list(self.verdicts),
                "backend_ids": list(self.backend_ids),
                "timestamp": self.timestamp,
                "rng_seed": self.rng_seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscrepancyRecord":
        doc = json.loads(text)
        return cls(
            seed_id=doc["seed_id"],
            trace=tuple(doc["trace"]),
            mutant_der=base64.b64decode(doc["mutant_b64"]),
            verdicts=tuple(doc["verdicts"]),
            backend_ids=tuple(doc["backend_ids"]),
            timestamp=doc["timestamp"],
            rng_seed=doc["rng_seed"],
        )


class DiscrepancyDb:
    """Append-only store: ``<payload-length><TAB><json><LF>`` per record."""

    def __init__(self, path):
        self.path = Path(path)
        self._drop_torn_tail()

    def _drop_torn_tail(self) -> None:
        """Truncate an unterminated final line, the trace of a crash mid-append,
        so the intact records load and the next append starts a fresh line."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0:
            return
        with open(self.path, "rb") as handle:
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            keep = handle.read().rfind(b"\n") + 1
        os.truncate(self.path, keep)
        log.warning("%s: dropped %d bytes of a torn final record", self.path, size - keep)

    def append(self, record: DiscrepancyRecord) -> None:
        if not is_discrepancy(record.verdicts):
            raise ValueError("record verdicts contain no discrepancy")
        payload = record.to_json()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{len(payload)}\t{payload}\n")

    def load_all(self) -> list[DiscrepancyRecord]:
        if not self.path.exists():
            return []
        records = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.endswith("\n"):
                    raise CorruptDatabase(f"record {lineno}: unterminated line")
                try:
                    length_text, payload = line[:-1].split("\t", 1)
                    if int(length_text) != len(payload):
                        raise ValueError
                except ValueError:
                    raise CorruptDatabase(f"record {lineno}: bad length prefix") from None
                records.append(DiscrepancyRecord.from_json(payload))
        return records


def replay_record(corpus: SeedCorpus, rec: DiscrepancyRecord, now=None) -> Certificate:
    """Rebuild a record's mutant from its seed and trace."""
    entry = corpus.by_id(rec.seed_id)
    seed = parse_der(entry.der)
    at = now if now is not None else dt.datetime.fromisoformat(rec.timestamp)
    return replay(seed, rec.trace, now=at)


# ---------------------------------------------------------------------------
# Reporting

@dataclass(frozen=True)
class Report:
    backend_ids: tuple[str, ...]
    total_records: int
    corpus_size: int | None
    vector_counts: tuple[tuple[tuple[int, ...], int], ...]  # most frequent first
    modification_histogram: tuple[tuple[int, int], ...]  # (trace length, count)

    @property
    def proportion(self) -> float:
        if not self.corpus_size:
            return 0.0
        return self.total_records / self.corpus_size

    def to_text(self) -> str:
        lines = []
        header = " | ".join(f"{b:>14}" for b in self.backend_ids)
        lines.append(f"{'#':>4}  {header}  {'count':>7}")
        for i, (vector, count) in enumerate(self.vector_counts, 1):
            cells = " | ".join(f"{c:>14d}" for c in vector)
            lines.append(f"{i:>4}  {cells}  {count:>7d}")
        if not self.vector_counts:
            lines.append("  (no discrepancies recorded)")
        lines.append("")
        if self.corpus_size is not None:
            lines.append(f"corpus size {self.corpus_size}  discrepancies {self.total_records}  proportion {self.proportion:.1%}")
        else:
            lines.append(f"discrepancies {self.total_records}")
        if self.modification_histogram:
            hist = "  ".join(f"{k}:{v}" for k, v in self.modification_histogram)
            lines.append(f"modifications per discrepancy  {hist}")
        return "\n".join(lines) + "\n"

    def to_json_lines(self) -> str:
        lines = [
            json.dumps({"kind": "summary", "records": self.total_records, "corpus_size": self.corpus_size, "proportion": self.proportion})
        ]
        for vector, count in self.vector_counts:
            lines.append(json.dumps({"kind": "vector", "codes": list(vector), "count": count, "backends": list(self.backend_ids)}))
        for length, count in self.modification_histogram:
            lines.append(json.dumps({"kind": "modifications", "length": length, "count": count}))
        return "\n".join(lines) + "\n"


def report(records, backend_ids=None, corpus_size: int | None = None) -> Report:
    """Group records by exact verdict vector and tally modification counts."""
    records = list(records)
    if backend_ids is None:
        backend_ids = records[0].backend_ids if records else ()
    by_vector: dict[tuple[int, ...], int] = {}
    histogram: dict[int, int] = {}
    for rec in records:
        by_vector[rec.verdicts] = by_vector.get(rec.verdicts, 0) + 1
        histogram[len(rec.trace)] = histogram.get(len(rec.trace), 0) + 1
    ordered = tuple(sorted(by_vector.items(), key=lambda kv: (-kv[1], kv[0])))
    return Report(
        backend_ids=tuple(backend_ids),
        total_records=len(records),
        corpus_size=corpus_size,
        vector_counts=ordered,
        modification_histogram=tuple(sorted(histogram.items())),
    )
