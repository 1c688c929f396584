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
from dataclasses import dataclass, field
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
    build_name,
    build_synthetic,
    encode_der,
    parse_der,
    pem_decode,
    pem_encode,
)
from .verdicts import ALL_CODES, TrustAnchor, TrustStore, is_discrepancy, load_json, read_keys

log = logging.getLogger(__name__)


class EmptyCorpus(ValueError):
    """No usable seeds were found or requested."""


class CorruptDatabase(ValueError):
    """A discrepancy database failed its framing or invariant checks."""


@dataclass(frozen=True)
class SeedEntry:
    seed_id: str
    der: bytes


@dataclass(frozen=True)
class SeedCorpus:
    """Seeds under distinct ids, which records name them by."""

    entries: tuple[SeedEntry, ...]
    trust: TrustStore | None = None
    rejected: int = 0  # unparseable files met during ingestion
    _by_id: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        by_id = {}
        for entry in self.entries:
            if entry.seed_id in by_id:
                raise ValueError(f"seed id {entry.seed_id!r} appears twice")
            by_id[entry.seed_id] = entry
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self):
        return len(self.entries)

    def by_id(self, seed_id: str) -> SeedEntry:
        try:
            return self._by_id[seed_id]
        except KeyError:
            raise UnknownSeed(seed_id) from None


def read_certificate(path) -> bytes:
    """A certificate file's DER: PEM-armored when the suffix is ``.pem``, else raw DER."""
    path = Path(path)
    blob = path.read_bytes()
    return pem_decode(blob.decode("ascii", errors="replace")) if path.suffix.lower() == ".pem" else blob


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
            der = read_certificate(file)
            parse_der(der)
        except (MalformedDer, MalformedPem, UnsupportedStructure, OSError):
            rejected += 1
            continue
        entries.append(SeedEntry(file.stem, der))
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


def _bucket_counts(n: int) -> dict[str, int]:
    total = sum(DEFAULT_MIX.values())
    counts = {name: int(n * weight / total) for name, weight in DEFAULT_MIX.items()}
    names = list(DEFAULT_MIX)
    i = 0
    while sum(counts.values()) < n:
        counts[names[i % len(names)]] += 1
        i += 1
    return counts


def _issued_params(rng: random.Random, root) -> SeedParams:
    cn, country, _ = root
    return SeedParams(
        issuer_common_name=cn,
        issuer_country=country,
        subject_common_name=f"host-{rng.randrange(10**6):06d}.example.test",
        subject_country=_COUNTRIES[rng.randrange(len(_COUNTRIES))],
        signer_tag=root[2],
    )


def _generate_one(bucket: str, rng: random.Random, trust: TrustStore) -> Certificate:
    if bucket == "diverse":
        return _generate_diverse(rng, trust)
    if bucket == "anchored":
        cn = f"self-{rng.randrange(10**6):06d}.example.test"
        tag = f"self-{cn}"
        params = SeedParams(
            issuer_common_name=cn,
            issuer_country="US",
            subject_common_name=cn,
            subject_country="US",
            signer_tag=tag,
        )
        cert = build_synthetic(params, rng.getrandbits(32))
        trust.add(TrustAnchor(cert.subject.der, tag))
        return cert
    # rng draw order: root, hours, host, country, then the certificate seed
    root = ("Unregistered CA", "RU", "nobody") if bucket == "unknown_issuer" else _ROOTS[rng.randrange(len(_ROOTS))]
    if bucket in ("expired_recent", "future_recent"):
        hours = 1 + rng.randrange(20)  # out of validity by less than a day
        window = {"not_after_offset": -hours * 3600} if bucket == "expired_recent" else {"not_before_offset": hours * 3600}
        params = dataclasses.replace(_issued_params(rng, root), **window)
    else:
        params = _issued_params(rng, root)
    return build_synthetic(params, rng.getrandbits(32))


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
        trust.add(TrustAnchor(cert.issuer.der, tag, version=1, is_root=False))
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
        trust.add(TrustAnchor(build_name(cn, country).der, tag))

    buckets = []
    for name, count in _bucket_counts(n).items():
        buckets.extend([name] * count)
    rng.shuffle(buckets)

    entries = []
    for i, bucket in enumerate(buckets):
        cert = _generate_one(bucket, rng, trust)
        entries.append(SeedEntry(f"seed-{i:05d}-{bucket}", encode_der(cert)))
    return SeedCorpus(tuple(entries), trust=trust)


def write_corpus(corpus: SeedCorpus, out_dir) -> None:
    """Write seeds as PEM files plus the trust store."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry in corpus.entries:
        (out / f"{entry.seed_id}.pem").write_text(pem_encode(entry.der))
    if corpus.trust is not None:
        (out / "trust.json").write_text(corpus.trust.to_json())


def write_atomic(path, data: bytes) -> None:
    """Replace the file ``path`` with ``data``: written beside it under a
    temporary name and renamed onto it, so a write cut short leaves the
    earlier file whole and removes the temporary one."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        with open(temporary, "wb") as handle:
            handle.write(data)
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_corpus_dir(path) -> SeedCorpus:
    """Ingest a directory, picking up a trust.json sidecar when present."""
    corpus = ingest_dir(path)
    trust_file = Path(path) / "trust.json"
    if trust_file.exists():
        corpus = dataclasses.replace(corpus, trust=TrustStore.from_json(trust_file.read_text()))
    return corpus


# ---------------------------------------------------------------------------
# Discrepancy database

# the keys of a stored record, every one required
_RECORD_KEYS = ("seed_id", "trace", "mutant_b64", "verdicts", "backend_ids", "timestamp", "rng_seed")


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
        if type(self.seed_id) is not str:
            raise ValueError(f"seed id {self.seed_id!r} is not a string")
        if not all(type(action) is int for action in self.trace):
            raise ValueError(f"trace {list(self.trace)!r} holds an action that is not an int")
        validate_trace(self.trace)
        if type(self.mutant_der) is not bytes:
            raise ValueError(f"mutant DER is {type(self.mutant_der).__name__}, not bytes")
        if not all(type(code) is int and code in ALL_CODES for code in self.verdicts):
            raise ValueError(f"verdicts {list(self.verdicts)!r} are not all verdict codes")
        if len(self.backend_ids) != len(self.verdicts) or not all(type(b) is str for b in self.backend_ids):
            raise ValueError(f"backend ids {list(self.backend_ids)!r} are not one string per verdict")
        try:
            dt.datetime.fromisoformat(self.timestamp)
        except (TypeError, ValueError):
            raise ValueError(f"timestamp {self.timestamp!r} is not an ISO 8601 string") from None
        if type(self.rng_seed) is not int:
            raise ValueError(f"rng seed {self.rng_seed!r} is not an int")
        if not is_discrepancy(self.verdicts):
            raise ValueError("record verdicts contain no discrepancy")

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
        doc = read_keys("record", load_json(text), _RECORD_KEYS, {})
        for key in ("trace", "verdicts", "backend_ids"):  # a string would pass as a tuple of characters
            if type(doc[key]) is not list:
                raise ValueError(f"{key}: expected a list, got {doc[key]!r}")
        try:
            mutant_der = base64.b64decode(doc["mutant_b64"], validate=True)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"mutant_b64: {doc['mutant_b64']!r} is not base64 ({exc})") from None
        return cls(
            seed_id=doc["seed_id"],
            trace=tuple(doc["trace"]),
            mutant_der=mutant_der,
            verdicts=tuple(doc["verdicts"]),
            backend_ids=tuple(doc["backend_ids"]),
            timestamp=doc["timestamp"],
            rng_seed=doc["rng_seed"],
        )


class DiscrepancyDb:
    """Append-only store: ``<payload-length><TAB><json><LF>`` per record.
    Opening one makes its directory.  The first `append` opens the file
    and keeps it open until `close`; each record is flushed as one whole
    line, so the file holds every record as soon as it is appended."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._drop_torn_tail()
        self._handle = None

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
        payload = record.to_json()
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(f"{len(payload)}\t{payload}\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

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
                try:
                    records.append(DiscrepancyRecord.from_json(payload))
                except (KeyError, TypeError, ValueError) as exc:
                    raise CorruptDatabase(f"record {lineno}: {type(exc).__name__}: {exc}") from exc
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


def report(records, *, corpus_size: int | None = None) -> Report:
    """Group records by exact verdict vector and tally modification counts;
    the header names the first record's backends, so a record that names
    others is refused with CorruptDatabase."""
    records = list(records)
    by_vector: dict[tuple[int, ...], int] = {}
    histogram: dict[int, int] = {}
    for number, rec in enumerate(records, 1):
        if rec.backend_ids != records[0].backend_ids:
            raise CorruptDatabase(
                f"record {number} names backends {list(rec.backend_ids)}, record 1 names {list(records[0].backend_ids)}"
            )
        by_vector[rec.verdicts] = by_vector.get(rec.verdicts, 0) + 1
        histogram[len(rec.trace)] = histogram.get(len(rec.trace), 0) + 1
    ordered = tuple(sorted(by_vector.items(), key=lambda kv: (-kv[1], kv[0])))
    return Report(
        backend_ids=records[0].backend_ids if records else (),
        total_records=len(records),
        corpus_size=corpus_size,
        vector_counts=ordered,
        modification_histogram=tuple(sorted(histogram.items())),
    )
