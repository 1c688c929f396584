"""Corpus store tests: ingestion, deterministic generation, the
append-only discrepancy database and report tallies."""

import dataclasses
import json

import pytest

from diffcert import cli, corpus as corpus_mod, qnet
from diffcert.actions import UnknownSeed
from diffcert.campaign import CampaignStats
from diffcert.certs import SeedParams, build_synthetic, encode_der, pem_encode
from diffcert.corpus import (
    DiscrepancyDb,
    DiscrepancyRecord,
    EmptyCorpus,
    SeedCorpus,
    SeedEntry,
    generate_corpus,
    ingest_dir,
    replay_record,
    report,
    write_corpus,
)
from diffcert.verdicts import TrustAnchor

BACKENDS = ("a", "b", "c", "d", "e", "f")


def make_record(seed_id="seed-0", trace=(3,), verdicts=(1, -4, -4, 1, 1, 1), payload=b"\x30\x00"):
    return DiscrepancyRecord(
        seed_id=seed_id,
        trace=tuple(trace),
        mutant_der=payload,
        verdicts=tuple(verdicts),
        backend_ids=BACKENDS,
        timestamp="2025-06-01T00:00:00+00:00",
        rng_seed=0,
    )


def test_ingest_dir(tmp_path):
    for i in range(3):
        cert = build_synthetic(SeedParams(), i)
        (tmp_path / f"cert{i}.pem").write_text(pem_encode(encode_der(cert)))
    (tmp_path / "certbad.der").write_bytes(b"not a certificate")
    (tmp_path / "notes.txt").write_text("ignored")
    corpus = ingest_dir(tmp_path)
    assert len(corpus) == 3
    assert corpus.rejected == 1
    assert [e.seed_id for e in corpus.entries] == ["cert0", "cert1", "cert2"]


def test_ingest_refuses_two_files_of_one_seed_id(tmp_path):
    # both would be seed `a`: a record booked from one would replay from the other
    der = encode_der(build_synthetic(SeedParams(), 1))
    (tmp_path / "a.der").write_bytes(der)
    (tmp_path / "a.pem").write_text(pem_encode(der))
    with pytest.raises(ValueError, match="^seed id 'a' appears twice$"):
        ingest_dir(tmp_path)


def test_by_id_reads_an_index_of_the_entries():
    entries = tuple(SeedEntry(f"s{i}", bytes([i % 256])) for i in range(1100))
    corpus = SeedCorpus(entries)
    assert corpus.by_id("s0") is entries[0] and corpus.by_id("s1099") is entries[-1]
    with pytest.raises(UnknownSeed):
        corpus.by_id("s1100")
    # equality and repr read the entries, not the index; a replaced corpus
    # indexes its own entries
    assert corpus == SeedCorpus(entries) and "_by_id" not in repr(SeedCorpus(entries[:2]))
    shorter = dataclasses.replace(corpus, entries=entries[:1])
    assert shorter.by_id("s0") is entries[0]
    with pytest.raises(UnknownSeed):
        shorter.by_id("s1")


def test_ingest_empty_dir(tmp_path):
    with pytest.raises(EmptyCorpus):
        ingest_dir(tmp_path)
    with pytest.raises(OSError):
        ingest_dir(tmp_path / "missing")


def test_generate_corpus_deterministic():
    a = generate_corpus(40, rng_seed=1)
    b = generate_corpus(40, rng_seed=1)
    assert [e.der for e in a.entries] == [e.der for e in b.entries]
    assert a.trust.to_json() == b.trust.to_json()
    c = generate_corpus(40, rng_seed=2)
    assert [e.der for e in c.entries] != [e.der for e in a.entries]


def test_trust_anchors_are_the_names_the_roots_sign_with():
    # the store's first anchors are the roots, each under the issuer name a
    # certificate built for that root carries, whichever seed drew the corpus
    expected = []
    for cn, country, tag in corpus_mod._ROOTS:
        root_issued = build_synthetic(SeedParams(issuer_common_name=cn, issuer_country=country, signer_tag=tag), 0)
        expected.append(TrustAnchor(root_issued.issuer.der, tag))
    for rng_seed in (1, 2, 5):
        assert generate_corpus(8, rng_seed).trust.anchors()[: len(expected)] == expected


def test_generate_corpus_rejects_zero():
    with pytest.raises(EmptyCorpus):
        generate_corpus(0, rng_seed=1)


def test_generate_corpus_covers_buckets():
    corpus = generate_corpus(60, rng_seed=1)
    buckets = {e.seed_id.split("-")[-1] for e in corpus.entries}
    assert {"issued", "anchored", "expired_recent", "future_recent", "unknown_issuer", "diverse"} <= buckets
    assert len(corpus.trust) > 2  # roots plus anchored subjects


def test_generate_corpus_mixes_accepts_and_rejects():
    from diffcert.verdicts import STRICT_PROFILE
    from diffcert.certs import REFERENCE_TIME
    from verdict_helpers import simulate_verify

    corpus = generate_corpus(60, rng_seed=1)
    codes = {simulate_verify(STRICT_PROFILE, e.der, corpus.trust, REFERENCE_TIME) for e in corpus.entries}
    assert 1 in codes
    assert any(c != 1 for c in codes)


def test_write_then_ingest_round_trip(tmp_path):
    corpus = generate_corpus(12, rng_seed=5)
    write_corpus(corpus, tmp_path)
    again = corpus_mod.load_corpus_dir(tmp_path)
    assert [e.der for e in again.entries] == [e.der for e in corpus.entries]
    assert again.trust is not None
    assert len(again.trust) == len(corpus.trust)


def test_db_round_trip(tmp_path):
    db = DiscrepancyDb(tmp_path / "found.db")
    recs = [make_record(seed_id=f"s{i}", trace=(i % 10,)) for i in range(10)]
    for rec in recs:
        db.append(rec)
    loaded = db.load_all()
    assert loaded == recs  # byte-identical fields, insertion order


def test_db_rejects_non_discrepancy():
    # the rule lives in the record: a non-discrepancy cannot be built, so
    # it cannot be appended
    for verdicts in [(1, 1, 1, 1, 1, 1), (-1, -2, -3, -4, -5, -6)]:
        with pytest.raises(ValueError, match="no discrepancy"):
            make_record(verdicts=verdicts)


@pytest.mark.parametrize(
    "verdicts",
    [
        ("x", 1, 1, 1, 1, 1),  # not a number
        (1, -4.0, -4, 1, 1, 1),  # a float equal to a code
        (True, -4, -4, 1, 1, 1),  # a bool equal to VALID
        (1, -99, -4, 1, 1, 1),  # an int that is no verdict code
    ],
)
def test_record_rejects_verdicts_that_are_not_codes(verdicts):
    with pytest.raises(ValueError, match="verdict codes"):
        make_record(verdicts=verdicts)


@pytest.mark.parametrize("backend_ids", [BACKENDS[:5], BACKENDS + ("g",), ("a", "b", "c", "d", "e", 6)])
def test_record_needs_one_backend_id_string_per_verdict(backend_ids):
    with pytest.raises(ValueError, match="backend ids"):
        dataclasses.replace(make_record(), backend_ids=backend_ids)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed_id", 5),
        ("trace", ["3"]),
        ("trace", [True]),
        ("trace", [3.0]),
        ("mutant_der", "MAA="),
        ("timestamp", 5),
        ("timestamp", "yesterday"),
        ("rng_seed", "x"),
        ("rng_seed", False),
    ],
)
def test_record_fields_of_the_wrong_type_are_refused(tmp_path, field, value):
    # a string seed id, int actions, bytes DER, an ISO 8601 timestamp and an
    # int rng seed; a database record of another type is corruption
    with pytest.raises(ValueError):
        dataclasses.replace(make_record(), **{field: tuple(value) if field == "trace" else value})
    if field == "mutant_der":
        return  # the file holds the DER as base64 text, decoded to bytes
    doc = json.loads(make_record().to_json())
    payload = json.dumps({**doc, field: value})
    path = tmp_path / "found.db"
    path.write_text(f"{len(payload)}\t{payload}\n")
    with pytest.raises(corpus_mod.CorruptDatabase, match="^record 1: ValueError: "):
        DiscrepancyDb(path).load_all()


def test_db_detects_corruption(tmp_path):
    db = DiscrepancyDb(tmp_path / "found.db")
    db.append(make_record())
    blob = db.path.read_text()
    db.path.write_text("9999\t" + blob.split("\t", 1)[1])
    with pytest.raises(corpus_mod.CorruptDatabase):
        db.load_all()
    with pytest.raises(corpus_mod.CorruptDatabase):
        DiscrepancyDb(db.path).load_all()  # opening drops only an unterminated tail


@pytest.mark.parametrize("mangle", ["not-json", "empty-object", "bad-trace"])
def test_db_bad_payload_is_corruption(tmp_path, mangle):
    # a correctly framed record whose payload is not a record
    db = DiscrepancyDb(tmp_path / "found.db")
    db.append(make_record())
    doc = json.loads(db.path.read_text().split("\t", 1)[1])
    payload = {"not-json": "abcde", "empty-object": "{}", "bad-trace": json.dumps({**doc, "trace": [99]})}[mangle]
    db.path.write_text(db.path.read_text() + f"{len(payload)}\t{payload}\n")
    with pytest.raises(corpus_mod.CorruptDatabase, match="^record 2: "):
        db.load_all()


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"mutant_b64": "MA*A="}, "mutant_b64: 'MA\\*A=' is not base64"),  # a loose decoder drops the '*'
        ({"mutant_b64": "MA A="}, "mutant_b64: 'MA A=' is not base64"),
        ({"mutant_b64": "MAA"}, "mutant_b64: 'MAA' is not base64"),
        ({"mutant_b64": "MAÀ="}, "mutant_b64: 'MAÀ=' is not base64"),
        ({"mutant_b64": 5}, "mutant_b64: 5 is not base64"),
        ({"seed": "s"}, r"record has unknown keys \['seed'\]"),
        ({"verdict": [1, -4]}, r"record has unknown keys \['verdict'\]"),
        ({"backend_ids": "abcdef"}, "backend_ids: expected a list, got 'abcdef'"),  # six ids for six verdicts
        ({"trace": "3"}, "trace: expected a list, got '3'"),
        ('"seed_id": "b"', "repeated key 'seed_id'"),  # appended raw: read as its last value, the seed would be `b`
    ],
    ids=["star", "space", "padding", "non-ascii", "int", "unknown-key", "misspelt-key", "string-ids", "string-trace", "repeated-key"],
)
def test_db_reads_records_strictly(tmp_path, change, reason):
    # the database is read as strictly as backend and trust files: no
    # misspelt key, no repeated key, no character outside the base64
    # alphabet and no string in place of a list passes
    doc = json.loads(make_record().to_json())
    payload = json.dumps(doc)[:-1] + f", {change}}}" if isinstance(change, str) else json.dumps({**doc, **change})
    path = tmp_path / "found.db"
    path.write_text(f"{len(payload)}\t{payload}\n")
    with pytest.raises(corpus_mod.CorruptDatabase, match=f"^record 1: ValueError: {reason}"):
        DiscrepancyDb(path).load_all()


def test_db_missing_file_is_empty(tmp_path):
    assert DiscrepancyDb(tmp_path / "nothing.db").load_all() == []


def test_replay_record_round_trip(tmp_path):
    from diffcert.actions import apply
    from diffcert.certs import REFERENCE_TIME

    corpus = generate_corpus(10, rng_seed=3)
    entry = corpus.entries[0]
    from diffcert.certs import parse_der

    seed = parse_der(entry.der)
    mutant = apply(apply(seed, 3, now=REFERENCE_TIME), 4, now=REFERENCE_TIME)
    rec = make_record(seed_id=entry.seed_id, trace=(3, 4), payload=encode_der(mutant))
    rebuilt = replay_record(corpus, rec)
    assert encode_der(rebuilt) == rec.mutant_der


def test_replay_record_unknown_seed():
    corpus = generate_corpus(5, rng_seed=3)
    with pytest.raises(UnknownSeed):
        replay_record(corpus, make_record(seed_id="ghost"))


def test_report_grouping():
    recs = [
        make_record(seed_id="a", verdicts=(1, -4, -4, 1, 1, 1)),
        make_record(seed_id="b", verdicts=(1, -4, -4, 1, 1, 1)),
        make_record(seed_id="c", trace=(), verdicts=(1, -2, -2, -2, -2, -2)),
    ]
    rep = report(recs, corpus_size=10)
    assert rep.backend_ids == BACKENDS  # the header is the records' own
    assert rep.total_records == 3
    assert rep.vector_counts[0] == ((1, -4, -4, 1, 1, 1), 2)
    assert rep.proportion == pytest.approx(0.3)
    assert dict(rep.modification_histogram) == {0: 1, 1: 2}
    text = rep.to_text()
    assert "corpus size 10" in text
    assert "proportion 30.0%" in text


def test_report_counts_sum():
    recs = [make_record(seed_id=f"s{i}", verdicts=(1, -4 - (i % 3), -4, 1, 1, 1)) for i in range(9)]
    rep = report(recs)
    assert sum(count for _, count in rep.vector_counts) == rep.total_records == 9
    assert sum(count for _, count in rep.modification_histogram) == 9
    with pytest.raises(TypeError):  # corpus_size is keyword-only, so a stale header argument fails
        report(recs, BACKENDS)


def test_report_refuses_records_from_another_panel():
    recs = [make_record(seed_id="a"), make_record(seed_id="b")]
    swapped = dataclasses.replace(make_record(seed_id="c"), backend_ids=BACKENDS[::-1])
    with pytest.raises(corpus_mod.CorruptDatabase) as refused:
        report(recs + [swapped])
    assert str(refused.value) == f"record 3 names backends {list(BACKENDS[::-1])}, record 1 names {list(BACKENDS)}"
    assert report(recs).backend_ids == BACKENDS


def test_report_empty():
    rep = report([], corpus_size=5)
    assert rep.backend_ids == () and rep.total_records == 0
    assert rep.proportion == 0.0
    assert "no discrepancies" in rep.to_text()
    assert rep.to_json_lines().startswith("{")


def test_db_recovers_torn_tail(tmp_path, caplog):
    path = tmp_path / "found.db"
    db = DiscrepancyDb(path)
    recs = [make_record(seed_id=f"s{i}") for i in range(3)]
    for rec in recs:
        db.append(rec)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size - 20)  # a crash mid-way through the third append
    with caplog.at_level("WARNING", logger="diffcert.corpus"):
        db = DiscrepancyDb(path)
    assert db.load_all() == recs[:2]
    assert f"dropped {size // 3 - 20} bytes" in caplog.text  # the three lines are equally long
    db.append(recs[2])
    assert DiscrepancyDb(path).load_all() == recs


def _write_checkpoint(path):
    qnet.save(qnet.init(0), path)


def _write_stats(path):
    cli._write_stats(path, CampaignStats())


def _write_report(path):
    assert cli.main(["report", str(path.with_name("empty.db")), "--json", str(path), "--quiet"]) == 0


@pytest.mark.parametrize("write", [_write_checkpoint, _write_stats, _write_report], ids=["checkpoint", "stats", "report-json"])
def test_output_written_atomically(tmp_path, monkeypatch, write):
    # a write that fails partway leaves the earlier file's bytes and no
    # temporary file; a whole write replaces the file
    target = tmp_path / "out"
    target.write_bytes(b"earlier")
    (tmp_path / "empty.db").touch()
    real_open = open

    class Torn:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.handle.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    def torn_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return Torn(handle) if "w" in mode else handle

    monkeypatch.setattr(corpus_mod, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="no space left"):
        write(target)
    assert target.read_bytes() == b"earlier"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["empty.db", "out"]
    monkeypatch.undo()
    write(target)
    assert target.read_bytes() != b"earlier"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["empty.db", "out"]
