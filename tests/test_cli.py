"""CLI tests exercising every subcommand in-process via main(), plus
`train` as a child process killed mid-run."""

import datetime as dt
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import diffcert
from diffcert import cli, qnet
from diffcert.certs import REFERENCE_TIME, encode_der
from diffcert.corpus import DiscrepancyDb, load_corpus_dir, read_certificate, replay_record
from diffcert.verdicts import SHIPPED_PROFILES, bind_backends, default_backend_specs, verify_all


def run_cli(*argv):
    return cli.main([*argv, "--quiet"])


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert run_cli("gen", "30", "--seed", "3", "--out", str(out)) == 0
    return out


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen", "25", "--seed", "9", "--out", str(a)) == 0
    assert run_cli("gen", "25", "--seed", "9", "--out", str(b)) == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_zero_fails(tmp_path):
    assert run_cli("gen", "0", "--out", str(tmp_path / "x")) == 1


def test_ingest(tmp_path, corpus_dir):
    out = tmp_path / "ingested"
    assert run_cli("ingest", str(corpus_dir), "--out", str(out)) == 0
    names = sorted(path.name for path in out.iterdir())
    assert len(names) == 31 and names[-1] == "trust.json"
    assert all(name.endswith(".pem") for name in names[:-1])


def test_ingest_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("ingest", str(empty), "--out", str(tmp_path / "o")) == 1


def test_train_fuzz_baseline_report(tmp_path, corpus_dir, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("train", str(corpus_dir), "--episodes", "1", "--seed", "3", "--out", str(run_dir)) == 0
    out = capsys.readouterr().out
    assert "episode 1:" in out and "proportion" in out
    assert (run_dir / "qnet.ckpt").exists()
    assert (run_dir / "discrepancies.db").exists()
    stats = json.loads((run_dir / "stats.json").read_text())
    assert stats["seeds_processed"] == 30
    assert stats["updates"] > 0 and math.isfinite(stats["final_loss"])
    booked = Counter(",".join(map(str, rec.verdicts)) for rec in DiscrepancyDb(run_dir / "discrepancies.db").load_all())
    assert stats["type_counts"] == dict(booked) and sum(booked.values()) == stats["discrepancies"] > 0

    fuzz_dir = tmp_path / "fuzz"
    assert run_cli("fuzz", str(corpus_dir), str(run_dir / "qnet.ckpt"), "--out", str(fuzz_dir)) == 0
    fuzz_out = capsys.readouterr().out
    assert "yield" in fuzz_out

    base_dir = tmp_path / "base"
    assert run_cli("baseline", str(corpus_dir), "--seed", "3", "--out", str(base_dir)) == 0
    base_out = capsys.readouterr().out
    assert "episode 1:" in base_out  # same summary schema as train

    assert run_cli("report", str(run_dir / "discrepancies.db"), "--corpus-size", "30") == 0
    report_out = capsys.readouterr().out
    assert "corpus size 30" in report_out


def test_fuzz_deterministic(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    assert run_cli("train", str(corpus_dir), "--episodes", "1", "--seed", "3", "--out", str(run_dir)) == 0
    a, b = tmp_path / "fa", tmp_path / "fb"
    assert run_cli("fuzz", str(corpus_dir), str(run_dir / "qnet.ckpt"), "--out", str(a)) == 0
    assert run_cli("fuzz", str(corpus_dir), str(run_dir / "qnet.ckpt"), "--out", str(b)) == 0
    assert (a / "fuzz.db").read_bytes() == (b / "fuzz.db").read_bytes()


def test_fuzz_missing_checkpoint(tmp_path, corpus_dir):
    assert run_cli("fuzz", str(corpus_dir), str(tmp_path / "no.ckpt"), "--out", str(tmp_path / "f")) == 1
    assert not (tmp_path / "f").exists()  # the checkpoint is read before --out is made


# SHA-256 over everything gen, train, fuzz and baseline print and write in
# test_campaign_outputs_are_pinned; a refactor of the CLI keeps it as is
CLI_OUTPUT_DIGEST = "5e12ed539e6e6a1782fb7523d05edaba9e4929bd24a3f7acc677f409a3126ac9"


def test_campaign_outputs_are_pinned(tmp_path, capsys):
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    commands = [
        ("gen", "30", "--seed", "3", "--out", str(corpus)),
        ("train", str(corpus), "--episodes", "2", "--seed", "5", "--out", str(run)),
        ("fuzz", str(corpus), str(run / "qnet.ckpt"), "--seed", "7", "--out", str(tmp_path / "fuzz")),
        ("baseline", str(corpus), "--seed", "9", "--out", str(tmp_path / "base")),
    ]
    digest = hashlib.sha256()
    for argv in commands:
        assert run_cli(*argv) == 0
        digest.update(capsys.readouterr().out.replace(str(tmp_path), "<tmp>").encode())
    written = sorted(path for path in tmp_path.rglob("*") if path.is_file())
    assert {path.name for path in written} >= {
        "qnet.ckpt", "discrepancies.db", "fuzz.db", "baseline.db", "stats.json", "fuzz-stats.json", "baseline-stats.json"
    }
    for path in written:
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    assert digest.hexdigest() == CLI_OUTPUT_DIGEST


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_killed_train_leaves_whole_outputs(tmp_path):
    # `train` killed at seeded delays after its start-up line, one child
    # at a time: the database loads and every record replays and
    # re-verifies to what it booked; the checkpoint and the stats file are
    # absent or whole
    corpus_path = tmp_path / "corpus"
    assert run_cli("gen", "40", "--seed", "1", "--out", str(corpus_path)) == 0
    corpus = load_corpus_dir(corpus_path)
    backends = tuple(bind_backends(default_backend_specs(), corpus.trust))
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(diffcert.__file__).parents[1]), env.get("PYTHONPATH")]))
    rng = random.Random(8)
    exits = []
    for kill in range(4):
        out = tmp_path / f"run-{kill}"
        argv = [sys.executable, "-m", "diffcert.cli", "train", str(corpus_path), "--episodes", "4", "--seed", "3", "--out", str(out)]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as child:
            assert child.stdout.readline().startswith(b"# config:")  # the campaign starts next
            time.sleep(rng.uniform(0.0, 0.6))
            child.kill()
            exits.append(child.wait())
        records = DiscrepancyDb(out / "discrepancies.db").load_all()
        for rec in records:
            assert encode_der(replay_record(corpus, rec)) == rec.mutant_der
            assert verify_all(rec.mutant_der, backends, dt.datetime.fromisoformat(rec.timestamp)).codes == rec.verdicts
        if (out / "qnet.ckpt").exists():
            qnet.load(out / "qnet.ckpt")
        if (out / "stats.json").exists():
            assert json.loads((out / "stats.json").read_text())["discrepancies"] == len(records)
    assert -signal.SIGKILL in exits  # at least one kill landed mid-run


def test_train_missing_corpus(tmp_path):
    assert run_cli("train", str(tmp_path / "nope"), "--out", str(tmp_path / "r")) == 1


def test_verify_exit_codes(tmp_path, corpus_dir, capsys):
    trust = corpus_dir / "trust.json"
    expired = next(p for p in sorted(corpus_dir.iterdir()) if "expired" in p.name)
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    assert run_cli("verify", str(expired), "--trust", str(trust)) == 10
    out = capsys.readouterr().out
    assert "matrixssl-like" in out and "Valid" in out and "Validity period error" in out
    assert run_cli("verify", str(issued), "--trust", str(trust)) == 0
    assert run_cli("verify", str(tmp_path / "missing.pem")) == 1


def test_verify_prints_one_line_per_backend(corpus_dir, capsys):
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    run_cli("verify", str(issued), "--trust", str(corpus_dir / "trust.json"))
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 6


def test_verify_unparseable_cert_prints_parse_codes(tmp_path, capsys):
    # a readable file with malformed DER: per-backend parse codes, and
    # since nobody accepts, no discrepancy sentinel
    bad = tmp_path / "garbage.der"
    bad.write_bytes(b"\xde\xad\xbe\xef")
    assert run_cli("verify", str(bad)) == 0
    out = capsys.readouterr().out
    assert "Parsing error" in out
    assert "Other error" in out  # the parse-lenient caricatures report -15


def test_verify_now_flag_moves_the_clock(tmp_path, corpus_dir, capsys):
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "-issued" in p.name)
    trust = str(corpus_dir / "trust.json")
    assert run_cli("verify", str(issued), "--trust", trust) == 0
    capsys.readouterr()
    # ten years on, everything is expired: uniform rejection, no discrepancy
    assert run_cli("verify", str(issued), "--trust", trust, "--now", "2035-06-01T00:00:00+00:00") == 0
    out = capsys.readouterr().out
    assert out.count("Validity period error") == 6
    # a clock without a timezone is read as UTC
    assert run_cli("verify", str(issued), "--trust", trust, "--now", "2035-06-01T00:00:00") == 0
    assert capsys.readouterr().out == out
    # an eight-hour local-time offset takes this clock past year 9999
    assert run_cli("verify", str(issued), "--trust", trust, "--now", "9999-12-31T20:00:00") == 0
    assert capsys.readouterr().out == out


def test_catalog_prints_86_rows(capsys):
    assert run_cli("catalog") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 86
    assert lines[0].startswith("  0")


def test_report_empty_db(tmp_path, capsys):
    empty = tmp_path / "empty.db"
    empty.touch()
    assert run_cli("report", str(empty)) == 0
    assert "no discrepancies" in capsys.readouterr().out


def test_report_groups_match_loaded_records(tmp_path, corpus_dir, capsys):
    run_dir = tmp_path / "run"
    run_cli("train", str(corpus_dir), "--episodes", "1", "--seed", "3", "--out", str(run_dir))
    capsys.readouterr()
    from diffcert.corpus import DiscrepancyDb

    records = DiscrepancyDb(run_dir / "discrepancies.db").load_all()
    assert run_cli("report", str(run_dir / "discrepancies.db")) == 0
    out = capsys.readouterr().out
    assert f"discrepancies {len(records)}" in out


def test_report_json_stream(tmp_path, corpus_dir, capsys):
    run_dir = tmp_path / "run"
    run_cli("train", str(corpus_dir), "--episodes", "1", "--seed", "3", "--out", str(run_dir))
    capsys.readouterr()
    json_path = tmp_path / "report.jsonl"
    assert run_cli("report", str(run_dir / "discrepancies.db"), "--json", str(json_path)) == 0
    lines = [json.loads(line) for line in json_path.read_text().splitlines()]
    assert lines[0]["kind"] == "summary"
    vector_total = sum(entry["count"] for entry in lines if entry["kind"] == "vector")
    assert vector_total == lines[0]["records"]


def test_report_never_writes_the_database(tmp_path, corpus_dir, capsys):
    # a torn final record, the trace of a crash mid-append, is left in the
    # file: the report skips it and counts the intact records
    run_dir = tmp_path / "run"
    assert run_cli("baseline", str(corpus_dir), "--seed", "3", "--out", str(run_dir)) == 0
    db_path = run_dir / "baseline.db"
    records = DiscrepancyDb(db_path).load_all()
    assert len(records) > 1
    db_path.write_bytes(db_path.read_bytes()[:-19])
    torn = db_path.read_bytes()
    capsys.readouterr()
    assert run_cli("report", str(db_path)) == 0
    assert f"discrepancies {len(records) - 1}" in capsys.readouterr().out
    assert db_path.read_bytes() == torn


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["catalog", "--frobnicate"])
    assert exc.value.code == 2


def test_config_file_precedence(tmp_path, corpus_dir, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": 42, "episodes": 1}))
    out_dir = tmp_path / "ccc"
    # flag --seed overrides the config file value
    assert cli.main(["gen", "5", "--config", str(config), "--seed", "7", "--out", str(out_dir)]) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert '"seed": 7' in echo
    assert echo.startswith("# config:")


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"sneed": 1}))
    assert cli.main(["catalog", "--config", str(config), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: config: top level has unknown keys ['sneed']"]


@pytest.mark.parametrize(
    "settings, problem",
    [
        ({"seed": "abc"}, "seed must be int"),
        ({"episodes": "2"}, "episodes must be int"),
        ({"episodes": True}, "episodes must be int"),
        ({"out": 3}, "out must be str"),
        ({"backends": ["a", "b"]}, "backends must be str"),
        ([], "top level must be a JSON object"),
        ('{"seed": 1, "seed": 2}', "repeated key 'seed'"),  # not read as its last value
    ],
)
def test_config_file_bad_value_is_a_clean_error(tmp_path, corpus_dir, capsys, settings, problem):
    config = tmp_path / "conf.json"
    config.write_text(settings if isinstance(settings, str) else json.dumps(settings))
    assert run_cli("baseline", str(corpus_dir), "--config", str(config), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {problem}")


def test_episodes_below_one_is_a_clean_error(tmp_path, corpus_dir, capsys):
    for episodes in ("0", "-3"):
        capsys.readouterr()
        assert run_cli("baseline", str(corpus_dir), "--episodes", episodes, "--out", str(tmp_path / "o")) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: config: max_episode must be at least 1, got {episodes}"]
        assert "total:" not in captured.out


def test_failed_campaign_set_up_makes_no_out_directory(tmp_path, corpus_dir, capsys):
    # the backends load, the campaign's config builds and the panel stands
    # before --out is made
    missing = str(tmp_path / "missing.json")
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"format": "diffcert-backends", "version": 1, "backends": [_SIMULATED]}))
    for command, *flags in (
        ("train", "--episodes", "0"),
        ("train", "--backends", missing),
        ("baseline", "--episodes", "0"),
        ("baseline", "--backends", str(one)),
    ):
        capsys.readouterr()
        assert run_cli(command, str(corpus_dir), *flags, "--out", str(tmp_path / "o")) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "o").exists(), (command, *flags)


def test_second_campaign_into_one_database_is_refused(tmp_path, capsys):
    # a fresh campaign never appends to another one's records: it stops
    # with one error line before it runs and leaves the database as it was
    corpus, run = tmp_path / "c", tmp_path / "o"
    assert run_cli("gen", "40", "--seed", "1", "--out", str(corpus)) == 0
    assert run_cli("train", str(corpus), "--out", str(run)) == 0
    assert run_cli("fuzz", str(corpus), str(run / "qnet.ckpt"), "--out", str(run)) == 0
    capsys.readouterr()
    assert run_cli("baseline", str(corpus), "--out", str(run)) == 0
    assert "total: seeds 40  discrepancies 17" in capsys.readouterr().out
    databases = {name: (run / name).read_bytes() for name in ("discrepancies.db", "fuzz.db", "baseline.db")}
    assert all(databases.values())
    for argv, name in (
        (["train", str(corpus)], "discrepancies.db"),
        (["fuzz", str(corpus), str(run / "qnet.ckpt")], "fuzz.db"),
        (["baseline", str(corpus)], "baseline.db"),
    ):
        assert run_cli(*argv, "--out", str(run)) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: out: {run / name} already holds records; give another --out"]
        assert "total:" not in captured.out
    assert {name: (run / name).read_bytes() for name in databases} == databases
    assert run_cli("report", str(run / "baseline.db")) == 0
    assert "discrepancies 17" in capsys.readouterr().out


def test_two_files_of_one_seed_id_are_a_clean_error(tmp_path, corpus_dir, capsys):
    # `a.der` and `a.pem` would both be seed `a`, and a record booked from
    # one would replay from the other
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    pem = next(p for p in sorted(corpus_dir.iterdir()) if p.suffix == ".pem")
    (seeds / "a.pem").write_text(pem.read_text())
    (seeds / "a.der").write_bytes(read_certificate(pem))
    for argv in (["ingest", str(seeds)], ["baseline", str(seeds)]):
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.splitlines() == ["error: corpus: seed id 'a' appears twice"]


def test_bad_trust_file_and_clock_are_clean_errors(tmp_path, corpus_dir, capsys):
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    # read as its last value, a repeated "anchors" would load no anchor
    repeated = (corpus_dir / "trust.json").read_text().rstrip()[:-1] + ', "anchors": []}'
    texts = ("[]", '{"format": "diffcert-trust", "version": 1}', '{"format": "diffcert-trust", "version": true, "anchors": []}', repeated)
    for text in texts:
        (tmp_path / "trust.json").write_text(text)
        for argv in (["verify", str(issued)], ["baseline", str(corpus_dir), "--out", str(tmp_path / "o")]):
            capsys.readouterr()
            assert run_cli(*argv, "--trust", str(tmp_path / "trust.json")) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: trust: ")
            assert text != repeated or err == ["error: trust: repeated key 'anchors'"]
    assert run_cli("verify", str(issued), "--now", "garbage") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: now: ")


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("is_root", "false", "trust anchor is_root: expected bool, got 'false'"),
        ("is_root", 0, "trust anchor is_root: expected bool, got 0"),
        ("version", "1", "trust anchor version: expected int, got '1'"),
        ("version", True, "trust anchor version: expected int, got True"),
        ("tag", 5, "trust anchor tag: expected str, got 5"),
        # decoded strictly: "!!!!" would otherwise load as an empty name
        ("name_b64", "QUJ", "trust anchor name_b64: 'QUJ' is not base64 (Incorrect padding)"),
        ("name_b64", "!!!!", "trust anchor name_b64: '!!!!' is not base64 (Only base64 data is allowed)"),
    ],
    ids=["root-string", "root-int", "version-string", "version-bool", "tag-int", "name-padding", "name-not-base64"],
)
def test_bad_trust_anchor_field_is_a_clean_error(tmp_path, corpus_dir, capsys, field, value, problem):
    # a mistyped anchor field is refused, not coerced: "false" would make
    # a v1 intermediate a root, and "1" would read as version 1
    doc = json.loads((corpus_dir / "trust.json").read_text())
    doc["anchors"][0][field] = value
    (tmp_path / "trust.json").write_text(json.dumps(doc))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    assert run_cli("verify", str(issued), "--trust", str(tmp_path / "trust.json")) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: trust: {problem}"]


def test_report_bad_record_is_a_clean_error(tmp_path, capsys):
    record = {"seed_id": "s", "trace": [3], "mutant_b64": "MAA=", "timestamp": "2025-06-01T00:00:00+00:00", "rng_seed": 0}
    payloads = [
        "{}",
        json.dumps({**record, "verdicts": ["x", 1], "backend_ids": ["a", "b"]}),  # a verdict that is no code
        json.dumps({**record, "verdicts": [1, -4], "backend_ids": ["a"]}),  # one backend id for two verdicts
        json.dumps({**record, "verdicts": [1, -4], "backend_ids": ["a", "b"], "mutant_b64": "MA*A="}),  # not base64
        json.dumps({**record, "verdicts": [1, -4], "backend_ids": ["a", "b"], "seed": "s"}),  # an unknown key
        json.dumps({**record, "verdicts": [1, -4], "backend_ids": ["a", "b"]})[:-1] + ', "seed_id": "b"}',  # a repeated key
    ]
    for payload in payloads:
        db = tmp_path / "bad.db"
        db.write_text(f"{len(payload)}\t{payload}\n")
        assert run_cli("report", str(db)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: report: record 1: ")


def test_report_of_records_from_two_panels_is_a_clean_error(tmp_path, capsys):
    # one header per report: records that name other backends than the
    # first one's would print under the wrong columns
    record = {"seed_id": "s", "trace": [3], "mutant_b64": "MAA=", "timestamp": "2025-06-01T00:00:00+00:00", "rng_seed": 0}
    lines = []
    for backend_ids in (["a", "b"], ["a", "b"], ["b", "a"]):
        payload = json.dumps({**record, "verdicts": [1, -4], "backend_ids": backend_ids})
        lines.append(f"{len(payload)}\t{payload}\n")
    db = tmp_path / "mixed.db"
    db.write_text("".join(lines))
    assert run_cli("report", str(db)) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: report: record 3 names backends ['b', 'a'], record 1 names ['a', 'b']"]
    assert "discrepancies" not in captured.out
    db.write_text("".join(lines[:2]))
    assert run_cli("report", str(db)) == 0


def test_report_corpus_size_below_one_is_a_clean_error(tmp_path, capsys):
    empty = tmp_path / "empty.db"
    empty.touch()
    for size in ("-5", "0"):
        assert run_cli("report", str(empty), "--corpus-size", size) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: report: --corpus-size must be at least 1, got {size}"]
        assert "proportion" not in captured.out
    assert run_cli("report", str(empty), "--corpus-size", "1") == 0


def test_report_missing_database_is_a_clean_error(tmp_path, capsys):
    # a mistyped path must not read as a clean run
    for path in (tmp_path / "typo.db", tmp_path):
        assert run_cli("report", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: report: no database at {path}"]
        assert "no discrepancies" not in captured.out


def test_backends_config_file(tmp_path, corpus_dir, capsys):
    backends = {
        "format": "diffcert-backends",
        "version": 1,
        "backends": [
            {"id": "strict-a", "kind": "simulated", "profile": {}},
            {"id": "gnutls-twin", "kind": "simulated", "profile": "gnutls-like"},
            # a clock some three million years ahead: past year 9999, but whole seconds
            {"id": "far-clock", "kind": "simulated", "profile": {"local_time_offset_seconds": 100000000000000}},
        ],
    }
    path = tmp_path / "backends.json"
    path.write_text(json.dumps(backends))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    code = run_cli("verify", str(issued), "--trust", str(corpus_dir / "trust.json"), "--backends", str(path))
    out = capsys.readouterr().out
    assert "strict-a" in out and "gnutls-twin" in out
    assert re.search(r"far-clock +-2  Validity period error", out)
    assert code in (0, 10)
    assert run_cli("baseline", str(corpus_dir), "--backends", str(path), "--out", str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "baseline-stats.json").is_file()


def test_verify_now_reaches_external_commands(tmp_path, corpus_dir):
    # `verify --now` is the clock an external command's `{now}` receives
    log = tmp_path / "clocks"
    echo = "import sys; open(sys.argv[1], 'a').write(sys.argv[2] + '\\n')"
    backends = {
        "format": "diffcert-backends",
        "version": 1,
        "backends": [
            {"id": "strict-a", "kind": "simulated"},
            {"id": "echo", "kind": "external", "command": [sys.executable, "-c", echo, str(log), "{now}"], "patterns": [{"code": -15}]},
        ],
    }
    path = tmp_path / "backends.json"
    path.write_text(json.dumps(backends))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    trust = str(corpus_dir / "trust.json")
    for now in ("2030-01-02T03:04:05+00:00", "2030-01-02T03:04:05"):  # no timezone reads as UTC
        assert run_cli("verify", str(issued), "--trust", trust, "--backends", str(path), "--now", now) in (0, 10)
    assert run_cli("verify", str(issued), "--trust", trust, "--backends", str(path)) in (0, 10)
    given = int(dt.datetime(2030, 1, 2, 3, 4, 5, tzinfo=dt.timezone.utc).timestamp())
    assert log.read_text().splitlines() == [str(given), str(given), str(int(REFERENCE_TIME.timestamp()))]


_SIMULATED = {"id": "strict-a", "kind": "simulated"}


@pytest.mark.parametrize(
    "content",
    [
        None,  # no file
        "{not json",
        {"format": "diffcert-backends", "version": 1, "backends": [{"kind": "simulated"}, _SIMULATED]},
        {"format": "diffcert-backends", "version": 1, "backends": [{"id": "b", "kind": "simulatd"}, _SIMULATED]},
        {
            "format": "diffcert-backends",
            "version": 1,
            "backends": [{"id": "b", "kind": "simulated", "profile": "gnutls-lik"}, _SIMULATED],
        },
        {"format": "diffcert-backends", "version": True, "backends": [{"id": "b", "kind": "simulated"}, _SIMULATED]},
        {"format": "diffcert-backends", "version": 1, "backends": [_SIMULATED, {**_SIMULATED, "profile": "gnutls-like"}]},
        # records and `verify` print the id, which a lone surrogate cannot be encoded in
        {"format": "diffcert-backends", "version": 1, "backends": [{"id": "a\ud800", "kind": "simulated"}, _SIMULATED]},
        # read as its last value, the entry would be one backend `b`
        '{"format": "diffcert-backends", "version": 1, "backends": [{"id": "a", "id": "b", "kind": "simulated"}, {"id": "c", "kind": "simulated"}]}',
    ],
    ids=[
        "missing-file", "bad-json", "missing-key", "unknown-kind", "unknown-profile", "version-bool", "repeated-id", "surrogate-id",
        "repeated-key",
    ],
)
def test_bad_backends_file_is_a_clean_error(tmp_path, corpus_dir, capsys, content):
    path = tmp_path / "backends.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    capsys.readouterr()
    code = run_cli("verify", str(issued), "--trust", str(corpus_dir / "trust.json"), "--backends", str(path))
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: backends: ")
    if isinstance(content, dict) and "profile" in content["backends"][0]:
        assert err[0].startswith("error: backends: ValueError: \"profile\": unknown shipped profile 'gnutls-lik'")
        assert all(name in err[0] for name in SHIPPED_PROFILES)
    if isinstance(content, dict) and content["backends"][0] == _SIMULATED:
        # records and reports key their columns by backend id
        assert err == ["error: backends: ValueError: backend id 'strict-a' appears twice"]
    if isinstance(content, dict) and content["backends"][0].get("id") == "a\ud800":
        assert err == ["error: backends: ValueError: backend id: 'a\\ud800' is not UTF-8 text"]
    if isinstance(content, str) and '"id": "a", "id"' in content:
        assert err == ["error: backends: ValueError: repeated key 'id'"]


_EXTERNAL = {"id": "ext", "kind": "external", "command": ["true", "{cert}"], "patterns": [{"code": -15}]}


@pytest.mark.parametrize(
    "entry, problem",
    [
        ({"id": "b", "kind": "simulated", "profle": "gnutls-like"}, "simulated backend has unknown keys ['profle']"),
        ({"id": "b", "kind": "simulated", "profile": {"accept_v5": True}}, "profile has unknown keys ['accept_v5']"),
        # read as a match-everything rule, it would book every rejection as a discrepancy
        ({**_EXTERNAL, "patterns": [{"code": 1, "mach": "OK"}, {"code": -15}]}, "pattern has unknown keys ['mach']"),
        ({**_EXTERNAL, "timout": 0.5}, "external backend has unknown keys ['timout']"),
        ({"id": "b", "kind": "simulated", "profile": []}, "profile must be a JSON object, got []"),
        ({**_EXTERNAL, "patterns": [{"match": "OK"}, {"code": -15}]}, "pattern is missing keys ['code']"),
    ],
    ids=["entry-key", "profile-key", "pattern-key", "external-key", "profile-list", "pattern-no-code"],
)
def test_misspelt_backend_key_is_a_clean_error(tmp_path, corpus_dir, capsys, entry, problem):
    # a misspelt key is refused when the file loads, not read as its default
    path = tmp_path / "backends.json"
    path.write_text(json.dumps({"format": "diffcert-backends", "version": 1, "backends": [_SIMULATED, entry]}))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    assert run_cli("verify", str(issued), "--backends", str(path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: backends: ValueError: {problem}"]


def test_misspelt_trust_anchor_key_is_a_clean_error(tmp_path, corpus_dir, capsys):
    # read as its defaults, the anchor would be a version-3 root
    doc = json.loads((corpus_dir / "trust.json").read_text())
    doc["anchors"][0] = {"name_b64": doc["anchors"][0]["name_b64"], "tag": "t", "verison": 1, "is_rot": False}
    (tmp_path / "trust.json").write_text(json.dumps(doc))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    assert run_cli("verify", str(issued), "--trust", str(tmp_path / "trust.json")) == 1
    assert capsys.readouterr().err.splitlines() == ["error: trust: trust anchor has unknown keys ['is_rot', 'verison']"]


@pytest.mark.parametrize(
    "profile, problem",
    [
        ({"time_linger_seconds": "abc"}, "profile time_linger_seconds: expected int, got 'abc'"),
        ({"parse_error_code": 99}, "profile parse_error_code: 99 is not a failure code in SEVERITY_ORDER"),
        # codes that `judge` cannot rank beside the other failures
        ({"parse_error_code": 1, "ext_value_error_as_parse": True}, "profile parse_error_code: 1 is not a failure code in SEVERITY_ORDER"),
        ({"parse_error_code": -13}, "profile parse_error_code: -13 is not a failure code in SEVERITY_ORDER"),
        ({"accept_v4": "no"}, "profile accept_v4: expected bool, got 'no'"),
        ({"accept_v4": 1}, "profile accept_v4: expected bool, got 1"),
        ({"local_time_offset_seconds": 3600.0}, "profile local_time_offset_seconds: expected int, got 3600.0"),
    ],
    ids=["linger-string", "unknown-parse-code", "valid-parse-code", "connection-parse-code", "switch-string", "switch-int", "offset-float"],
)
def test_bad_profile_value_is_a_clean_error(tmp_path, corpus_dir, capsys, profile, problem):
    # a mistyped setting is refused when the file loads, not met later as
    # a traceback, a KeyError or a switch that a non-empty string turns on
    bad = {"id": "b", "kind": "simulated", "profile": profile}
    path = tmp_path / "backends.json"
    path.write_text(json.dumps({"format": "diffcert-backends", "version": 1, "backends": [bad, _SIMULATED]}))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    capsys.readouterr()
    assert run_cli("verify", str(issued), "--trust", str(corpus_dir / "trust.json"), "--backends", str(path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: backends: ValueError: {problem}"]


def test_unknown_command_placeholder_is_a_clean_error(tmp_path, corpus_dir, capsys):
    # caught when the file loads, not as a KeyError in the first verification
    external = {"id": "ext", "kind": "external", "command": ["true", "{cert}", "{certfile}"], "patterns": [{"code": -15}]}
    path = tmp_path / "backends.json"
    path.write_text(json.dumps({"format": "diffcert-backends", "version": 1, "backends": [_SIMULATED, external]}))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    for argv in (["verify", str(issued)], ["baseline", str(corpus_dir), "--out", str(tmp_path / "out")]):
        capsys.readouterr()
        assert run_cli(*argv, "--backends", str(path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: backends: ValueError: command argument '{certfile}'")


@pytest.mark.parametrize("regex", ["false", 0, None])
def test_non_bool_pattern_regex_is_a_clean_error(tmp_path, corpus_dir, capsys, regex):
    # "regex": "false" would otherwise turn regex matching on
    patterns = [{"code": 1, "match": "a.c", "regex": regex}, {"code": -15}]
    external = {"id": "ext", "kind": "external", "command": ["true", "{cert}"], "patterns": patterns}
    path = tmp_path / "backends.json"
    path.write_text(json.dumps({"format": "diffcert-backends", "version": 1, "backends": [_SIMULATED, external]}))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    assert run_cli("verify", str(issued), "--backends", str(path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: backends: ValueError: pattern regex: expected bool, got {regex!r}"]


@pytest.mark.parametrize(
    "edit, problem",
    [
        ({"id": 7}, "backend id: expected str, got 7"),
        ({"command": "true"}, "backend command: expected list, got 'true'"),
        ({"patterns": [{"code": 1, "match": 5}, {"code": -15}]}, "pattern match: expected str, got 5"),
        ({"patterns": [{"code": 1, "exit_status": "0"}, {"code": -15}]}, "pattern exit_status: expected int, got '0'"),
        ({"timeout": "10"}, "backend timeout: expected int or float, got '10'"),
        ({"timeout": True}, "backend timeout: expected int or float, got True"),
        ({"trust": 5}, "backend trust: expected str, got 5"),
        ({"command": ["true", 5]}, "backend command argument: expected str, got 5"),
    ],
    ids=["id-int", "command-string", "match-int", "exit-status-string", "timeout-string", "timeout-bool", "trust-int", "argument-int"],
)
def test_mistyped_external_backend_field_is_a_clean_error(tmp_path, corpus_dir, capsys, edit, problem):
    # refused when the file loads, not coerced ("true" into the command
    # t r u e) or met as a traceback in the middle of a campaign
    external = {"id": "ext", "kind": "external", "command": ["true", "{cert}"], "patterns": [{"code": -15}], **edit}
    path = tmp_path / "backends.json"
    path.write_text(json.dumps({"format": "diffcert-backends", "version": 1, "backends": [_SIMULATED, external]}))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    assert run_cli("verify", str(issued), "--backends", str(path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: backends: ValueError: {problem}"]


@pytest.mark.parametrize(
    "edit, problem",
    [
        ({"patterns": [{"code": 1, "match": "(", "regex": True}, {"code": -15}]}, "pattern regex '(': missing ), unterminated subpattern at position 0"),
        ({"timeout": 0}, "backend timeout: must be above 0 and at most 2147483.647 seconds"),
        ({"timeout": float("nan")}, "backend timeout: must be above 0 and at most 2147483.647 seconds"),
        ({"timeout": 10**400}, "backend timeout: must be above 0 and at most 2147483.647 seconds"),
        ({"command": ["true", "a\x00b"]}, "command argument 'a\\x00b' holds a NUL"),
        ({"command": ["true", "{trust}"], "trust": "\ud800"}, "backend trust: '\\ud800' is not UTF-8 text"),
    ],
    ids=["bad-regex", "timeout-zero", "timeout-nan", "timeout-huge", "argument-nul", "trust-surrogate"],
)
def test_unrunnable_external_backend_is_a_clean_error(tmp_path, corpus_dir, capsys, edit, problem):
    # each loaded before and raised at the first verification: re.error,
    # a timeout subprocess cannot wait, an argument the OS cannot take
    external = {"id": "ext", "kind": "external", "command": ["true", "{cert}"], "patterns": [{"code": -15}], **edit}
    path = tmp_path / "backends.json"
    path.write_text(json.dumps({"format": "diffcert-backends", "version": 1, "backends": [_SIMULATED, external]}))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    assert run_cli("verify", str(issued), "--backends", str(path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: backends: ValueError: {problem}"]


def test_unencodable_trust_tag_is_a_clean_error(tmp_path, corpus_dir, capsys):
    # the signing tag is hashed as UTF-8; a lone surrogate loaded before
    # and raised at the first signature check
    doc = json.loads((corpus_dir / "trust.json").read_text())
    doc["anchors"][0]["tag"] = "\ud800"
    (tmp_path / "trust.json").write_text(json.dumps(doc))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    assert run_cli("verify", str(issued), "--trust", str(tmp_path / "trust.json")) == 1
    assert capsys.readouterr().err.splitlines() == ["error: trust: trust anchor tag: '\\ud800' is not UTF-8 text"]


def test_one_backend_is_a_clean_error(tmp_path, corpus_dir, capsys):
    # the two-backend rule lives in verdicts.Panel; every command that
    # opens a panel reports it as one error line
    path = tmp_path / "backends.json"
    path.write_text(json.dumps({"format": "diffcert-backends", "version": 1, "backends": [_SIMULATED]}))
    issued = next(p for p in sorted(corpus_dir.iterdir()) if "issued" in p.name)
    for argv in (["verify", str(issued)], ["baseline", str(corpus_dir), "--out", str(tmp_path / "out")]):
        capsys.readouterr()
        assert run_cli(*argv, "--backends", str(path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: InsufficientBackends: need at least 2 backends, have 1"]
