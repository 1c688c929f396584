"""Operator entry point.

Subcommands: ingest, gen, train, fuzz, baseline, verify, catalog, report.
Configuration precedence is flags > config file > built-in defaults, and
the effective configuration is echoed at startup so every run is
reproducible from its printed header.  All randomness flows from the
campaign seed; no ambient entropy is consulted.

Exit codes: 0 success; 10 is the verify subcommand's discrepancy-found
sentinel; any other nonzero value is an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import json
import sys
from pathlib import Path

from . import campaign as campaign_mod
from . import corpus as corpus_mod
from . import qnet
from .actions import catalog
from .certs import REFERENCE_TIME, MalformedDer, MalformedPem, UnsupportedStructure
from .corpus import DiscrepancyDb, EmptyCorpus, SeedCorpus
from .qnet import TrainConfig
from .verdicts import (
    VERDICT_NAMES,
    InsufficientBackends,
    TrustStore,
    bind_backends,
    default_backend_specs,
    load_backend_specs,
    load_json,
    read_keys,
    verify_all,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 10
EXIT_ERROR = 1


class CliError(Exception):
    """A user-facing failure with a one-line, machine-parseable message."""


def _build_parser() -> argparse.ArgumentParser:
    # Global flags live in a parent parser with SUPPRESS defaults so they
    # can be given before or after the subcommand without clobbering.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="JSON config file; flags override its values")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="campaign rng seed (default 0)")
    common.add_argument("--backends", default=argparse.SUPPRESS, help="backend configuration file (default: six simulated profiles)")
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory (default .)")
    common.add_argument("--episodes", type=int, default=argparse.SUPPRESS, help="training episodes (default 1)")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS, help="suppress the config echo")

    parser = argparse.ArgumentParser(
        prog="diffcert", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, parents=[common]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="load a directory of .pem/.der seeds into a corpus directory")
    p.add_argument("directory")

    p = sub.add_parser("gen", parents=[common], help="generate a synthetic seed corpus plus its trust store")
    p.add_argument("count", type=int)

    p = sub.add_parser("train", parents=[common], help="run a training campaign over a corpus")
    p.add_argument("corpus")
    p.add_argument("--trust", help="trust store JSON (default: <corpus>/trust.json)")
    p.add_argument("--reward", choices=campaign_mod.REWARD_SCHEMES, default=campaign_mod.REWARD_PRIMARY)

    p = sub.add_parser("fuzz", parents=[common], help="greedy inference campaign from a checkpoint")
    p.add_argument("corpus")
    p.add_argument("checkpoint")
    p.add_argument("--trust")

    p = sub.add_parser("baseline", parents=[common], help="random-action campaign for comparison")
    p.add_argument("corpus")
    p.add_argument("--trust")

    p = sub.add_parser("verify", parents=[common], help="differential-test one certificate file")
    p.add_argument("certificate")
    p.add_argument("--trust")
    p.add_argument("--now", help="verification clock, ISO 8601 (default: fixed reference time)")

    sub.add_parser("catalog", parents=[common], help="print the 86-action catalog")

    p = sub.add_parser("report", parents=[common], help="summarize a discrepancy database")
    p.add_argument("database")
    p.add_argument("--corpus-size", type=int)
    p.add_argument("--json", dest="json_out", help="also write the machine-readable report here")

    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    settings = {"seed": 0, "episodes": 1, "out": ".", "backends": None}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = read_keys("top level", load_json(Path(config_path).read_text()), (), settings)
        except (OSError, ValueError) as exc:
            raise CliError(f"config: {exc}") from exc
        for key, value in loaded.items():
            want = int if key in ("seed", "episodes") else str
            if type(value) is not want and not (key == "backends" and value is None):
                raise CliError(f"config: {key} must be {want.__name__}, got {value!r}")
        settings = loaded
    for key in ("seed", "episodes", "out", "backends"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _load_backends(settings: dict, trust: TrustStore):
    try:
        specs = load_backend_specs(settings["backends"]) if settings["backends"] else default_backend_specs()
    except (OSError, ValueError) as exc:
        raise CliError(f"backends: {type(exc).__name__}: {exc}") from exc
    return tuple(bind_backends(specs, trust))


def _load_corpus(path: str, trust_flag: str | None) -> SeedCorpus:
    try:
        corpus = corpus_mod.load_corpus_dir(path)
    except (EmptyCorpus, OSError, ValueError) as exc:
        raise CliError(f"corpus: {exc}") from exc
    if trust_flag:
        corpus = dataclasses.replace(corpus, trust=_load_trust(trust_flag))
    return corpus


def _load_trust(path: str) -> TrustStore:
    try:
        return TrustStore.from_json(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"trust: {exc}") from exc


def _campaign(args, settings: dict, db_name: str, **recipe):
    """Load the corpus, bind the backends to the corpus's trust store and
    build the campaign's config.  --out is made by the discrepancy
    database, which the campaign opens once its panel of backends stands;
    a database that already holds records is refused, not appended to."""
    out = Path(settings["out"])
    db = out / db_name
    if db.is_file() and db.stat().st_size:
        raise CliError(f"out: {db} already holds records; give another --out")
    corpus = _load_corpus(args.corpus, args.trust)
    backends = _load_backends(settings, corpus.trust if corpus.trust is not None else TrustStore())
    try:
        config = campaign_mod.CampaignConfig(
            backends=backends,
            max_episode=settings["episodes"],
            rng_seed=settings["seed"],
            db_path=str(db),
            **recipe,
        )
    except ValueError as exc:
        raise CliError(f"config: {exc}") from exc
    return corpus, out, config


def _write_stats(path: Path, stats) -> None:
    doc = {
        "seeds_processed": stats.seeds_processed,
        "skipped_seeds": stats.skipped_seeds,
        "discrepancies": stats.discrepancies,
        "yield": stats.yield_ratio,
        "episodes": [
            {"corpus_size": ep.corpus_size, "discrepancies": ep.discrepancies, "proportion": ep.proportion}
            for ep in stats.episodes
        ],
        "modification_histogram": {str(k): v for k, v in sorted(stats.modification_histogram.items())},
        "type_counts": {",".join(map(str, k)): v for k, v in sorted(stats.type_counts.items())},
        "updates": stats.updates,
        "final_loss": stats.final_loss,
    }
    corpus_mod.write_atomic(path, json.dumps(doc, indent=2).encode())
    for line in stats.summary_lines():
        print(line)


def cmd_ingest(args, settings) -> int:
    corpus = _load_corpus(args.directory, None)
    out = Path(settings["out"])
    corpus_mod.write_corpus(corpus, out)
    print(f"ingested {len(corpus)} seeds ({corpus.rejected} rejected) -> {out}")
    return EXIT_OK


def cmd_gen(args, settings) -> int:
    try:
        corpus = corpus_mod.generate_corpus(args.count, settings["seed"])
    except EmptyCorpus as exc:
        raise CliError(f"gen: {exc}") from exc
    out = Path(settings["out"])
    corpus_mod.write_corpus(corpus, out)
    print(f"generated {len(corpus)} seeds with {len(corpus.trust)} trust anchors -> {out}")
    return EXIT_OK


def cmd_train(args, settings) -> int:
    # training gets the stabilized recipe: annealed exploration plus a target network
    corpus, out, config = _campaign(
        args, settings, "discrepancies.db", reward_scheme=args.reward,
        epsilon=campaign_mod.EpsilonSchedule.annealed(), train=TrainConfig(use_target_network=True),
    )
    params, records, stats = campaign_mod.run_training(corpus, config)
    checkpoint = out / "qnet.ckpt"
    qnet.save(params, checkpoint)
    _write_stats(out / "stats.json", stats)
    print(f"checkpoint -> {checkpoint}")
    print(f"discrepancy db -> {config.db_path} ({len(records)} records)")
    return EXIT_OK


def cmd_fuzz(args, settings) -> int:
    try:  # before the shared set-up, so a bad checkpoint makes no --out
        params = qnet.load(args.checkpoint)
    except (OSError, qnet.CorruptCheckpoint) as exc:
        raise CliError(f"checkpoint: {exc}") from exc
    corpus, out, config = _campaign(args, settings, "fuzz.db")
    records, stats = campaign_mod.run_inference(corpus, params, config)
    _write_stats(out / "fuzz-stats.json", stats)
    print(f"discrepancy db -> {config.db_path} ({len(records)} records)")
    return EXIT_OK


def cmd_baseline(args, settings) -> int:
    corpus, out, config = _campaign(args, settings, "baseline.db")
    _write_stats(out / "baseline-stats.json", campaign_mod.run_baseline(corpus, config))
    return EXIT_OK


def cmd_verify(args, settings) -> int:
    try:
        der = corpus_mod.read_certificate(args.certificate)
    except (OSError, MalformedPem) as exc:
        raise CliError(f"verify: {exc}") from exc
    trust = _load_trust(args.trust) if args.trust else TrustStore()
    backends = _load_backends(settings, trust)
    try:
        now = dt.datetime.fromisoformat(args.now) if args.now else REFERENCE_TIME
    except ValueError as exc:
        raise CliError(f"now: {exc}") from exc
    if now.tzinfo is None:
        now = now.replace(tzinfo=dt.timezone.utc)
    verdicts = verify_all(der, backends, now)
    for backend_id, code in zip(verdicts.backend_ids, verdicts.codes):
        print(f"{backend_id:>16}  {code:>4}  {VERDICT_NAMES[code]}")
    return EXIT_DISCREPANCY if verdicts.discrepancy else EXIT_OK


def cmd_catalog(_args, _settings) -> int:
    for spec in catalog():
        print(f"{spec.id:>3}  {spec.family.value:<10}  {spec.description}")
    return EXIT_OK


def cmd_report(args, _settings) -> int:
    if args.corpus_size is not None and args.corpus_size < 1:
        raise CliError(f"report: --corpus-size must be at least 1, got {args.corpus_size}")
    if not Path(args.database).is_file():
        raise CliError(f"report: no database at {args.database}")
    db = DiscrepancyDb(args.database)
    try:
        rep = corpus_mod.report(db.load_all(), corpus_size=args.corpus_size)
    except (OSError, corpus_mod.CorruptDatabase) as exc:
        raise CliError(f"report: {exc}") from exc
    print(rep.to_text(), end="")
    if args.json_out:
        corpus_mod.write_atomic(args.json_out, rep.to_json_lines().encode())
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "gen": cmd_gen,
    "train": cmd_train,
    "fuzz": cmd_fuzz,
    "baseline": cmd_baseline,
    "verify": cmd_verify,
    "catalog": cmd_catalog,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _effective_config(args)
        if not getattr(args, "quiet", False):
            echo = {k: v for k, v in settings.items() if v is not None}
            print(f"# config: {json.dumps(echo, sort_keys=True)} command={args.command}")
        return _COMMANDS[args.command](args, settings)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (InsufficientBackends, EmptyCorpus, MalformedDer, UnsupportedStructure) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
