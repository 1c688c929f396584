"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.

The campaign-level criteria share one 500-seed synthetic corpus and three
trained campaigns (rng seeds 11, 12, 13) built once per session.
"""

import random
import time

import numpy as np
import pytest

from diffcert import actions, campaign, qnet, verdicts
from diffcert.campaign import CampaignConfig, EpsilonSchedule
from diffcert.certs import REFERENCE_TIME, SeedParams, build_synthetic, encode_der, parse_der
from diffcert.corpus import generate_corpus, replay_record
from diffcert.features import FEATURE_LENGTH, extract
from diffcert.qnet import TrainConfig
from diffcert.verdicts import VerdictVector, is_discrepancy, verify_all

from qnet_helpers import Transition, as_batch, train_step
from verdict_helpers import default_backends, simulate_verify
from test_features import GOLDEN_VECTOR
from test_qnet import finite_difference_check
from test_verdicts import taxonomy_fixtures

CAMPAIGN_SEEDS = (11, 12, 13)


def report_line(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")


@pytest.fixture(scope="module")
def campaign_runs():
    """Three trained campaigns plus matched greedy-inference and baseline
    runs over one 500-seed corpus."""
    corpus = generate_corpus(500, rng_seed=1)
    backends = tuple(default_backends(corpus.trust))
    runs = []
    for seed in CAMPAIGN_SEEDS:
        train_config = CampaignConfig(
            backends=backends,
            max_episode=3,
            rng_seed=seed,
            epsilon=EpsilonSchedule.annealed(),
            train=TrainConfig(use_target_network=True),
        )
        started = time.monotonic()
        params, records, stats = campaign.run_training(corpus, train_config)
        train_seconds = time.monotonic() - started
        flat_config = CampaignConfig(backends=backends, max_episode=1, rng_seed=seed)
        _, greedy_stats = campaign.run_inference(corpus, params, flat_config)
        baseline_stats = campaign.run_baseline(corpus, flat_config)
        runs.append(
            {
                "seed": seed,
                "records": records,
                "stats": stats,
                "train_seconds": train_seconds,
                "greedy_yield": greedy_stats.yield_ratio,
                "baseline_yield": baseline_stats.yield_ratio,
            }
        )
    return {"corpus": corpus, "backends": backends, "runs": runs}


def test_criterion_01_codec_round_trip():
    started = time.monotonic()
    corpus = generate_corpus(1000, rng_seed=77)
    blobs = [entry.der for entry in corpus.entries]
    blobs.append(encode_der(build_synthetic(SeedParams(), 7)))
    blobs.extend(encode_der(cert) for _, cert, _ in taxonomy_fixtures() if not isinstance(cert, bytes))
    failures = sum(1 for blob in blobs if encode_der(parse_der(blob)) != blob)
    elapsed = time.monotonic() - started
    ok = failures == 0 and len(blobs) >= 1000 and elapsed < 10.0
    report_line(1, ok, f"codec round-trip on {len(blobs)} certificates, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert len(blobs) >= 1000
    assert elapsed < 10.0


def test_criterion_02_feature_contract():
    corpus = generate_corpus(300, rng_seed=78)
    lengths_ok = True
    slots_ok = True
    for entry in corpus.entries:
        vector = extract(parse_der(entry.der))
        lengths_ok &= len(vector) == 101
        slots_ok &= vector[3] in (-1, 0, 1) and vector[4] in (-1, 0, 1)
    golden = extract(build_synthetic(SeedParams(), 7))
    golden_ok = list(golden) == GOLDEN_VECTOR
    ok = lengths_ok and slots_ok and golden_ok
    report_line(2, ok, f"all vectors length 101 over {len(corpus.entries)} certs, golden fixture matches frozen value")
    assert lengths_ok and slots_ok and golden_ok


def test_criterion_03_action_space():
    fixture = build_synthetic(SeedParams(), 7)
    base = encode_der(fixture)
    catalog = actions.catalog()
    encodable = 0
    changed = 0
    for spec in catalog:
        encoded = encode_der(actions.apply(fixture, spec.id))
        encodable += 1
        if encoded != base:
            changed += 1
    ok = len(catalog) == 86 == qnet.ACTION_COUNT and encodable == 86 and changed >= 80
    report_line(3, ok, f"catalog 86 == network output 86, {encodable}/86 re-encode, {changed}/86 change DER bytes")
    assert len(catalog) == 86
    assert qnet.ACTION_COUNT == 86
    assert encodable == 86
    assert changed >= 80


def test_criterion_04_gradient_check():
    started = time.monotonic()
    worst = max(finite_difference_check(500 + i, 600 + i) for i in range(10))
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 30.0
    report_line(4, ok, f"max relative gradient error {worst:.2e} over 10 batches, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_05_q_learning_sanity():
    state = tuple([2] * FEATURE_LENGTH)
    budgets = []
    for seed in range(10):
        rng = random.Random(seed)
        winner = rng.randrange(qnet.ACTION_COUNT)
        params = qnet.init(seed)
        converged_at = None
        for update in range(1, 5001):
            action = qnet.select_action(params, state, EpsilonSchedule().at(0), rng)
            reward = 100 if action == winner else -1
            params, _ = train_step(params, as_batch([Transition(state, action, reward, None, True)]))
            if update % 25 == 0 and int(np.argmax(qnet.forward(params, state))) == winner:
                converged_at = update
                break
        assert converged_at is not None, f"seed {seed} did not converge within 5000 updates"
        assert int(np.argmax(qnet.forward(params, state))) == winner
        budgets.append(converged_at)
    report_line(5, True, f"greedy argmax converged on all 10 seeds (worst {max(budgets)} updates of 5000)")


def test_criterion_06_taxonomy_conformance():
    cases = taxonomy_fixtures()
    mismatches = []
    for expected, cert, store in cases:
        got = simulate_verify(verdicts.STRICT_PROFILE, cert, store, REFERENCE_TIME)
        if got != expected:
            mismatches.append((expected, got))
    reachable = sorted({expected for expected, _, _ in cases})
    ok = not mismatches and len(cases) == 15
    report_line(6, ok, f"{len(cases)} single-defect fixtures hit their exact codes (codes {reachable})")
    assert mismatches == []
    assert len(cases) == 15  # the accept case plus every code except -13


def _flaw_class_counts(records):
    counts = {"v1v2_with_ext": 0, "v4_accept": 0, "negative_serial": 0, "time_linger": 0}
    for rec in records:
        try:
            cert = parse_der(rec.mutant_der, lenient=True)
        except Exception:
            continue
        if cert.version in (1, 2) and cert.extensions:
            counts["v1v2_with_ext"] += 1
        if cert.version == 4:
            counts["v4_accept"] += 1
        if cert.serial < 0:
            counts["negative_serial"] += 1
        linger_index = rec.backend_ids.index("matrixssl-like")
        if rec.verdicts[linger_index] == 1 and -2 in rec.verdicts:
            counts["time_linger"] += 1
    return counts


def test_criterion_07_flaw_rediscovery(campaign_runs):
    run = campaign_runs["runs"][0]
    counts = _flaw_class_counts(run["records"])
    ok = all(count > 0 for count in counts.values()) and run["train_seconds"] < 300.0
    detail = ", ".join(f"{name} x{count}" for name, count in counts.items())
    report_line(7, ok, f"trained campaign ({run['train_seconds']:.0f}s): {detail}")
    assert run["train_seconds"] < 300.0
    for name, count in counts.items():
        assert count > 0, f"no record exercising {name}"


def test_criterion_08_learning_beats_random(campaign_runs):
    greedy = [run["greedy_yield"] for run in campaign_runs["runs"]]
    baseline = [run["baseline_yield"] for run in campaign_runs["runs"]]
    mean_greedy = sum(greedy) / len(greedy)
    mean_baseline = sum(baseline) / len(baseline)
    ratio = mean_greedy / mean_baseline
    ok = ratio >= 1.5
    report_line(
        8,
        ok,
        f"trained greedy {mean_greedy:.1%} vs baseline {mean_baseline:.1%} over {len(greedy)} seeds, ratio {ratio:.2f}",
    )
    print(f"    per-seed greedy yields: {[f'{g:.1%}' for g in greedy]}")
    print(f"    per-seed baseline yields: {[f'{b:.1%}' for b in baseline]}")
    assert ratio >= 1.5


def test_criterion_09_budget_and_replay(campaign_runs):
    corpus = campaign_runs["corpus"]
    backends = campaign_runs["backends"]
    records = campaign_runs["runs"][0]["records"]
    assert records, "campaign produced no records to audit"
    worst_trace = max(len(rec.trace) for rec in records)
    replay_failures = 0
    verify_failures = 0
    for rec in records:
        rebuilt = replay_record(corpus, rec)
        if encode_der(rebuilt) != rec.mutant_der:
            replay_failures += 1
            continue
        again = verify_all(rec.mutant_der, backends, REFERENCE_TIME)
        if again.codes != rec.verdicts:
            verify_failures += 1
    ok = worst_trace <= 10 and replay_failures == 0 and verify_failures == 0
    report_line(
        9,
        ok,
        f"{len(records)} records: max trace {worst_trace} <= 10, {replay_failures} replay and {verify_failures} re-verify failures",
    )
    assert worst_trace <= 10
    assert replay_failures == 0
    assert verify_failures == 0


def test_criterion_10_discrepancy_predicate():
    rng = random.Random(424242)
    cases = 100_000
    codes = list(verdicts.ALL_CODES)
    mismatches = 0
    for _ in range(cases):
        vector = [rng.choice(codes) for _ in range(rng.randint(2, 8))]
        expected = (1 in vector) and any(code not in (1, -13) for code in vector)  # -13: no verdict
        # the loop's reward, on the vector as the panel returns it
        judged = VerdictVector(tuple(vector), tuple(f"b{i}" for i in range(len(vector))))
        if is_discrepancy(vector) != expected or (campaign.reward("primary", judged, judged)[0] == 100) != expected:
            mismatches += 1
    report_line(10, mismatches == 0, f"is_discrepancy and the loop's reward agree with the definition on {cases} random vectors")
    assert mismatches == 0
