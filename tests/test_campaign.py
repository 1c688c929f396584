"""Campaign loop tests on a rigged two-backend environment where exactly
one action triggers a discrepancy, plus budget, determinism and the
closed-form baseline yield."""

import concurrent.futures
import datetime as dt
import hashlib
import math
import random
import struct
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from diffcert import actions as actions_mod, campaign as campaign_mod, certs as certs_mod, verdicts as verdicts_mod
from diffcert.actions import CATALOG_SIZE, MAX_TRACE_LENGTH, apply
from diffcert.campaign import CampaignConfig, run_baseline, run_inference, run_training
from diffcert.certs import REFERENCE_TIME, SeedParams, build_synthetic, encode_der, encode_tbs
from diffcert.corpus import SeedCorpus, SeedEntry, generate_corpus, DiscrepancyDb
from diffcert.features import FEATURE_LENGTH, extract
from diffcert import qnet
from diffcert.qnet import TrainConfig
from diffcert.verdicts import (
    STRICT_PROFILE,
    ExternalBackend,
    InsufficientBackends,
    PatternRule,
    TrustAnchor,
    TrustStore,
    bind_backends,
    default_backend_specs,
    verify_all,
)

from qnet_helpers import gather, td_targets
from verdict_helpers import default_backends

WINNING_ACTION = 3  # set version to 4


def is_v4(facts) -> bool:
    """A version-4 certificate's failures hold the entry `accept_v4` waives."""
    return any(switch == "accept_v4" for _, switch, _ in facts.failures)


class RiggedBackend:
    """Accepts exactly version-4 certificates; rejects everything else."""

    profile = STRICT_PROFILE
    trust = TrustStore()

    def __init__(self, backend_id, accepts_v4):
        self.id = backend_id
        self.accepts_v4 = accepts_v4

    def verify_prepared(self, facts, window):
        if facts is None:
            return -3
        if is_v4(facts) and self.accepts_v4:
            return 1
        return -4


def rigged_backends():
    return (RiggedBackend("lenient", True), RiggedBackend("strict", False))


def small_corpus(n=6):
    entries = tuple(
        SeedEntry(f"s{i}", encode_der(build_synthetic(SeedParams(), 100 + i))) for i in range(n)
    )
    return SeedCorpus(entries)


def test_rigged_environment_single_winner():
    backends = rigged_backends()
    cert = build_synthetic(SeedParams(), 1)
    from diffcert.actions import catalog

    winners = [
        spec.id
        for spec in catalog()
        if verify_all(apply(cert, spec.id), backends, REFERENCE_TIME).discrepancy
    ]
    assert winners == [WINNING_ACTION]


def test_training_learns_the_single_winner(tmp_path):
    import dataclasses

    corpus = small_corpus(6)
    config = CampaignConfig(backends=rigged_backends(), max_episode=4, rng_seed=1, db_path=str(tmp_path / "t.db"))
    params, records, stats = run_training(corpus, config)
    assert stats.discrepancies > 0
    # greedy inference now finds the discrepancy in one modification per seed
    inf_config = dataclasses.replace(config, max_episode=1, db_path=None)
    inf_records, inf_stats = run_inference(corpus, params, inf_config)
    assert inf_stats.yield_ratio == 1.0
    assert all(rec.trace == (WINNING_ACTION,) for rec in inf_records)
    assert inf_stats.modification_histogram == {1: len(corpus.entries)}
    # inference yield at least matches the training phase's
    assert inf_stats.yield_ratio >= stats.episodes[-1].proportion


def test_inference_deterministic():
    corpus = small_corpus(4)
    config = CampaignConfig(backends=rigged_backends(), max_episode=2, rng_seed=7)
    params, _, _ = run_training(corpus, config)
    rec_a, stats_a = run_inference(corpus, params, config)
    rec_b, stats_b = run_inference(corpus, params, config)
    assert rec_a == rec_b
    assert stats_a.yield_ratio == stats_b.yield_ratio


def test_training_reproducible():
    corpus = small_corpus(4)
    config = CampaignConfig(backends=rigged_backends(), max_episode=2, rng_seed=9)
    a = run_training(corpus, config)
    b = run_training(corpus, config)
    assert a[1] == b[1]  # identical records, bit for bit
    assert all((x == y).all() for x, y in zip(a[0].arrays(), b[0].arrays()))


def test_budget_respected():
    corpus = small_corpus(3)
    config = CampaignConfig(backends=rigged_backends(), max_episode=1, rng_seed=3)
    params, records, stats = run_training(corpus, config)
    _, stats2 = run_inference(corpus, params, config)
    for rec in records:
        assert len(rec.trace) <= MAX_TRACE_LENGTH
    assert 0 < stats.updates <= stats.seeds_processed * MAX_TRACE_LENGTH
    assert max(stats2.modification_histogram, default=0) <= MAX_TRACE_LENGTH


def test_campaign_runs_at_least_one_episode():
    for episodes in (0, -3):
        with pytest.raises(ValueError, match="max_episode"):
            CampaignConfig(backends=rigged_backends(), max_episode=episodes)


def test_campaign_config_refuses_an_unknown_reward_scheme():
    with pytest.raises(ValueError, match="^unknown reward scheme 'primry'$"):
        CampaignConfig(backends=rigged_backends(), reward_scheme="primry")


def test_discrepant_seed_short_circuits():
    # a corpus whose every seed is already discrepancy-triggering: no
    # mutation happens, yield is 1.0
    class AlwaysSplit(RiggedBackend):
        def verify_prepared(self, facts, window):
            return 1 if self.accepts_v4 else -2

    backends = (AlwaysSplit("yes", True), AlwaysSplit("no", False))
    corpus = small_corpus(5)
    params, records, stats = run_training(corpus, CampaignConfig(backends=backends, max_episode=1, rng_seed=1))
    assert stats.yield_ratio == 1.0
    assert all(rec.trace == () for rec in records)
    assert stats.modification_histogram == {0: 5}


def test_empty_corpus_empty_outputs():
    config = CampaignConfig(backends=rigged_backends(), max_episode=1, rng_seed=1)
    params, records, stats = run_training(SeedCorpus(()), config)
    assert records == [] and stats.seeds_processed == 0 and stats.yield_ratio == 0.0


def test_unparseable_seed_skipped():
    entries = (
        SeedEntry("bad", b"\x00\x01"),
        SeedEntry("good", encode_der(build_synthetic(SeedParams(), 5))),
    )
    config = CampaignConfig(backends=rigged_backends(), max_episode=1, rng_seed=1)
    _, _, stats = run_training(SeedCorpus(entries), config)
    assert stats.skipped_seeds == 1
    assert stats.seeds_processed == 1


def test_insufficient_backends():
    config = CampaignConfig(backends=(RiggedBackend("only", True),), max_episode=1, rng_seed=1)
    with pytest.raises(InsufficientBackends):
        run_training(small_corpus(2), config)


def test_baseline_closed_form_hit_rate():
    # With one winning action among 86 and a budget of 10 independent
    # uniform draws, the per-seed hit probability is 1 - (85/86)^10.
    # The rigged environment is state-independent, so the closed form is
    # exact; check the Monte Carlo rate against a 4-sigma band.
    expected = 1.0 - (85.0 / 86.0) ** 10
    assert expected == pytest.approx(0.1105, abs=5e-4)
    n = 400
    corpus = small_corpus(n)
    stats = run_baseline(corpus, CampaignConfig(backends=rigged_backends(), max_episode=1, rng_seed=17))
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(stats.yield_ratio - expected) < 4 * sigma


def test_baseline_equals_pure_exploration():
    # at epsilon = 1 the parameters never pick an action, so training draws
    # from the baseline's distribution; over a few hundred seeds the yields
    # agree loosely
    n = 300
    corpus = small_corpus(n)
    explore = CampaignConfig(
        backends=rigged_backends(),
        max_episode=1,
        rng_seed=23,
        epsilon=campaign_mod.EpsilonSchedule(1.0, 1.0),
    )
    _, _, explore_stats = run_training(corpus, explore)
    base_stats = run_baseline(corpus, CampaignConfig(backends=rigged_backends(), max_episode=1, rng_seed=23))
    expected = 1.0 - (85.0 / 86.0) ** 10
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(explore_stats.yield_ratio - expected) < 4 * sigma
    assert abs(base_stats.yield_ratio - expected) < 4 * sigma


def test_records_persisted_and_replayable(tmp_path):
    corpus = generate_corpus(30, rng_seed=2)
    backends = tuple(default_backends(corpus.trust))
    config = CampaignConfig(backends=backends, max_episode=1, rng_seed=4, db_path=str(tmp_path / "run.db"))
    params, records, stats = run_training(corpus, config)
    assert stats.discrepancies > 0
    assert sum(stats.modification_histogram.values()) == stats.discrepancies
    assert sum(stats.type_counts.values()) == stats.discrepancies
    db = DiscrepancyDb(tmp_path / "run.db")
    assert db.load_all() == records
    from diffcert.corpus import replay_record

    for rec in records:
        rebuilt = replay_record(corpus, rec)
        assert encode_der(rebuilt) == rec.mutant_der
        again = verify_all(rec.mutant_der, backends, REFERENCE_TIME)
        assert again.codes == rec.verdicts


def test_yield_increases_across_episodes():
    # the rigged environment makes learning visible: the second episode's
    # exploit phase beats the first episode's exploration
    corpus = small_corpus(40)
    config = CampaignConfig(
        backends=rigged_backends(),
        max_episode=2,
        rng_seed=2,
        epsilon=campaign_mod.EpsilonSchedule(start=1.0, end=0.0, decay_updates=300),
    )
    _, _, stats = run_training(corpus, config)
    assert len(stats.episodes) == 2
    assert stats.episodes[1].proportion > stats.episodes[0].proportion


def test_baseline_empty_corpus():
    stats = run_baseline(SeedCorpus(()), CampaignConfig(backends=rigged_backends(), max_episode=1, rng_seed=1))
    assert stats.seeds_processed == 0
    assert stats.discrepancies == 0
    assert stats.yield_ratio == 0.0


def test_delta_scheme_saturation_stop():
    # two backends that always disagree on rejection reason: every mutant
    # saturates the category count, so each seed stops after one action
    class AlwaysTwoCodes(RiggedBackend):
        def verify_prepared(self, facts, window):
            if facts is None:
                return -3
            base = -4 if self.accepts_v4 else -5
            return base

    backends = (AlwaysTwoCodes("a", True), AlwaysTwoCodes("b", False))
    corpus = small_corpus(5)
    config = CampaignConfig(backends=backends, max_episode=1, rng_seed=1, reward_scheme="delta")
    _, records, stats = run_training(corpus, config)
    assert records == []
    # one transition per seed: delta reward 0 but categories == backends
    assert stats.updates == len(corpus.entries)


def test_delta_scheme_ignores_connection_errors():
    # a backend that always times out (-13) adds no verdict category: it
    # neither earns a delta reward nor saturates the pair, so every seed
    # runs its full mutation budget
    class TimesOut(RiggedBackend):
        def verify_prepared(self, facts, window):
            return 1 if self.accepts_v4 else -13

    backends = (TimesOut("a", True), TimesOut("b", False))
    corpus = small_corpus(3)
    config = CampaignConfig(backends=backends, max_episode=1, rng_seed=1, reward_scheme="delta")
    _, records, stats = run_training(corpus, config)
    assert records == []
    assert stats.updates == len(corpus.entries) * MAX_TRACE_LENGTH


def test_custom_reference_clock_replays_exactly(tmp_path):
    # a record stamped with another clock than the reference one must
    # replay and re-verify from what the record itself stores
    import datetime as dt

    from diffcert.actions import replay
    from diffcert.certs import parse_der
    from diffcert.corpus import DiscrepancyRecord, replay_record

    corpus = generate_corpus(40, rng_seed=6)
    backends = tuple(default_backends(corpus.trust))
    clock = dt.datetime(2025, 9, 1, 12, 0, 0, tzinfo=dt.timezone.utc)
    entry = corpus.by_id("seed-00001-anchored")
    trace = (11, 14)  # set notBefore, then notAfter, to the clock
    mutant_der = encode_der(replay(parse_der(entry.der), trace, now=clock))
    verdicts = verify_all(mutant_der, backends, clock)
    db = DiscrepancyDb(tmp_path / "run.db")
    db.append(DiscrepancyRecord(entry.seed_id, trace, mutant_der, verdicts.codes, verdicts.backend_ids, clock.isoformat(), 8))
    db.close()
    (rec,) = db.load_all()
    assert rec.timestamp == clock.isoformat()
    rebuilt = replay_record(corpus, rec)
    assert encode_der(rebuilt) == rec.mutant_der
    assert verify_all(rec.mutant_der, backends, clock).codes == rec.verdicts
    # the reference clock would rebuild and judge another certificate
    assert encode_der(replay_record(corpus, rec, now=REFERENCE_TIME)) != rec.mutant_der
    assert verify_all(rec.mutant_der, backends, REFERENCE_TIME).codes != rec.verdicts


def test_delta_reward_scheme_stops_on_category_growth():
    # under the delta scheme a category-count increase ends the seed's
    # loop even without an acceptance present
    class TwoCodes(RiggedBackend):
        def verify_prepared(self, facts, window):
            if facts is None:
                return -3
            if is_v4(facts):
                return -4 if self.accepts_v4 else -5
            return -2

    backends = (TwoCodes("a", True), TwoCodes("b", False))
    corpus = small_corpus(4)
    config = CampaignConfig(backends=backends, max_episode=1, rng_seed=1, reward_scheme="delta")
    params, records, stats = run_training(corpus, config)
    assert records == []  # rejection-only splits are not discrepancies
    assert stats.discrepancies == 0


def _count_calls(monkeypatch, owner, name: str, counts: dict) -> None:
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_seed_visits_parse_no_certificate_the_corpus_did_not():
    # generate_corpus parses every seed it stores, so each campaign visit
    # finds its seed in the certificate cache
    corpus = generate_corpus(30, 1)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), max_episode=2, rng_seed=5)
    before = certs_mod._certificate.cache_info()
    run_baseline(corpus, config)
    run_training(corpus, config)
    after = certs_mod._certificate.cache_info()
    assert after.misses == before.misses and after.hits >= before.hits + 2 * 2 * 30


def test_a_repeated_baseline_misses_no_cache():
    # the same campaign again makes the same edits on the same parts, so
    # every edit and every part it reads back is found: a key that can
    # never hit would miss here
    corpus = generate_corpus(20, 1)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), max_episode=2, rng_seed=5)
    caches = {
        f"{module.__name__}.{name}": fn
        for module in (certs_mod, actions_mod)
        for name, fn in vars(module).items()
        if hasattr(fn, "cache_info") and fn.__module__ == module.__name__
    }
    assert len(caches) == 10  # five parse caches, five edit caches

    def misses() -> dict:
        return {name: fn.cache_info().misses for name, fn in caches.items()}

    for fn in caches.values():
        fn.cache_clear()
    run_baseline(corpus, config)
    first = misses()
    assert all(first.values())  # each edit cache was filled, the seeds were parsed again
    run_baseline(corpus, config)
    assert misses() == first


def test_each_seed_visit_looks_up_parse_der_once(monkeypatch):
    # the lookup is the hook perfbench's traced runs open a seed visit on
    corpus = generate_corpus(20, 1)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), max_episode=2, rng_seed=5)
    calls = {}
    _count_calls(monkeypatch, campaign_mod, "parse_der", calls)
    run_baseline(corpus, config)
    assert calls["parse_der"] == 2 * 20


def test_training_featurizes_each_distinct_certificate_once(monkeypatch):
    # the seed and every non-terminal mutant have a state, featurized once:
    # the mutant's vector is both the transition's next state and the next
    # step's state, and a no-op mutant (equal to its parent) reuses its
    # parent's state
    counts = {}
    _count_calls(monkeypatch, campaign_mod, "extract", counts)
    visits = []  # per seed visit, one no-op flag per mutant
    parse, apply = campaign_mod.parse_der, campaign_mod.apply

    def parse_seed(der):
        visits.append([])
        return parse(der)

    def apply_counting(cert, *args, **kwargs):
        mutant = apply(cert, *args, **kwargs)
        visits[-1].append(mutant == cert)
        return mutant

    monkeypatch.setattr(campaign_mod, "parse_der", parse_seed)
    monkeypatch.setattr(campaign_mod, "apply", apply_counting)
    corpus = generate_corpus(12, rng_seed=3)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), max_episode=1, rng_seed=5)
    run_training(corpus, config)
    applied = sum(len(flags) for flags in visits)
    reused = sum(sum(flags[:-1]) for flags in visits)  # the last mutant of a visit is terminal
    assert applied > 0 and reused > 0
    assert counts["extract"] == applied - reused


def test_no_op_mutant_has_its_parents_features(monkeypatch):
    # the premise of reusing a state: a mutant that encodes to its parent's
    # DER featurizes exactly as its parent does, whichever action made it
    pairs = []
    apply = campaign_mod.apply
    monkeypatch.setattr(campaign_mod, "apply", lambda cert, *a, **k: pairs.append((cert, a[0], apply(cert, *a, **k))) or pairs[-1][2])
    corpus = generate_corpus(64, 1)
    run_baseline(corpus, CampaignConfig(backends=tuple(default_backends(corpus.trust)), rng_seed=11))
    no_ops = [(parent, action, mutant) for parent, action, mutant in pairs if encode_der(mutant) == encode_der(parent)]
    assert len({action for _, action, _ in no_ops}) > 10
    assert all(extract(mutant) == extract(parent) for parent, _, mutant in no_ops)


_THREE_CLOCKS = pytest.mark.parametrize(
    "now",
    [REFERENCE_TIME, REFERENCE_TIME.astimezone(dt.timezone(dt.timedelta(hours=2))), dt.datetime(2049, 12, 31, 23, 59, 59, tzinfo=dt.timezone.utc)],
    ids=["reference", "plus-two", "end-of-utctime"],
)


@_THREE_CLOCKS
def test_a_mutant_equals_its_parent_exactly_when_it_encodes_to_its_parents_der(now):
    # the premise of deciding no-ops from fields: over seeded traces that
    # take every action, lenient mutants (an explicit FALSE flag) among
    # them, field equality and DER equality agree, and a field-equal
    # mutant has its parent's features and verdicts
    corpus = generate_corpus(24, 1)
    backends = tuple(default_backends(corpus.trust))
    rng = random.Random(17)
    taken, no_ops, lenient_no_ops = set(), 0, 0
    for entry in corpus.entries * 3:
        parent = certs_mod.parse_der(entry.der)
        for _ in range(MAX_TRACE_LENGTH):
            action = rng.randrange(CATALOG_SIZE)
            taken.add(action)
            mutant = apply(parent, action, now=now)
            same = mutant == parent
            assert same == (encode_der(mutant) == encode_der(parent))
            if same:
                no_ops += 1
                lenient_no_ops += not mutant.strict_der
                assert extract(mutant) == extract(parent)
                assert verify_all(mutant, backends, now) == verify_all(parent, backends, now)
            parent = mutant
    assert taken == set(range(CATALOG_SIZE))
    assert no_ops > 0 and lenient_no_ops > 0


_TBS_FIELDS = tuple(name for name in certs_mod.Certificate.__dataclass_fields__ if name not in ("outer_sig_alg_raw", "signature_value"))


@_THREE_CLOCKS
def test_an_anchored_mutants_signature_verifies_exactly_when_its_tbs_is_its_seeds(now):
    # the premise of deciding a mutant's signature by where it came from:
    # mutants are never re-signed, so over seeded traces that take every
    # action, the mock-signature check over an anchored mutant's TBS agrees
    # with the field rule -- its TBS fields equal its seed's, and the
    # seed's signature verifies.  Traces open with a pair of actions that
    # undoes itself, and each issuer's country edits rename it to another
    # anchor
    corpus = generate_corpus(24, 1)
    seeds = [certs_mod.parse_der(entry.der) for entry in corpus.entries]
    trust = TrustStore(corpus.trust.anchors())
    for seed in seeds:
        for name in (seed.issuer.with_country("US"), seed.issuer.with_country("CN"), seed.issuer.without_country()):
            if trust.lookup(name.der) is None:
                trust.add(TrustAnchor(name.der, f"renamed-{len(trust)}"))
    returns = ((9, 10), (4, 4), (15, 15), (12, 13))
    rng = random.Random(23)
    taken, seen = set(), Counter()
    for i, seed in enumerate(seeds * 4):
        trace = [*returns[i % len(returns)], *(rng.randrange(CATALOG_SIZE) for _ in range(8))]
        taken.update(trace)
        mutant = seed
        for action in trace:
            mutant = apply(mutant, action, now=now)
            anchor = trust.lookup(mutant.issuer.der)
            if anchor is None or trust.lookup(mutant.subject.der) is not None:
                continue  # no anchor to check against, or an anchor itself
            assert (mutant.signature_value, mutant.outer_sig_alg_raw) == (seed.signature_value, seed.outer_sig_alg_raw)
            hashed = mutant.signature_value == b"\x00" + certs_mod.mock_sign(mutant.tbs, anchor.tag)
            same_tbs = all(getattr(mutant, name) == getattr(seed, name) for name in _TBS_FIELDS)
            assert hashed == (same_tbs and seed.signature_value == b"\x00" + certs_mod.mock_sign(seed.tbs, anchor.tag))
            seen[hashed, same_tbs, anchor.tag.startswith("renamed-")] += 1
    assert taken == set(range(CATALOG_SIZE))
    assert seen[True, True, False] > 0  # back at the seed's TBS, and verified
    assert seen[False, False, True] > 0  # renamed to another anchor
    assert seen[False, False, False] > seen[True, True, False]


def test_baseline_featurizes_nothing(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, campaign_mod, "apply", counts)
    _count_calls(monkeypatch, campaign_mod, "extract", counts)
    corpus = generate_corpus(12, rng_seed=3)
    stats = run_baseline(corpus, CampaignConfig(backends=tuple(default_backends(corpus.trust)), rng_seed=5))
    assert stats.seeds_processed == 12 and counts["apply"] > 0
    assert counts.get("extract", 0) == 0


def test_training_runs_forward_only_on_greedy_picks(monkeypatch):
    # with the annealed recipe most picks explore; the learner's `select`
    # runs `forward` once per greedy pick and never for an exploratory one
    corpus = generate_corpus(24, 1)
    config = CampaignConfig(
        backends=tuple(default_backends(corpus.trust)),
        max_episode=2,
        rng_seed=11,
        epsilon=campaign_mod.EpsilonSchedule.annealed(),
        train=TrainConfig(use_target_network=True),
    )
    select, select_action, forward = campaign_mod._Learner.select, qnet.select_action, qnet.forward
    inside, counts = [False], {"picks": 0, "greedy": 0, "forward": 0}

    def counting_select(self, state):
        inside[0] = True
        try:
            return select(self, state)
        finally:
            inside[0] = False

    def counting_select_action(params, state, epsilon, rng):
        if inside[0]:
            draw = random.Random()
            draw.setstate(rng.getstate())
            counts["picks"] += 1
            counts["greedy"] += not (epsilon > 0.0 and draw.random() < epsilon)
        return select_action(params, state, epsilon, rng)

    def counting_forward(*args):
        counts["forward"] += inside[0]
        return forward(*args)

    monkeypatch.setattr(campaign_mod._Learner, "select", counting_select)
    monkeypatch.setattr(qnet, "select_action", counting_select_action)
    monkeypatch.setattr(qnet, "forward", counting_forward)
    _, _, stats = run_training(corpus, config)
    assert counts["picks"] == stats.updates
    assert 0 < counts["forward"] == counts["greedy"] < counts["picks"] // 2


# SHA-256 over the statistics and records of a seeded random-action
# baseline, a seeded training run and an inference run with its
# parameters, then those parameters.  Pinned from the loop that
# featurized every seed and non-terminal mutant (the baseline's too) and
# ran `forward` before every epsilon draw; skipping that work must not
# move a byte.
EAGER_LOOP_DIGEST = "00dd3ee78e534ed4a53079455328ec373a05cb1a77357efe0710ab3f14787598"


def _stats_blob(stats) -> bytes:
    return repr(
        (
            stats.seeds_processed,
            stats.skipped_seeds,
            stats.discrepancies,
            sorted(stats.modification_histogram.items()),
            sorted(stats.type_counts.items()),
            [(ep.corpus_size, ep.discrepancies) for ep in stats.episodes],
            stats.updates,
            stats.final_loss,
        )
    ).encode()


def _records_blob(records) -> bytes:
    return repr([(r.seed_id, r.trace, r.mutant_der, r.verdicts, r.backend_ids, r.timestamp) for r in records]).encode()


def test_skipped_work_changes_no_output():
    digest = hashlib.sha256()
    corpus = generate_corpus(40, 2)
    backends = tuple(default_backends(corpus.trust))
    digest.update(_stats_blob(run_baseline(corpus, CampaignConfig(backends=backends, rng_seed=7))))
    config = CampaignConfig(
        backends=backends,
        max_episode=2,
        rng_seed=7,
        epsilon=campaign_mod.EpsilonSchedule.annealed(),
        train=TrainConfig(use_target_network=True),
    )
    params, records, stats = run_training(corpus, config)
    digest.update(_records_blob(records) + _stats_blob(stats))
    records, stats = run_inference(corpus, params, replace(config, max_episode=1))
    digest.update(_records_blob(records) + _stats_blob(stats))
    for array in params.arrays():
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    assert digest.hexdigest() == EAGER_LOOP_DIGEST


def test_seed_visit_judges_without_parsing(monkeypatch):
    # the loop hands the verifier the parsed seed and each mutant, so a
    # seed visit parses only the seed itself
    calls = {"campaign": 0, "verdicts": 0, "verify_all": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(campaign_mod, "parse_der", counting("campaign", campaign_mod.parse_der))
    monkeypatch.setattr(verdicts_mod, "parse_der", counting("verdicts", verdicts_mod.parse_der))
    monkeypatch.setattr(campaign_mod, "verify_all", counting("verify_all", campaign_mod.verify_all))
    corpus = generate_corpus(1, rng_seed=3)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), max_episode=1, rng_seed=5)
    stats = run_baseline(corpus, config)
    assert stats.seeds_processed == 1
    assert calls["verify_all"] > 1  # the seed and at least one mutant
    assert (calls["campaign"], calls["verdicts"]) == (1, 0)


def test_each_mutant_encoded_once(monkeypatch):
    # the TBS of a mutant is serialized at most once, however many times
    # the loop, the verifier, the database and later readers ask for its
    # bytes
    corpus = generate_corpus(12, rng_seed=3)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), max_episode=1, rng_seed=5)
    apply, encoded, applied = campaign_mod.apply, [], []

    def counting_apply(*args, **kwargs):
        applied.append(apply(*args, **kwargs))
        return applied[-1]

    def counting_encode_tbs(cert):
        encoded.append(cert)
        return encode_tbs(cert)

    monkeypatch.setattr(campaign_mod, "apply", counting_apply)
    monkeypatch.setattr(certs_mod, "encode_tbs", counting_encode_tbs)
    run_training(corpus, config)
    assert applied and encoded
    for _ in range(2):
        assert all(encode_der(mutant) for mutant in applied)
    assert len({id(cert) for cert in encoded}) == len(encoded) <= len(applied)


def test_verdict_memo_changes_nothing(monkeypatch):
    # one panel per training run, shared by the loop and its greedy probes:
    # records, statistics and parameters equal those of a run that judges
    # every input through a fresh one-shot panel, and the panel's memo
    # holds fewer verdicts than were asked
    corpus = generate_corpus(24, 1)
    config = CampaignConfig(
        backends=tuple(default_backends(corpus.trust)),
        max_episode=2,
        rng_seed=11,
        epsilon=campaign_mod.EpsilonSchedule.annealed(),
        train=TrainConfig(use_target_network=True),
    )
    real, calls = campaign_mod.verify_all, []

    def recording(cert, panel):
        calls.append(panel)
        return real(cert, panel)

    probes = []
    run_inference = campaign_mod.run_inference
    monkeypatch.setattr(campaign_mod, "run_inference", lambda *a, **k: probes.append(k["panel"]) or run_inference(*a, **k))
    monkeypatch.setattr(campaign_mod, "verify_all", recording)
    memoized = run_training(corpus, config)
    panel = calls[0]
    assert len(probes) == 2 and all(shared is panel for shared in calls + probes)
    assert 0 < len(panel.memo) < len(calls)

    monkeypatch.setattr(campaign_mod, "verify_all", lambda cert, panel: real(cert, panel.backends, REFERENCE_TIME))
    fresh = run_training(corpus, config)
    assert memoized[1] == fresh[1] and memoized[2] == fresh[2]
    assert [a.tobytes() for a in memoized[0].arrays()] == [a.tobytes() for a in fresh[0].arrays()]


def test_a_campaign_that_raises_closes_its_database(tmp_path, monkeypatch):
    # a campaign keeps one database handle; when a verification raises
    # part-way, the handle is closed and the file holds exactly the records
    # booked before the raise, each one a whole line
    handles, appended = [], []

    class Watched(DiscrepancyDb):
        def append(self, record):
            super().append(record)
            appended.append(record)
            handles.append(self._handle)

    real, calls, crash_at = campaign_mod.verify_all, [], None

    def verify(*args):
        if len(calls) == crash_at:
            raise RuntimeError("verifier crashed")
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(campaign_mod, "DiscrepancyDb", Watched)
    monkeypatch.setattr(campaign_mod, "verify_all", verify)
    corpus = generate_corpus(30, 2)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), rng_seed=3, db_path=str(tmp_path / "whole.db"))
    run_baseline(corpus, config)
    whole = (tmp_path / "whole.db").read_bytes()
    booked = list(appended)
    assert len(booked) > 4 and all(handle is handles[0] for handle in handles) and handles[0].closed

    crash_at, calls[:], handles[:], appended[:] = len(calls) // 2, [], [], []
    with pytest.raises(RuntimeError, match="verifier crashed"):
        run_baseline(corpus, replace(config, db_path=str(tmp_path / "cut.db")))
    assert 0 < len(appended) < len(booked) and all(handle is handles[0] for handle in handles) and handles[0].closed
    cut = (tmp_path / "cut.db").read_bytes()
    assert cut.endswith(b"\n") and cut.count(b"\n") == len(appended) and whole.startswith(cut)
    assert DiscrepancyDb(tmp_path / "cut.db").load_all() == appended == booked[: len(appended)]


def test_campaign_with_external_backend_leaves_memo_empty(tmp_path, monkeypatch):
    # a panel holding an external verifier has no memo: the stub is asked
    # once per verify_all call
    corpus = generate_corpus(1, rng_seed=3)
    log = tmp_path / "calls"
    script = "import sys; open(sys.argv[1], 'a').write('x')"
    patterns = (PatternRule(code=1, exit_status=0), PatternRule(code=-15))
    stub = ExternalBackend("stub", (sys.executable, "-c", script, str(log)), patterns)
    config = CampaignConfig(backends=(*default_backends(corpus.trust)[:1], stub), rng_seed=5)
    real, calls = campaign_mod.verify_all, []
    monkeypatch.setattr(campaign_mod, "verify_all", lambda *args: calls.append(args) or real(*args))
    _, stats = run_inference(corpus, qnet.init(0), config)
    assert stats.seeds_processed == 1 and len(calls) >= 2
    assert all(panel.memo is None for _, panel in calls)
    assert log.read_text() == "x" * len(calls)


def test_external_panel_makes_one_executor(monkeypatch):
    # each verification that runs external verifiers makes one thread pool
    # and shuts it down before it returns; simulated backends need none
    made = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shut = False
            made.append(self)

        def shutdown(self, *args, **kwargs):
            self.shut = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    patterns = (PatternRule(code=1, exit_status=0), PatternRule(code=-15))
    stubs = tuple(ExternalBackend(name, (sys.executable, "-c", "pass", "{cert}"), patterns) for name in ("one", "two"))
    real, made_by_call = campaign_mod.verify_all, []

    def counted(*args):
        before = len(made)
        verdicts = real(*args)
        made_by_call.append([pool.shut for pool in made[before:]])  # state as the call returns
        return verdicts

    monkeypatch.setattr(campaign_mod, "verify_all", counted)
    stats = run_baseline(small_corpus(1), CampaignConfig(backends=stubs, rng_seed=5))
    assert stats.seeds_processed == 1 and made_by_call == [[True]] * (1 + MAX_TRACE_LENGTH)  # the seed and its mutants
    made_by_call.clear()
    run_baseline(small_corpus(2), CampaignConfig(backends=tuple(default_backends(TrustStore())), rng_seed=5))
    assert made_by_call and all(pools == [] for pools in made_by_call)  # a simulated panel makes none


# SHA-256 over the records read back from the database -- (seed id,
# trace, mutant DER) of each -- then the final weights, for a seeded
# training campaign and a seeded random-action baseline.  Pinned before
# the verifier, mutator and loop were reworked to do each step's work
# once; a change meant to move a record or a weight must re-pin it and
# say why.
CAMPAIGN_LOCK_DIGEST = "6f0374ae088f4c698cff159fce8c7f42e9b3ee7913ce105ed2facea98e7ab74b"


def _lock_digest(parts) -> str:
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


def test_campaign_behaviour_lock(tmp_path):
    corpus = generate_corpus(24, 1)
    config = CampaignConfig(
        backends=tuple(default_backends(corpus.trust)),
        max_episode=2,
        rng_seed=11,
        epsilon=campaign_mod.EpsilonSchedule.annealed(),
        train=TrainConfig(use_target_network=True),
        db_path=str(tmp_path / "train.db"),
    )
    params, _, _ = run_training(corpus, config)
    parts = [(DiscrepancyDb(config.db_path).load_all(), params)]

    corpus = generate_corpus(64, 1)
    pair = [spec for spec in default_backend_specs() if spec.id in ("mbedtls-like", "openssl-like")]
    config = CampaignConfig(
        backends=tuple(bind_backends(pair, corpus.trust)),
        max_episode=1,
        rng_seed=11,
        db_path=str(tmp_path / "pair.db"),
    )
    run_baseline(corpus, config)
    parts.append((DiscrepancyDb(config.db_path).load_all(), None))
    assert _lock_digest(parts) == CAMPAIGN_LOCK_DIGEST


@pytest.mark.parametrize("use_target_network", [True, False])
def test_learner_targets_match_per_batch_reference(use_target_network, monkeypatch):
    # the learner reads its TD targets from the replay ring's per-version
    # cache; parameters and losses must equal, bit for bit, a learner that
    # calls td_targets on every batch (syncs every 7 updates, 6 syncs, and
    # a ring small enough to evict)
    monkeypatch.setattr(qnet, "BATCH_SIZE", 8)
    monkeypatch.setattr(qnet, "REPLAY_CAPACITY", 20)
    monkeypatch.setattr(qnet, "TARGET_SYNC_INTERVAL", 7)
    config = CampaignConfig(backends=(), rng_seed=5, train=TrainConfig(use_target_network=use_target_network))
    data = random.Random(6)
    steps = []
    for _ in range(45):
        state = [data.randint(-1, 4) for _ in range(FEATURE_LENGTH)]
        terminal = data.random() < 0.3
        next_state = None if terminal else [data.randint(-1, 4) for _ in range(FEATURE_LENGTH)]
        steps.append((state, data.randrange(qnet.ACTION_COUNT), data.choice([100, -1]), next_state))

    recomputed = []
    real_max_next_q = qnet.max_next_q

    def counting_max_next_q(params, rows):
        recomputed.append(len(rows))
        return real_max_next_q(params, rows)

    monkeypatch.setattr(qnet, "max_next_q", counting_max_next_q)
    learner = campaign_mod._Learner(config, random.Random(7))
    losses = []
    for step in steps:
        learner.observe(*step)
        losses.append(learner.last_loss)
    learner_recomputed = sum(recomputed)

    rng = random.Random(7)
    params = target = qnet.init(config.rng_seed)
    ring = qnet.ReplayBuffer(20)
    expected_losses, live_rows = [], 0
    for update, step in enumerate(steps, 1):
        ring.add(*step)
        indices = [len(ring) - 1] + (ring.sample(7, rng) if len(ring) >= 8 else [])
        batch = gather(ring, indices)
        live_rows += int((~batch.terminal).sum())
        targets = td_targets(batch, target if use_target_network else params)
        params, loss = qnet.train_step(params, batch.states, batch.actions, targets)
        expected_losses.append(loss)
        if use_target_network and update % 7 == 0:
            target = params
    assert learner.updates // 7 >= 3 and len(learner.buffer) == 20 < len(steps)
    assert losses == expected_losses
    assert all(a.tobytes() == b.tobytes() for a, b in zip(learner.params.arrays(), params.arrays()))
    # with a target network the cache saves work; without one it saves none
    assert (learner_recomputed < live_rows) == use_target_network


def test_no_op_fixed_point_repeats_its_der_and_verdicts():
    # the lemma the greedy stop rests on: a mutant that re-encodes its
    # parent gives, under the same action again, the same DER and the same
    # verdicts (3,000 seeded sequences of 1-10 actions, a fresh panel per
    # verification, so no memo entry answers for another input)
    corpus = generate_corpus(30, 1)
    backends = tuple(default_backends(corpus.trust))
    seeds = [certs_mod.parse_der(entry.der) for entry in corpus.entries]

    def verdicts(cert):
        return verify_all(cert, verdicts_mod.Panel(backends, REFERENCE_TIME))

    rng = random.Random(12)
    noops = 0
    for _ in range(3000):
        cert = seeds[rng.randrange(len(seeds))]
        der = encode_der(cert)
        for _ in range(1 + rng.randrange(MAX_TRACE_LENGTH)):
            action = rng.randrange(CATALOG_SIZE)
            mutant = apply(cert, action)
            mutant_der = encode_der(mutant)
            if mutant_der == der:
                noops += 1
                again = apply(mutant, action)
                assert encode_der(again) == der
                assert verdicts(again) == verdicts(mutant) == verdicts(cert)
            cert, der = mutant, mutant_der
    assert noops > 1000


class _LearnsNothing:
    """A learner that observes and changes nothing: a loop with a learner
    never ends a seed at a no-op, so this runs greedy inference in full."""

    updates = 0
    last_loss = None

    def observe(self, *transition):
        pass


def _inference_in_full(corpus, params, config, panel=None):
    def choose(state) -> int:
        return qnet.select_action(params, state, 0.0, None)

    return campaign_mod._run_loop(corpus, config, choose, extract, _LearnsNothing(), panel)


@pytest.mark.parametrize("reward_scheme", ["primary", "delta"])
@pytest.mark.parametrize("corpus_seed", [1, 4])
def test_greedy_stop_at_a_no_op_changes_no_output(reward_scheme, corpus_seed, monkeypatch):
    # greedy inference ends a seed at its first no-op that is no
    # discrepancy; records and statistics equal those of the full run,
    # which verifies more inputs
    corpus = generate_corpus(40, corpus_seed)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), rng_seed=3, reward_scheme=reward_scheme)
    params = qnet.init(11)
    calls = {}
    _count_calls(monkeypatch, campaign_mod, "verify_all", calls)
    stopped = run_inference(corpus, params, config)
    stopped_calls = calls.pop("verify_all")
    full = _inference_in_full(corpus, params, config)
    assert stopped[0] and stopped == full  # records, then statistics
    assert 0 < stopped_calls < calls["verify_all"]


def test_greedy_no_op_of_a_discrepancy_keeps_booking():
    # under delta a discrepancy need not end the seed: three backends, and
    # version 4 turns two categories (-4, -5) into two others (1, -4), so
    # the reward is 0 and the vector does not saturate.  Setting version 4
    # again is a no-op that books the same DER with a longer trace, to the
    # budget's end, with the stop as without it
    class SplitOnV4(RiggedBackend):
        def verify_prepared(self, facts, window):
            if facts is None:
                return -3
            if is_v4(facts):
                return 1 if self.accepts_v4 else -4
            return -4 if self.accepts_v4 else -5

    backends = (SplitOnV4("lenient", True), SplitOnV4("strict", False), SplitOnV4("strict-2", False))
    corpus = small_corpus(3)
    config = CampaignConfig(backends=backends, rng_seed=1, reward_scheme="delta")

    def choose(_state) -> int:
        return WINNING_ACTION

    stopped = campaign_mod._run_loop(corpus, config, choose, extract, None)
    full = campaign_mod._run_loop(corpus, config, choose, extract, _LearnsNothing())
    assert stopped == full
    records = stopped[0]
    assert len(records) == len(corpus.entries) * MAX_TRACE_LENGTH
    assert sorted({len(rec.trace) for rec in records}) == list(range(1, MAX_TRACE_LENGTH + 1))
    assert all(len({rec.mutant_der for rec in records if rec.seed_id == entry.seed_id}) == 1 for entry in corpus.entries)


def test_greedy_stop_changes_no_trained_parameter(monkeypatch):
    # the end-of-episode probes pick the returned snapshot: with the stop
    # they verify fewer inputs and choose the same parameters
    corpus = generate_corpus(24, 1)
    config = CampaignConfig(
        backends=tuple(default_backends(corpus.trust)),
        max_episode=2,
        rng_seed=11,
        epsilon=campaign_mod.EpsilonSchedule.annealed(),
        train=TrainConfig(use_target_network=True),
    )
    calls = {}
    _count_calls(monkeypatch, campaign_mod, "verify_all", calls)
    stopped = run_training(corpus, config)
    stopped_calls = calls.pop("verify_all")
    monkeypatch.setattr(campaign_mod, "run_inference", _inference_in_full)
    full = run_training(corpus, config)
    assert stopped[1:] == full[1:]
    assert [a.tobytes() for a in stopped[0].arrays()] == [a.tobytes() for a in full[0].arrays()]
    assert stopped_calls < calls["verify_all"]


def _eager_baseline(corpus, config):
    # run_baseline's chooser on a loop with a state function whose states
    # nothing reads and a learner that learns nothing: the loop decides
    # no-ops and reuses states, and never ends a seed at a no-op
    rng = random.Random(config.rng_seed)
    return campaign_mod._run_loop(corpus, config, lambda _state: rng.randrange(CATALOG_SIZE), lambda cert: None, _LearnsNothing())


@pytest.mark.parametrize("panel", ["six", "pair"])
@pytest.mark.parametrize("reward_scheme", ["primary", "delta"])
@pytest.mark.parametrize("corpus_seed", [1, 4])
def test_baseline_encoding_only_what_it_books_changes_no_output(panel, reward_scheme, corpus_seed, tmp_path):
    corpus = generate_corpus(40, corpus_seed)
    specs = [s for s in default_backend_specs() if panel == "six" or s.id in ("mbedtls-like", "openssl-like")]
    config = CampaignConfig(
        backends=tuple(bind_backends(specs, corpus.trust)),
        max_episode=2,
        rng_seed=corpus_seed + 10,
        reward_scheme=reward_scheme,
        db_path=str(tmp_path / "lazy.db"),
    )
    lazy_stats = run_baseline(corpus, config)
    eager_records, eager_stats = _eager_baseline(corpus, replace(config, db_path=str(tmp_path / "eager.db")))
    assert any(rec.trace for rec in eager_records)
    assert DiscrepancyDb(config.db_path).load_all() == eager_records
    assert (tmp_path / "lazy.db").read_bytes() == (tmp_path / "eager.db").read_bytes()
    assert _stats_blob(lazy_stats) == _stats_blob(eager_stats)


def test_every_loop_encodes_only_the_mutants_it_books(monkeypatch):
    # every loop, the training probes too, decides no-ops from fields and
    # verifies each mutant from its fields, so it encodes a mutant once,
    # to book it, and never one it does not book
    corpus = generate_corpus(40, 1)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), max_episode=2, rng_seed=5)
    encode, record = campaign_mod.encode_der, campaign_mod.DiscrepancyRecord
    encoded, booked, counts = [], [], {}

    def encoding(cert):
        encoded.append(encode(cert))
        return encoded[-1]

    def booking(*args, **kwargs):
        rec = record(*args, **kwargs)
        if rec.trace:  # a mutant, not a seed booked as it is
            booked.append(rec.mutant_der)
        return rec

    monkeypatch.setattr(campaign_mod, "encode_der", encoding)
    monkeypatch.setattr(campaign_mod, "DiscrepancyRecord", booking)
    for name in ("parse_der", "apply", "verify_all"):
        _count_calls(monkeypatch, campaign_mod, name, counts)
    for run in (
        lambda: run_baseline(corpus, config),
        lambda: run_training(corpus, config),
        lambda: run_inference(corpus, qnet.init(1), config),  # parameters that book on this corpus
    ):
        for seen in (encoded, booked, counts):
            seen.clear()
        run()
        assert 0 < len(booked) < counts["apply"]
        assert encoded == booked
        assert counts["verify_all"] == counts["parse_der"] + counts["apply"]  # every seed and mutant is verified


@pytest.mark.parametrize("scheme", campaign_mod.REWARD_SCHEMES)
def test_the_loop_rewards_each_mutant_through_campaign_reward(monkeypatch, scheme):
    # the reward the tests check is the one the loop runs: one call per
    # mutant, under the campaign's scheme, in training and the baseline
    corpus = generate_corpus(20, 1)
    config = CampaignConfig(backends=tuple(default_backends(corpus.trust)), reward_scheme=scheme, rng_seed=5)
    reward, schemes, counts = campaign_mod.reward, [], {}

    def recording_reward(*args):
        schemes.append(args[0])
        return reward(*args)

    monkeypatch.setattr(campaign_mod, "reward", recording_reward)
    _count_calls(monkeypatch, campaign_mod, "apply", counts)
    for run in (lambda: run_training(corpus, config), lambda: run_baseline(corpus, config)):
        schemes.clear()
        counts.clear()
        run()
        assert len(schemes) == counts["apply"] > 0
        assert set(schemes) == {scheme}
