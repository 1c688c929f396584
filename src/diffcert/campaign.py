"""Campaign orchestration: iterate episodes over a seed corpus, driving
the select -> mutate -> verify -> reward -> learn loop, collecting
discrepancy-triggering certificates along the way.

Three entry points share one loop: training (epsilon-greedy, one
replay-backed update per transition), inference (greedy, parameters
frozen) and the random-action baseline used as the comparison
denominator.  Every seed is differential-tested unmodified first; seeds
that already trigger a discrepancy are recorded and skipped.  A campaign
on simulated backends is bit-reproducible from its rng seed.
"""

from __future__ import annotations

import datetime as dt
import logging
import random
from dataclasses import dataclass, field, replace

from . import qnet
from .actions import CATALOG_SIZE, apply
from .certs import REFERENCE_TIME, MalformedDer, UnsupportedStructure, encode_der, parse_der
from .corpus import DiscrepancyDb, DiscrepancyRecord, SeedCorpus
from .features import LabelRegistry, default_registry, extract
from .qnet import QParams, ReplayBuffer, TrainConfig
from .verdicts import InsufficientBackends, VerdictVector, is_discrepancy, reward_delta, reward_primary, verdict_categories, verify_all

log = logging.getLogger(__name__)

REWARD_PRIMARY = "primary"
REWARD_DELTA = "delta"


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exploration probability as a function of the update count.

    The default is the constant 10% the training loop is described with;
    an annealed schedule (high start, linear decay) is the usual way to
    front-load exploration when the episode budget is small.
    """

    start: float = 0.1
    end: float = 0.1
    decay_updates: int = 0

    def at(self, update: int) -> float:
        if self.decay_updates <= 0 or update >= self.decay_updates:
            return self.end
        frac = update / self.decay_updates
        return self.start + (self.end - self.start) * frac

    @classmethod
    def annealed(cls, start: float = 1.0, end: float = 0.1, decay_updates: int = 3000) -> "EpsilonSchedule":
        return cls(start, end, decay_updates)


@dataclass(frozen=True)
class CampaignConfig:
    backends: tuple  # bound backends, configuration order
    max_episode: int = 1
    max_modification: int = 9  # up to max_modification + 1 = 10 mutants per seed
    reward_scheme: str = REWARD_PRIMARY
    rng_seed: int = 0
    reference_time: dt.datetime = REFERENCE_TIME
    train: TrainConfig = field(default_factory=TrainConfig)
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    registry: LabelRegistry = field(default_factory=default_registry)
    db_path: str | None = None

    def __post_init__(self):
        if self.max_modification < 0:
            raise ValueError("max_modification must be >= 0")
        if self.reward_scheme not in (REWARD_PRIMARY, REWARD_DELTA):
            raise ValueError(f"unknown reward scheme {self.reward_scheme!r}")


@dataclass
class EpisodeStats:
    corpus_size: int = 0
    discrepancies: int = 0

    @property
    def proportion(self) -> float:
        return self.discrepancies / self.corpus_size if self.corpus_size else 0.0


@dataclass
class CampaignStats:
    seeds_processed: int = 0
    skipped_seeds: int = 0
    discrepancies: int = 0
    modification_histogram: dict[int, int] = field(default_factory=dict)
    type_counts: dict[tuple[int, ...], int] = field(default_factory=dict)
    episodes: list[EpisodeStats] = field(default_factory=list)
    updates: int = 0
    final_loss: float | None = None

    @property
    def yield_ratio(self) -> float:
        return self.discrepancies / self.seeds_processed if self.seeds_processed else 0.0

    def summary_lines(self) -> list[str]:
        lines = []
        for i, ep in enumerate(self.episodes, 1):
            lines.append(
                f"episode {i}: corpus {ep.corpus_size}  discrepancies {ep.discrepancies}  proportion {ep.proportion:.1%}"
            )
        lines.append(
            f"total: seeds {self.seeds_processed}  discrepancies {self.discrepancies}  yield {self.yield_ratio:.1%}"
        )
        return lines


class _Learner:
    """Owns the network parameters and the replay buffer during training.

    One gradient step per transition, on a batch made of the fresh
    transition plus a uniform replay sample once the buffer can supply
    one; raw batch-of-one updates destabilize the value scale badly.
    The batch is read from the replay ring by logical index, and its TD
    targets from the ring's per-version cache of max next-Q.
    """

    def __init__(self, config: CampaignConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self.params = qnet.init(config.rng_seed)
        self.target = self.params
        self.buffer = ReplayBuffer(config.train.replay_capacity)
        self.updates = 0
        self.last_loss: float | None = None

    def select(self, state) -> int:
        q = qnet.forward(self.params, state)
        return qnet.select_action(q, self.config.epsilon.at(self.updates), self.rng)

    def observe(self, state, action: int, reward: int, next_state) -> None:
        """Learn from one transition; ``next_state`` is None when terminal."""
        cfg = self.config.train
        # the version names the parameters the TD targets come from: the
        # target network changes only at a sync, the online one every update
        if cfg.use_target_network:
            target, version = self.target, self.updates // cfg.target_sync_interval
        else:
            target, version = self.params, self.updates
        self.buffer.add(state, action, reward, next_state)
        indices = [len(self.buffer) - 1]
        if len(self.buffer) >= cfg.batch_size:
            indices += self.buffer.sample(cfg.batch_size - 1, self.rng)
        targets = self.buffer.targets(indices, target, version, cfg.gamma)
        batch = self.buffer.batch(indices)
        self.params, self.last_loss = qnet.train_step(self.params, batch, targets, cfg)
        self.updates += 1
        if cfg.use_target_network and self.updates % cfg.target_sync_interval == 0:
            self.target = self.params


def _seed_stop(config: CampaignConfig, verdicts: VerdictVector, previous: VerdictVector) -> tuple[int, bool]:
    """Reward for one mutant plus whether the seed's loop should stop."""
    if config.reward_scheme == REWARD_PRIMARY:
        reward = reward_primary(verdicts)
        return reward, reward == 100
    reward = reward_delta(previous, verdicts)
    saturated = len(verdict_categories(verdicts)) == len(config.backends)
    return reward, reward > 0 or saturated


def _run_loop(
    corpus: SeedCorpus,
    config: CampaignConfig,
    choose,
    learner: _Learner | None,
    on_episode_end=None,
) -> tuple[list[DiscrepancyRecord], CampaignStats]:
    if len(config.backends) < 2:
        raise InsufficientBackends(f"need at least 2 backends, have {len(config.backends)}")
    rng = random.Random(config.rng_seed ^ 0x5EED)
    now = config.reference_time
    registry = config.registry
    stats = CampaignStats()
    records: list[DiscrepancyRecord] = []
    db = DiscrepancyDb(config.db_path) if config.db_path else None

    def book(seed_id: str, trace: tuple[int, ...], mutant_der: bytes, verdicts: VerdictVector, episode: EpisodeStats):
        rec = DiscrepancyRecord(
            seed_id=seed_id,
            trace=trace,
            mutant_der=mutant_der,
            verdicts=verdicts.codes,
            backend_ids=verdicts.backend_ids,
            timestamp=now.isoformat(),
            rng_seed=config.rng_seed,
        )
        records.append(rec)
        if db is not None:
            db.append(rec)
        stats.discrepancies += 1
        episode.discrepancies += 1
        stats.modification_histogram[len(trace)] = stats.modification_histogram.get(len(trace), 0) + 1
        stats.type_counts[verdicts.codes] = stats.type_counts.get(verdicts.codes, 0) + 1

    for episode_index in range(config.max_episode):
        episode = EpisodeStats()
        order = list(range(len(corpus.entries)))
        rng.shuffle(order)
        for index in order:
            entry = corpus.entries[index]
            try:
                seed = parse_der(entry.der)
            except (MalformedDer, UnsupportedStructure):
                stats.skipped_seeds += 1
                continue
            stats.seeds_processed += 1
            episode.corpus_size += 1

            verdicts = verify_all(seed, config.backends, now)
            if is_discrepancy(verdicts):
                book(entry.seed_id, (), entry.der, verdicts, episode)
                continue

            current, previous = seed, verdicts
            state = extract(seed, now, registry)
            trace: list[int] = []
            for step in range(config.max_modification + 1):
                action = choose(state)
                mutant = apply(current, action, now=now)
                mutant_der = encode_der(mutant)
                verdicts = verify_all(mutant, config.backends, now)
                reward, stop = _seed_stop(config, verdicts, previous)
                exhausted = step == config.max_modification
                terminal = stop or exhausted
                trace.append(action)
                next_state = None if terminal else extract(mutant, now, registry)
                if learner is not None:
                    learner.observe(state, action, reward, next_state)
                if is_discrepancy(verdicts):
                    book(entry.seed_id, tuple(trace), mutant_der, verdicts, episode)
                if terminal:
                    break
                current, previous, state = mutant, verdicts, next_state
        stats.episodes.append(episode)
        log.info(
            "episode %d: corpus %d discrepancies %d proportion %.1f%%",
            episode_index + 1,
            episode.corpus_size,
            episode.discrepancies,
            100.0 * episode.proportion,
        )
        if on_episode_end is not None:
            on_episode_end(episode_index)
    if learner is not None:
        stats.updates = learner.updates
        stats.final_loss = learner.last_loss
    return records, stats


def _greedy_probe_yield(corpus: SeedCorpus, config: CampaignConfig, params: QParams) -> float:
    """Greedy yield on the corpus's first 100 seeds."""
    probe = SeedCorpus(corpus.entries[:100], trust=corpus.trust)
    _, stats = run_inference(probe, params, replace(config, max_episode=1, db_path=None))
    return stats.yield_ratio


def run_training(corpus: SeedCorpus, config: CampaignConfig) -> tuple[QParams, list[DiscrepancyRecord], CampaignStats]:
    """Train while fuzzing; returns the parameters, collected discrepancy
    records and campaign statistics.

    Value iteration with a function approximator does not improve
    monotonically, so each end-of-episode snapshot is scored with a
    greedy probe and the best-scoring one is returned.
    """
    rng = random.Random(config.rng_seed)
    learner = _Learner(config, rng)
    snapshots: list[tuple[float, int, QParams]] = []

    def on_episode_end(episode_index: int) -> None:
        probe = _greedy_probe_yield(corpus, config, learner.params)
        log.info("episode %d greedy probe yield %.1f%%", episode_index + 1, 100.0 * probe)
        snapshots.append((probe, -episode_index, learner.params))

    records, stats = _run_loop(corpus, config, learner.select, learner, on_episode_end=on_episode_end)
    params = max(snapshots)[2] if snapshots else learner.params
    return params, records, stats


def run_inference(corpus: SeedCorpus, params: QParams, config: CampaignConfig) -> tuple[list[DiscrepancyRecord], CampaignStats]:
    """Greedy fuzzing with frozen parameters (epsilon = 0, no updates)."""

    def choose(state) -> int:
        return int(qnet.select_action(qnet.forward(params, state), 0.0, _NO_RNG))

    return _run_loop(corpus, config, choose, None)


def run_baseline(corpus: SeedCorpus, config: CampaignConfig) -> CampaignStats:
    """The same loop with uniformly random actions and no learning."""
    rng = random.Random(config.rng_seed)

    def choose(_state) -> int:
        return rng.randrange(CATALOG_SIZE)

    _, stats = _run_loop(corpus, config, choose, None)
    return stats


class _NeverRandom(random.Random):
    def random(self):  # pragma: no cover - epsilon 0 never draws entropy
        raise AssertionError("greedy selection must not consume randomness")


_NO_RNG = _NeverRandom()
