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

import logging
import random
from dataclasses import dataclass, field, replace

from . import qnet
from .actions import CATALOG_SIZE, MAX_TRACE_LENGTH, apply
from .certs import REFERENCE_TIME, MalformedDer, UnsupportedStructure, encode_der, parse_der
from .corpus import DiscrepancyDb, DiscrepancyRecord, SeedCorpus
from .features import extract
from .qnet import QParams, ReplayBuffer, TrainConfig
from .verdicts import Panel, VerdictVector, verify_all

log = logging.getLogger(__name__)

REWARD_PRIMARY = "primary"
REWARD_DELTA = "delta"
REWARD_SCHEMES = (REWARD_PRIMARY, REWARD_DELTA)


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
        if update >= self.decay_updates:
            return self.end
        frac = update / self.decay_updates
        return self.start + (self.end - self.start) * frac

    @classmethod
    def annealed(cls) -> "EpsilonSchedule":
        """1.0 falling linearly to 0.1 over 3,000 updates: the training recipe."""
        return cls(1.0, 0.1, 3000)


@dataclass(frozen=True)
class CampaignConfig:
    backends: tuple  # bound backends, configuration order
    max_episode: int = 1
    reward_scheme: str = REWARD_PRIMARY
    rng_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    db_path: str | None = None

    def __post_init__(self):
        if self.max_episode < 1:
            raise ValueError(f"max_episode must be at least 1, got {self.max_episode}")
        if self.reward_scheme not in REWARD_SCHEMES:
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
    Each update reads its rows' states and actions from the replay ring,
    and their TD targets from the ring's per-version cache of max next-Q.
    """

    def __init__(self, config: CampaignConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self.params = qnet.init(config.rng_seed)
        self.target = self.params
        self.buffer = ReplayBuffer(qnet.REPLAY_CAPACITY)
        self.updates = 0
        self.last_loss: float | None = None

    def select(self, state) -> int:
        return qnet.select_action(self.params, state, self.config.epsilon.at(self.updates), self.rng)

    def observe(self, state, action: int, reward: int, next_state) -> None:
        """Learn from one transition; ``next_state`` is None when terminal."""
        # without a target network the target is synced after every update;
        # the version names the parameters the TD targets come from
        interval = qnet.TARGET_SYNC_INTERVAL if self.config.train.use_target_network else 1
        self.buffer.add(state, action, reward, next_state)
        indices = [len(self.buffer) - 1]
        if len(self.buffer) >= qnet.BATCH_SIZE:
            indices += self.buffer.sample(qnet.BATCH_SIZE - 1, self.rng)
        rows = self.buffer.rows(indices)
        targets = self.buffer.targets(rows, self.target, self.updates // interval)
        store = self.buffer.store
        self.params, self.last_loss = qnet.train_step(self.params, store.states[rows], store.actions[rows], targets)
        self.updates += 1
        if self.updates % interval == 0:
            self.target = self.params


def reward(scheme: str, verdicts: VerdictVector, previous: VerdictVector) -> tuple[int, bool]:
    """The reward for a mutant judged ``verdicts`` whose parent was judged
    ``previous``, and whether its seed's loop stops there.

    ``primary`` gives 100 and stops on a discrepancy, and -1 otherwise.
    ``delta`` gives the growth in distinct verdicts, and stops when they
    grew or when every backend gave a verdict of its own.
    """
    if scheme == REWARD_PRIMARY:
        return (100 if verdicts.discrepancy else -1), verdicts.discrepancy
    growth = verdicts.categories - previous.categories
    return growth, growth > 0 or verdicts.categories == len(verdicts.codes)


def _run_loop(
    corpus: SeedCorpus,
    config: CampaignConfig,
    choose,
    featurize,
    learner: _Learner | None,
    panel: Panel | None = None,
    on_episode_end=None,
) -> tuple[list[DiscrepancyRecord], CampaignStats]:
    """``choose`` picks each action from the current state, the vector
    ``featurize(cert)``; a loop whose chooser and learner read no state
    passes None and its state stays None."""
    panel = panel or Panel(config.backends, REFERENCE_TIME)
    rng = random.Random(config.rng_seed ^ 0x5EED)
    stats = CampaignStats()
    records: list[DiscrepancyRecord] = []
    db = DiscrepancyDb(config.db_path) if config.db_path else None
    greedy = learner is None and featurize is not None  # frozen parameters choose from the state alone

    def book(seed_id: str, trace: tuple[int, ...], mutant_der: bytes, verdicts: VerdictVector, episode: EpisodeStats):
        rec = DiscrepancyRecord(
            seed_id=seed_id,
            trace=trace,
            mutant_der=mutant_der,
            verdicts=verdicts.codes,
            backend_ids=verdicts.backend_ids,
            timestamp=REFERENCE_TIME.isoformat(),
            rng_seed=config.rng_seed,
        )
        records.append(rec)
        if db is not None:
            db.append(rec)
        stats.discrepancies += 1
        episode.discrepancies += 1
        stats.modification_histogram[len(trace)] = stats.modification_histogram.get(len(trace), 0) + 1
        stats.type_counts[verdicts.codes] = stats.type_counts.get(verdicts.codes, 0) + 1

    try:
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

                verdicts = verify_all(seed, panel)
                if verdicts.discrepancy:
                    book(entry.seed_id, (), entry.der, verdicts, episode)
                    continue

                current, previous = seed, verdicts
                state = featurize(seed) if featurize is not None else None
                trace: list[int] = []
                for step in range(MAX_TRACE_LENGTH):
                    action = choose(state)
                    mutant = apply(current, action)
                    # a no-op mutant equals its parent, so it has its parent's state, verdicts and successors
                    no_op = featurize is not None and mutant == current
                    verdicts = verify_all(mutant, panel)
                    score, stop = reward(config.reward_scheme, verdicts, previous)
                    exhausted = step == MAX_TRACE_LENGTH - 1
                    terminal = stop or exhausted
                    trace.append(action)
                    next_state = None
                    if featurize is not None and not terminal:
                        next_state = state if no_op else featurize(mutant)
                    if learner is not None:
                        learner.observe(state, action, score, next_state)
                    if verdicts.discrepancy:
                        book(entry.seed_id, tuple(trace), encode_der(mutant), verdicts, episode)
                    if terminal or (greedy and no_op and not verdicts.discrepancy):
                        # a greedy no-op leaves the state as it was, so the same action
                        # and verdicts would repeat to the budget's end, booking nothing
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
    finally:
        if db is not None:
            db.close()
    if learner is not None:
        stats.updates = learner.updates
        stats.final_loss = learner.last_loss
    return records, stats


def run_training(corpus: SeedCorpus, config: CampaignConfig) -> tuple[QParams, list[DiscrepancyRecord], CampaignStats]:
    """Train while fuzzing; returns the parameters, collected discrepancy
    records and campaign statistics.

    Value iteration with a function approximator does not improve
    monotonically, so each end-of-episode snapshot is scored by its greedy
    yield on the corpus's first 100 seeds and the best-scoring one is
    returned.  The probes revisit the loop's seeds under the same backends
    and clock, so all share one panel and its memo.
    """
    rng = random.Random(config.rng_seed)
    learner = _Learner(config, rng)
    snapshots: list[tuple[float, int, QParams]] = []
    probe_corpus = SeedCorpus(corpus.entries[:100], trust=corpus.trust)
    probe_config = replace(config, max_episode=1, db_path=None)

    def on_episode_end(episode_index: int) -> None:
        probe = run_inference(probe_corpus, learner.params, probe_config, panel=panel)[1].yield_ratio
        log.info("episode %d greedy probe yield %.1f%%", episode_index + 1, 100.0 * probe)
        snapshots.append((probe, -episode_index, learner.params))

    panel = Panel(config.backends, REFERENCE_TIME)
    records, stats = _run_loop(corpus, config, learner.select, extract, learner, panel, on_episode_end)
    params = max(snapshots)[2] if snapshots else learner.params
    return params, records, stats


def run_inference(
    corpus: SeedCorpus, params: QParams, config: CampaignConfig, panel: Panel | None = None
) -> tuple[list[DiscrepancyRecord], CampaignStats]:
    """Greedy fuzzing with frozen parameters (epsilon = 0, no updates);
    ``panel`` is a panel of ``config``'s backends to share, or None to
    build one for this run."""

    def choose(state) -> int:
        return qnet.select_action(params, state, 0.0, None)

    return _run_loop(corpus, config, choose, extract, None, panel)


def _random_chooser(rng: random.Random):
    """A chooser that ignores the state and draws ``rng.randrange(CATALOG_SIZE)``
    with its rejection loop over ``getrandbits`` inlined: the same actions
    and the same rng state afterwards, without randrange's checks."""
    getrandbits, bits = rng.getrandbits, CATALOG_SIZE.bit_length()

    def choose(_state) -> int:
        action = getrandbits(bits)
        while action >= CATALOG_SIZE:
            action = getrandbits(bits)
        return action

    return choose


def run_baseline(corpus: SeedCorpus, config: CampaignConfig) -> CampaignStats:
    """The same loop with uniformly random actions and no learning; it
    featurizes nothing, since nothing reads a state."""
    _, stats = _run_loop(corpus, config, _random_chooser(random.Random(config.rng_seed)), None, None)
    return stats

