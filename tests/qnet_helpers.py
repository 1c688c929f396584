"""Q-network test helpers: `Transition` objects, stacking them into a
`qnet.Batch`, `td_targets` recomputed for every batch as the oracle of
the replay ring's cached targets, a `train_step` that takes its targets
from it, as tests written against single transitions need, and a
per-draw splitmix64 `init` as the oracle of the vectorized one."""

from dataclasses import dataclass

import numpy as np

from diffcert import qnet
from diffcert.features import FEATURE_LENGTH


@dataclass(frozen=True)
class Transition:
    """One interaction step; terminal transitions carry no next state."""

    state: tuple[int, ...]
    action: int
    reward: int
    next_state: tuple[int, ...] | None
    terminal: bool

    def __post_init__(self):
        if self.terminal != (self.next_state is None):
            raise ValueError("terminal transitions and only they omit next_state")
        if len(self.state) != FEATURE_LENGTH:
            raise qnet.DimensionMismatch(f"state length {len(self.state)} != {FEATURE_LENGTH}")
        if self.next_state is not None and len(self.next_state) != FEATURE_LENGTH:
            raise qnet.DimensionMismatch(f"next_state length {len(self.next_state)} != {FEATURE_LENGTH}")


def as_batch(transitions) -> qnet.Batch:
    """Stack `Transition` objects into a `Batch`, in order."""
    transitions = list(transitions)
    ring = qnet.ReplayBuffer(max(len(transitions), 1))
    for t in transitions:
        ring.add(t.state, t.action, t.reward, t.next_state)
    return ring.batch(range(len(transitions)))


def td_targets(batch: qnet.Batch, params_target: qnet.QParams, gamma: float = qnet.GAMMA) -> np.ndarray:
    """Bellman targets: reward, plus discounted max next-Q when non-terminal."""
    targets = batch.rewards.copy()
    live = ~batch.terminal
    if live.any():
        targets[live] += gamma * qnet.max_next_q(params_target, batch.next_states[live])
    return targets


def train_step(params, batch, params_target=None):
    """`qnet.train_step` on the `td_targets` of ``params_target``, or of
    ``params`` when there is no target network."""
    target = params if params_target is None else params_target
    return qnet.train_step(params, batch, td_targets(batch, target))


_M64 = (1 << 64) - 1


def splitmix64(seed: int):
    """The splitmix64 stream, one Python integer per draw."""
    state = seed & _M64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def init_per_draw(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``w0``, ``w1`` and ``w2`` of `qnet.init`, drawn one weight at a time."""
    stream = splitmix64(seed)

    def uniform(rows: int, cols: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(rows)
        values = [((next(stream) / 2.0**64) * 2.0 - 1.0) * bound for _ in range(rows * cols)]
        return np.array(values, dtype=np.float64).reshape(rows, cols)

    return tuple(uniform(rows, cols) for rows, cols in zip(qnet.LAYER_DIMS[:-1], qnet.LAYER_DIMS[1:]))
