"""Q-network test helpers: `Transition` objects, stacking them into a
`qnet.Batch`, and a `train_step` that takes its targets from
`qnet.td_targets`, as tests written against single transitions need."""

from dataclasses import dataclass

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


def train_step(params, batch, config, params_target=None):
    """`qnet.train_step` on the `td_targets` of ``params_target``, or of
    ``params`` when there is no target network."""
    target = params if params_target is None else params_target
    return qnet.train_step(params, batch, qnet.td_targets(batch, target, config.gamma), config)
