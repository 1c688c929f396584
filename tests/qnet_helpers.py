"""Q-network test helpers: `Transition` objects, stacking them into a
`qnet.Batch`, reading a replay ring's transitions by logical index,
`td_targets` recomputed for every batch as the oracle of the replay
ring's cached targets, a `train_step` that takes its targets from it, as
tests written against single transitions need, a verbatim copy of the
earlier `qnet._gradients` and `qnet.train_step` as the bit-equality
oracle of the current ones, and a per-draw splitmix64 `init` as the
oracle of the vectorized one."""

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
    return gather(ring, range(len(transitions)))


def gather(ring: qnet.ReplayBuffer, indices) -> qnet.Batch:
    """The transitions of ``ring`` at the given logical indices."""
    rows = ring.rows(indices)
    return qnet.Batch(*(column[rows] for column in ring.store))


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
    return qnet.train_step(params, batch.states, batch.actions, td_targets(batch, target))


# The gradient step as it stood before its reductions were called directly
# and ``dh1`` became a gather; verbatim but for the `qnet.` prefixes and the
# arguments of `NonFiniteLoss`.

def reference_gradients(params: qnet.QParams, batch: qnet.Batch, targets: np.ndarray) -> tuple[tuple[np.ndarray, ...], float]:
    """Gradients (`QParams.arrays` order) of the mean squared error of Q(state,
    taken action) against ``targets``, and the loss; reads only states and actions."""
    n = len(batch.actions)
    if not n:
        raise ValueError("empty batch")

    x = batch.states
    z0, h0, z1, h1, q = qnet._forward_batch(params, x)

    rows = np.arange(n)
    predicted = q[rows, batch.actions]
    errors = predicted - targets
    with np.errstate(over="ignore"):
        loss = float(np.mean(errors**2))
    if not np.isfinite(loss):
        raise qnet.NonFiniteLoss(loss, batch.states, batch.actions)

    dq = np.zeros_like(q)
    dq[rows, batch.actions] = 2.0 * errors / n
    dw2 = h1.T @ dq
    db2 = dq.sum(axis=0)
    dh1 = dq @ params.w2.T
    dh1 *= z1 > 0.0
    dw1 = h0.T @ dh1
    db1 = dh1.sum(axis=0)
    dh0 = dh1 @ params.w1.T
    dh0 *= z0 > 0.0
    dw0 = x.T @ dh0
    db0 = dh0.sum(axis=0)
    return (dw0, db0, dw1, db1, dw2, db2), loss


def reference_train_step(params: qnet.QParams, batch: qnet.Batch, targets: np.ndarray) -> tuple[qnet.QParams, float]:
    """One SGD step against ``targets``, the batch's Bellman targets
    (`ReplayBuffer.targets`), with the gradients clipped to a global norm of
    `MAX_GRAD_NORM`.  Returns fresh parameters and the scalar loss."""
    grads, loss = reference_gradients(params, batch, targets)
    # the gradients are this step's own arrays, so the clip and the
    # update scale them in place and the new parameters are written over them
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > qnet.MAX_GRAD_NORM:
        scale = qnet.MAX_GRAD_NORM / total
        for g in grads:
            g *= scale
    for g in grads:
        g *= qnet.LEARNING_RATE
    return qnet.QParams._unchecked([np.subtract(p, g, out=g) for p, g in zip(params.arrays(), grads)]), loss


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
