"""The 101->100->100->86 fully-connected Q-network: forward pass,
epsilon-greedy selection, temporal-difference targets, one-step SGD
training on array batches, an array-backed replay ring and checkpointing.

Everything is plain numpy with hand-written backpropagation; parameters
are treated as immutable and every training step returns a fresh set.
They are checked for shape and finiteness where they enter (`init`,
`load`, any outside `QParams(...)`), not on every training step.
Initialization uses a self-contained splitmix64 stream so identical seeds
give identical parameters on any platform.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .features import FEATURE_LENGTH, LabelRegistry

LAYER_DIMS: tuple[int, ...] = (FEATURE_LENGTH, 100, 100, 86)
ACTION_COUNT = LAYER_DIMS[-1]

_CKPT_MAGIC = b"DQCERT\x00\x01"


class DimensionMismatch(ValueError):
    """An input or parameter array has the wrong shape."""


class NonFiniteLoss(RuntimeError):
    """A training step produced a non-finite loss; carries the batch."""

    def __init__(self, loss: float, batch: Batch):
        super().__init__(f"non-finite loss {loss!r}")
        self.batch = batch


class CorruptCheckpoint(ValueError):
    """A checkpoint file failed its magic/version/dimension validation."""


@dataclass(frozen=True)
class QParams:
    """Weights and biases of the three dense layers (ReLU, ReLU, identity)."""

    w0: np.ndarray
    b0: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        expected = [
            (LAYER_DIMS[0], LAYER_DIMS[1]),
            (LAYER_DIMS[1],),
            (LAYER_DIMS[1], LAYER_DIMS[2]),
            (LAYER_DIMS[2],),
            (LAYER_DIMS[2], LAYER_DIMS[3]),
            (LAYER_DIMS[3],),
        ]
        arrays = (self.w0, self.b0, self.w1, self.b1, self.w2, self.b2)
        for arr, shape in zip(arrays, expected):
            if arr.shape != shape:
                raise DimensionMismatch(f"parameter shape {arr.shape} != {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite parameter values")

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w0, self.b0, self.w1, self.b1, self.w2, self.b2)

    @classmethod
    def _unchecked(cls, arrays) -> QParams:
        """Skip `__post_init__`: `train_step` updates checked arrays by a
        finite step, and a non-finite parameter would make the next
        step's loss non-finite."""
        params = object.__new__(cls)
        for name, arr in zip(("w0", "b0", "w1", "b1", "w2", "b2"), arrays):
            object.__setattr__(params, name, arr)
        return params


class Batch(NamedTuple):
    """Transitions as parallel arrays, the form `train_step` takes.

    ``next_states`` rows of terminal transitions are never read.
    """

    states: np.ndarray  # (n, FEATURE_LENGTH) float64
    actions: np.ndarray  # (n,) intp
    rewards: np.ndarray  # (n,) float64
    next_states: np.ndarray  # (n, FEATURE_LENGTH) float64
    terminal: np.ndarray  # (n,) bool


def _empty_batch(rows: int) -> Batch:
    return Batch(
        np.zeros((rows, FEATURE_LENGTH)),
        np.zeros(rows, dtype=np.intp),
        np.zeros(rows),
        np.zeros((rows, FEATURE_LENGTH)),
        np.zeros(rows, dtype=bool),
    )


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.9
    learning_rate: float = 1e-3
    replay_capacity: int = 10_000
    batch_size: int = 32
    use_target_network: bool = False
    target_sync_interval: int = 500
    max_grad_norm: float = 10.0  # global-norm gradient clip; 0 disables

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.max_grad_norm < 0.0:
            raise ValueError("max_grad_norm must be >= 0")
        if self.target_sync_interval <= 0:
            raise ValueError("target_sync_interval must be >= 1")


# ---------------------------------------------------------------------------
# Initialization

_M64 = (1 << 64) - 1


def _splitmix64(seed: int):
    state = seed & _M64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def init(seed: int) -> QParams:
    """Symmetry-broken uniform weights scaled by fan-in, zero biases."""
    stream = _splitmix64(seed)

    def uniform(rows: int, cols: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(rows)
        values = [((next(stream) / 2.0**64) * 2.0 - 1.0) * bound for _ in range(rows * cols)]
        return np.array(values, dtype=np.float64).reshape(rows, cols)

    return QParams(
        w0=uniform(LAYER_DIMS[0], LAYER_DIMS[1]),
        b0=np.zeros(LAYER_DIMS[1]),
        w1=uniform(LAYER_DIMS[1], LAYER_DIMS[2]),
        b1=np.zeros(LAYER_DIMS[2]),
        w2=uniform(LAYER_DIMS[2], LAYER_DIMS[3]),
        b2=np.zeros(LAYER_DIMS[3]),
    )


# ---------------------------------------------------------------------------
# Forward / selection / targets

def _forward_batch(params: QParams, x: np.ndarray):
    z0 = x @ params.w0
    z0 += params.b0
    h0 = np.maximum(z0, 0.0)
    z1 = h0 @ params.w1
    z1 += params.b1
    h1 = np.maximum(z1, 0.0)
    q = h1 @ params.w2
    q += params.b2
    return z0, h0, z1, h1, q


def forward(params: QParams, state) -> np.ndarray:
    """Q-values for one state (86 reals)."""
    x = np.asarray(state, dtype=np.float64)
    if x.shape != (FEATURE_LENGTH,):
        raise DimensionMismatch(f"state shape {x.shape} != ({FEATURE_LENGTH},)")
    return _forward_batch(params, x[None, :])[-1][0]


def select_action(qvalues, epsilon: float, rng: random.Random) -> int:
    """Epsilon-greedy pick; greedy ties break toward the lowest action id."""
    q = np.asarray(qvalues, dtype=np.float64)
    if q.shape != (ACTION_COUNT,):
        raise DimensionMismatch(f"qvalues shape {q.shape} != ({ACTION_COUNT},)")
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(ACTION_COUNT)
    return int(np.argmax(q))


def max_next_q(params: QParams, next_states: np.ndarray) -> np.ndarray:
    """The largest Q-value of each row of ``next_states``.

    The rows go through one forward stacked as ``(k, 1, 101)``, so each
    takes the same one-row product as `forward` and rounds exactly as it
    does, whatever ``k`` is; a plain ``(k, 101)`` product sums in another
    order and rounds differently.
    """
    return _forward_batch(params, next_states[:, None, :])[-1].max(axis=-1)[:, 0]


def td_targets(batch: Batch, params_target: QParams, gamma: float) -> np.ndarray:
    """Bellman targets: reward, plus discounted max next-Q when non-terminal."""
    targets = batch.rewards.copy()
    live = ~batch.terminal
    if live.any():
        targets[live] += gamma * max_next_q(params_target, batch.next_states[live])
    return targets


# ---------------------------------------------------------------------------
# Training

def train_step(params: QParams, batch: Batch, targets: np.ndarray, config: TrainConfig) -> tuple[QParams, float]:
    """One SGD step on the mean squared error against ``targets``, the
    batch's Bellman targets (`td_targets`, or `ReplayBuffer.targets`).

    The predicted value is Q(state, taken action).  Only ``batch.states``
    and ``batch.actions`` are read. Returns fresh parameters and the
    scalar loss.
    """
    n = len(batch.actions)
    if not n:
        raise ValueError("empty batch")

    x = batch.states
    z0, h0, z1, h1, q = _forward_batch(params, x)

    rows = np.arange(n)
    predicted = q[rows, batch.actions]
    errors = predicted - targets
    with np.errstate(over="ignore"):
        loss = float(np.mean(errors**2))
    if not np.isfinite(loss):
        raise NonFiniteLoss(loss, batch)

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

    # the gradients are this step's own arrays, so the clip and the
    # update scale them in place and the new parameters are written over them
    grads = (dw0, db0, dw1, db1, dw2, db2)
    if config.max_grad_norm > 0.0:
        total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
        if total > config.max_grad_norm:
            scale = config.max_grad_norm / total
            for g in grads:
                g *= scale
    for g in grads:
        g *= config.learning_rate
    return QParams._unchecked([np.subtract(p, g, out=g) for p, g in zip(params.arrays(), grads)]), loss


def _grown(column: np.ndarray, rows: int) -> np.ndarray:
    new = np.zeros((rows, *column.shape[1:]), dtype=column.dtype)
    new[: len(column)] = column
    return new


class ReplayBuffer:
    """Bounded uniform-sampling experience store: a ring of `Batch` rows.

    Logical index 0 is the oldest stored transition, as in a
    ``deque(maxlen=capacity)``; once full, each add overwrites the oldest.
    The arrays start small and double up to ``capacity`` rows, so a short
    campaign never holds a full-size ring.

    Each row also caches its max next-Q (`max_next_q`) and the target
    ``version`` it was computed under (-1: not yet). A frozen target
    network gives a row the same value until the next sync, so `targets`
    recomputes only the rows whose version is stale. Terminal rows hold
    0.0 and are never recomputed.
    """

    _INITIAL_ROWS = 64

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("replay capacity must be >= 1")
        self.capacity = capacity
        rows = min(capacity, self._INITIAL_ROWS)
        self.store = _empty_batch(rows)
        self.value = np.zeros(rows)
        self.version = np.zeros(rows, dtype=np.int64)
        self._size = 0
        self._next = 0  # row the next add writes

    def add(self, state, action: int, reward: int, next_state) -> None:
        """Store one transition; ``next_state`` is None for a terminal one."""
        allocated = len(self.store.actions)
        if self._next == allocated and allocated < self.capacity:
            rows = min(2 * allocated, self.capacity)
            self.store = Batch(*(_grown(column, rows) for column in self.store))
            self.value, self.version = _grown(self.value, rows), _grown(self.version, rows)
        i = self._next
        self.store.states[i], self.store.actions[i], self.store.rewards[i] = state, action, reward
        self.store.terminal[i] = next_state is None
        if next_state is not None:
            self.store.next_states[i] = next_state
        self.value[i], self.version[i] = 0.0, -1
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, k: int, rng: random.Random) -> list[int]:
        """``k`` logical indices drawn uniformly with ``rng.randrange``."""
        return [rng.randrange(self._size) for _ in range(k)]

    def _rows(self, indices) -> np.ndarray:
        return (np.asarray(indices, dtype=np.intp) + (self._next - self._size)) % self.capacity

    def batch(self, indices) -> Batch:
        """The transitions at the given logical indices."""
        rows = self._rows(indices)
        return Batch(*(column[rows] for column in self.store))

    def targets(self, indices, params_target: QParams, version: int, gamma: float) -> np.ndarray:
        """`td_targets` of the transitions at ``indices``, bit for bit.

        ``version`` names ``params_target``: equal versions must mean
        equal parameters. Live rows cached under another version are
        recomputed in one `max_next_q` call; a terminal row adds
        ``gamma * 0.0``, which leaves its reward exact.
        """
        rows = self._rows(indices)
        stale = rows[(self.version[rows] != version) & ~self.store.terminal[rows]]
        if len(stale):
            self.value[stale] = max_next_q(params_target, self.store.next_states[stale])
            self.version[stale] = version
        return self.store.rewards[rows] + gamma * self.value[rows]

    def __len__(self):
        return self._size


# ---------------------------------------------------------------------------
# Checkpoints

def save(params: QParams, registry: LabelRegistry, path) -> None:
    """Write a versioned binary checkpoint plus a human-readable label
    registry sidecar (``<path>.labels``)."""
    registry_blob = registry.to_text().encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_CKPT_MAGIC)
        handle.write(struct.pack("<II", 1, len(LAYER_DIMS)))
        handle.write(struct.pack(f"<{len(LAYER_DIMS)}I", *LAYER_DIMS))
        for arr in params.arrays():
            handle.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        handle.write(struct.pack("<I", len(registry_blob)))
        handle.write(registry_blob)
    with open(f"{path}.labels", "w", encoding="utf-8") as handle:
        handle.write(registry.to_text())


def load(path) -> tuple[QParams, LabelRegistry]:
    """Read a checkpoint; any structural mismatch raises CorruptCheckpoint."""
    with open(path, "rb") as handle:
        blob = handle.read()
    view = memoryview(blob)

    def take(n: int) -> memoryview:
        nonlocal view
        if len(view) < n:
            raise CorruptCheckpoint("truncated checkpoint")
        chunk, view = view[:n], view[n:]
        return chunk

    if bytes(take(len(_CKPT_MAGIC))) != _CKPT_MAGIC:
        raise CorruptCheckpoint("bad magic")
    version, nlayers = struct.unpack("<II", take(8))
    if version != 1:
        raise CorruptCheckpoint(f"unsupported checkpoint version {version}")
    if nlayers != len(LAYER_DIMS):
        raise CorruptCheckpoint(f"layer count {nlayers} != {len(LAYER_DIMS)}")
    dims = struct.unpack(f"<{nlayers}I", take(4 * nlayers))
    if dims != LAYER_DIMS:
        raise CorruptCheckpoint(f"layer dimensions {dims} != {LAYER_DIMS}")

    arrays = []
    for rows, cols in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:]):
        arrays.append(np.frombuffer(bytes(take(8 * rows * cols)), dtype=np.float64).reshape(rows, cols))
        arrays.append(np.frombuffer(bytes(take(8 * cols)), dtype=np.float64))
    (reg_len,) = struct.unpack("<I", take(4))
    registry = LabelRegistry.from_text(bytes(take(reg_len)).decode("utf-8"))
    if len(view):
        raise CorruptCheckpoint("trailing bytes after checkpoint payload")
    try:
        params = QParams(*arrays)
    except ValueError as exc:  # non-finite weights
        raise CorruptCheckpoint(str(exc)) from None
    return params, registry
