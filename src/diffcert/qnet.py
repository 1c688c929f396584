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

import math
import random
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .actions import CATALOG_SIZE
from .corpus import write_atomic
from .features import FEATURE_LENGTH, LABELS_TEXT

LAYER_DIMS: tuple[int, ...] = (FEATURE_LENGTH, 100, 100, CATALOG_SIZE)
ACTION_COUNT = LAYER_DIMS[-1]
# weights then biases of each layer: the shapes of `QParams.arrays`, in order
PARAM_SHAPES: tuple[tuple[int, ...], ...] = tuple(
    shape for rows, cols in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:]) for shape in ((rows, cols), (cols,))
)

_CKPT_MAGIC = b"DQCERT\x00\x01"


class DimensionMismatch(ValueError):
    """An input or parameter array has the wrong shape."""


class NonFiniteLoss(RuntimeError):
    """A training step produced a non-finite loss; carries the states and actions it trained on."""

    def __init__(self, loss: float, states: np.ndarray, actions: np.ndarray):
        super().__init__(f"non-finite loss {loss!r}")
        self.states, self.actions = states, actions


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
        for arr, shape in zip(self.arrays(), PARAM_SHAPES):
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
    """Transitions as parallel arrays, the columns of the replay ring.

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


GAMMA = 0.9  # TD discount
LEARNING_RATE = 1e-3  # SGD step size
REPLAY_CAPACITY = 10_000  # transitions the replay ring keeps
BATCH_SIZE = 32  # transitions per update
TARGET_SYNC_INTERVAL = 500  # updates between target-network syncs
MAX_GRAD_NORM = 10.0  # global-norm gradient clip


@dataclass(frozen=True)
class TrainConfig:
    """TD targets from a target network synced every `TARGET_SYNC_INTERVAL` updates, or the online one."""

    use_target_network: bool = False


# ---------------------------------------------------------------------------
# Initialization

_M64 = (1 << 64) - 1


def _splitmix64(seed: int, n: int) -> np.ndarray:
    """The first ``n`` outputs of splitmix64 from ``seed`` at once: state i
    is ``seed + i * golden`` in wrapping uint64 arithmetic, mixed alone."""
    steps = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & _M64) + steps * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def init(seed: int) -> QParams:
    """Symmetry-broken uniform weights scaled by fan-in, zero biases; the
    weights take one splitmix64 stream in order, ``w0`` row by row first."""
    sizes = [rows * cols for rows, cols in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])]
    unit = _splitmix64(seed, sum(sizes)).astype(np.float64) / 2.0**64 * 2.0 - 1.0
    blocks = np.split(unit, np.cumsum(sizes)[:-1])
    w0, w1, w2 = (block.reshape(rows, -1) * (1.0 / np.sqrt(rows)) for block, rows in zip(blocks, LAYER_DIMS))
    return QParams(w0, np.zeros(LAYER_DIMS[1]), w1, np.zeros(LAYER_DIMS[2]), w2, np.zeros(LAYER_DIMS[3]))


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


def select_action(params: QParams, state, epsilon: float, rng: random.Random | None) -> int:
    """Epsilon-greedy pick for one state; greedy ties break toward the
    lowest action id.  The draw comes first, so an exploratory pick runs
    no `forward`; `forward` consumes no randomness, so the rng stream is
    the same either way.  At epsilon 0 nothing is drawn: ``rng`` may be None.
    An exploratory pick is ``rng.randrange(ACTION_COUNT)``, its rejection
    loop over ``getrandbits`` inlined."""
    if epsilon > 0.0 and rng.random() < epsilon:
        getrandbits, bits = rng.getrandbits, ACTION_COUNT.bit_length()
        action = getrandbits(bits)
        while action >= ACTION_COUNT:
            action = getrandbits(bits)
        return action
    return int(np.argmax(forward(params, state)))


def max_next_q(params: QParams, next_states: np.ndarray) -> np.ndarray:
    """The largest Q-value of each row of ``next_states``.

    The rows go through one forward stacked as ``(k, 1, 101)``, so each
    takes the same one-row product as `forward` and rounds exactly as it
    does, whatever ``k`` is; a plain ``(k, 101)`` product sums in another
    order and rounds differently.
    """
    return _forward_batch(params, next_states[:, None, :])[-1].max(axis=-1)[:, 0]


# ---------------------------------------------------------------------------
# Training

def _gradients(params: QParams, states: np.ndarray, actions: np.ndarray, targets: np.ndarray) -> tuple[tuple[np.ndarray, ...], float]:
    """Gradients (`QParams.arrays` order) of the mean squared error of
    Q(state, taken action) against ``targets``, and the loss."""
    n = len(actions)
    if not n:
        raise ValueError("empty batch")

    z0, h0, z1, h1, q = _forward_batch(params, states)

    rows = np.arange(n)
    errors = q[rows, actions] - targets
    with np.errstate(over="ignore"):
        loss = float(np.add.reduce(errors * errors) / n)
    if not math.isfinite(loss):
        raise NonFiniteLoss(loss, states, actions)

    dqa = 2.0 * errors / n
    dq = np.zeros_like(q)
    dq[rows, actions] = dqa
    dw2 = h1.T @ dq
    db2 = np.add.reduce(dq, axis=0)
    # each row of dq has one nonzero, at its action, so every entry of dq @ w2.T
    # is exactly the one product gathered here; they can differ only in the sign of a
    # zero (an exact-zero error or an underflow), which p - g cannot show unless p is -0
    dh1 = params.w2.T[actions]
    dh1 *= dqa[:, None]
    dh1 *= z1 > 0.0
    dw1 = h0.T @ dh1
    db1 = np.add.reduce(dh1, axis=0)
    dh0 = dh1 @ params.w1.T
    dh0 *= z0 > 0.0
    dw0 = states.T @ dh0
    db0 = np.add.reduce(dh0, axis=0)
    return (dw0, db0, dw1, db1, dw2, db2), loss


def train_step(params: QParams, states: np.ndarray, actions: np.ndarray, targets: np.ndarray) -> tuple[QParams, float]:
    """One SGD step against ``targets``, the transitions' Bellman targets
    (`ReplayBuffer.targets`), with the gradients clipped to a global norm of
    `MAX_GRAD_NORM`.  Returns fresh parameters and the scalar loss."""
    grads, loss = _gradients(params, states, actions, targets)
    # the gradients are this step's own arrays, so the clip and the
    # update scale them in place and the new parameters are written over them
    total = math.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads))
    if total > MAX_GRAD_NORM:
        scale = MAX_GRAD_NORM / total
        for g in grads:
            g *= scale
    for g in grads:
        g *= LEARNING_RATE
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
        """``k`` logical indices drawn uniformly: ``rng.randrange(len(self))``
        each, with its rejection loop over ``getrandbits`` inlined, so the
        indices and the rng's state afterwards are the same."""
        size = self._size
        if size < 1:
            raise ValueError("sample from an empty replay buffer")
        getrandbits, bits = rng.getrandbits, size.bit_length()
        indices = []
        for _ in range(k):
            i = getrandbits(bits)
            while i >= size:
                i = getrandbits(bits)
            indices.append(i)
        return indices

    def rows(self, indices) -> np.ndarray:
        """The ring rows of the given logical indices, which index `store`."""
        return (np.asarray(indices, dtype=np.intp) + (self._next - self._size)) % self.capacity

    def targets(self, rows: np.ndarray, params_target: QParams, version: int) -> np.ndarray:
        """Bellman targets (reward, plus discounted max next-Q) of the transitions at ``rows``.

        ``version`` names ``params_target``: equal versions must mean
        equal parameters. Live rows cached under another version are
        recomputed in one `max_next_q` call; a terminal row adds
        ``GAMMA * 0.0``, which leaves its reward exact.
        """
        stale = rows[(self.version[rows] != version) & ~self.store.terminal[rows]]
        if len(stale):
            self.value[stale] = max_next_q(params_target, self.store.next_states[stale])
            self.version[stale] = version
        return self.store.rewards[rows] + GAMMA * self.value[rows]

    def __len__(self):
        return self._size


# ---------------------------------------------------------------------------
# Checkpoints

def save(params: QParams, path) -> None:
    """Write a versioned binary checkpoint that records the feature labels
    (`features.LABELS_TEXT`) the parameters were trained under."""
    labels_blob = LABELS_TEXT.encode("utf-8")
    parts = [_CKPT_MAGIC, struct.pack("<II", 1, len(LAYER_DIMS)), struct.pack(f"<{len(LAYER_DIMS)}I", *LAYER_DIMS)]
    parts += [np.ascontiguousarray(arr, dtype=np.float64).tobytes() for arr in params.arrays()]
    write_atomic(path, b"".join([*parts, struct.pack("<I", len(labels_blob)), labels_blob]))


def load(path) -> QParams:
    """Read a checkpoint; any structural mismatch, or labels other than
    `features.LABELS_TEXT`, raises CorruptCheckpoint."""
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

    arrays = [np.frombuffer(bytes(take(8 * math.prod(shape))), dtype=np.float64).reshape(shape) for shape in PARAM_SHAPES]
    (labels_len,) = struct.unpack("<I", take(4))
    if bytes(take(labels_len)) != LABELS_TEXT.encode("utf-8"):
        raise CorruptCheckpoint("feature labels differ from this version's")
    if len(view):
        raise CorruptCheckpoint("trailing bytes after checkpoint payload")
    try:
        params = QParams(*arrays)
    except ValueError as exc:  # non-finite weights
        raise CorruptCheckpoint(str(exc)) from None
    return params
