"""Q-network tests: shape contracts, the frozen forward golden, selection
semantics, TD targets against a per-transition oracle, gradient
correctness against central finite differences, the training step bit
for bit against the earlier code, convergence, the replay
ring against a deque reference, and checkpoint round-trips."""

import dataclasses
import hashlib
import json
import math
import random
import struct
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffcert import campaign, qnet
from diffcert.actions import CATALOG_SIZE
from diffcert.campaign import EpsilonSchedule
from diffcert.features import FEATURE_LENGTH, LABELS_TEXT
from diffcert.qnet import (
    ACTION_COUNT,
    CorruptCheckpoint,
    DimensionMismatch,
    QParams,
    ReplayBuffer,
    forward,
    init,
    select_action,
)
from qnet_helpers import (
    Transition,
    as_batch,
    gather,
    init_per_draw,
    reference_gradients,
    reference_train_step,
    splitmix64,
    td_targets,
    train_step,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "forward_golden.json").read_text())


def random_state(rng):
    return tuple(rng.randint(-1, 4) for _ in range(FEATURE_LENGTH))


def random_transition(rng):
    terminal = rng.random() < 0.5
    return Transition(
        state=random_state(rng),
        action=rng.randrange(ACTION_COUNT),
        reward=rng.choice([100, -1]),
        next_state=None if terminal else random_state(rng),
        terminal=terminal,
    )


def td_target(transition: Transition, params_target: QParams, gamma: float = qnet.GAMMA) -> float:
    """Oracle: one transition's Bellman target through the one-row `forward`."""
    if transition.terminal:
        return float(transition.reward)
    return float(transition.reward) + gamma * float(np.max(forward(params_target, transition.next_state)))


def test_init_deterministic():
    a, b = init(7), init(7)
    assert all((x == y).all() for x, y in zip(a.arrays(), b.arrays()))
    c = init(8)
    assert any((x != y).any() for x, y in zip(a.arrays(), c.arrays()))


@pytest.mark.parametrize("seed", [0, 1, 11, 12345, -1, 2**63, 2**64 - 1])
def test_init_equals_per_draw_stream(seed):
    # the vectorized stream gives the per-draw generator's weights, byte
    # for byte, negative and full-width seeds included
    params = init(seed)
    assert [w.tobytes() for w in (params.w0, params.w1, params.w2)] == [w.tobytes() for w in init_per_draw(seed)]


def test_splitmix64_known_output():
    assert next(splitmix64(0)) == 0xE220A8397B1DCDAF
    assert int(qnet._splitmix64(0, 1)[0]) == 0xE220A8397B1DCDAF


def test_init_shapes_and_zero_biases():
    p = init(1)
    assert p.w0.shape == (101, 100) and p.w1.shape == (100, 100) and p.w2.shape == (100, 86)
    assert not p.b0.any() and not p.b1.any() and not p.b2.any()


def test_forward_shape_and_dimension_guard():
    p = init(1)
    out = forward(p, [0] * FEATURE_LENGTH)
    assert out.shape == (ACTION_COUNT,)
    assert np.isfinite(out).all()
    with pytest.raises(DimensionMismatch):
        forward(p, [0] * 100)


def test_forward_golden_fixture():
    p = init(GOLDEN["init_seed"])
    got = forward(p, GOLDEN["state"])
    assert np.allclose(got, GOLDEN["qvalues"], rtol=0, atol=1e-12)


def test_forward_dead_relu_reduces_to_bias_path():
    p = init(3)
    # drive every first-layer unit negative: output must equal the pure
    # bias composition through the remaining layers
    dead = dataclasses.replace(p, b0=np.full(100, -1e6))
    state = [1] * FEATURE_LENGTH
    h1 = np.maximum(p.b1, 0.0)
    expected = h1 @ p.w2 + p.b2
    assert np.allclose(forward(dead, state), expected)


def params_giving(q) -> QParams:
    """Parameters whose `forward` is ``q`` for every state: zero weights, ``b2 = q``."""
    zero = init(0)
    return QParams(*(np.zeros_like(a) for a in zero.arrays()[:-1]), np.asarray(q, dtype=np.float64))


def test_select_action_greedy_and_ties():
    rng = random.Random(0)
    state = [1] * FEATURE_LENGTH
    q = np.zeros(ACTION_COUNT)
    q[17] = 5.0
    assert select_action(params_giving(q), state, 0.0, rng) == 17
    q = np.zeros(ACTION_COUNT)
    q[3] = q[9] = 2.0
    assert select_action(params_giving(q), state, 0.0, rng) == 3  # lowest id wins ties


@given(st.floats(min_value=0.01, max_value=1000.0), st.integers(min_value=0, max_value=85))
def test_select_action_scale_invariant(scale, winner):
    rng = random.Random(1)
    q = np.full(ACTION_COUNT, -1.0)
    q[winner] = 1.0
    assert select_action(params_giving(q * scale), [0] * FEATURE_LENGTH, 0.0, rng) == winner


def test_select_action_uniform_exploration_chi_square():
    # epsilon=1 must draw uniformly: chi-square over 10^5 draws stays
    # within 5 sigma of the dof-85 expectation
    rng = random.Random(42)
    draws = 100_000
    counts = [0] * ACTION_COUNT
    params, state = init(0), [0] * FEATURE_LENGTH
    for _ in range(draws):
        counts[select_action(params, state, 1.0, rng)] += 1
    expected = draws / ACTION_COUNT
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    dof = ACTION_COUNT - 1
    assert chi2 < dof + 5 * math.sqrt(2 * dof)


def test_select_action_draws_before_forward(monkeypatch):
    # picks and the rng stream equal those of the forward-first order,
    # and only greedy picks run `forward`
    data = random.Random(3)
    params = init(4)
    steps = [(random_state(data), data.choice([0.0, 0.3, 0.9, 1.0])) for _ in range(300)]
    reference_rng = random.Random(8)
    expected, greedy = [], 0
    for state, epsilon in steps:
        q = forward(params, state)
        if epsilon > 0.0 and reference_rng.random() < epsilon:
            expected.append(reference_rng.randrange(ACTION_COUNT))
        else:
            expected.append(int(np.argmax(q)))
            greedy += 1
    calls = []
    monkeypatch.setattr(qnet, "forward", lambda *args: calls.append(args) or forward(*args))
    rng = random.Random(8)
    assert [select_action(params, state, epsilon, rng) for state, epsilon in steps] == expected
    assert rng.getstate() == reference_rng.getstate()
    assert 0 < len(calls) == greedy < len(steps)
    # epsilon 0 draws nothing, so a greedy chooser may pass no rng at all
    greedy_picks = [int(np.argmax(forward(params, state))) for state, _ in steps]
    assert [select_action(params, state, 0.0, None) for state, _ in steps] == greedy_picks


def test_td_target_branches():
    p = init(2)
    state = tuple([1] * FEATURE_LENGTH)
    terminal = Transition(state, 0, 100, None, True)
    assert list(td_targets(as_batch([terminal]), p, 0.9)) == [100.0]
    nxt = tuple([2] * FEATURE_LENGTH)
    non_terminal = Transition(state, 0, -1, nxt, False)
    expected = -1 + 0.9 * float(np.max(forward(p, nxt)))
    assert td_targets(as_batch([non_terminal]), p, 0.9)[0] == pytest.approx(expected)
    assert list(td_targets(as_batch([non_terminal]), p, 0.0)) == [-1.0]
    assert list(td_targets(as_batch([terminal, non_terminal]), p, 0.9)) == [100.0, pytest.approx(expected)]


def test_td_target_arithmetic_example():
    # reward -1, max next-Q 10, gamma 0.9 -> 8.0
    p = init(2)
    state = tuple([1] * FEATURE_LENGTH)
    nxt = tuple([2] * FEATURE_LENGTH)
    bumped = dataclasses.replace(p, b2=p.b2 + (10.0 - float(np.max(forward(p, nxt)))))
    tr = Transition(state, 0, -1, nxt, False)
    assert td_targets(as_batch([tr]), bumped, 0.9)[0] == pytest.approx(8.0, abs=1e-9)


@pytest.mark.parametrize("batch_size", [1, 32])
def test_batched_targets_equal_oracle_exactly(batch_size):
    # the (n, 1, 101) stacking keeps every row on the one-row product, so
    # the batched targets must equal the per-transition oracle bit for bit
    rng = random.Random(batch_size)
    transitions = [random_transition(rng) for _ in range(1024)]
    assert 400 < sum(t.terminal for t in transitions) < 624
    params = init(batch_size + 40)
    for start in range(0, len(transitions), batch_size):
        chunk = transitions[start : start + batch_size]
        assert list(td_targets(as_batch(chunk), params, 0.9)) == [td_target(t, params, 0.9) for t in chunk]


def test_transition_invariant():
    state = tuple([0] * FEATURE_LENGTH)
    with pytest.raises(ValueError):
        Transition(state, 0, 100, None, False)
    with pytest.raises(ValueError):
        Transition(state, 0, -1, state, True)


def test_train_step_rejects_empty_batch():
    with pytest.raises(ValueError):
        train_step(init(1), as_batch([]))


def test_single_transition_convergence():
    # Q(s, a) must reach 100 +/- 1.0 within 5000 steps
    state = tuple([3, 3, 4, -1, 1, 2, 1, 0] + [0] * 93)
    tr = Transition(state, 17, 100, None, True)
    params = init(7)
    for step in range(5000):
        params, _ = train_step(params, as_batch([tr]))
        if abs(float(forward(params, state)[17]) - 100.0) < 1.0:
            break
    assert abs(float(forward(params, state)[17]) - 100.0) < 1.0
    assert step < 5000


def _loss_and_masks(params, batch, targets):
    x = np.asarray([t.state for t in batch], dtype=np.float64)
    z0, h0, z1, h1, q = qnet._forward_batch(params, x)
    rows = np.arange(len(batch))
    cols = np.asarray([t.action for t in batch])
    loss = float(np.mean((q[rows, cols] - targets) ** 2))
    return loss, (z0 > 0, z1 > 0)


def finite_difference_check(batch_seed: int, param_seed: int, coords_per_tensor: int = 30, tolerance: float = 1e-4):
    """Central-difference oracle for one batch; returns max relative error.

    Targets are frozen to a fixed network (semi-gradient semantics).
    Two kinds of coordinates cannot be certified by finite differences
    and are skipped: those whose perturbation flips a ReLU mask (the loss
    is not differentiable there) and those whose gradient magnitude sits
    below the difference quotient's cancellation-noise floor for the
    requested relative tolerance.
    """
    rng = random.Random(batch_seed)
    batch = [random_transition(rng) for _ in range(8)]
    params = init(param_seed)
    frozen_target = init(param_seed + 1000)
    targets = np.asarray([td_target(t, frozen_target) for t in batch])

    transitions = as_batch(batch)
    grads, _ = qnet._gradients(params, transitions.states, transitions.actions, targets)
    analytic = dict(zip(("w0", "b0", "w1", "b1", "w2", "b2"), grads))

    h = 1e-4
    eps = float(np.finfo(np.float64).eps)
    worst = 0.0
    coord_rng = random.Random(param_seed ^ 0xFD)
    for name, grad in analytic.items():
        base = getattr(params, name)
        for _ in range(coords_per_tensor):
            idx = tuple(coord_rng.randrange(s) for s in base.shape)
            up, down = base.copy(), base.copy()
            up[idx] += h
            down[idx] -= h
            loss_up, masks_up = _loss_and_masks(dataclasses.replace(params, **{name: up}), batch, targets)
            loss_down, masks_down = _loss_and_masks(dataclasses.replace(params, **{name: down}), batch, targets)
            if not all((a == b).all() for a, b in zip(masks_up, masks_down)):
                continue  # ReLU kink crossed
            fd = (loss_up - loss_down) / (2 * h)
            g = float(grad[idx])
            noise_floor = eps * max(abs(loss_up), abs(loss_down)) / h
            if max(abs(fd), abs(g)) < noise_floor / tolerance:
                continue  # below what central differences can resolve
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g)))
    return worst


def test_gradients_match_finite_differences():
    assert finite_difference_check(100, 200) < 1e-4


def test_non_finite_loss_reported():
    p = init(1)
    bad = dataclasses.replace(p, b2=p.b2 + 1e200)
    rng = random.Random(1)
    batch = as_batch([Transition(random_state(rng), action, 100, None, True) for action in (0, 5, 0)])
    with pytest.raises(qnet.NonFiniteLoss) as raised:
        # squaring 1e200 errors overflows to inf
        train_step(bad, batch)
    # the exception carries the states and actions the step trained on
    assert raised.value.states.tobytes() == batch.states.tobytes()
    assert raised.value.actions.tolist() == [0, 5, 0]


def test_train_step_bit_equal_to_reference():
    # the gradient step calls its reductions directly and gathers dh1 from
    # w2 instead of multiplying by a one-hot dq; over a chain of steps from
    # init(11), its loss and parameter bytes must equal the earlier code's
    # at every step: batches of 1, 8, 32 and 40 rows, repeated actions, sparse
    # and dense states, targets that clip, targets that do not, and rows
    # whose error is exactly zero
    rng = np.random.default_rng(23)
    params = expected = init(11)
    clipped = 0
    for step in range(3000):
        n = (1, 8, 32, 40)[step % 4]
        states = rng.integers(-1, 5, (n, FEATURE_LENGTH)).astype(np.float64)
        if step % 3 == 1:
            states *= rng.random((n, FEATURE_LENGTH)) < 0.05
        actions = rng.integers(0, 3 if step % 5 < 2 else ACTION_COUNT, n).astype(np.intp)
        q = qnet._forward_batch(params, states)[-1][np.arange(n), actions]
        targets = q + rng.normal(0.0, (1e-9, 1.0, 1e3)[step % 7 % 3], n)
        if step % 6 == 0:
            targets[::2] = q[::2]
        batch = qnet.Batch(states, actions, np.zeros(n), np.zeros_like(states), np.ones(n, dtype=bool))
        grads, _ = reference_gradients(expected, batch, targets)
        clipped += np.sqrt(sum(float(np.sum(g * g)) for g in grads)) > qnet.MAX_GRAD_NORM
        params, loss = qnet.train_step(params, states, actions, targets)
        expected, expected_loss = reference_train_step(expected, batch, targets)
        assert loss == expected_loss
        assert all(a.tobytes() == b.tobytes() for a, b in zip(params.arrays(), expected.arrays())), step
    assert 500 < clipped < 2500, clipped


def _add(buf, transition):
    buf.add(transition.state, transition.action, transition.reward, transition.next_state)


def _transitions(batch):
    return [
        Transition(tuple(s), int(a), int(r), None if t else tuple(n), bool(t))
        for s, a, r, n, t in zip(batch.states, batch.actions, batch.rewards, batch.next_states, batch.terminal)
    ]


def test_replay_buffer_capacity_and_uniformity():
    rng = random.Random(3)
    buf = ReplayBuffer(capacity=5)
    items = [random_transition(rng) for _ in range(8)]
    for item in items:
        _add(buf, item)
    assert len(buf) == 5
    sample = _transitions(gather(buf, buf.sample(10, rng)))
    assert all(s in items[3:] for s in sample)


@pytest.mark.parametrize("capacity", [1, 5, 64, 100, 300])
def test_replay_ring_matches_deque_reference(capacity):
    # same rng, same draws: the ring must hand back exactly the transitions
    # a deque(maxlen=capacity) would, before and after eviction, and its
    # arrays (grown by doubling) must never exceed capacity rows
    rng = random.Random(capacity)
    ring, reference = ReplayBuffer(capacity), deque(maxlen=capacity)
    ring_rng, reference_rng = random.Random(7), random.Random(7)
    for step in range(3 * capacity + 7):
        item = random_transition(rng)
        _add(ring, item)
        reference.append(item)
        assert len(ring) == len(reference)
        assert all(len(column) <= capacity for column in ring.store)
        k = 1 + step % 8
        indices = ring.sample(k, ring_rng)
        expected = [reference[reference_rng.randrange(len(reference))] for _ in range(k)]
        assert _transitions(gather(ring, [len(ring) - 1] + indices)) == [reference[-1]] + expected
    assert len(ring.store.actions) == capacity


def test_replay_ring_grows_by_doubling():
    buf = ReplayBuffer(capacity=10_000)
    rng = random.Random(4)
    sizes = set()
    for _ in range(300):
        _add(buf, random_transition(rng))
        sizes.add(len(buf.store.states))
    assert sizes == {64, 128, 256, 512}


def test_sample_draws_what_randrange_draws():
    # sample inlines randrange's getrandbits loop: the same indices and the
    # same rng state after them, at sizes around powers of two and at capacity
    ring = ReplayBuffer(capacity=10_000)
    with pytest.raises(ValueError, match="empty"):
        ring.sample(1, random.Random(0))
    item = random_transition(random.Random(5))
    for size in (1, 2, 31, 32, 33, 64, 9_999, 10_000):
        while len(ring) < size:
            _add(ring, item)
        ring_rng, reference_rng = random.Random(size), random.Random(size)
        assert ring.sample(50, ring_rng) == [reference_rng.randrange(size) for _ in range(50)]
        assert ring_rng.getstate() == reference_rng.getstate()


def test_baseline_chooser_draws_what_randrange_draws():
    # the baseline's chooser inlines randrange's getrandbits loop too: the
    # same actions and the same rng state after them
    for seed in (0, 1, 11):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        choose = campaign._random_chooser(rng)
        assert [choose(None) for _ in range(2_000)] == [reference_rng.randrange(CATALOG_SIZE) for _ in range(2_000)]
        assert rng.getstate() == reference_rng.getstate()


def _live_transition(rng):
    return Transition(random_state(rng), rng.randrange(ACTION_COUNT), -1, random_state(rng), False)


def test_ring_cache_drops_an_evicted_rows_value():
    # capacity 5 and one target version throughout (a target that never
    # syncs): the row the sixth add overwrites must not keep the cached
    # value of the transition it evicted
    rng = random.Random(11)
    params = init(11)
    ring = ReplayBuffer(capacity=5)
    items = [_live_transition(rng) for _ in range(6)]
    for item in items[:5]:
        _add(ring, item)
    assert list(ring.targets(ring.rows(range(5)), params, 0)) == [td_target(t, params) for t in items[:5]]
    _add(ring, items[5])
    assert td_target(items[5], params) != td_target(items[0], params)
    assert list(ring.targets(ring.rows(range(5)), params, 0)) == [td_target(t, params) for t in items[1:]]


def test_ring_cache_survives_doubling():
    # values cached at 64 rows are still read, not recomputed, after the
    # arrays grow to 128 and 256 rows: a different network under the same
    # version gets the first network's targets back
    rng = random.Random(12)
    first, other = init(12), init(13)
    ring = ReplayBuffer(capacity=10_000)
    items = [_live_transition(rng) for _ in range(64)]
    for item in items:
        _add(ring, item)
    expected = [td_target(t, first) for t in items]
    assert list(ring.targets(ring.rows(range(64)), first, 0)) == expected
    sizes = {len(ring.value)}
    for _ in range(150):
        _add(ring, random_transition(rng))
        sizes.add(len(ring.value))
    assert sizes == {64, 128, 256} and len(ring.version) == 256
    assert list(ring.targets(ring.rows(range(64)), other, 0)) == expected
    assert list(ring.targets(ring.rows(range(64)), other, 1)) == [td_target(t, other) for t in items]


def test_ring_cache_repeated_row_in_one_batch():
    rng = random.Random(14)
    params = init(14)
    ring = ReplayBuffer(capacity=8)
    items = [_live_transition(rng) for _ in range(4)]
    for item in items:
        _add(ring, item)
    targets = ring.targets(ring.rows([2, 0, 2, 2]), params, 0)
    assert targets[0] == targets[2] == targets[3] == td_target(items[2], params)
    assert targets[1] == td_target(items[0], params)


def test_parameters_validated_where_they_enter(tmp_path):
    p = init(11)
    with pytest.raises(ValueError):
        QParams(p.w0, p.b0, p.w1, p.b1, p.w2, np.full(ACTION_COUNT, np.inf))
    path = tmp_path / "net.ckpt"
    qnet.save(p, path)
    blob = bytearray(path.read_bytes())
    w0_offset = len(qnet._CKPT_MAGIC) + 8 + 4 * len(qnet.LAYER_DIMS)
    blob[w0_offset : w0_offset + 8] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        qnet.load(path)


def test_train_step_leaves_its_inputs_alone():
    # the learner aliases its target to the online parameters, so a step
    # must write only its own arrays, also when it clips the gradients
    rng = random.Random(15)
    params = init(15)
    before = [a.copy() for a in params.arrays()]
    batch = as_batch([random_transition(rng) for _ in range(8)])
    targets = td_targets(batch, params) + 1e4
    grads, _ = qnet._gradients(params, batch.states, batch.actions, targets)
    assert np.sqrt(sum(float(np.sum(g * g)) for g in grads)) > qnet.MAX_GRAD_NORM
    saved = [column.copy() for column in batch] + [targets.copy()]
    updated, _ = qnet.train_step(params, batch.states, batch.actions, targets)
    assert all((a == b).all() for a, b in zip(params.arrays(), before))
    assert all((a == b).all() for a, b in zip([*batch, targets], saved))
    assert not any(u is p for u, p in zip(updated.arrays(), params.arrays()))


def test_toy_mdp_one_state(tmp_path):
    # single state, action k lands terminal reward 100, everything else -1:
    # greedy argmax converges to k for several seeds
    state = tuple([2] * FEATURE_LENGTH)
    for seed in range(3):
        rng = random.Random(seed)
        k = rng.randrange(ACTION_COUNT)
        params = init(seed)
        for step in range(3000):
            action = select_action(params, state, EpsilonSchedule().at(0), rng)
            reward = 100 if action == k else -1
            tr = Transition(state, action, reward, None, True)
            params, _ = train_step(params, as_batch([tr]))
            if step % 50 == 0 and int(np.argmax(forward(params, state))) == k and step > 200:
                break
        assert int(np.argmax(forward(params, state))) == k


# ---------------------------------------------------------------------------
# Checkpoints

# SHA-256 of the version-1 checkpoint `save` wrote for `init(11)` when the
# labels were a separate registry object; the format must not drift.
INIT_11_CHECKPOINT_SHA256 = "48d24b8eae0e299bc991483eb4790c0ebc9cbf7c9d559d74d404f3ff2b764aa0"


def test_checkpoint_round_trip(tmp_path):
    p = init(11)
    path = tmp_path / "net.ckpt"
    qnet.save(p, path)
    loaded = qnet.load(path)
    assert all((a == b).all() for a, b in zip(p.arrays(), loaded.arrays()))
    assert list(tmp_path.iterdir()) == [path]  # no sidecar


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "net.ckpt"
    qnet.save(init(11), path)
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == INIT_11_CHECKPOINT_SHA256
    assert blob.endswith(LABELS_TEXT.encode("utf-8"))
    assert all((a == b).all() for a, b in zip(init(11).arrays(), qnet.load(path).arrays()))


@pytest.mark.parametrize(
    "labels",
    [
        LABELS_TEXT.replace("country US 1", "country US 2"),  # same length, other label
        LABELS_TEXT + "country NZ 21\n",  # one label more
        "country US",  # not a label table at all
    ],
)
def test_checkpoint_with_other_labels_is_refused(tmp_path, labels):
    path = tmp_path / "net.ckpt"
    qnet.save(init(11), path)
    blob = path.read_bytes()
    head = blob[: -len(LABELS_TEXT) - 4]
    edited = labels.encode("utf-8")
    path.write_bytes(head + struct.pack("<I", len(edited)) + edited)
    with pytest.raises(CorruptCheckpoint, match="labels"):
        qnet.load(path)


def test_checkpoint_truncation_detected(tmp_path):
    p = init(11)
    path = tmp_path / "net.ckpt"
    qnet.save(p, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptCheckpoint):
        qnet.load(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CorruptCheckpoint):
        qnet.load(path)


def test_checkpoint_dimension_guard(tmp_path):
    # doctor the stored output dimension: 86 -> 87
    p = init(11)
    path = tmp_path / "net.ckpt"
    qnet.save(p, path)
    blob = bytearray(path.read_bytes())
    dims_off = len(qnet._CKPT_MAGIC) + 8
    dims = list(struct.unpack_from("<4I", blob, dims_off))
    assert dims == [101, 100, 100, 86]
    struct.pack_into("<4I", blob, dims_off, 101, 100, 100, 87)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        qnet.load(path)
