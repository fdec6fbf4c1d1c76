import json
import math
import tracemalloc

import numpy as np
import pytest

from oracle_reference import adam_reference
from mocapkey import neural
from mocapkey.errors import MocapKeyError, NumericError

# ---------------------------------------------------------------------------
# initialization and forward pass
# ---------------------------------------------------------------------------


def test_init_shapes_and_glorot_bounds():
    net = neural.init([6, 11, 7, 4], seed=3)
    assert net.shapes == [6, 11, 7, 4]
    assert net.input_dim == 6 and net.output_dim == 4
    assert [w.shape for w in net.weights] == [(6, 11), (11, 7), (7, 4)]
    for w in net.weights:
        bound = math.sqrt(6.0 / sum(w.shape))
        assert np.all(np.abs(w) <= bound)
        assert np.std(w) > 0.2 * bound  # actually spread out, not collapsed
    for b in net.biases:
        assert np.all(b == 0.0)
    again = neural.init([6, 11, 7, 4], seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, again.weights))
    with pytest.raises(ValueError):
        neural.init([6, 11, 4], seed=0)
    with pytest.raises(ValueError):
        neural.init([6, 0, 7, 4], seed=0)


def test_forward_matches_manual_computation():
    net = neural.init([2, 3, 3, 2], seed=9)
    x = np.array([0.4, -1.2])
    h1 = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
    h2 = np.maximum(h1 @ net.weights[1] + net.biases[1], 0.0)
    manual = h2 @ net.weights[2] + net.biases[2]
    assert np.allclose(neural.forward(net, x), manual, atol=1e-14)
    batch = np.stack([x, -x, 2 * x])
    out = neural.forward(net, batch)
    assert out.shape == (3, 2)
    assert np.allclose(out[0], manual, atol=1e-14)


def test_forward_rejects_wrong_width():
    net = neural.init([4, 5, 5, 2], seed=0)
    with pytest.raises(MocapKeyError, match=r"^input of shape \(5,\) does not match D_in"):
        neural.forward(net, np.zeros(5))
    with pytest.raises(MocapKeyError, match=r"^input of shape \(3, 3\) does not match D_in"):
        neural.forward(net, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# huber loss
# ---------------------------------------------------------------------------


def test_huber_values_and_derivative():
    loss, grad = neural.huber(np.array(2.5), np.array(2.0))
    assert loss == pytest.approx(0.125) and grad == pytest.approx(0.5)
    loss, grad = neural.huber(np.array(5.0), np.array(2.0))  # e = 3, linear zone
    assert loss == pytest.approx(3.0 - 0.5) and grad == pytest.approx(1.0)
    loss, grad = neural.huber(np.array([0.0, -4.0]), np.array([0.5, 0.0]))
    assert np.allclose(loss, [0.125, 4.0 - 0.5])
    assert np.allclose(grad, [-0.5, -1.0])


def test_huber_continuous_at_the_knee():
    eps = 1e-9
    below, _ = neural.huber(np.array(1.0 - eps), np.array(0.0))
    above, _ = neural.huber(np.array(1.0 + eps), np.array(0.0))
    assert abs(above - below) < 1e-8


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _mean_chosen_huber(net, xs, actions, targets):
    out = neural.forward(net, xs)
    picked = out[np.arange(len(actions)), actions]
    losses, _ = neural.huber(picked, targets)
    return float(np.mean(losses))


def test_gradients_match_central_differences():
    rng = np.random.default_rng(17)
    net = neural.init([5, 6, 4, 3], seed=21)
    xs = rng.normal(size=(8, 5))
    actions = rng.integers(0, 3, size=8)
    # keep every per-row error away from the huber knee at |e| = 1
    out = neural.forward(net, xs)
    targets = out[np.arange(8), actions] - np.where(np.arange(8) % 2 == 0, 0.4, 2.3)
    grads, loss = neural.gradients(net, xs, actions, targets)
    assert loss == pytest.approx(_mean_chosen_huber(net, xs, actions, targets))

    h = 1e-6
    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        flat = p.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = _mean_chosen_huber(net, xs, actions, targets)
            flat[k] = orig - h
            dn = _mean_chosen_huber(net, xs, actions, targets)
            flat[k] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - g.reshape(-1)[k]) / max(1.0, abs(fd)))
    assert worst < 1e-4


def test_gradients_only_touch_chosen_action_outputs():
    net = neural.init([3, 4, 4, 5], seed=2)
    xs = np.array([[1.0, -0.5, 0.25]])
    grads_a0, _ = neural.gradients(net, xs, [0], [10.0])
    # last-layer weight gradient columns for unchosen actions must be zero
    w_last = grads_a0[-2]
    assert np.any(w_last[:, 0] != 0.0)
    assert np.all(w_last[:, 1:] == 0.0)
    assert grads_a0[-1][0] != 0.0 and np.all(grads_a0[-1][1:] == 0.0)


def test_gradients_validate_batch_shapes():
    net = neural.init([3, 4, 4, 2], seed=0)
    with pytest.raises(MocapKeyError, match="^actions and targets must be one value per row$"):
        neural.gradients(net, np.zeros((2, 3)), [0], [0.0])
    with pytest.raises(MocapKeyError, match="^actions and targets must be one value per row$"):
        neural.gradients(net, np.zeros((2, 3)), [0, 1], [0.0])


def test_gradients_reject_non_finite():
    net = neural.init([3, 4, 4, 2], seed=0)
    net.weights[1][0, 0] = np.nan
    with pytest.raises(NumericError, match="^non-finite gradient; aborting update$"):
        neural.gradients(net, np.ones((1, 3)), [0], [0.0])


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def test_adam_step_matches_reference_formula():
    net = neural.init([2, 3, 3, 1], seed=4)
    before = [p.copy() for p in net.parameters()]
    adam = neural.AdamState.for_network(net, learning_rate=0.01)
    rng = np.random.default_rng(0)
    grads1 = [rng.normal(size=p.shape) for p in before]
    grads2 = [rng.normal(size=p.shape) for p in before]

    # reference: textbook Adam with bias correction, two steps
    m = [np.zeros_like(p) for p in before]
    v = [np.zeros_like(p) for p in before]
    params = [p.copy() for p in before]
    for t, gs in enumerate([grads1, grads2], start=1):
        for i, g in enumerate(gs):
            m[i] = 0.9 * m[i] + 0.1 * g
            v[i] = 0.999 * v[i] + 0.001 * g * g
            mhat = m[i] / (1 - 0.9 ** t)
            vhat = v[i] / (1 - 0.999 ** t)
            params[i] -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)

    neural.adam_step(net, adam, grads1)
    neural.adam_step(net, adam, grads2)
    assert adam.step == 2
    for p, ref in zip(net.parameters(), params):
        assert np.allclose(p, ref, atol=1e-12)


def test_blocked_adam_step_equals_the_whole_parameter_reference():
    # parameters below, at and across the block size, 2-D ones among them
    block = neural.ADAM_BLOCK
    rng = np.random.default_rng(3)
    shapes = [(127, 129), (1,), (1, block), (3 * block + 17,),
              (3, block + 7), (block,)]
    params = [rng.uniform(-1.0, 1.0, size=shape) for shape in shapes]
    net = neural.QNetwork(weights=params[0::2], biases=params[1::2])
    twin = net.copy()
    assert [p.size for p in net.parameters()][:4] == [block - 1, 1, block, 3 * block + 17]
    adam = neural.AdamState.for_network(net, learning_rate=0.01)
    adam_twin = neural.AdamState.for_network(twin, learning_rate=0.01)
    for step in range(4):
        grads = [rng.normal(scale=10.0 ** rng.integers(-4, 3), size=p.shape)
                 for p in params]
        neural.adam_step(net, adam, grads)
        adam_reference(twin, adam_twin, grads)
        assert adam.step == adam_twin.step == step + 1
        for a, b in zip(net.parameters() + adam.m + adam.v,
                        twin.parameters() + adam_twin.m + adam_twin.v):
            assert a.tobytes() == b.tobytes()


def test_adam_step_holds_two_block_sized_work_arrays():
    # a default-size network: 60-frame, 22-joint windows, 128 and 64 units
    net = neural.init([60 * 89, 128, 64, 60], seed=0)
    adam = neural.AdamState.for_network(net, learning_rate=0.01)
    grads = [np.full_like(p, 0.5) for p in net.parameters()]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        neural.adam_step(net, adam, grads)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert sum(a.size for a in adam.scratch) <= 2 * neural.ADAM_BLOCK
    # the two work arrays plus small change; a parameter-sized copy is 5.5 MB
    assert peak < 2 * neural.ADAM_BLOCK * 8 + 65536


def test_backward_and_step_reduces_loss():
    rng = np.random.default_rng(5)
    net = neural.init([4, 8, 8, 2], seed=6)
    adam = neural.AdamState.for_network(net, learning_rate=0.01)
    xs = rng.normal(size=(16, 4))
    actions = rng.integers(0, 2, size=16)
    targets = rng.normal(size=16)
    _, first = neural.backward_and_step(net, adam, xs, actions, targets)
    for _ in range(200):
        _, last = neural.backward_and_step(net, adam, xs, actions, targets)
    assert last < 0.2 * first


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = neural.init([3, 5, 4, 2], seed=7)
    adam = neural.AdamState.for_network(net, learning_rate=0.003)
    rng = np.random.default_rng(1)
    for _ in range(3):
        grads = [rng.normal(size=p.shape) for p in net.parameters()]
        neural.adam_step(net, adam, grads)
    path = tmp_path / "model.ckpt"
    neural.checkpoint_save(net, adam, path, extra={"episodes": 12})
    net2, adam2, extra = neural.checkpoint_load(path)
    assert extra == {"episodes": 12}
    assert net2.shapes == net.shapes and net2.seed == net.seed
    for a, b in zip(net.parameters(), net2.parameters()):
        assert np.array_equal(a, b)
    assert (adam2.learning_rate, adam2.step) == (0.003, 3)
    for a, b in zip(adam.m + adam.v, adam2.m + adam2.v):
        assert np.array_equal(a, b)
    # Adam's betas and eps are fixed: a header holding another value is corrupt
    header, _, body = path.read_bytes().partition(b"\n")
    for key, value in (("beta1", 0.85), ("beta2", 0.99), ("eps", 1e-7)):
        edited = json.loads(header)
        edited["adam"][key] = value
        path.write_bytes(json.dumps(edited).encode("utf-8") + b"\n" + body)
        with pytest.raises(MocapKeyError, match=f"adam {key} is {value!r}, fixed at"):
            neural.checkpoint_load(path)


def test_blocks_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    blocks = [rng.normal(size=(4, 3)),
              np.asfortranarray(rng.normal(size=(3, 5))),   # written in C order
              rng.normal(size=6).astype(">f8"),             # written little-endian
              np.arange(4),                                 # written as float64
              np.empty((0, 3))]                             # writes no bytes
    path = tmp_path / "blocks.bin"
    neural.write_blocks(path, b'{"n": 5}', blocks)
    assert path.read_bytes() == b'{"n": 5}\n' + b"".join(
        np.ascontiguousarray(b, dtype="<f8").tobytes() for b in blocks)
    with open(path, "rb") as fh:
        assert neural.read_header(fh) == {"n": 5}
        back = neural.read_blocks(fh, [b.shape for b in blocks])
    for a, b in zip(back, blocks):
        assert a.dtype == np.float64 and np.array_equal(a, b)


def test_checkpoint_rejects_version_and_corruption(tmp_path):
    net = neural.init([3, 4, 4, 2], seed=0)
    adam = neural.AdamState.for_network(net, learning_rate=0.01)
    path = tmp_path / "model.ckpt"
    neural.checkpoint_save(net, adam, path)

    data = path.read_bytes()
    header, _, body = data.partition(b"\n")

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(header.replace(b'"format_version": 1', b'"format_version": 9')
                    + b"\n" + body)
    with pytest.raises(MocapKeyError, match="format_version is 9, fixed at 1$"):
        neural.checkpoint_load(bad)

    bad.write_bytes(b"not json\n" + body)
    with pytest.raises(MocapKeyError, match="unreadable header"):
        neural.checkpoint_load(bad)

    bad.write_bytes(header + b"\n" + body[:-8])
    with pytest.raises(MocapKeyError, match="truncated"):
        neural.checkpoint_load(bad)

    bad.write_bytes(data + b"\x00")
    with pytest.raises(MocapKeyError, match="trailing"):
        neural.checkpoint_load(bad)


def test_failed_save_keeps_the_earlier_file(tmp_path):
    net = neural.init([3, 4, 4, 2], seed=0)
    adam = neural.AdamState.for_network(net, learning_rate=0.01)
    path = tmp_path / "model.ckpt"
    neural.checkpoint_save(net, adam, path)
    before = path.read_bytes()
    # the last Adam block cannot become float64: the save fails after the
    # header and every other block went to disk
    adam.v[-1] = np.array(["not a number"], dtype=object)
    net.weights[0] += 1.0
    with pytest.raises(ValueError):
        neural.checkpoint_save(net, adam, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    log = tmp_path / "run.log.csv"
    log.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with neural.atomic_open(log, "w", encoding="utf-8") as fh:
            fh.write("new, half written")
            fh.flush()
            raise RuntimeError("interrupted")
    assert log.read_text(encoding="utf-8") == "old\n"
    with neural.atomic_open(log, "w", encoding="utf-8") as fh:
        fh.write("new\n")
    assert log.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "run.log.csv"]
