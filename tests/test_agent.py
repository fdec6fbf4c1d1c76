import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import oracle_reference as ref
from mocapkey import agent, neural
from mocapkey.baselines import select_greedy
from mocapkey.errors import MocapKeyError, NumericError
from mocapkey.keyframes import KeyframeSet
from mocapkey.metrics import q_baseline, q_error
from mocapkey.spherical import wrap_angle


def tiny_windows(count=3, n=8, m=2):
    return [conftest.random_spherical(40 + i, n, m) for i in range(count)]


def encoded(sph, keys):
    """The network input for one window and keyframe set, as train builds it."""
    return agent.assemble_state(agent.state_features(sph), keys.mask)


def _certified(net, sph):
    """A _CertifiedQ of ``net`` over the one window ``sph``."""
    zero = np.zeros(sph.frame_count, dtype=bool)
    return agent._CertifiedQ(
        net, agent.assemble_state(agent.state_features(sph), zero)[None])


def tiny_config(**overrides):
    base = dict(keyframe_count=4, episodes=30, batch_size=16,
                memory_capacity=200, train_interval=4, target_interval=5,
                hidden1=16, hidden2=8, seed=1)
    base.update(overrides)
    return agent.TrainConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_train_config_round_trip(tmp_path):
    cfg = tiny_config(learning_rate=0.005)
    assert agent.TrainConfig.from_dict(cfg.to_dict()) == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert agent.TrainConfig.from_file(path) == cfg
    assert cfg.digest() != tiny_config(learning_rate=0.004).digest()
    # epsilon_start was a setting once; configs that hold it no longer load
    for extra in ({"momentum": 0.9}, {"epsilon_start": 1.0}):
        with pytest.raises(MocapKeyError, match="unknown config keys"):
            agent.TrainConfig.from_dict({**cfg.to_dict(), **extra})


def test_train_config_validation():
    for bad in [dict(keyframe_count=1), dict(discount=1.5),
                dict(learning_rate=0.0), dict(episodes=0)]:
        with pytest.raises(MocapKeyError, match=f"^{next(iter(bad))} is "):
            tiny_config(**bad)


# ---------------------------------------------------------------------------
# state encoding
# ---------------------------------------------------------------------------


def test_state_features_layout_and_scaling():
    sph = conftest.random_spherical(3, 6, 2)
    feats = agent.state_features(sph)
    assert feats.shape == (6, 8)
    assert np.allclose(feats[:, 0:2], sph.theta / np.pi)
    assert np.allclose(feats[:, 2:4], wrap_angle(sph.phi) / np.pi)
    assert np.allclose(feats[:, 4:6],
                       np.clip(sph.theta_dot, -10, 10) / 10.0)
    assert np.all(np.abs(feats[:, 4:]) <= 1.0)


def test_assemble_state_places_mask_bits():
    sph = conftest.random_spherical(4, 5, 2)
    keys = KeyframeSet.from_indices([0, 2, 4], 5)
    state = encoded(sph, keys)
    assert state.shape == (5 * 9,)
    slots = np.arange(5) * 9 + 8
    assert np.array_equal(state[slots], [1, 0, 1, 0, 1])
    off_slots = np.setdiff1d(np.arange(state.size), slots)
    assert np.allclose(state[off_slots], agent.state_features(sph).ravel())


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


def test_act_greedy_masks_taken_frames():
    sph = conftest.random_spherical(6, 8, 2)
    keys = KeyframeSet.from_indices([0, 3, 7], 8)
    state = encoded(sph, keys)
    net = neural.init([state.size, 12, 8, 8], seed=5)
    rng = np.random.default_rng(0)
    action = agent.act(_certified(net, sph), 0, keys.mask, epsilon=0.0, rng=rng)
    q = neural.forward(net, state)
    valid = np.setdiff1d(np.arange(8), [0, 3, 7])
    assert action == valid[np.argmax(q[valid])]


def test_act_ties_resolve_to_lowest_frame():
    sph = conftest.random_spherical(7, 8, 2)
    keys = KeyframeSet.endpoints(8)
    net = neural.init([encoded(sph, keys).size, 12, 8, 8], seed=5)
    net.weights[2][:] = 0.0
    net.biases[2][:] = 0.0
    assert agent.act(_certified(net, sph), 0, keys.mask, 0.0,
                     np.random.default_rng(0)) == 1


def test_act_exploration_stays_valid(monkeypatch):
    sph = conftest.random_spherical(8, 8, 2)
    keys = KeyframeSet.from_indices([0, 1, 2, 3, 4, 7], 8)
    net = neural.init([encoded(sph, keys).size, 12, 8, 8], seed=5)
    policy = _certified(net, sph)

    def no_pick(*_):
        raise AssertionError("a random step must not ask the policy")

    monkeypatch.setattr(policy, "best", no_pick)
    rng = np.random.default_rng(2)
    picks = [agent.act(policy, 0, keys.mask, 1.0, rng) for _ in range(50)]
    assert set(picks) == {5, 6}
    # one uniform draw for the epsilon test, then one choice per step
    draws = np.random.default_rng(2)
    expected = []
    for _ in range(50):
        draws.random()
        expected.append(int(draws.choice([5, 6])))
    assert picks == expected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(3, 12), m=st.integers(1, 3),
       hidden=st.tuples(st.integers(1, 24), st.integers(1, 12)),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), tie=st.booleans(),
       keyframes=st.integers(0, 12))
def test_certified_action_equals_forward_argmax(seed, n, m, hidden, scale, tie,
                                                keyframes):
    sph = conftest.random_spherical(seed, n, m, smooth=bool(seed % 2))
    net = neural.init([n * (4 * m + 1), *hidden, n], seed)
    rng = np.random.default_rng(seed)
    for p in net.parameters():
        p += scale * rng.normal(size=p.shape) * (rng.random() < 0.5)
    if tie:   # two outputs that are equal in every computation order
        net.weights[2][:, -1] = net.weights[2][:, 0]
        net.biases[2][-1] = net.biases[2][0]
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=min(keyframes, n - 1), replace=False)] = True
    valid = np.flatnonzero(~mask)
    full = neural.forward(net, agent.assemble_state(agent.state_features(sph), mask))
    certified = _certified(net, sph)
    running, bound = certified.q_bound(0, mask)
    assert np.all(np.abs(running - full) <= bound)
    assert certified.best(0, mask, valid) == valid[np.argmax(full[valid])]
    assert agent.act(certified, 0, mask, 0.0, np.random.default_rng(0)) \
        == valid[np.argmax(full[valid])]


def test_certified_tie_falls_back_to_the_lower_frame():
    sph = conftest.random_spherical(13, 8, 2)
    net = neural.init([8 * 9, 12, 8, 8], seed=5)
    net.weights[2][:, 6] = net.weights[2][:, 2]
    net.biases[2][[2, 6]] = 100.0      # frames 2 and 6 lead, exactly tied
    certified = _certified(net, sph)
    mask = KeyframeSet.endpoints(8).mask
    running, bound = certified.q_bound(0, mask)
    assert running[2] == running[6] and bound > 0.0
    with mock.patch.object(neural, "forward", wraps=neural.forward) as spy:
        assert certified.best(0, mask, np.flatnonzero(~mask)) == 2
    assert spy.call_count == 1         # the certificate failed: one forward
    with mock.patch.object(neural, "forward", wraps=neural.forward) as spy:
        mask[2] = True
        assert certified.best(0, mask, np.flatnonzero(~mask)) == 6
    assert spy.call_count == 0         # a clear winner needs no forward


def test_act_raises_when_no_frame_left():
    sph = conftest.random_spherical(9, 4, 2)
    keys = KeyframeSet.from_indices([0, 1, 2, 3], 4)
    net = neural.init([encoded(sph, keys).size, 8, 8, 4], seed=0)
    with pytest.raises(NumericError, match="every frame is already a keyframe"):
        agent.act(_certified(net, sph), 0, keys.mask, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# targets and replay
# ---------------------------------------------------------------------------


def _target_batch(sph, rows):
    """(states, actions, rewards, terminal) arrays for (keys, action,
    reward, terminal) rows on one window."""
    return (np.array([encoded(sph, r[0]) for r in rows]),
            np.array([r[1] for r in rows]), np.array([r[2] for r in rows]),
            np.array([r[3] for r in rows]))


def _reference_targets(net, sph, rows, discount):
    weights = [w.tolist() for w in net.weights]
    biases = [b.tolist() for b in net.biases]
    return [ref.td_target_reference(reward, encoded(sph, keys.add(action)).tolist(),
                                    terminal, weights, biases, discount)
            for keys, action, reward, terminal in rows]


def test_td_target_terminal_and_bootstrap():
    sph = conftest.random_spherical(10, 6, 2)
    net = neural.init([6 * 9, 10, 8, 6], seed=3)
    ends = KeyframeSet.endpoints(6)
    all_but_3 = KeyframeSet.from_indices([0, 1, 2, 4, 5], 6)
    rows = [(ends, 2, 0.7, True), (ends, 2, 0.7, False),
            (all_but_3, 3, -0.2, False)]
    batch = _target_batch(sph, rows)
    before = [a.copy() for a in batch]
    got = agent._batch_targets(*batch, net, 0.5)
    # inputs are left alone
    assert all(np.array_equal(a, b) for a, b in zip(batch, before))
    assert got[0] == 0.7     # terminal: the reward alone
    assert got[2] == -0.2    # next state has no valid action: the reward alone
    assert got[1] != 0.7     # open: bootstraps from the target network
    want = _reference_targets(net, sph, rows, 0.5)
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_batch_targets_match_td_target_loop():
    sph = conftest.random_spherical(11, 8, 2)
    net = neural.init([8 * 9, 12, 8, 8], seed=4)
    rng = np.random.default_rng(6)
    rows = []
    for i in range(12):
        keys = KeyframeSet.endpoints(8)
        for _ in range(int(rng.integers(0, 4))):
            keys = keys.add(int(rng.choice(keys.complement())))
        action = int(rng.choice(keys.complement()))
        rows.append((keys, action, float(rng.normal()), bool(i % 3 == 0)))
    full = KeyframeSet.from_indices([0, 1, 2, 3, 4, 5, 7], 8)
    rows.append((full, 6, float(rng.normal()), False))
    batch = _target_batch(sph, rows)
    got = agent._batch_targets(*batch, net, 0.5)
    want = _reference_targets(net, sph, rows, 0.5)
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert got[-1] == rows[-1][2]
    assert agent._batch_targets(*batch[:3], np.ones(13, bool),
                                net, 0.5).tolist() == batch[2].tolist()


def test_replay_memory_ring_eviction():
    mem = agent.ReplayMemory(np.zeros((1, 3, 8)), capacity=4)
    mask = np.zeros(3)
    for i in range(6):
        mem.add(0, mask, action=i % 3, reward=float(i), terminal=False)
    assert len(mem) == 4 and mem.inserted == 6
    # 0 and 1 were evicted first, into the ring slots they had held
    assert mem.action.tolist() == [1, 2, 2, 0]
    assert mem.reward.tolist() == [4.0, 5.0, 2.0, 3.0]
    states, actions, rewards, terminal = mem.sample(np.random.default_rng(0), 10)
    assert set(rewards.tolist()) <= {2.0, 3.0, 4.0, 5.0}
    assert np.array_equal(actions, rewards.astype(int) % 3)
    assert states.shape == (10, 3 * 9)
    assert not states.any()   # zero features and the stored empty masks
    assert not terminal.any()
    with pytest.raises(ValueError):
        agent.ReplayMemory(np.zeros((1, 3, 8)), 0)
    with pytest.raises(MocapKeyError, match="replay memory is empty"):
        agent.ReplayMemory(np.zeros((1, 3, 8)), 2).sample(
            np.random.default_rng(0), 1)


def test_replay_memory_snapshots_masks():
    mem = agent.ReplayMemory(np.zeros((1, 3, 8)), capacity=4)
    mask = np.zeros(3)
    mem.add(0, mask, 1, 0.0, False)
    mask[0] = 1.0  # caller mutates after insertion
    batch = mem.sample(np.random.default_rng(0), 1)
    assert batch[0][0, np.arange(3) * 9 + 8].sum() == 0.0
    assert batch[1].tolist() == [1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), capacity=st.integers(1, 6),
       adds=st.integers(1, 20), batch=st.integers(1, 9))
def test_replay_sample_equals_per_row_states(seed, capacity, adds, batch):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(3, 5, 4))
    features[0, 0, 0] = -0.0
    mem = agent.ReplayMemory(features, capacity)
    ring = [None] * capacity
    for i in range(adds):
        row = (int(rng.integers(3)), rng.random(5) < 0.4, int(rng.integers(5)),
               float(rng.normal()), bool(rng.random() < 0.3))
        mem.add(*row)
        ring[i % capacity] = row
    assert len(mem) == min(adds, capacity)
    states, actions, rewards, terminal = mem.sample(np.random.default_rng(seed), batch)
    picks = np.random.default_rng(seed).integers(0, len(mem), size=batch)
    want_next = []
    for b, pick in enumerate(picks):
        window, mask, action, reward, term = ring[pick]
        next_mask = mask.copy()
        next_mask[action] = True
        want = agent.assemble_state(features[window], mask)
        assert states[b].tobytes() == want.tobytes()
        assert (actions[b], rewards[b], terminal[b]) == (action, reward, term)
        if not term:
            want_next.append(agent.assemble_state(features[window], next_mask))
    # the target network sees exactly the open rows' assembled next states
    net = neural.init([25, 6, 4, 5], seed=seed)
    with mock.patch.object(neural, "forward", wraps=neural.forward) as spy:
        agent._batch_targets(states, actions, rewards, terminal, net, 0.5)
    if want_next:
        assert spy.call_args.args[1].tobytes() == np.array(want_next).tobytes()
    else:
        assert not spy.called


# ---------------------------------------------------------------------------
# reward telescoping
# ---------------------------------------------------------------------------


def test_step_rewards_telescope_to_total_error_drop():
    sph = conftest.random_spherical(12, 10, 3)
    q0 = q_baseline(sph)
    keys = KeyframeSet.endpoints(10)
    q_prev = q0
    total = 0.0
    for frame in (4, 7, 2):
        keys = keys.add(frame)
        q_new = q_error(sph, keys)
        total += (q_prev - q_new) / q0
        q_prev = q_new
    assert total == pytest.approx(1.0 - q_prev / q0, abs=1e-12)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_runs_and_logs():
    windows = tiny_windows()
    cfg = tiny_config()
    result = agent.train(windows, cfg)
    assert result.episodes_done == cfg.episodes
    assert result.global_step == cfg.episodes * (cfg.keyframe_count - 2)
    episode_rows = [r for r in result.log if r.episode_reward is not None]
    update_rows = [r for r in result.log if r.loss is not None]
    assert len(episode_rows) == cfg.episodes
    assert result.updates == len(update_rows) > 0
    assert all(np.isfinite(r.loss) for r in update_rows)
    # epsilon decays toward the configured floor
    assert episode_rows[0].epsilon > episode_rows[-1].epsilon
    assert episode_rows[-1].epsilon >= agent.EPSILON_END - 1e-12


def test_train_retains_best_evaluated_policy():
    windows = tiny_windows(4, n=8, m=2)
    cfg = tiny_config(episodes=10, eval_interval=2, eval_sample=3)
    result = agent.train(windows, cfg)
    eval_rows = [r for r in result.log if r.eval_q is not None]
    assert len(eval_rows) == 5  # every 2 episodes over 10
    assert result.best_eval_q == pytest.approx(min(r.eval_q for r in eval_rows))
    assert result.best_episode is not None
    assert len(result.eval_indices) == 3
    assert all(0 <= i < 4 for i in result.eval_indices)
    # the returned network IS the best-scoring one: rescoring reproduces it
    total = 0.0
    for i in result.eval_indices:
        keys, _ = agent.infer_keyframes(result.net, windows[i], cfg.keyframe_count)
        total += q_error(windows[i], keys) / q_baseline(windows[i])
    assert total / 3 == pytest.approx(result.best_eval_q, abs=1e-12)


def test_train_eval_disabled_tracks_nothing():
    result = agent.train(tiny_windows(), tiny_config(episodes=5, eval_interval=0))
    assert result.best_eval_q is None and result.eval_indices is None
    assert not [r for r in result.log if r.eval_q is not None]


def test_train_resume_continues_counters():
    windows = tiny_windows()
    cfg = tiny_config(episodes=10)
    first = agent.train(windows, cfg)
    second = agent.train(windows, cfg, initial=first)
    assert second.episodes_done == 20
    assert second.global_step == 20 * (cfg.keyframe_count - 2)
    assert second.updates >= first.updates


def _assert_same_run(got, want):
    for a, b in zip(got.net.parameters() + got.adam.m + got.adam.v,
                    want.net.parameters() + want.adam.m + want.adam.v):
        assert a.tobytes() == b.tobytes()
    assert (got.adam.step, got.adam.learning_rate) == (want.adam.step,
                                                       want.adam.learning_rate)
    assert list(map(repr, got.log)) == list(map(repr, want.log))
    assert got.counters() == want.counters()
    assert (got.best_eval_q, got.best_episode, got.eval_indices) == (
        want.best_eval_q, want.best_episode, want.eval_indices)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_train_matches_the_reference_loop_bitwise(seed):
    windows = tiny_windows(4, n=10, m=2)
    cfg = tiny_config(seed=seed, episodes=40, eval_interval=15, eval_sample=3)
    _assert_same_run(agent.train(windows, cfg), ref.train_reference(windows, cfg))


def test_train_matches_the_reference_loop_past_eight_sections():
    # 12 keyframes: the reward sums 9 to 11 sections, numpy's pairwise path
    windows = tiny_windows(3, n=16, m=2)
    cfg = tiny_config(keyframe_count=12, episodes=12, eval_interval=6)
    _assert_same_run(agent.train(windows, cfg), ref.train_reference(windows, cfg))


def test_resumed_train_matches_the_reference_loop_bitwise():
    windows = tiny_windows()
    cfg = tiny_config(episodes=10)
    first, first_ref = agent.train(windows, cfg), ref.train_reference(windows, cfg)
    _assert_same_run(first, first_ref)
    more = tiny_config(episodes=15, learning_rate=0.05, eval_interval=5)
    _assert_same_run(agent.train(windows, more, initial=first),
                     ref.train_reference(windows, more, initial=first_ref))


def test_train_resume_takes_the_config_learning_rate(tmp_path):
    windows = tiny_windows()
    first = agent.train(windows, tiny_config(episodes=10))
    path = tmp_path / "first.ckpt"
    agent.save_agent(path, first, tiny_config(episodes=10))
    weights = []
    for rate in (0.01, 0.5):
        cfg = tiny_config(episodes=10, learning_rate=rate)
        loaded, _ = agent.load_agent(path)
        result = agent.train(windows, cfg, initial=loaded)
        agent.save_agent(tmp_path / "more.ckpt", result, cfg)
        header = json.loads((tmp_path / "more.ckpt").read_bytes().split(b"\n")[0])
        assert header["adam"]["learning_rate"] == rate
        assert header["extra"]["config"]["learning_rate"] == rate
        weights.append(result.net.weights[0].copy())
    assert not np.array_equal(*weights)


def test_train_validates_inputs():
    with pytest.raises(MocapKeyError, match="^no training windows$"):
        agent.train([], tiny_config())
    windows = tiny_windows(2, n=8, m=2) + tiny_windows(1, n=9, m=2)
    with pytest.raises(MocapKeyError, match=r"has shape \(9, 2\), expected \(8, 2\)"):
        agent.train(windows, tiny_config())
    with pytest.raises(MocapKeyError, match=r"keyframe count must be in \[2, 3\], got 4"):
        agent.train(tiny_windows(1, n=3, m=2), tiny_config(keyframe_count=4))


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def test_infer_matches_literal_greedy_rollout():
    windows = tiny_windows(2, n=10, m=2)
    result = agent.train(windows, tiny_config(episodes=15, keyframe_count=5))
    for sph in windows:
        keys, seconds = agent.infer_keyframes(result.net, sph, 5)
        assert seconds >= 0.0
        literal = KeyframeSet.endpoints(10)
        for _ in range(3):     # the valid frame of largest forward value
            q = neural.forward(result.net, encoded(sph, literal))
            valid = literal.complement()
            literal = literal.add(int(valid[np.argmax(q[valid])]))
        assert keys.indices == literal.indices
        assert len(keys) == 5 and 0 in keys and 9 in keys


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(3, 12), m=st.integers(1, 3),
       hidden=st.tuples(st.integers(1, 16), st.integers(1, 8)), data=st.data())
def test_greedy_rollouts_nest_across_budgets(seed, n, m, hidden, data):
    # each rollout to a larger budget passes through the smaller budget's set
    w1 = data.draw(st.integers(2, n - 1), label="w1")
    w2 = data.draw(st.integers(w1 + 1, n), label="w2")
    sph = conftest.random_spherical(seed, n, m, smooth=bool(seed % 2))
    net = neural.init([n * (4 * m + 1), *hidden, n], seed)
    small, large = (set(agent.infer_keyframes(net, sph, w)[0]) for w in (w1, w2))
    assert small < large
    assert set(select_greedy(sph, w1)) < set(select_greedy(sph, w2))


def test_infer_validates_arguments():
    windows = tiny_windows(1, n=8, m=2)
    net = neural.init([8 * 9, 8, 8, 8], seed=0)
    with pytest.raises(MocapKeyError, match=r"keyframe count must be in \[2, 8\], got 1"):
        agent.infer_keyframes(net, windows[0], 1)
    with pytest.raises(MocapKeyError, match=r"keyframe count must be in \[2, 8\], got 9"):
        agent.infer_keyframes(net, windows[0], 9)
    wrong = neural.init([7 * 9, 8, 8, 7], seed=0)
    with pytest.raises(MocapKeyError, match=r"does not fit a \(8, 2\) window"):
        agent.infer_keyframes(wrong, windows[0], 4)


def test_infer_w2_returns_endpoints_immediately():
    windows = tiny_windows(1, n=8, m=2)
    net = neural.init([8 * 9, 8, 8, 8], seed=0)
    keys, _ = agent.infer_keyframes(net, windows[0], 2)
    assert keys.indices == (0, 7)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_and_load_agent_round_trip(tmp_path):
    windows = tiny_windows()
    cfg = tiny_config(episodes=8)
    result = agent.train(windows, cfg)
    path = tmp_path / "agent.ckpt"
    agent.save_agent(path, result, cfg)
    loaded, cfg2 = agent.load_agent(path)
    assert cfg2 == cfg
    assert loaded.counters() == result.counters()
    for a, b in zip(loaded.net.parameters(), result.net.parameters()):
        assert np.array_equal(a, b)
    sph = windows[0]
    assert (agent.infer_keyframes(loaded.net, sph, 4)[0].indices
            == agent.infer_keyframes(result.net, sph, 4)[0].indices)


def test_loaded_agent_resumes_training(tmp_path):
    windows = tiny_windows()
    cfg = tiny_config(episodes=6)
    result = agent.train(windows, cfg)
    path = tmp_path / "agent.ckpt"
    agent.save_agent(path, result, cfg)
    loaded, _ = agent.load_agent(path)
    more = agent.train(windows, cfg, initial=loaded)
    assert more.episodes_done == 12
