import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import oracle_reference as ref
from mocapkey import agent, neural
from mocapkey.errors import EmptyDataset, InvalidW, NoValidAction, ShapeMismatch
from mocapkey.keyframes import KeyframeSet
from mocapkey.metrics import q_baseline, q_error
from mocapkey.spherical import wrap_angle


def tiny_windows(count=3, n=8, m=2):
    return [conftest.random_spherical(40 + i, n, m) for i in range(count)]


def encoded(sph, keys):
    """The network input for one window and keyframe set, as train builds it."""
    return agent.assemble_state(agent.state_features(sph), keys.mask)


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
    cfg.to_file(path)
    assert agent.TrainConfig.from_file(path) == cfg
    assert cfg.digest() != tiny_config(learning_rate=0.004).digest()
    with pytest.raises(ValueError, match="unknown config keys"):
        agent.TrainConfig.from_dict({"keyframe_count": 5, "momentum": 0.9})


def test_train_config_validation():
    for bad in [dict(keyframe_count=1), dict(discount=1.5),
                dict(learning_rate=0.0), dict(episodes=0),
                dict(epsilon_start=0.2, epsilon_end=0.4),
                dict(epsilon_fraction=0.0)]:
        with pytest.raises(ValueError):
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
    action = agent.act(net, agent.state_features(sph), keys.mask,
                       epsilon=0.0, rng=rng)
    q = neural.forward(net, state)
    valid = np.setdiff1d(np.arange(8), [0, 3, 7])
    assert action == valid[np.argmax(q[valid])]


def test_act_ties_resolve_to_lowest_frame():
    sph = conftest.random_spherical(7, 8, 2)
    keys = KeyframeSet.endpoints(8)
    net = neural.init([encoded(sph, keys).size, 12, 8, 8], seed=5)
    net.weights[2][:] = 0.0
    net.biases[2][:] = 0.0
    assert agent.act(net, agent.state_features(sph), keys.mask, 0.0,
                     np.random.default_rng(0)) == 1


def test_act_exploration_stays_valid(monkeypatch):
    sph = conftest.random_spherical(8, 8, 2)
    keys = KeyframeSet.from_indices([0, 1, 2, 3, 4, 7], 8)
    feats = agent.state_features(sph)
    net = neural.init([encoded(sph, keys).size, 12, 8, 8], seed=5)

    def no_state(*_):
        raise AssertionError("a random step must not assemble the state")

    monkeypatch.setattr(agent, "assemble_state", no_state)
    rng = np.random.default_rng(2)
    picks = [agent.act(net, feats, keys.mask, 1.0, rng) for _ in range(50)]
    assert set(picks) == {5, 6}
    # one uniform draw for the epsilon test, then one choice per step
    draws = np.random.default_rng(2)
    expected = []
    for _ in range(50):
        draws.random()
        expected.append(int(draws.choice([5, 6])))
    assert picks == expected


def test_act_raises_when_no_frame_left():
    sph = conftest.random_spherical(9, 4, 2)
    keys = KeyframeSet.from_indices([0, 1, 2, 3], 4)
    net = neural.init([encoded(sph, keys).size, 8, 8, 4], seed=0)
    with pytest.raises(NoValidAction):
        agent.act(net, agent.state_features(sph), keys.mask, 0.0,
                  np.random.default_rng(0))


# ---------------------------------------------------------------------------
# targets and replay
# ---------------------------------------------------------------------------


def _target_batch(sph, rows):
    """(rewards, next_states, next_masks, terminal) arrays for (keys,
    action, reward, terminal) rows on one window."""
    rewards = np.array([r[2] for r in rows])
    next_keys = [keys.add(action) for keys, action, _, _ in rows]
    next_states = np.array([encoded(sph, keys) for keys in next_keys])
    next_masks = np.array([keys.mask for keys in next_keys])
    terminal = np.array([r[3] for r in rows])
    return rewards, next_states, next_masks, terminal


def _reference_targets(net, rewards, next_states, next_masks, terminal,
                       discount):
    weights = [w.tolist() for w in net.weights]
    biases = [b.tolist() for b in net.biases]
    return [ref.td_target_reference(float(r), x.tolist(), bool(t), weights,
                                    biases, discount)
            for r, x, t in zip(rewards, next_states, terminal)]


def test_td_target_terminal_and_bootstrap():
    sph = conftest.random_spherical(10, 6, 2)
    net = neural.init([6 * 9, 10, 8, 6], seed=3)
    ends = KeyframeSet.endpoints(6)
    all_but_3 = KeyframeSet.from_indices([0, 1, 2, 4, 5], 6)
    batch = _target_batch(sph, [(ends, 2, 0.7, True), (ends, 2, 0.7, False),
                                (all_but_3, 3, -0.2, False)])
    rewards = batch[0].copy()
    got = agent._batch_targets(*batch, net, 0.5)
    assert np.array_equal(batch[0], rewards)  # inputs are left alone
    assert got[0] == 0.7     # terminal: the reward alone
    assert got[2] == -0.2    # next state has no valid action: the reward alone
    assert got[1] != 0.7     # open: bootstraps from the target network
    want = _reference_targets(net, *batch, 0.5)
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
    want = _reference_targets(net, *batch, 0.5)
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert got[-1] == rows[-1][2]
    assert agent._batch_targets(*batch[:3], np.ones(13, bool),
                                net, 0.5).tolist() == batch[0].tolist()


def test_replay_memory_ring_eviction():
    mem = agent.ReplayMemory(np.zeros((1, 3, 8)), capacity=4)
    mask = np.zeros(3)
    for i in range(6):
        mem.add(0, mask, action=i, reward=float(i), next_mask=mask,
                terminal=False)
    assert len(mem) == 4 and mem.inserted == 6
    # 0 and 1 were evicted first, into the ring slots they had held
    assert mem.action.tolist() == [4, 5, 2, 3]
    assert mem.reward.tolist() == [4.0, 5.0, 2.0, 3.0]
    states, actions, rewards, next_states, terminal, next_masks = mem.sample(
        np.random.default_rng(0), 10)
    assert set(actions.tolist()) <= {2, 3, 4, 5}
    assert np.array_equal(rewards, actions.astype(float))
    assert states.shape == next_states.shape == (10, 3 * 9)
    assert next_masks.shape == (10, 3) and not next_masks.any()
    assert not terminal.any()
    with pytest.raises(ValueError):
        agent.ReplayMemory(np.zeros((1, 3, 8)), 0)
    with pytest.raises(EmptyDataset):
        agent.ReplayMemory(np.zeros((1, 3, 8)), 2).sample(
            np.random.default_rng(0), 1)


def test_replay_memory_snapshots_masks():
    mem = agent.ReplayMemory(np.zeros((1, 3, 8)), capacity=4)
    mask = np.zeros(3)
    mem.add(0, mask, 1, 0.0, mask, False)
    mask[0] = 1.0  # caller mutates after insertion
    batch = mem.sample(np.random.default_rng(0), 1)
    assert batch[0][0, np.arange(3) * 9 + 8].sum() == 0.0
    assert not batch[5].any()


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
               float(rng.normal()), rng.random(5) < 0.6, bool(rng.random() < 0.3))
        mem.add(*row)
        ring[i % capacity] = row
    assert len(mem) == min(adds, capacity)
    states, actions, rewards, next_states, terminal, next_masks = mem.sample(
        np.random.default_rng(seed), batch)
    picks = np.random.default_rng(seed).integers(0, len(mem), size=batch)
    for b, pick in enumerate(picks):
        window, mask, action, reward, next_mask, term = ring[pick]
        want = agent.assemble_state(features[window], mask)
        want_next = agent.assemble_state(features[window], next_mask)
        assert states[b].tobytes() == want.tobytes()
        assert next_states[b].tobytes() == want_next.tobytes()
        assert np.array_equal(next_masks[b], next_mask)
        assert (actions[b], rewards[b], terminal[b]) == (action, reward, term)


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
    assert episode_rows[-1].epsilon >= cfg.epsilon_end - 1e-12


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


def test_train_validates_inputs():
    with pytest.raises(EmptyDataset):
        agent.train([], tiny_config())
    windows = tiny_windows(2, n=8, m=2) + tiny_windows(1, n=9, m=2)
    with pytest.raises(ShapeMismatch):
        agent.train(windows, tiny_config())
    with pytest.raises(InvalidW):
        agent.train(tiny_windows(1, n=3, m=2), tiny_config(keyframe_count=4))


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def test_infer_matches_literal_greedy_rollout():
    windows = tiny_windows(2, n=10, m=2)
    result = agent.train(windows, tiny_config(episodes=15, keyframe_count=5))
    rng = np.random.default_rng(0)
    for sph in windows:
        keys, seconds = agent.infer_keyframes(result.net, sph, 5)
        assert seconds >= 0.0
        literal = KeyframeSet.endpoints(10)
        feats = agent.state_features(sph)
        for _ in range(3):
            literal = literal.add(agent.act(result.net, feats, literal.mask, 0.0, rng))
        assert keys.indices == literal.indices
        assert len(keys) == 5 and 0 in keys and 9 in keys


def test_infer_validates_arguments():
    windows = tiny_windows(1, n=8, m=2)
    net = neural.init([8 * 9, 8, 8, 8], seed=0)
    with pytest.raises(InvalidW):
        agent.infer_keyframes(net, windows[0], 1)
    with pytest.raises(InvalidW):
        agent.infer_keyframes(net, windows[0], 9)
    wrong = neural.init([7 * 9, 8, 8, 7], seed=0)
    with pytest.raises(ShapeMismatch):
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
