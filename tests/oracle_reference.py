"""Straight-line reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way in pure
Python (lists, Gaussian elimination, nested loops) and shares no code
with the package. Tests compare the fast vectorized implementations
against these. The one exception is :func:`train_reference`, the training
loop without its shortcuts: it is built from the package's own float
primitives, so that the fast loop can be required to match it bit for bit.
"""

from __future__ import annotations

import math


def solve_linear(a, b):
    """Gaussian elimination with partial pivoting on small dense systems."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def fit_cubic_reference(p0, v0, p1, v1, t0, t1):
    """Cubic a0 + a1 t + a2 t^2 + a3 t^3 through (t0, p0, v0), (t1, p1, v1)
    solved directly in absolute time."""
    rows = [
        [1.0, t0, t0 * t0, t0 ** 3],
        [0.0, 1.0, 2.0 * t0, 3.0 * t0 * t0],
        [1.0, t1, t1 * t1, t1 ** 3],
        [0.0, 1.0, 2.0 * t1, 3.0 * t1 * t1],
    ]
    return solve_linear(rows, [p0, v0, p1, v1])


def eval_cubic(coeffs, t):
    return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t + coeffs[3] * t ** 3


def reconstruct_reference(values, rates, dt, keys):
    """Keyframe reconstruction of the tracks ``values`` (N rows of C
    channels): keyframe rows are copied, every other frame is its section's
    cubic fitted channel by channel through the two keyframes' values and
    ``rates``, evaluated at the frame's time."""
    out = [row[:] for row in values]
    for k0, k1 in zip(keys[:-1], keys[1:]):
        for c in range(len(values[0])):
            coeffs = fit_cubic_reference(values[k0][c], rates[k0][c],
                                         values[k1][c], rates[k1][c],
                                         k0 * dt, k1 * dt)
            for q in range(k0 + 1, k1):
                out[q][c] = eval_cubic(coeffs, q * dt)
    return out


def wrapped_distance(a, b):
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def mean_angle_error_reference(theta, phi, theta_dot, phi_dot, dt, keys):
    """Section-by-section reconstruction error, averaged over frames and
    joints. ``theta`` and friends are lists of per-frame lists (N rows of M
    joints); ``keys`` is a sorted list of keyframe indices including both
    endpoints. Every section evaluates its fitted polynomials at all of its
    frames, endpoints included."""
    n = len(theta)
    m = len(theta[0])
    total = 0.0
    for k0, k1 in zip(keys[:-1], keys[1:]):
        t0, t1 = k0 * dt, k1 * dt
        for j in range(m):
            cth = fit_cubic_reference(theta[k0][j], theta_dot[k0][j],
                                      theta[k1][j], theta_dot[k1][j], t0, t1)
            cph = fit_cubic_reference(phi[k0][j], phi_dot[k0][j],
                                      phi[k1][j], phi_dot[k1][j], t0, t1)
            for q in range(k0, k1 + 1):
                total += wrapped_distance(eval_cubic(cth, q * dt), theta[q][j])
                total += wrapped_distance(eval_cubic(cph, q * dt), phi[q][j])
    return total / (n * m)


def greedy_reference(theta, phi, theta_dot, phi_dot, dt, budget):
    """Exhaustive one-step-at-a-time argmin keyframe selection; ties keep
    the lowest candidate index."""
    n = len(theta)
    keys = [0, n - 1]
    while len(keys) < budget:
        best_key = None
        best_q = None
        for cand in range(1, n - 1):
            if cand in keys:
                continue
            trial = sorted(keys + [cand])
            q = mean_angle_error_reference(theta, phi, theta_dot, phi_dot,
                                           dt, trial)
            if best_q is None or q < best_q:
                best_q = q
                best_key = cand
        keys = sorted(keys + [best_key])
    return keys


def mlp_forward_reference(weights, biases, x):
    """Rectifier hidden layers and a linear output layer; ``weights`` are
    (fan_in, fan_out) nested lists, so unit j of a layer sums h[i] w[i][j]."""
    h = list(x)
    for layer, (w, b) in enumerate(zip(weights, biases)):
        h = [b[j] + sum(h[i] * w[i][j] for i in range(len(h)))
             for j in range(len(b))]
        if layer < len(weights) - 1:
            h = [max(v, 0.0) for v in h]
    return h


def td_target_reference(reward, next_state, terminal, weights, biases,
                        discount):
    """DQN value target of one transition. The state is N blocks of equal
    width, one per frame, whose last entry is the frame's keyframe bit; a
    valid action is a frame whose bit is 0. The target is the reward at a
    terminal step or when no action is valid, otherwise the reward plus the
    discounted largest network output over the valid frames."""
    if terminal:
        return reward
    frames = len(biases[-1])
    block = len(next_state) // frames
    valid = [f for f in range(frames)
             if next_state[f * block + block - 1] == 0.0]
    if not valid:
        return reward
    q = mlp_forward_reference(weights, biases, next_state)
    return reward + discount * max(q[f] for f in valid)


def train_reference(dataset, cfg, initial=None):
    """``agent.train`` the direct way: every step's reward from a full
    ``q_error``, every greedy step and every evaluated policy a full
    ``neural.forward`` with a masked argmax, replay rows kept as tuples and
    assembled whole (next states too) when sampled, and Adam written out
    with fresh temporaries. Same random draws, same log rows."""
    import numpy as np

    from mocapkey import agent, neural
    from mocapkey.errors import DegenerateSequence
    from mocapkey.keyframes import KeyframeSet
    from mocapkey.metrics import q_baseline, q_error

    pool = []
    for di, sph in enumerate(dataset):
        try:
            pool.append((sph, q_baseline(sph), di))
        except DegenerateSequence:
            pass
    n, m, w = pool[0][0].frame_count, pool[0][0].joint_count, cfg.keyframe_count
    if initial is None:
        net = neural.init([n * (4 * m + 1), cfg.hidden1, cfg.hidden2, n], cfg.seed)
        adam = neural.AdamState.for_network(net, cfg.learning_rate)
        global_step = episode_base = updates = 0
    else:
        net, adam = initial.net, initial.adam
        adam.learning_rate = cfg.learning_rate
        global_step, episode_base, updates = (
            initial.global_step, initial.episodes_done, initial.updates)
    target = net.copy()
    rng = np.random.default_rng(cfg.seed + episode_base)
    features = [agent.state_features(sph) for sph, _, _ in pool]
    replay, inserted = [], 0      # (window, mask, action, reward, terminal)
    log = []
    total_steps = global_step + cfg.episodes * (w - 2)
    eval_pool, best = [], (np.inf, None, None)    # score, episode, network
    if cfg.eval_interval > 0:
        eval_pool = sorted(rng.choice(len(pool), size=min(cfg.eval_sample, len(pool)),
                                      replace=False))

    def greedy(window, keys):
        q = neural.forward(net, agent.assemble_state(features[window], keys.mask))
        masked = np.full_like(q, -np.inf)
        masked[~keys.mask] = q[~keys.mask]
        return int(np.argmax(masked))

    def adam_step(grads):
        adam.step += 1
        c1 = 1.0 - neural.ADAM_BETA1 ** adam.step
        c2 = 1.0 - neural.ADAM_BETA2 ** adam.step
        for p, g, m1, v in zip(net.parameters(), grads, adam.m, adam.v):
            m1 *= neural.ADAM_BETA1
            m1 += (1.0 - neural.ADAM_BETA1) * g
            v *= neural.ADAM_BETA2
            v += (1.0 - neural.ADAM_BETA2) * g * g
            p -= adam.learning_rate * (m1 / c1) / (np.sqrt(v / c2) + neural.ADAM_EPS)

    for ep in range(cfg.episodes):
        episode = episode_base + ep
        window = rng.integers(len(pool))
        sph, q0, _ = pool[window]
        keys = KeyframeSet.endpoints(n)
        q_prev, episode_reward = q0, 0.0
        epsilon = agent._epsilon_at(global_step, total_steps)
        for _ in range(w - 2):
            epsilon = agent._epsilon_at(global_step, total_steps)
            if rng.random() < epsilon:
                action = int(rng.choice(keys.complement()))
            else:
                action = greedy(window, keys)
            next_keys = keys.add(action)
            q_new = q_error(sph, next_keys)
            reward = (q_prev - q_new) / q0
            row = (window, keys.mask, action, reward, len(next_keys) == w)
            if inserted < cfg.memory_capacity:
                replay.append(row)
            else:
                replay[inserted % cfg.memory_capacity] = row
            inserted += 1
            episode_reward += reward
            keys, q_prev = next_keys, q_new
            global_step += 1
            if global_step % cfg.train_interval or len(replay) < cfg.batch_size:
                continue
            rows = [replay[i] for i in rng.integers(0, len(replay), size=cfg.batch_size)]
            states = np.array([agent.assemble_state(features[r[0]], r[1]) for r in rows])
            actions = np.array([r[2] for r in rows])
            next_masks = np.array([r[1] for r in rows])
            next_masks[np.arange(len(rows)), actions] = True
            next_states = np.array([agent.assemble_state(features[r[0]], nm)
                                    for r, nm in zip(rows, next_masks)])
            targets = np.array([r[3] for r in rows])
            open_rows = np.flatnonzero([not r[4] for r in rows])
            if open_rows.size:
                q = neural.forward(target, next_states[open_rows])
                q[next_masks[open_rows]] = -np.inf
                top = q.max(axis=1)
                live = np.isfinite(top)
                targets[open_rows[live]] += cfg.discount * top[live]
            grads, loss = neural.gradients(net, states, actions, targets)
            adam_step(grads)
            updates += 1
            log.append(agent.LogRow(global_step, episode, epsilon, loss=loss))
            if updates % cfg.target_interval == 0:
                target.load_from(net)
        log.append(agent.LogRow(global_step, episode, epsilon,
                                episode_reward=episode_reward))
        if eval_pool and ((ep + 1) % cfg.eval_interval == 0 or ep + 1 == cfg.episodes):
            total = 0.0
            for i in eval_pool:
                keys = KeyframeSet.endpoints(n)
                while len(keys) < w:
                    keys = keys.add(greedy(i, keys))
                total += q_error(pool[i][0], keys) / pool[i][1]
            score = total / len(eval_pool)
            log.append(agent.LogRow(global_step, episode, epsilon, eval_q=score))
            if score < best[0]:
                best = (score, episode, net.copy())
    if best[2] is not None:
        net.load_from(best[2])
    return agent.TrainResult(
        net=net, adam=adam, log=log, global_step=global_step,
        episodes_done=episode_base + cfg.episodes, updates=updates,
        best_eval_q=None if best[2] is None else best[0], best_episode=best[1],
        eval_indices=tuple(pool[i][2] for i in eval_pool) if eval_pool else None)
