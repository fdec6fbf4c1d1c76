"""Straight-line reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way in pure
Python (lists, Gaussian elimination, nested loops) and shares no code
with the package. Tests compare the fast vectorized implementations
against these. There are two exceptions. :func:`train_reference`, the
training loop without its shortcuts, is built from the package's own float
primitives, so that the fast loop can be required to match it bit for bit.
:func:`export_amc_reference`, the AMC export one frame at a time, uses
numpy on single 3-vectors and the package's skeleton constants, forward
kinematics and text writer around its own pose solve.
"""

from __future__ import annotations

import math

import numpy as np


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


# ---------------------------------------------------------------------------
# AMC export, one frame at a time
# ---------------------------------------------------------------------------
#
# ``asfamc.export_amc`` as it solved poses before it solved every frame of a
# window at once: one frame, one joint and one candidate at a time, with the
# early exits that skip candidates which cannot win. It shares the package's
# skeleton constants (``_build_solve_nodes``), the forward kinematics of
# ``bend`` and the text writer; the solve itself is its own. Each committed
# node also reports its candidate's slot in the batched solver's padded
# candidate layout and its margin: how far the next-best evaluated
# candidate's total lies above the pick's.

def export_amc_reference(skeleton, directions, root_positions, comment=""):
    """(text, bend, channel rows by joint name, {node index: (N,) slots},
    {node index: (N,) margins}) of the per-frame export of unit
    ``directions``."""
    from mocapkey.asfamc import (_CHANNEL_COLUMN, RawMotion, _build_solve_nodes,
                                 _format_amc, world_rotations)

    eye = np.eye(3)
    n, m = len(root_positions), len(skeleton.joints) - 1
    pose = np.zeros((m + 1, n, 7))
    pose[0, :, :3] = (root_positions - skeleton.root_position) / skeleton.length_scale
    root = skeleton.root
    root_rot = _solve_root_rotation(skeleton, directions)
    if root.rotation_dof:
        c_root = skeleton.axis_matrix(root)
        for fi in range(n):
            pose[0, fi, 3:6] = _euler_channels(c_root.T @ root_rot[fi] @ c_root,
                                               root.axis_order)

    nodes = _build_solve_nodes(skeleton)
    slots = {idx: np.zeros(n, dtype=int) for idx in range(m)}
    margins = {idx: np.full(n, math.inf) for idx in range(m)}
    tops = [idx for idx, node in enumerate(nodes)
            if node.joint.parent == 0 or len(node.ordered) == 3]
    world = [eye] * (m + 1)
    for fi in range(n):
        world[0] = root_rot[fi]
        for idx in tops:
            _, commits = _solve_subtree(nodes, idx, world[nodes[idx].joint.parent],
                                        directions[fi])
            for ci, rot, slot, margin in commits:
                node = nodes[ci]
                world[ci + 1] = world[node.joint.parent] @ node.c @ rot @ node.c.T
                pose[ci + 1, fi, 3:6] = _scatter_angles(rot, node)
                slots[ci][fi], margins[ci][fi] = slot, margin

    channel_rows = {
        joint.name: values[:, [_CHANNEL_COLUMN[ch] for ch in joint.dof]]
        for joint, values in zip(skeleton.joints, pose) if joint.dof}
    world = world_rotations(skeleton, RawMotion(n, channel_rows))
    written = np.stack([rot @ joint.direction
                        for rot, joint in zip(world[1:], skeleton.joints[1:])], axis=1)
    chord = np.linalg.norm(written - directions, axis=-1).max(axis=0, initial=0.0)
    bend = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))
    return (_format_amc(skeleton, channel_rows, n, comment),
            dict(zip(skeleton.bone_names, bend.tolist())), channel_rows, slots, margins)


_AXIS = {"x": 0, "y": 1, "z": 2}


def _single_axis_matrix(axis, angle):
    c, s = math.cos(angle), math.sin(angle)
    out = np.zeros((3, 3))
    j, k = (axis + 1) % 3, (axis + 2) % 3
    out[axis, axis] = 1.0
    out[j, j] = c
    out[k, k] = c
    out[k, j] = s
    out[j, k] = -s
    return out


def _euler_from_matrix(rot, order):
    order = order.lower()
    i, j, k = (_AXIS[a] for a in order)
    eps = 1.0 if (j - i) % 3 == 1 else -1.0
    sin_b = -eps * rot[k, i]
    sin_b = min(1.0, max(-1.0, sin_b))
    beta = math.asin(sin_b)
    if abs(rot[k, i]) < 1.0 - 1e-12:
        alpha = math.atan2(eps * rot[k, j], rot[k, k])
        gamma = math.atan2(eps * rot[j, i], rot[i, i])
    else:
        gamma = 0.0
        rem = _single_axis_matrix(j, beta).T @ rot
        a2, a3 = (i + 1) % 3, (i + 2) % 3
        alpha = math.atan2(rem[a3, a2], rem[a2, a2])
    return np.array([alpha, beta, gamma])


def twist_root_slots(nodes, idx):
    """{child node index: slots of its twist roots} in the batched solver's
    padded candidate layout of a ``twist_free`` node: the node's own 1 or 2
    dof slots first, then each child's roots in child order, 1 for a
    ``bone_fixed`` child and 2 for each distinct edge of a ``band``."""
    node = nodes[idx]
    if not (node.twist_free and node.children):
        return {}
    first = 2 if len(node.ordered) == 2 and node.band[2] >= 1e-12 else 1
    out = {}
    for ci in node.children:
        child = nodes[ci]
        count = 1 if child.bone_fixed else 2 * len(set(child.band[1:]))
        out[ci] = range(first, first + count)
        first += count
    return out


def _solve_subtree(nodes, idx, parent_rot, seen):
    """(total residual, [(node index, dof rotation, slot, margin), ...])
    of one subtree for one frame, each node before its children."""
    node = nodes[idx]
    t = node.c.T @ (parent_rot.T @ seen[idx])
    candidates = _dof_candidates(node.u, t, node.ordered)
    slots = list(range(len(candidates)))
    if node.twist_free and node.children:
        base = candidates[0]
        spin = _unit(base @ node.u)
        for ci, span in twist_root_slots(nodes, idx).items():
            roots = _twist_candidates(nodes, idx, ci, spin, base, parent_rot, seen)
            candidates.extend(_rodrigues(spin, psi) @ base for psi in roots)
            slots.extend(span[:len(roots)])

    best_total = math.inf
    best_commits = None
    totals = []
    for m, slot in zip(candidates, slots):
        total = _angle_between(m @ node.u, t)
        commits = [(idx, m, slot)]
        if node.children:
            rot = parent_rot @ node.c @ m @ node.c.T
        for ci in node.children:
            if total >= best_total:
                break
            child_total, child_commits = _solve_subtree(nodes, ci, rot, seen)
            total += child_total
            commits.extend(child_commits)
        totals.append(total)
        if total < best_total:
            best_total = total
            best_commits = commits
            if best_total < 1e-12:
                break
    # partial totals of skipped candidates are lower bounds: the margin is too
    picked = totals.index(best_total)
    margin = min((v for i, v in enumerate(totals) if i != picked), default=math.inf)
    head, *rest = best_commits
    return best_total, [head + (margin - best_total,)] + rest


def _scatter_angles(m, node):
    ordered = node.ordered
    if len(ordered) == 3:
        return _euler_channels(m, node.joint.axis_order)
    out = np.zeros(3)
    if len(ordered) == 1:
        axis = _AXIS[ordered[0]]
        out[axis] = _axis_angle_of(m, axis)
        return out
    if len(ordered) == 2:
        first, second = _AXIS[ordered[0]], _AXIS[ordered[1]]
        e_first = np.eye(3)[first]
        spun = m @ e_first
        i, j = (second + 1) % 3, (second + 2) % 3
        beta = math.atan2(e_first[i] * spun[j] - e_first[j] * spun[i],
                          e_first[i] * spun[i] + e_first[j] * spun[j])
        residue = _single_axis_matrix(second, -beta) @ m
        out[first] = _axis_angle_of(residue, first)
        out[second] = beta
    return out


def _euler_channels(m, axis_order):
    out = np.zeros(3)
    out[[_AXIS[a] for a in axis_order.lower()]] = _euler_from_matrix(m, axis_order)
    return out


def _axis_angle_of(m, axis):
    i, j = (axis + 1) % 3, (axis + 2) % 3
    return math.atan2(m[j, i], m[i, i])


def _twist_candidates(nodes, idx, child_idx, spin, m0, parent_rot, seen):
    node = nodes[idx]
    child = nodes[child_idx]
    local = child.u if child.bone_fixed else np.eye(3)[child.band[0]]
    g = node.c.T @ (parent_rot.T @ seen[child_idx])
    w = m0 @ (node.c.T @ (child.c @ local))
    d = float(spin @ w) * float(spin @ g)
    a = float(w @ g) - d
    b = float(spin @ _cross(w, g))
    r = math.hypot(a, b)
    if r < 1e-12:
        return []
    base = math.atan2(b, a)
    if child.bone_fixed:
        return [base]
    roots = []
    for edge in dict.fromkeys(child.band[1:]):
        span = math.acos(max(-1.0, min(1.0, (edge - d) / r)))
        roots += [base + span, base - span]
    return roots


def _solve_root_rotation(skeleton, directions):
    children = [bi for bi, j in enumerate(skeleton.joints[1:]) if j.parent == 0]
    rigid = [bi for bi in children if not skeleton.joints[bi + 1].rotation_dof]
    observed = rigid or children
    if not skeleton.root.rotation_dof or not observed:
        return np.broadcast_to(np.eye(3), (len(directions), 3, 3)).copy()
    rest = np.stack([skeleton.joints[bi + 1].direction for bi in observed])
    return np.stack([_kabsch(rest, seen) for seen in directions[:, observed]])


def _norm(v):
    return math.sqrt(v.dot(v))


def _cross(a, b):
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _unit(v):
    norm = _norm(v)
    return v / norm if norm > 0 else v


def _kabsch(sources, targets):
    h = targets.T @ sources
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _dof_candidates(u, t, ordered):
    if not ordered:
        return [np.eye(3)]
    if len(ordered) == 3:
        return [_minimal_rotation(u, t)]
    if len(ordered) == 1:
        return [_solve_one_axis(u, t, _AXIS[ordered[0]])]
    first, second = _AXIS[ordered[0]], _AXIS[ordered[1]]
    return _solve_two_axes(u, t, first, second)


def _angle_between(a, b):
    half = 0.5 * _norm(_unit(a) - _unit(b))
    return 2.0 * math.asin(min(1.0, half))


def _minimal_rotation(u, t):
    axis = _cross(u, t)
    s = _norm(axis)
    c = min(1.0, max(-1.0, float(u.dot(t))))
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        helper = np.array([1.0, 0.0, 0.0])
        if abs(u[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = _unit(_cross(u, helper))
        return _rodrigues(axis, math.pi)
    return _rodrigues(axis / s, math.atan2(s, c))


def _rodrigues(axis, angle):
    x, y, z = axis.tolist()
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _solve_one_axis(u, t, axis):
    i, j = (axis + 1) % 3, (axis + 2) % 3
    up = np.array([u[i], u[j]])
    tp = np.array([t[i], t[j]])
    if _norm(up) < 1e-12 or _norm(tp) < 1e-12:
        return np.eye(3)
    angle = math.atan2(tp[1], tp[0]) - math.atan2(up[1], up[0])
    return _single_axis_matrix(axis, angle)


def _solve_two_axes(u, t, first, second):
    a = u[second]
    b = _cross(np.eye(3)[first], u)[second]
    d = t[second]
    r = math.hypot(a, b)
    base = math.atan2(b, a)
    if r < 1e-12:
        alphas = [0.0]
    elif abs(d) <= r:
        delta = math.acos(max(-1.0, min(1.0, d / r)))
        alphas = [base + delta, base - delta]
    else:
        alphas = [base if d > 0 else base + math.pi]
    ranked = []
    for alpha in alphas:
        ra = _single_axis_matrix(first, alpha)
        w = ra @ u
        rb = _solve_one_axis(w, t, second)
        m = rb @ ra
        ranked.append((_angle_between(m @ u, t), abs(alpha), m))
    ranked.sort(key=lambda item: (round(item[0], 12), item[1]))
    return [m for _, _, m in ranked]
