"""Straight-line reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way in pure
Python (lists, Gaussian elimination, nested loops) and shares no code
with the package. Tests compare the fast vectorized implementations
against these.
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
