"""Deep-Q keyframe extraction: state encoding, replay, training, inference.

An episode starts from the two endpoint keyframes of one window and adds
one keyframe per step until the budget is reached. The reward of a step is
the fraction of the endpoint-only reconstruction error it removes, so the
episode return telescopes to the total fraction removed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import neural
from .errors import DegenerateSequence, MocapKeyError, NumericError, checked
from .keyframes import KeyframeSet, check_keyframe_count
from .metrics import q_baseline, q_error, section_kernel, stacked_angles
from .spherical import SphericalSequence, wrap_angle

RATE_CLIP = 10.0     # rad/s bound before normalization in the state encoding
EPSILON_START = 1.0  # exploration rate at the first environment step
EPSILON_END = 0.05   # exploration rate once the decay is over
EPSILON_FRACTION = 0.6   # share of env steps spent decaying

# TrainConfig's limits per field; every other field is at least 1
_LIMITS = {"keyframe_count": {"low": 2}, "learning_rate": {"above": 0},
           "discount": {"low": 0, "high": 1}, "eval_interval": {"low": 0},
           "seed": {"low": 0}}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the training loop; defaults follow the evaluation
    setup (gamma 0.5, lr 0.01, batch 256, memory 10000, target interval 100).
    The training interval default is the experimentally selected 100."""
    keyframe_count: int = 5
    episodes: int = 4000
    learning_rate: float = 0.01
    batch_size: int = 256
    memory_capacity: int = 10000
    train_interval: int = 100        # environment steps between updates
    target_interval: int = 100       # updates between target-network syncs
    discount: float = 0.5
    eval_interval: int = 500         # episodes between policy evaluations; 0 = off
    eval_sample: int = 64            # training windows scored per evaluation
    hidden1: int = 128
    hidden2: int = 64
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):    # an int passes where a float is expected
            checked(getattr(self, f.name), f.name, type(f.default), MocapKeyError,
                    **_LIMITS.get(f.name, {"low": 1}))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        checked(data, "config", dict, MocapKeyError)
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise MocapKeyError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """The config in the JSON file ``path``; MocapKeyError naming it."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MocapKeyError(f"{path}: {exc}") from None
        except MocapKeyError as exc:
            raise type(exc)(f"{path}: {exc}") from None

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# State encoding
# ---------------------------------------------------------------------------

def state_features(sph: SphericalSequence) -> np.ndarray:
    """Per-frame angle features, shape (N, 4M): inclination over pi, wrapped
    azimuth over pi, then both rates clipped to +-10 rad/s and scaled."""
    theta = sph.theta / np.pi
    phi = wrap_angle(sph.phi) / np.pi
    theta_dot = np.clip(sph.theta_dot, -RATE_CLIP, RATE_CLIP) / RATE_CLIP
    phi_dot = np.clip(sph.phi_dot, -RATE_CLIP, RATE_CLIP) / RATE_CLIP
    return np.concatenate([theta, phi, theta_dot, phi_dot], axis=1)


def assemble_state(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Interleave (N, F) features with one keyframe bit per frame and flatten
    to N(F + 1); leading axes of both inputs are batch axes."""
    *batch, n, width = features.shape
    out = np.empty((*batch, n, width + 1))
    out[..., :width] = features
    out[..., width] = mask
    return out.reshape(*batch, n * (width + 1))


# ---------------------------------------------------------------------------
# Policy and targets
# ---------------------------------------------------------------------------

def act(policy: "_CertifiedQ", window: int, mask: np.ndarray, epsilon: float,
        rng: np.random.Generator) -> int:
    """Epsilon-greedy action on the policy's window ``window`` with boolean
    keyframe mask ``mask``: a random frame not in the mask, or the policy's
    :meth:`_CertifiedQ.best` frame."""
    valid = np.flatnonzero(~mask)
    if valid.size == 0:
        raise NumericError("every frame is already a keyframe")
    if rng.random() < epsilon:
        return int(rng.choice(valid))
    return policy.best(window, mask, valid)


class _CertifiedQ:
    """Greedy actions of ``net`` on windows given as (P, D) zero-mask
    states, certified equal to the valid frame of largest ``neural.forward``
    value of the full state, ties to the lowest.

    The first pre-activation is the window's zero-mask one, cached until
    :meth:`refresh`, plus the first-layer rows of the keyframes. That sums
    in another order than ``neural.forward``; but a layer of k - 1 inputs
    summed in any order is within gamma_k (|x|.|W| + |b|) of its exact value,
    gamma_k = k u / (1 - k u) with u = 2**-53 (Higham 2002, sec. 3.1); a ReLU
    widens no gap; and on layer 1, |x|.|w_j| <= ||x|| ||W||_F.
    The running argmax is kept only when it leads by more than that bound;
    otherwise the state is assembled and forwarded.
    """

    def __init__(self, net: neural.QNetwork, states: np.ndarray):
        self.net, self.states = net, states
        self.stride = states.shape[1] // net.output_dim   # frame i's bit: i * stride + F
        self.refresh()

    def refresh(self) -> None:
        """Forget what was derived from the weights; call after they change."""
        self._base, self._scales = {}, None

    def q_bound(self, window: int, mask: np.ndarray) -> tuple[np.ndarray, float]:
        """Running Q values of the window's state with keyframe ``mask``, and
        a bound on their distance from ``neural.forward``'s."""
        (w0, w1, w2), (b0, b1, b2) = self.net.weights, self.net.biases
        if window not in self._base:
            x = self.states[window]
            self._base[window] = (x @ w0 + b0, x @ x)
        if self._scales is None:     # per layer: gamma_k, weight scale, max |b|
            ks = (w0.shape[0] + mask.size + 1, w1.shape[0] + 1, w2.shape[0] + 1)
            scales = (math.sqrt(w0.ravel() @ w0.ravel()),
                      np.abs(w1).sum(axis=0).max(), np.abs(w2).sum(axis=0).max())
            self._scales = [(k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53), scale, np.abs(b).max())
                            for k, scale, b in zip(ks, scales, (b0, b1, b2))]
        base, sq = self._base[window]
        h = base + w0[self.stride - 1::self.stride][mask].sum(axis=0)
        (g, scale, b_max), *deeper = self._scales
        err = 2.0 * g * (math.sqrt(sq + np.count_nonzero(mask)) * scale + b_max)
        for (w, b), (g, scale, b_max) in zip(((w1, b1), (w2, b2)), deeper):
            h = np.maximum(h, 0.0)    # inputs err apart, each sum within g
            err = ((1.0 + g) * err + 2.0 * g * h.max()) * scale + 2.0 * g * b_max
            h = h @ w + b
        return h, err

    def best(self, window: int, mask: np.ndarray, valid: np.ndarray) -> int:
        """The policy's frame; ``valid`` is the frames not in ``mask``."""
        q, err = self.q_bound(window, mask)
        top = int(np.argmax(q[valid]))
        # both values may move by err; doubled for the bound's own rounding
        if q[valid[top]] - np.delete(q[valid], top).max(initial=-np.inf) > 4.0 * err:
            return int(valid[top])
        state = self.states[window].copy()
        state[self.stride - 1::self.stride] = mask
        return int(valid[np.argmax(neural.forward(self.net, state)[valid])])

    def rollout(self, window: int, w: int) -> KeyframeSet:
        """The greedy policy's ``w`` keyframes on ``window``: the endpoints,
        then w - 2 :meth:`best` picks."""
        mask = np.zeros(self.net.output_dim, dtype=bool)
        mask[[0, -1]] = True
        for _ in range(w - 2):
            mask[self.best(window, mask, np.flatnonzero(~mask))] = True
        return KeyframeSet.from_mask(mask)


class ReplayMemory:
    """Bounded ring buffer of transitions, oldest evicted first.

    Stored as columns: each row names its window by position in the pool
    and keeps the keyframe mask before its action; the mask after it is
    that mask plus the action's frame. The pool's (P, N, F) features are
    assembled once with zero masks; sampling gathers them and sets the bits.
    """

    def __init__(self, features: np.ndarray, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.states = assemble_state(features, np.zeros(features.shape[:2], bool))
        self.capacity = capacity
        self.inserted = 0
        self.window = np.zeros(capacity, dtype=np.intp)
        self.mask = np.zeros((capacity, features.shape[1]), dtype=bool)
        self.action = np.zeros(capacity, dtype=np.intp)
        self.reward = np.zeros(capacity)
        self.terminal = np.zeros(capacity, dtype=bool)

    def add(self, window: int, mask: np.ndarray, action: int, reward: float,
            terminal: bool) -> None:
        row = self.inserted % self.capacity
        self.window[row] = window
        self.mask[row] = mask
        self.action[row] = action
        self.reward[row] = reward
        self.terminal[row] = terminal
        self.inserted += 1

    def __len__(self) -> int:
        return min(self.inserted, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        """``batch_size`` rows drawn with replacement, as the arrays
        (states, actions, rewards, terminal)."""
        if not len(self):
            raise MocapKeyError("replay memory is empty")
        picks = rng.integers(0, len(self), size=batch_size)
        states = self.states[self.window[picks]]
        states.reshape(batch_size, self.mask.shape[1], -1)[..., -1] = self.mask[picks]
        return states, self.action[picks], self.reward[picks], self.terminal[picks]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class LogRow:
    """One training-log event; update rows carry a loss, episode rows carry
    the episode's cumulative reward, evaluation rows the greedy policy's
    mean remaining error share on the scoring windows."""
    global_step: int
    episode: int
    epsilon: float
    loss: float | None = None
    episode_reward: float | None = None
    eval_q: float | None = None


@dataclass
class TrainResult:
    net: neural.QNetwork
    adam: neural.AdamState
    log: list[LogRow]
    global_step: int
    episodes_done: int
    updates: int
    best_eval_q: float | None = None   # score of the retained policy
    best_episode: int | None = None
    eval_indices: tuple[int, ...] | None = None  # dataset positions scored

    def counters(self) -> dict:
        return {"global_step": self.global_step,
                "episodes_done": self.episodes_done,
                "updates": self.updates}


def _epsilon_at(step: int, total_steps: int) -> float:
    horizon = max(1.0, EPSILON_FRACTION * total_steps)
    frac = min(1.0, step / horizon)
    return EPSILON_START + (EPSILON_END - EPSILON_START) * frac


def train(dataset: list[SphericalSequence], cfg: TrainConfig,
          initial: TrainResult | None = None,
          progress=None) -> TrainResult:
    """Run cfg.episodes training episodes over the dataset.

    Windows whose endpoint reconstruction is already exact are excluded up
    front. Episodes sample windows uniformly with replacement. The network
    trains every cfg.train_interval environment steps once the memory holds
    one batch, and the target network refreshes every cfg.target_interval
    updates. Passing a previous TrainResult resumes its network, optimizer
    (at cfg.learning_rate) and counters; the target restarts equal to the
    main network.

    With cfg.eval_interval > 0 the greedy policy is scored every that many
    episodes on a fixed random sample of the training windows (mean
    remaining share of the endpoint-only error) and the best-scoring
    weights are restored at the end. Value updates at this learning rate
    leave the induced policy oscillating long after the loss settles, so
    the returned network is the best policy seen, not the last one.
    """
    if not dataset:
        raise MocapKeyError("no training windows")
    pool = []
    for di, sph in enumerate(dataset):
        try:
            q0 = q_baseline(sph)
        except DegenerateSequence:
            continue
        # the step reward's kernel inputs and the endpoint section's error
        angle, rate = stacked_angles(sph)
        pool.append((sph, q0, di, angle, rate, section_kernel(
            angle, rate, sph.dt, np.array([0]), np.array([sph.frame_count - 1]))))
    if not pool:
        raise MocapKeyError("every training window is degenerate")
    n = pool[0][0].frame_count
    m = pool[0][0].joint_count
    for sph, *_ in pool:
        if sph.frame_count != n or sph.joint_count != m:
            raise MocapKeyError(
                f"window {sph.source or '?'} has shape "
                f"({sph.frame_count}, {sph.joint_count}), expected ({n}, {m})")
    w = cfg.keyframe_count
    check_keyframe_count(n, w)

    if initial is None:
        net = neural.init([n * (4 * m + 1), cfg.hidden1, cfg.hidden2, n], cfg.seed)
        adam = neural.AdamState.for_network(net, cfg.learning_rate)
        global_step = 0
        episode_base = 0
        updates = 0
    else:
        net = initial.net
        adam = initial.adam
        adam.learning_rate = cfg.learning_rate
        _check_fits(net, n, m)
        global_step = initial.global_step
        episode_base = initial.episodes_done
        updates = initial.updates
    target = net.copy()
    rng = np.random.default_rng(cfg.seed + episode_base)
    memory = ReplayMemory(np.stack([state_features(sph) for sph, *_ in pool]),
                          cfg.memory_capacity)
    certified = _CertifiedQ(net, memory.states)
    log: list[LogRow] = []
    total_steps = global_step + cfg.episodes * (w - 2)

    eval_pool: list[int] = []
    best_net = None
    best_q = np.inf
    best_episode = None
    if cfg.eval_interval > 0:
        k = min(cfg.eval_sample, len(pool))
        eval_pool = sorted(rng.choice(len(pool), size=k, replace=False))

    for ep in range(cfg.episodes):
        episode = episode_base + ep
        window = rng.integers(len(pool))
        sph, q0, _, angle, rate, errors = pool[window]
        keys = [0, n - 1]
        mask = np.zeros(n, dtype=bool)
        mask[keys] = True
        q_prev = q0
        episode_reward = 0.0
        epsilon = _epsilon_at(global_step, total_steps)
        for step in range(w - 2):
            epsilon = _epsilon_at(global_step, total_steps)
            action = act(certified, window, mask, epsilon, rng)
            # the new keyframe splits one section; q_error sums each
            # section on its own, so only that one's errors are recomputed
            at = bisect.bisect(keys, action)
            split = section_kernel(angle, rate, sph.dt, np.array([keys[at - 1], action]),
                                   np.array([action, keys[at]]))
            errors = np.concatenate((errors[:at - 1], split, errors[at:]))
            keys.insert(at, action)
            q_new = float(errors.sum()) / (n * m)
            reward = (q_prev - q_new) / q0
            memory.add(window, mask, action, reward, step == w - 3)
            mask[action] = True
            episode_reward += reward
            q_prev = q_new
            global_step += 1
            if global_step % cfg.train_interval == 0 and len(memory) >= cfg.batch_size:
                states, actions, rewards, terminals = memory.sample(rng, cfg.batch_size)
                targets = _batch_targets(states, actions, rewards, terminals,
                                         target, cfg.discount)
                _, loss = neural.backward_and_step(net, adam, states,
                                                   actions, targets)
                certified.refresh()
                updates += 1
                log.append(LogRow(global_step, episode, epsilon, loss=loss))
                if updates % cfg.target_interval == 0:
                    target.load_from(net)
        log.append(LogRow(global_step, episode, epsilon,
                          episode_reward=episode_reward))
        if eval_pool and ((ep + 1) % cfg.eval_interval == 0
                          or ep + 1 == cfg.episodes):
            # the greedy policy's mean remaining error share on the sample
            score = sum(q_error(pool[i][0], certified.rollout(i, w)) / pool[i][1]
                        for i in eval_pool) / len(eval_pool)
            log.append(LogRow(global_step, episode, epsilon, eval_q=score))
            if score < best_q:
                best_q = score
                best_episode = episode
                best_net = net.copy()
        if progress is not None:
            progress(ep + 1, cfg.episodes)
    if best_net is not None:
        net.load_from(best_net)
    return TrainResult(
        net=net, adam=adam, log=log, global_step=global_step,
        episodes_done=episode_base + cfg.episodes, updates=updates,
        best_eval_q=None if best_net is None else best_q,
        best_episode=best_episode,
        eval_indices=tuple(pool[i][2] for i in eval_pool) if eval_pool else None)


def _batch_targets(states: np.ndarray, actions: np.ndarray,
                   rewards: np.ndarray, terminal: np.ndarray,
                   target_net: neural.QNetwork, discount: float) -> np.ndarray:
    """Bootstrapped value targets: r at terminal rows and where the next
    state has no valid action, otherwise r plus the discounted best valid
    action value of the target network (one forward over the open rows).
    A row's next state is its state with the action's keyframe bit set;
    only the open rows' next states are built."""
    targets = rewards.copy()
    open_rows = np.flatnonzero(~terminal)
    if open_rows.size:
        next_states = states[open_rows]
        bits = next_states.reshape(open_rows.size, target_net.output_dim, -1)[..., -1]
        bits[np.arange(open_rows.size), actions[open_rows]] = 1.0
        q = neural.forward(target_net, next_states)
        q[bits != 0.0] = -np.inf
        best = q.max(axis=1)
        live = np.isfinite(best)
        targets[open_rows[live]] += discount * best[live]
    return targets


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def infer_keyframes(net: neural.QNetwork, sph: SphericalSequence,
                    w: int) -> tuple[KeyframeSet, float]:
    """Greedy (epsilon = 0) rollout of the trained network on one window.

    Returns the keyframe set and the wall-clock selection time in seconds.
    """
    n = sph.frame_count
    check_keyframe_count(n, w)
    _check_fits(net, n, sph.joint_count)
    start = time.perf_counter()
    policy = _CertifiedQ(net, assemble_state(state_features(sph), np.zeros(n, bool))[None])
    return policy.rollout(0, w), time.perf_counter() - start


def _check_fits(net: neural.QNetwork, n: int, m: int) -> None:
    """Raise MocapKeyError unless ``net`` takes the state of an (n, m) window."""
    if net.output_dim != n or net.input_dim != n * (4 * m + 1):
        raise MocapKeyError(f"network {net.shapes} does not fit a ({n}, {m}) window")


# ---------------------------------------------------------------------------
# Agent checkpoints (network + optimizer + config + counters)
# ---------------------------------------------------------------------------

def save_agent(path, result: TrainResult, cfg: TrainConfig) -> None:
    neural.checkpoint_save(result.net, result.adam, path, extra={
        "config": cfg.to_dict(),
        "counters": result.counters(),
    })


def load_agent(path) -> tuple[TrainResult, TrainConfig]:
    net, adam, extra = neural.checkpoint_load(path)
    at = f"{path}: "
    extra = checked(extra, at + "extra", dict, MocapKeyError)
    counters = checked(extra.get("counters", {}), at + "counters", dict, MocapKeyError)
    counts = {name: checked(counters.get(name, 0), f"{at}counters {name}", int,
                            MocapKeyError, low=0)
              for name in ("global_step", "episodes_done", "updates")}
    try:
        cfg = TrainConfig.from_dict(extra.get("config", {}))
    except MocapKeyError as exc:
        raise type(exc)(at + str(exc)) from None
    return TrainResult(net=net, adam=adam, log=[], **counts), cfg
