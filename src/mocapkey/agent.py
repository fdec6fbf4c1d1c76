"""Deep-Q keyframe extraction: state encoding, replay, training, inference.

An episode starts from the two endpoint keyframes of one window and adds
one keyframe per step until the budget is reached. The reward of a step is
the fraction of the endpoint-only reconstruction error it removes, so the
episode return telescopes to the total fraction removed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import neural
from .errors import (EmptyDataset, DegenerateSequence, InvalidW, NoValidAction,
                     ShapeMismatch)
from .keyframes import KeyframeSet
from .metrics import q_baseline, q_error
from .spherical import SphericalSequence, wrap_angle

RATE_CLIP = 10.0     # rad/s bound before normalization in the state encoding


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
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_fraction: float = 0.6    # share of env steps spent decaying
    eval_interval: int = 500         # episodes between policy evaluations; 0 = off
    eval_sample: int = 64            # training windows scored per evaluation
    hidden1: int = 128
    hidden2: int = 64
    huber_delta: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.keyframe_count < 2:
            raise ValueError("keyframe_count must be at least 2")
        for name in ("episodes", "batch_size", "memory_capacity",
                     "train_interval", "target_interval", "hidden1", "hidden2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("learning_rate", "huber_delta", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_fraction <= 1.0:
            raise ValueError("epsilon_fraction must be in (0, 1]")
        if self.eval_interval < 0 or self.eval_sample < 1:
            raise ValueError("eval_interval must be >= 0 and eval_sample >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_file(self, path) -> None:
        with neural.atomic_open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

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

def act(net: neural.QNetwork, features: np.ndarray, mask: np.ndarray,
        epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy action for one window's (N, F) features and boolean
    keyframe mask.

    Valid actions are the frames not in the mask. Only the greedy branch
    assembles the state; it masks invalid outputs to -inf, and argmax ties
    resolve to the lowest frame index.
    """
    valid = np.flatnonzero(~mask)
    if valid.size == 0:
        raise NoValidAction("every frame is already a keyframe")
    if rng.random() < epsilon:
        return int(rng.choice(valid))
    q = neural.forward(net, assemble_state(features, mask))
    masked = np.full_like(q, -np.inf)
    masked[valid] = q[valid]
    return int(np.argmax(masked))


class ReplayMemory:
    """Bounded ring buffer of transitions, oldest evicted first.

    Stored as columns: each row names its window by position in the
    stacked (P, N, F) pool features and keeps the keyframe masks before and
    after its action. States are assembled on sampling, straight into the
    batch arrays.
    """

    def __init__(self, features: np.ndarray, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.features = features
        self.capacity = capacity
        self.inserted = 0
        frames = features.shape[1]
        self.window = np.zeros(capacity, dtype=np.intp)
        self.mask = np.zeros((capacity, frames), dtype=bool)
        self.next_mask = np.zeros((capacity, frames), dtype=bool)
        self.action = np.zeros(capacity, dtype=np.intp)
        self.reward = np.zeros(capacity)
        self.terminal = np.zeros(capacity, dtype=bool)

    def add(self, window: int, mask: np.ndarray, action: int, reward: float,
            next_mask: np.ndarray, terminal: bool) -> None:
        row = self.inserted % self.capacity
        self.window[row] = window
        self.mask[row] = mask
        self.action[row] = action
        self.reward[row] = reward
        self.next_mask[row] = next_mask
        self.terminal[row] = terminal
        self.inserted += 1

    def __len__(self) -> int:
        return min(self.inserted, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        """``batch_size`` rows drawn with replacement, as the arrays
        (states, actions, rewards, next_states, terminal, next_masks)."""
        if not len(self):
            raise EmptyDataset("replay memory is empty")
        picks = rng.integers(0, len(self), size=batch_size)
        features = self.features[self.window[picks]]
        states = assemble_state(features, self.mask[picks])
        next_states = assemble_state(features, self.next_mask[picks])
        return (states, self.action[picks], self.reward[picks], next_states,
                self.terminal[picks], self.next_mask[picks])


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


def _epsilon_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    horizon = max(1.0, cfg.epsilon_fraction * total_steps)
    frac = min(1.0, step / horizon)
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


def train(dataset: list[SphericalSequence], cfg: TrainConfig,
          initial: TrainResult | None = None,
          progress=None) -> TrainResult:
    """Run cfg.episodes training episodes over the dataset.

    Windows whose endpoint reconstruction is already exact are excluded up
    front. Episodes sample windows uniformly with replacement. The network
    trains every cfg.train_interval environment steps once the memory holds
    one batch, and the target network refreshes every cfg.target_interval
    updates. Passing a previous TrainResult resumes its network, optimizer
    and counters (the target restarts equal to the main network).

    With cfg.eval_interval > 0 the greedy policy is scored every that many
    episodes on a fixed random sample of the training windows (mean
    remaining share of the endpoint-only error) and the best-scoring
    weights are restored at the end. Value updates at this learning rate
    leave the induced policy oscillating long after the loss settles, so
    the returned network is the best policy seen, not the last one.
    """
    if not dataset:
        raise EmptyDataset("no training windows")
    pool = []
    for di, sph in enumerate(dataset):
        try:
            q0 = q_baseline(sph)
        except DegenerateSequence:
            continue
        pool.append((sph, q0, di))
    if not pool:
        raise EmptyDataset("every training window is degenerate")
    n = pool[0][0].frame_count
    m = pool[0][0].joint_count
    for sph, _, _ in pool:
        if sph.frame_count != n or sph.joint_count != m:
            raise ShapeMismatch(
                f"window {sph.source or '?'} has shape "
                f"({sph.frame_count}, {sph.joint_count}), expected ({n}, {m})")
    w = cfg.keyframe_count
    if w > n:
        raise InvalidW(f"keyframe count {w} exceeds window length {n}")
    state_dim = n * (4 * m + 1)

    if initial is None:
        net = neural.init([state_dim, cfg.hidden1, cfg.hidden2, n], cfg.seed)
        adam = neural.AdamState.for_network(
            net, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        global_step = 0
        episode_base = 0
        updates = 0
    else:
        net = initial.net
        adam = initial.adam
        if net.input_dim != state_dim or net.output_dim != n:
            raise ShapeMismatch(
                f"checkpoint network {net.shapes} does not fit data "
                f"dimensions ({state_dim} -> {n})")
        global_step = initial.global_step
        episode_base = initial.episodes_done
        updates = initial.updates
    target = net.copy()
    rng = np.random.default_rng(cfg.seed + episode_base)
    features = np.stack([state_features(sph) for sph, _, _ in pool])
    memory = ReplayMemory(features, cfg.memory_capacity)
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
        sph, q0, _ = pool[window]
        keys = KeyframeSet.endpoints(n)
        q_prev = q0
        episode_reward = 0.0
        epsilon = _epsilon_at(cfg, global_step, total_steps)
        for _ in range(w - 2):
            epsilon = _epsilon_at(cfg, global_step, total_steps)
            action = act(net, features[window], keys.mask, epsilon, rng)
            next_keys = keys.add(action)
            q_new = q_error(sph, next_keys)
            reward = (q_prev - q_new) / q0
            terminal = len(next_keys) == w
            memory.add(window, keys.mask, action, reward, next_keys.mask,
                       terminal)
            episode_reward += reward
            keys = next_keys
            q_prev = q_new
            global_step += 1
            if global_step % cfg.train_interval == 0 and len(memory) >= cfg.batch_size:
                (states, actions, rewards, next_states, terminals,
                 next_masks) = memory.sample(rng, cfg.batch_size)
                targets = _batch_targets(rewards, next_states, next_masks,
                                         terminals, target, cfg.discount)
                _, loss = neural.backward_and_step(
                    net, adam, states, actions, targets, cfg.huber_delta)
                updates += 1
                log.append(LogRow(global_step, episode, epsilon, loss=loss))
                if updates % cfg.target_interval == 0:
                    target.load_from(net)
        log.append(LogRow(global_step, episode, epsilon,
                          episode_reward=episode_reward))
        if eval_pool and ((ep + 1) % cfg.eval_interval == 0
                          or ep + 1 == cfg.episodes):
            score = _eval_policy(net, pool, eval_pool, w)
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


def _eval_policy(net: neural.QNetwork, pool: list, eval_pool: list[int],
                 w: int) -> float:
    """Mean remaining error share of the greedy policy on the sample."""
    total = 0.0
    for i in eval_pool:
        sph, q0, _ = pool[i]
        keys, _ = infer_keyframes(net, sph, w)
        total += q_error(sph, keys) / q0
    return total / len(eval_pool)


def _batch_targets(rewards: np.ndarray, next_states: np.ndarray,
                   next_masks: np.ndarray, terminal: np.ndarray,
                   target_net: neural.QNetwork, discount: float) -> np.ndarray:
    """Bootstrapped value targets: r at terminal rows and where the next
    state has no valid action, otherwise r plus the discounted best valid
    action value of the target network (one forward over the open rows).
    ``next_masks`` holds the next states' boolean keyframe masks."""
    targets = rewards.copy()
    open_rows = np.flatnonzero(~terminal)
    if open_rows.size:
        q = neural.forward(target_net, next_states[open_rows])
        q[next_masks[open_rows]] = -np.inf
        best = q.max(axis=1)
        live = np.isfinite(best)
        targets[open_rows[live]] += discount * best[live]
    return targets


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

class _FastQ:
    """Incremental Q evaluation for one window.

    The first hidden pre-activation is linear in the state, and successive
    states differ only in keyframe bits, so it is kept as a running vector:
    seeded from the angle features (all mask bits zero contribute nothing)
    and bumped by one first-layer row per added keyframe.
    """

    def __init__(self, net: neural.QNetwork, features: np.ndarray):
        self._net = net
        width = features.shape[1]      # frame i's mask bit: i(width + 1) + width
        self._mask_rows = net.weights[0][width::width + 1]
        base = assemble_state(features, np.zeros(net.output_dim))
        self._h1 = base @ net.weights[0] + net.biases[0]

    def add_keyframe(self, frame: int) -> None:
        self._h1 += self._mask_rows[frame]

    def q_values(self) -> np.ndarray:
        net = self._net
        h = np.maximum(self._h1, 0.0)
        h = np.maximum(h @ net.weights[1] + net.biases[1], 0.0)
        return h @ net.weights[2] + net.biases[2]


def infer_keyframes(net: neural.QNetwork, sph: SphericalSequence,
                    w: int) -> tuple[KeyframeSet, float]:
    """Greedy (epsilon = 0) rollout of the trained network.

    Returns the keyframe set and the wall-clock selection time in seconds.
    Identical in outcome to repeated :func:`act` with epsilon 0; the
    first-layer computation is shared across steps for speed.
    """
    n = sph.frame_count
    if not 2 <= w <= n:
        raise InvalidW(f"keyframe count must be in [2, {n}], got {w}")
    if net.output_dim != n or net.input_dim != n * (4 * sph.joint_count + 1):
        raise ShapeMismatch(
            f"network {net.shapes} does not fit a ({n}, {sph.joint_count}) window")
    start = time.perf_counter()
    keys = KeyframeSet.endpoints(n)
    if w > 2:
        fast = _FastQ(net, state_features(sph))
        fast.add_keyframe(0)
        fast.add_keyframe(n - 1)
        for _ in range(w - 2):
            q = fast.q_values()
            q[list(keys.indices)] = -np.inf
            frame = int(np.argmax(q))
            keys = keys.add(frame)
            fast.add_keyframe(frame)
    return keys, time.perf_counter() - start


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
    cfg = TrainConfig.from_dict(extra.get("config", {}))
    counters = extra.get("counters", {})
    result = TrainResult(
        net=net, adam=adam, log=[],
        global_step=int(counters.get("global_step", 0)),
        episodes_done=int(counters.get("episodes_done", 0)),
        updates=int(counters.get("updates", 0)),
    )
    return result, cfg
