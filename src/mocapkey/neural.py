"""Feed-forward value network with hand-rolled backprop and Adam.

Two hidden rectifier layers, identity output, 64-bit floats throughout.
The layout is fixed and small enough that explicit reverse accumulation
beats pulling in an autodiff framework.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import MocapKeyError, NumericError, checked

CHECKPOINT_VERSION = 1
HUBER_DELTA = 1.0    # |error| where the loss turns from quadratic to linear


@dataclass
class QNetwork:
    """Weights stored per layer as (fan_in, fan_out); forward is x @ W + b.

    ``derived`` keeps what other modules compute from the weights once per
    network (``agent``'s certificate constants). Whatever writes the
    weights clears it, as :func:`adam_step` and :meth:`load_from` do.
    """
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int = 0
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def shapes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "QNetwork":
        return QNetwork(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            seed=self.seed,
        )

    def load_from(self, other: "QNetwork") -> None:
        self.derived.clear()
        for dst, src in zip(self.parameters(), other.parameters()):
            np.copyto(dst, src)


def init(shapes, seed: int) -> QNetwork:
    """Glorot-uniform weights (bound sqrt(6/(fan_in + fan_out))), zero biases.

    ``shapes`` is [D_in, H1, H2, D_out]; exactly two hidden layers.
    """
    checked(list(shapes), "shapes", list[int], ValueError, low=1, size=4)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(shapes, shapes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return QNetwork(weights=weights, biases=biases, seed=seed)


def _check_input(net: QNetwork, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.input_dim:
        raise MocapKeyError(
            f"input of shape {x.shape} does not match D_in = {net.input_dim}")
    return x


def forward(net: QNetwork, x) -> np.ndarray:
    """Network output for one input (D,) or a batch (B, D)."""
    return _forward_cached(net, _check_input(net, x))[0]


def _forward_cached(net: QNetwork, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    activations = [x]
    h = x
    last = len(net.weights) - 1
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if li != last:
            np.maximum(h, 0.0, out=h)
            activations.append(h)
    return h, activations


def huber(pred, target):
    """Huber loss and its derivative in pred; elementwise.

    Quadratic 0.5 e^2 for |e| <= delta, linear delta(|e| - delta/2) outside,
    with delta = HUBER_DELTA.
    """
    delta = HUBER_DELTA
    e = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    ae = np.abs(e)
    small = ae <= delta
    loss = np.where(small, 0.5 * e * e, delta * (ae - 0.5 * delta))
    grad = np.where(small, e, delta * np.sign(e))
    if loss.ndim == 0:
        return float(loss), float(grad)
    return loss, grad


# Adam's moment decay rates and denominator guard, fixed for every run
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements adam_step works on at a time: two 128 KiB work arrays, not two
# copies of the largest parameter
ADAM_BLOCK = 2 ** 14


@dataclass
class AdamState:
    learning_rate: float
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    # adam_step's two work arrays of ADAM_BLOCK elements; never saved
    scratch: list[np.ndarray] = field(default_factory=list, repr=False, compare=False)

    @classmethod
    def for_network(cls, net: QNetwork, learning_rate: float) -> "AdamState":
        """Zero moments shaped like ``net``."""
        params = net.parameters()
        return cls(
            learning_rate=learning_rate,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(net: QNetwork, adam: AdamState, grads: list[np.ndarray]) -> None:
    """p -= lr (m / c1) / (sqrt(v / c2) + eps) after m = b1 m + (1 - b1) g and
    v = b2 v + (1 - b2) g g, each step rounded as written.

    Each flattened (C-contiguous) parameter is walked in blocks of
    ADAM_BLOCK elements through the two block-sized arrays of
    ``adam.scratch``. Every element meets the same operations in the same
    order, so the result does not depend on the block size."""
    net.derived.clear()
    adam.step += 1
    c1 = 1.0 - ADAM_BETA1 ** adam.step
    c2 = 1.0 - ADAM_BETA2 ** adam.step
    if not adam.scratch:
        adam.scratch = [np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)]
    for arrays in zip(net.parameters(), grads, adam.m, adam.v):
        flat = [a.reshape(-1) for a in arrays]
        for lo in range(0, flat[0].size, ADAM_BLOCK):
            p, g, m, v = (a[lo:lo + ADAM_BLOCK] for a in flat)
            s, t = (a[:p.size] for a in adam.scratch)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=s), g, out=s)
            np.multiply(np.divide(m, c1, out=s), adam.learning_rate, out=s)
            s /= np.add(np.sqrt(np.divide(v, c2, out=t), out=t), ADAM_EPS, out=t)
            p -= s


def gradients(net: QNetwork, xs, actions, targets) -> tuple[list[np.ndarray], float]:
    """Gradients of the mean Huber loss on the chosen-action outputs.

    Only the output unit named by each row's action receives loss; all
    other outputs contribute zero gradient.
    """
    xs = _check_input(net, np.atleast_2d(np.asarray(xs, dtype=np.float64)))
    actions = np.asarray(actions, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.float64)
    batch = xs.shape[0]
    if actions.shape != (batch,) or targets.shape != (batch,):
        raise MocapKeyError("actions and targets must be one value per row")
    out, activations = _forward_cached(net, xs)
    picked = out[np.arange(batch), actions]
    losses, dloss = huber(picked, targets)
    grad_out = np.zeros_like(out)
    grad_out[np.arange(batch), actions] = np.asarray(dloss) / batch

    grads: list[np.ndarray] = []
    delta_h = grad_out
    for li in range(len(net.weights) - 1, -1, -1):
        a_prev = activations[li]
        grads.append(delta_h.sum(axis=0))          # bias
        grads.append(a_prev.T @ delta_h)           # weight
        if li > 0:
            delta_h = (delta_h @ net.weights[li].T) * (activations[li] > 0.0)
    grads.reverse()
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient; aborting update")
    return grads, float(np.mean(losses))


def backward_and_step(net: QNetwork, adam: AdamState, xs, actions,
                      targets) -> tuple[QNetwork, float]:
    """One Adam update of the mean Huber loss over the batch."""
    grads, mean_loss = gradients(net, xs, actions, targets)
    adam_step(net, adam, grads)
    return net, mean_loss


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path`` that replaces it on a clean exit;
    on an error the temp file is removed and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_blocks(path, header: bytes, blocks) -> None:
    """Write ``header`` as one line, then each block as raw little-endian
    float64 in C order; atomically, through :func:`atomic_open`."""
    with atomic_open(path, "wb") as fh:
        fh.write(header + b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))   # no bytes copy


def read_header(fh) -> dict:
    """The JSON object on the rest of the current line of the binary file
    ``fh``; raises MocapKeyError naming the file when it is not one."""
    try:
        header = json.loads(fh.readline())
    except ValueError as exc:     # bad UTF-8 or bad JSON
        raise MocapKeyError(f"{fh.name}: unreadable header: {exc}") from None
    return checked(header, f"{fh.name}: header", dict, MocapKeyError)


def read_blocks(fh, shapes) -> list[np.ndarray]:
    """The float64 arrays of ``shapes``, in order, from the rest of the
    binary file ``fh`` past its header line; raises MocapKeyError naming the
    file when it holds fewer or more bytes (before any allocation) or a NaN
    or inf."""
    sizes = [8 * math.prod(shape) for shape in shapes]
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != sum(sizes):
        raise MocapKeyError(f"{fh.name}: " + (
            "truncated float64 blocks" if left < sum(sizes)
            else "trailing bytes after the last block"))
    blocks = []
    for size, shape in zip(sizes, shapes):
        block = np.empty(shape, dtype="<f8")      # read in place, not via bytes
        if fh.readinto(block) != size:            # the file shrank since the check
            raise MocapKeyError(f"{fh.name}: truncated float64 blocks")
        blocks.append(block.astype(np.float64, copy=False))
    if not all(np.isfinite(block).all() for block in blocks):
        raise MocapKeyError(f"{fh.name}: non-finite float64 value")
    return blocks


# ---------------------------------------------------------------------------
# Checkpoints: one JSON header line, then the float64 blocks of the network
# weights and biases in layer order, then the Adam m and v moments.
# ---------------------------------------------------------------------------

def checkpoint_save(net: QNetwork, adam: AdamState, path, extra: dict | None = None) -> None:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "shapes": net.shapes,
        "seed": net.seed,
        "adam": {
            "learning_rate": adam.learning_rate,
            "beta1": ADAM_BETA1,
            "beta2": ADAM_BETA2,
            "eps": ADAM_EPS,
            "step": adam.step,
        },
        "extra": extra or {},
    }
    write_blocks(path, json.dumps(header, sort_keys=True).encode("utf-8"),
                 net.parameters() + adam.m + adam.v)


def checkpoint_load(path) -> tuple[QNetwork, AdamState, dict]:
    with open(path, "rb") as fh:
        header = read_header(fh)
        checked(header.get("format_version"), f"{path}: format_version", int,
                MocapKeyError, among={CHECKPOINT_VERSION})
        at = f"{path}: malformed header: "     # what checkpoint_save writes
        shapes = checked(header.get("shapes"), at + "shapes", list[int], MocapKeyError,
                         low=1, size=4)
        seed = checked(header.get("seed", 0), at + "seed", int, MocapKeyError, low=0)
        ah = checked(header.get("adam"), at + "adam", dict, MocapKeyError)
        learning_rate = checked(ah.get("learning_rate"), at + "adam learning_rate", float,
                                MocapKeyError, above=0)
        step = checked(ah.get("step"), at + "adam step", int, MocapKeyError, low=0)
        for key, fixed in (("beta1", ADAM_BETA1), ("beta2", ADAM_BETA2), ("eps", ADAM_EPS)):
            checked(ah.get(key), f"{at}adam {key}", float, MocapKeyError, among={fixed})
        # each layer's weight and bias, for the network, Adam's m and its v
        params = [shape for a, b in zip(shapes, shapes[1:]) for shape in ((a, b), (b,))]
        blocks = read_blocks(fh, params * 3)
    k = len(params)
    net = QNetwork(weights=blocks[0:k:2], biases=blocks[1:k:2], seed=seed)
    adam = AdamState(learning_rate, step, m=blocks[k:2 * k], v=blocks[2 * k:])
    return net, adam, header.get("extra", {})
